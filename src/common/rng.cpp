#include "common/rng.h"

#include <algorithm>
#include <cmath>

namespace ubik {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

Rng
Rng::fork()
{
    return Rng(next());
}

Rng
Rng::jobStream(std::uint64_t base_seed, std::uint64_t job_index)
{
    // Hash base_seed and job_index through separate splitmix64 chains
    // before combining: adjacent job indices land in unrelated regions
    // of the seed space, and the Rng constructor expands the combined
    // seed through four more splitmix64 rounds. Weyl offsets keep the
    // two chains from colliding when base_seed == job_index.
    std::uint64_t a = base_seed;
    std::uint64_t b = job_index + 0x632be59bd9b4e019ull;
    std::uint64_t seed = splitmix64(a) ^ rotl(splitmix64(b), 31);
    return Rng(seed);
}

double
Rng::uniform()
{
    // 53-bit mantissa from the top bits.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    ubik_assert(n > 0);
    // Lemire's multiply-shift rejection method for unbiased bounded ints.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < n) {
        std::uint64_t t = -n % n;
        while (l < t) {
            x = next();
            m = static_cast<__uint128_t>(x) * n;
            l = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t
Rng::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    ubik_assert(lo <= hi);
    return lo + uniformInt(hi - lo + 1);
}

double
Rng::exponential(double mean)
{
    ubik_assert(mean > 0);
    double u = uniform();
    // Guard against log(0).
    if (u <= 0)
        u = 0x1.0p-53;
    return -mean * std::log(u);
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(mu + sigma * normal());
}

double
Rng::normal()
{
    // Box-Muller; one value per call is fine at our call rates.
    double u1 = uniform();
    double u2 = uniform();
    if (u1 <= 0)
        u1 = 0x1.0p-53;
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * M_PI * u2);
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

ZipfDistribution::ZipfDistribution(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    ubik_assert(n > 0);
    ubik_assert(theta > 0);
    if (theta < 0.995) {
        // Gray et al. quantile approximation: O(1) sampling with no
        // setup table; only valid for theta < 1.
        alpha_ = 1.0 / (1.0 - theta);
        zetan_ = zeta(n, theta);
        zeta2_ = zeta(2, theta);
        eta_ = (1.0 -
                std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
               (1.0 - zeta2_ / zetan_);
        rank1Cut_ = 1.0 + std::pow(0.5, theta);
        return;
    }
    // theta ~>= 1 (the approximation's parameterization breaks down):
    // build an exact CDF table and sample it through a guide table.
    // Hot-set sizes using high skew are modest, so both stay small.
    ubik_assert(n <= (1ull << 22));
    cdf_.resize(n);
    double sum = 0;
    for (std::uint64_t i = 0; i < n; i++) {
        sum += std::pow(1.0 / static_cast<double>(i + 1), theta);
        cdf_[i] = sum;
    }
    for (std::uint64_t i = 0; i < n; i++)
        cdf_[i] /= sum;
    // The last entry is sum / sum == 1, above every draw, so a walk
    // from any guide entry stops inside the table.
    ubik_assert(cdf_.back() == 1.0);
    // One pass: bucket() is monotone and the CDF is sorted, so the
    // entries' buckets are nondecreasing. guide_[b] counts the entries
    // in buckets below b; each is < every draw of bucket b, hence
    // guide_[b] <= lower_bound(u) for all of them. Draws reach bucket
    // n when u * n rounds up to n.
    guide_.resize(n + 1);
    std::uint64_t i = 0;
    for (std::uint64_t b = 0; b <= n; b++) {
        while (i < n && bucket(cdf_[i]) < b)
            i++;
        guide_[b] = static_cast<std::uint32_t>(i);
    }
}

double
ZipfDistribution::zeta(std::uint64_t n, double theta) const
{
    // Exact for small n; two-point Euler-Maclaurin style approximation
    // beyond that keeps construction O(1)-ish while staying within a
    // fraction of a percent (standard YCSB-style approximation).
    constexpr std::uint64_t kExactLimit = 1 << 20;
    double sum = 0;
    const std::uint64_t limit = std::min(n, kExactLimit);
    for (std::uint64_t i = 1; i <= limit; i++)
        sum += std::pow(1.0 / static_cast<double>(i), theta);
    if (n > kExactLimit) {
        // Integral tail approximation of sum_{kExactLimit+1}^{n} i^-theta.
        double a = static_cast<double>(kExactLimit);
        double b = static_cast<double>(n);
        sum += (std::pow(b, 1 - theta) - std::pow(a, 1 - theta)) /
               (1 - theta);
    }
    return sum;
}

std::uint64_t
ZipfDistribution::quantile(double u) const
{
    if (!cdf_.empty()) {
        // First entry >= u, i.e. std::lower_bound's index.
        ubik_assert(u >= 0.0 && u < 1.0);
        std::uint64_t i = guide_[bucket(u)];
        while (cdf_[i] < u)
            i++;
        return i;
    }
    // Gray et al. quantile approximation (as used by YCSB).
    double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < rank1Cut_)
        return 1;
    double v = static_cast<double>(n_) *
               std::pow(eta_ * u - eta_ + 1.0, alpha_);
    std::uint64_t r = static_cast<std::uint64_t>(v);
    return std::min(r, n_ - 1);
}

DiscreteDistribution::DiscreteDistribution(std::vector<double> weights)
{
    ubik_assert(!weights.empty());
    cumulative_.reserve(weights.size());
    double total = 0;
    for (double w : weights) {
        ubik_assert(w >= 0);
        total += w;
        cumulative_.push_back(total);
    }
    ubik_assert(total > 0);
    for (double &c : cumulative_)
        c /= total;
    cumulative_.back() = 1.0;
}

std::size_t
DiscreteDistribution::operator()(Rng &rng) const
{
    double u = rng.uniform();
    auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
    if (it == cumulative_.end())
        --it;
    return static_cast<std::size_t>(it - cumulative_.begin());
}

} // namespace ubik
