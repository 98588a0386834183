#include "stats/latency_recorder.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/log.h"

namespace ubik {

std::size_t
nearestRank(double pct, std::size_t n)
{
    auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n)));
    return std::clamp<std::size_t>(rank, 1, n);
}

void
LatencyRecorder::record(Cycles latency)
{
    samples_.push_back(latency);
    sortedValid_ = false;
}

void
LatencyRecorder::merge(const LatencyRecorder &other)
{
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sortedValid_ = false;
}

namespace {

/**
 * LSD radix sort of `in` into `out`, one byte per pass. Passes run
 * only over the bytes some sample sets, and a pass whose byte is the
 * same in every sample is skipped; each pass is a stable counting
 * scatter, so the result equals std::sort's.
 */
void
radixSortInto(const std::vector<Cycles> &in, std::vector<Cycles> &out)
{
    constexpr int kBytes = sizeof(Cycles);
    const std::size_t n = in.size();
    Cycles used = 0;
    for (Cycles c : in)
        used |= c;
    int bytes = 0;
    while (bytes < kBytes && (used >> (8 * bytes)) != 0)
        bytes++;
    std::vector<std::array<std::size_t, 256>> count(
        static_cast<std::size_t>(bytes));
    for (Cycles c : in)
        for (int b = 0; b < bytes; b++)
            count[static_cast<std::size_t>(b)][(c >> (8 * b)) & 0xff]++;
    std::vector<int> passes;
    for (int b = 0; b < bytes; b++) {
        const auto &h = count[static_cast<std::size_t>(b)];
        if (h[(in[0] >> (8 * b)) & 0xff] != n)
            passes.push_back(b);
    }
    out.resize(n);
    if (passes.empty()) {
        std::copy(in.begin(), in.end(), out.begin());
        return;
    }
    // Ping-pong so that the last pass writes into `out`.
    std::vector<Cycles> tmp(passes.size() > 1 ? n : 0);
    const Cycles *src = in.data();
    for (std::size_t k = 0; k < passes.size(); k++) {
        Cycles *dst = (passes.size() - 1 - k) % 2 ? tmp.data() : out.data();
        const int shift = 8 * passes[k];
        auto &h = count[static_cast<std::size_t>(passes[k])];
        std::size_t sum = 0;
        for (std::size_t &c : h) {
            std::size_t v = c;
            c = sum;
            sum += v;
        }
        for (std::size_t i = 0; i < n; i++)
            dst[h[(src[i] >> shift) & 0xff]++] = src[i];
        src = dst;
    }
}

} // namespace

void
LatencyRecorder::ensureSorted() const
{
    if (sortedValid_)
        return;
    radixSortInto(samples_, sortedCache_);
    sortedValid_ = true;
}

double
LatencyRecorder::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0;
    for (Cycles c : samples_)
        sum += static_cast<double>(c);
    return sum / static_cast<double>(samples_.size());
}

double
LatencyRecorder::percentile(double pct) const
{
    ubik_assert(pct > 0 && pct <= 100);
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    return static_cast<double>(
        sortedCache_[nearestRank(pct, sortedCache_.size()) - 1]);
}

double
LatencyRecorder::tailMean(double pct) const
{
    ubik_assert(pct > 0 && pct <= 100);
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    auto n = sortedCache_.size();
    // The tail starts at the nearest-rank percentile sample itself —
    // the rank percentile() reads — and includes everything above it.
    std::size_t first = nearestRank(pct, n) - 1;
    double sum = 0;
    for (std::size_t i = first; i < n; i++)
        sum += static_cast<double>(sortedCache_[i]);
    return sum / static_cast<double>(n - first);
}

double
LatencyRecorder::cdf(Cycles x) const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    auto it = std::upper_bound(sortedCache_.begin(), sortedCache_.end(), x);
    return static_cast<double>(it - sortedCache_.begin()) /
           static_cast<double>(sortedCache_.size());
}

std::vector<Cycles>
LatencyRecorder::sorted() const
{
    ensureSorted();
    return sortedCache_;
}

void
LatencyRecorder::clear()
{
    samples_.clear();
    sortedCache_.clear();
    sortedValid_ = false;
}

} // namespace ubik
