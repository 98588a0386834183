#include "workload/service_distribution.h"

#include <cmath>

#include "common/hex.h"
#include "common/log.h"

namespace ubik {

ServiceDistribution
ServiceDistribution::constant(double instr)
{
    ubik_assert(instr > 0);
    ServiceDistribution d;
    d.kind_ = Kind::Constant;
    d.mean_ = instr;
    return d;
}

ServiceDistribution
ServiceDistribution::lognormal(double mean_instr, double sigma)
{
    ubik_assert(mean_instr > 0);
    ubik_assert(sigma >= 0);
    ServiceDistribution d;
    d.kind_ = Kind::Lognormal;
    d.mean_ = mean_instr;
    d.sigma_ = sigma;
    // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2)
    d.mu_ = std::log(mean_instr) - sigma * sigma / 2.0;
    return d;
}

ServiceDistribution
ServiceDistribution::multimodal(std::vector<WorkMode> modes)
{
    ubik_assert(!modes.empty());
    ServiceDistribution d;
    d.kind_ = Kind::Multimodal;
    double wsum = 0, msum = 0;
    std::vector<double> weights;
    for (const auto &m : modes) {
        ubik_assert(m.weight > 0 && m.meanInstr > 0);
        ubik_assert(m.jitterFrac >= 0 && m.jitterFrac < 1);
        wsum += m.weight;
        msum += m.weight * m.meanInstr;
        weights.push_back(m.weight);
    }
    d.mean_ = msum / wsum;
    d.modes_ = std::move(modes);
    d.pick_.emplace(std::move(weights));
    return d;
}

double
ServiceDistribution::sample(Rng &rng) const
{
    double v = 0;
    switch (kind_) {
      case Kind::Constant:
        v = mean_;
        break;
      case Kind::Lognormal:
        v = std::exp(mu_ + sigma_ * rng.normal());
        break;
      case Kind::Multimodal: {
        const WorkMode &m = modes_[(*pick_)(rng)];
        v = m.meanInstr *
            (1.0 + rng.uniform(-m.jitterFrac, m.jitterFrac));
        break;
      }
    }
    return v < 1000.0 ? 1000.0 : v;
}

std::string
ServiceDistribution::canonical() const
{
    // Doubles as bit patterns: canonical and lossless, like the
    // result cache's own key encoding.
    const char *kind = kind_ == Kind::Constant     ? "const"
                       : kind_ == Kind::Lognormal ? "logn"
                                                   : "multi";
    std::string out = kind;
    for (double d : {mean_, mu_, sigma_}) {
        out += ':';
        appendHex64(out, doubleBits(d));
    }
    for (const auto &m : modes_) {
        out += ":(";
        appendHex64(out, doubleBits(m.weight));
        out += ',';
        appendHex64(out, doubleBits(m.meanInstr));
        out += ',';
        appendHex64(out, doubleBits(m.jitterFrac));
        out += ')';
    }
    return out;
}

void
ServiceDistribution::scale(double factor)
{
    ubik_assert(factor > 0);
    mean_ *= factor;
    if (kind_ == Kind::Lognormal)
        mu_ += std::log(factor);
    for (auto &m : modes_)
        m.meanInstr *= factor;
}

} // namespace ubik
