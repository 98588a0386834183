#include "core/transient_model.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace ubik {

TransientModel::TransientModel(MissCurve curve,
                               std::uint64_t interval_accesses,
                               const CoreProfile &profile)
    : curve_(std::move(curve)),
      accesses_(static_cast<double>(
          interval_accesses ? interval_accesses : 1)),
      c_(std::max(1.0, profile.hitCyclesPerAccess)),
      m_(std::max(1.0, profile.missPenalty))
{
}

double
TransientModel::missProb(std::uint64_t lines) const
{
    if (curve_.empty())
        return 0.0;
    double p = curve_.missesAtLines(lines) / accesses_;
    return std::clamp(p, 0.0, 1.0);
}

TransientEstimate
TransientModel::upperBound(std::uint64_t s1, std::uint64_t s2) const
{
    TransientEstimate est;
    if (s2 <= s1)
        return est;
    double p1 = missProb(s1);
    double p2 = missProb(s2);
    if (p2 < kMinFillProb) {
        est.unbounded = true;
        return est;
    }
    double lines = static_cast<double>(s2 - s1);
    est.duration = lines * (c_ / p2 + m_);
    double ratio = p1 > 0 ? std::min(1.0, p2 / p1) : 1.0;
    est.lostCycles = m_ * lines * (1.0 - ratio);
    return est;
}

TransientEstimate
TransientModel::exact(std::uint64_t s1, std::uint64_t s2) const
{
    TransientEstimate est;
    if (s2 <= s1 || curve_.empty())
        return est;
    double p2 = missProb(s2);
    if (p2 < kMinFillProb) {
        est.unbounded = true;
        return est;
    }
    // Sum at curve granularity, treating p(s) constant within each
    // curve segment (the hardware only knows the sampled points).
    std::uint64_t step = curve_.linesPerPoint();
    double duration = 0;
    double lost = 0;
    std::uint64_t s = s1;
    while (s < s2) {
        std::uint64_t seg_end = std::min<std::uint64_t>(
            s2, (s / step + 1) * step);
        double lines = static_cast<double>(seg_end - s);
        double p = std::max(missProb(s), kMinFillProb);
        duration += lines * (c_ / p + m_);
        lost += m_ * lines * (1.0 - std::min(1.0, p2 / p));
        s = seg_end;
    }
    est.duration = duration;
    est.lostCycles = lost;
    return est;
}

double
TransientModel::gainRate(std::uint64_t s_small, std::uint64_t s_big) const
{
    if (s_big <= s_small)
        return 0.0;
    double p_small = missProb(s_small);
    double p_big = missProb(s_big);
    if (p_small <= p_big)
        return 0.0;
    double t_access = c_ + p_big * m_;
    return (p_small - p_big) * m_ / t_access;
}

std::uint64_t
TransientModel::solveBoost(std::uint64_t s_idle, std::uint64_t s_active,
                           std::uint64_t cap, Cycles deadline, double lost,
                           std::uint64_t step) const
{
    if (lost <= 0)
        return s_active;
    if (deadline == 0)
        return 0;
    for (std::uint64_t s = s_active + step; s <= cap; s += step) {
        TransientEstimate fill = upperBound(s_idle, s);
        if (fill.unbounded)
            return 0; // cannot fill this high; larger is worse
        if (fill.duration >= static_cast<double>(deadline))
            return 0; // transient alone eats the deadline
        double gain_time = static_cast<double>(deadline) - fill.duration;
        if (gainRate(s_active, s) * gain_time >= lost)
            return s;
    }
    return 0;
}

} // namespace ubik
