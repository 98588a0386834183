#include "core/advisor.h"

#include <algorithm>

#include "common/log.h"

namespace ubik {

namespace {

/** s_idle candidates evaluated (paper: 16), which also sets the
 *  s_boost search step: a 16th of the target. */
constexpr std::uint32_t kIdleOptions = 16;

} // namespace

AdvisorReport
advise(const AdvisorInput &in)
{
    if (in.curve.empty())
        fatal("advisor: empty miss curve");
    if (in.intervalAccesses == 0)
        fatal("advisor: intervalAccesses must be > 0");
    if (in.targetLines == 0)
        fatal("advisor: targetLines must be > 0");
    if (!in.profile.valid)
        fatal("advisor: timing profile not valid (set profile.valid "
              "after filling c/M)");

    TransientModel model(in.curve, in.intervalAccesses, in.profile);
    std::uint64_t cap = in.boostCap > 0 ? in.boostCap
                                        : in.curve.maxLines();
    cap = std::max(cap, in.targetLines);
    std::uint64_t step =
        std::max<std::uint64_t>(1, in.targetLines / kIdleOptions);

    AdvisorReport out;
    out.best.sIdle = in.targetLines;
    out.best.sBoost = in.targetLines;
    out.best.feasible = true;

    for (std::uint32_t i = 1; i <= kIdleOptions; i++) {
        std::uint64_t s_idle = static_cast<std::uint64_t>(
            static_cast<double>(in.targetLines) *
            static_cast<double>(kIdleOptions - i) /
            static_cast<double>(kIdleOptions));
        if (!out.options.empty() &&
            s_idle >= out.options.back().sIdle)
            continue; // quantization duplicate

        SizingOption opt;
        opt.sIdle = s_idle;
        opt.freedLines = in.targetLines - s_idle;

        TransientEstimate tr = model.upperBound(s_idle, in.targetLines);
        opt.transientCycles = tr.duration;
        opt.lostCycles = tr.lostCycles;
        if (!tr.unbounded) {
            std::uint64_t boost =
                model.solveBoost(s_idle, in.targetLines, cap,
                                 in.deadline, tr.lostCycles, step);
            if (boost != 0) {
                opt.sBoost = boost;
                opt.feasible = true;
            }
        }
        out.options.push_back(opt);
        if (opt.feasible) {
            out.best = opt;
            out.canDownsize = true;
        } else {
            break; // deeper idle sizes only get harder (Fig 7)
        }
    }
    return out;
}

} // namespace ubik
