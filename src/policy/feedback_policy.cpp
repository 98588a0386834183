#include "policy/feedback_policy.h"

#include <algorithm>
#include <cmath>

#include "policy/policy_util.h"

namespace ubik {

FeedbackPolicy::FeedbackPolicy(PartitionScheme &scheme,
                               std::vector<AppMonitor> &apps)
    : PartitionPolicy(scheme, apps), alloc_(apps.size(), 0),
      window_(apps.size())
{
    // Start from the StaticLC allocation: the controller adapts from
    // a safe point rather than from zero.
    const std::uint64_t total = scheme_.array().numLines();
    for (AppId a = 0; a < apps_.size(); a++)
        if (apps_[a].latencyCritical)
            alloc_[a] = linesToBuckets(apps_[a].targetLines, total);
}

void
FeedbackPolicy::onRequestComplete(AppId app, Cycles latency)
{
    window_.at(app).record(latency);
}

void
FeedbackPolicy::reconfigure(Cycles now)
{
    (void)now;
    const std::uint64_t total = scheme_.array().numLines();

    std::uint64_t lc_apps = 0;
    for (const AppMonitor &mon : apps_)
        if (mon.latencyCritical)
            lc_apps++;

    // Allocation cap mirrors Ubik's boost cap: LC apps may never
    // squeeze each other out entirely.
    const std::uint64_t cap =
        lc_apps ? kBuckets / lc_apps : kBuckets;

    std::uint64_t lc_buckets = 0;
    for (AppId a = 0; a < apps_.size(); a++) {
        AppMonitor &mon = apps_[a];
        if (!mon.latencyCritical)
            continue;

        LatencyRecorder &w = window_[a];
        if (mon.deadline > 0 && !w.empty()) {
            // Proportional step on the relative tail error, with a
            // comfort deadband so the controller does not thrash.
            double observed = w.tailMean(kTailPct);
            double target = static_cast<double>(mon.deadline);
            double error = (observed - target) / target;
            double step = 0;
            if (error > 0 || observed < kComfortFrac * target)
                step = kGain * error * static_cast<double>(kBuckets);
            double clamped = std::clamp(
                step, -static_cast<double>(kMaxStepBuckets),
                static_cast<double>(kMaxStepBuckets));
            std::int64_t next =
                static_cast<std::int64_t>(alloc_[a]) +
                static_cast<std::int64_t>(std::llround(clamped));
            alloc_[a] = static_cast<std::uint64_t>(std::clamp<std::int64_t>(
                next, 1, static_cast<std::int64_t>(cap)));
        }
        w.clear();

        scheme_.setTargetSize(partOf(a),
                              bucketsToLines(alloc_[a], total));
        lc_buckets += alloc_[a];
    }

    setBatchTargets(
        lookaheadAllocate(batchInputs(), batchBudget(lc_buckets)));
}

} // namespace ubik
