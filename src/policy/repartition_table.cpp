#include "policy/repartition_table.h"

#include <algorithm>

#include "common/log.h"

namespace ubik {

void
RepartitionTable::build(const std::vector<LookaheadInput> &inputs,
                        std::uint64_t baseline_budget,
                        std::uint64_t max_budget)
{
    ubik_assert(max_budget > 0);
    numParts_ = inputs.size();
    maxBudget_ = max_budget;
    marginal_.assign(max_budget, 0);
    misses_.assign(max_budget + 1, 0.0);
    if (numParts_ == 0)
        return;

    baseline_budget = std::min(baseline_budget, max_budget);

    auto weighted_at = [&](std::size_t i, std::uint64_t b) -> double {
        return inputs[i].missesAt(b) * inputs[i].weight;
    };

    // Anchor: Lookahead at the expected budget.
    std::vector<std::uint64_t> anchor =
        lookaheadAllocate(inputs, baseline_budget);

    // Shrink side: walking down from the anchor, repeatedly remove the
    // bucket whose loss (marginal utility) is smallest.
    {
        std::vector<std::uint64_t> cur = anchor;
        for (std::uint64_t b = baseline_budget; b > 0; b--) {
            std::size_t best = numParts_;
            double best_loss = 0.0;
            for (std::size_t i = 0; i < numParts_; i++) {
                if (cur[i] == 0)
                    continue;
                double loss = weighted_at(i, cur[i] - 1) -
                              weighted_at(i, cur[i]);
                if (best == numParts_ || loss < best_loss) {
                    best_loss = loss;
                    best = i;
                }
            }
            if (best == numParts_)
                best = 0; // all empty; degenerate
            else
                cur[best]--;
            marginal_[b - 1] = best;
        }
    }

    // Grow side: walking up from the anchor, give each bucket to the
    // partition with the largest marginal gain.
    {
        std::vector<std::uint64_t> cur = anchor;
        for (std::uint64_t b = baseline_budget; b < max_budget; b++) {
            std::size_t best = 0;
            double best_gain = -1.0;
            for (std::size_t i = 0; i < numParts_; i++) {
                double gain = weighted_at(i, cur[i]) -
                              weighted_at(i, cur[i] + 1);
                if (gain > best_gain) {
                    best_gain = gain;
                    best = i;
                }
            }
            cur[best]++;
            marginal_[b] = best;
        }
    }

    // Total-miss curve along the table's allocation path (unweighted
    // misses; Ubik's cost-benefit wants actual miss counts).
    {
        std::vector<std::uint64_t> cur(numParts_, 0);
        double total = 0.0;
        for (const LookaheadInput &in : inputs)
            total += in.missesAt(0);
        misses_[0] = total;
        for (std::uint64_t b = 0; b < max_budget; b++) {
            std::size_t p = marginal_[b];
            total -= inputs[p].missesAt(cur[p]);
            cur[p]++;
            total += inputs[p].missesAt(cur[p]);
            misses_[b + 1] = total;
        }
    }
}

std::vector<std::uint64_t>
RepartitionTable::allocationAt(std::uint64_t budget) const
{
    ubik_assert(valid());
    budget = std::min(budget, maxBudget_);
    std::vector<std::uint64_t> alloc(numParts_, 0);
    for (std::uint64_t b = 0; b < budget; b++)
        alloc[marginal_[b]]++;
    return alloc;
}

double
RepartitionTable::missesAt(std::uint64_t budget) const
{
    ubik_assert(valid());
    budget = std::min(budget, maxBudget_);
    return misses_[budget];
}

std::size_t
RepartitionTable::marginalPart(std::uint64_t b) const
{
    ubik_assert(valid());
    ubik_assert(b < maxBudget_);
    return marginal_[b];
}

} // namespace ubik
