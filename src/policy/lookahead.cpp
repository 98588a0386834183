#include "policy/lookahead.h"

#include <algorithm>

namespace ubik {

std::vector<std::uint64_t>
lookaheadAllocate(const std::vector<LookaheadInput> &inputs,
                  std::uint64_t budget)
{
    const std::size_t n = inputs.size();
    std::vector<std::uint64_t> alloc(n, 0);
    if (n == 0)
        return alloc;

    std::uint64_t remaining = budget;

    // Honor minimum allocations first.
    for (std::size_t i = 0; i < n; i++) {
        std::uint64_t min_b = std::min<std::uint64_t>(
            inputs[i].minBuckets, remaining);
        alloc[i] = min_b;
        remaining -= min_b;
    }

    while (remaining > 0) {
        // For each partition, find the extension with max marginal
        // utility per bucket.
        double best_mu = 0.0;
        std::size_t best_part = n;
        std::uint64_t best_ext = 0;
        for (std::size_t i = 0; i < n; i++) {
            const LookaheadInput &in = inputs[i];
            std::uint64_t cur = alloc[i];
            std::uint64_t cap = in.curve.empty() ? cur : in.curve.size() - 1;
            if (cap <= cur)
                continue;
            std::uint64_t max_ext = std::min<std::uint64_t>(
                cap - cur, remaining);
            double base = in.missesAt(cur);
            for (std::uint64_t ext = 1; ext <= max_ext; ext++) {
                double saved = (base - in.missesAt(cur + ext)) *
                               in.weight;
                double mu = saved / static_cast<double>(ext);
                if (mu > best_mu) {
                    best_mu = mu;
                    best_part = i;
                    best_ext = ext;
                }
            }
        }
        if (best_part == n || best_mu <= 0.0)
            break; // no remaining utility anywhere
        alloc[best_part] += best_ext;
        remaining -= best_ext;
    }

    // Utility exhausted: dump the remainder on the partition with the
    // most room, the smallest (keeps the cache fully allocated, which
    // is what hardware partitioning requires).
    *std::min_element(alloc.begin(), alloc.end()) += remaining;
    return alloc;
}

} // namespace ubik
