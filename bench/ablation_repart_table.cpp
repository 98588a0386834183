/**
 * @file
 * Ablation for Fig 8: how much batch-miss quality the greedy
 * repartitioning table gives up versus running full Lookahead at
 * every budget (the expensive alternative it replaces), across
 * anchor placements and batch-mix shapes.
 */

#include <cstdio>

#include "policy/lookahead.h"
#include "policy/repartition_table.h"
#include "sim/experiment.h"
#include "workload/batch_app.h"
#include "mon/umon.h"
#include "common/rng.h"

using namespace ubik;

namespace {

/** Synthesize a miss curve by running a batch generator through a
 *  UMON (the same signal the runtime would see). */
LookaheadInput
curveOf(BatchClass cls, std::uint32_t variation, std::uint64_t llc)
{
    auto params = batch_presets::make(cls, variation).scaled(8.0);
    BatchApp app(params, variation, Rng(variation + 1));
    Umon umon(llc, 32, 32, variation * 31 + 7);
    for (int i = 0; i < 400000; i++)
        umon.access(app.nextAddr());
    LookaheadInput in;
    in.curve = umon.missCurve(257).values();
    in.minBuckets = 1;
    return in;
}

} // namespace

int
main()
{
    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    cfg.printHeader("Ablation (Fig 8): repartitioning table vs full "
                    "Lookahead at every budget");

    const std::uint64_t llc = cfg.llcLines();
    struct Mix
    {
        const char *name;
        BatchClass a, b, c;
    };
    for (Mix mix : {Mix{"nft", BatchClass::Insensitive,
                        BatchClass::Friendly, BatchClass::Fitting},
                    Mix{"ffs", BatchClass::Friendly,
                        BatchClass::Friendly, BatchClass::Streaming},
                    Mix{"ttf", BatchClass::Fitting,
                        BatchClass::Fitting, BatchClass::Friendly}}) {
        std::vector<LookaheadInput> inputs = {
            curveOf(mix.a, 3, llc), curveOf(mix.b, 9, llc),
            curveOf(mix.c, 17, llc)};

        auto misses_of = [&](const std::vector<std::uint64_t> &alloc) {
            double total = 0;
            for (std::size_t i = 0; i < inputs.size(); i++) {
                const auto &c = inputs[i].curve;
                std::uint64_t b =
                    std::min<std::uint64_t>(alloc[i], c.size() - 1);
                total += c[b];
            }
            return total;
        };

        for (std::uint64_t anchor : {64ull, 128ull, 192ull}) {
            RepartitionTable table;
            table.build(inputs, anchor, 256);
            double worst = 0, sum = 0, near_sum = 0;
            int n = 0, near_n = 0;
            for (std::uint64_t budget = 8; budget <= 256;
                 budget += 8) {
                double greedy =
                    misses_of(table.allocationAt(budget));
                double optimal =
                    misses_of(lookaheadAllocate(inputs, budget));
                double rel =
                    optimal > 0 ? (greedy - optimal) / optimal : 0;
                worst = std::max(worst, rel);
                sum += rel;
                n++;
                // The regime the paper argues matters: budgets close
                // to the anchor (batch space is near its average).
                if (budget + 32 >= anchor && budget <= anchor + 32) {
                    near_sum += rel;
                    near_n++;
                }
            }
            std::printf("[fig8] mix=%s anchor=%3llu: excess misses "
                        "vs Lookahead: near-anchor avg %5.2f%%, "
                        "global avg %5.2f%%, worst %6.2f%% "
                        "(far-from-anchor, non-convex curves)\n",
                        mix.name,
                        static_cast<unsigned long long>(anchor),
                        near_n ? 100.0 * near_sum / near_n : 0.0,
                        100.0 * sum / n, 100.0 * worst);
        }
    }

    std::printf("\nExpected shape (paper §5.1.2): the greedy table "
                "tracks Lookahead closely near the anchor and stays "
                "within a few percent overall — 'it works well in "
                "practice because the space available to batch apps "
                "is often close to the average'.\n");
    return 0;
}
