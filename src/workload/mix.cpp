#include "workload/mix.h"

#include "common/log.h"
#include "common/rng.h"

namespace ubik {

std::vector<std::array<BatchClass, 3>>
batchClassCombos()
{
    const BatchClass cls[4] = {
        BatchClass::Insensitive,
        BatchClass::Friendly,
        BatchClass::Fitting,
        BatchClass::Streaming,
    };
    std::vector<std::array<BatchClass, 3>> combos;
    for (int i = 0; i < 4; i++)
        for (int j = i; j < 4; j++)
            for (int k = j; k < 4; k++)
                combos.push_back({cls[i], cls[j], cls[k]});
    ubik_assert(combos.size() == 20);
    return combos;
}

std::vector<BatchMix>
buildBatchMixes(std::uint32_t per_combo, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<BatchMix> mixes;
    for (const auto &combo : batchClassCombos()) {
        for (std::uint32_t m = 0; m < per_combo; m++) {
            BatchMix mix;
            mix.name = std::string() + enumName(combo[0]) +
                       enumName(combo[1]) + enumName(combo[2]) + "-" +
                       std::to_string(m);
            for (int i = 0; i < 3; i++) {
                std::uint32_t variation =
                    static_cast<std::uint32_t>(rng.uniformInt(25));
                mix.apps[i] = batch_presets::make(combo[i], variation);
            }
            mixes.push_back(std::move(mix));
        }
    }
    return mixes;
}

std::vector<LcConfig>
buildLcConfigs()
{
    std::vector<LcConfig> cfgs;
    for (const auto &app : lc_presets::all()) {
        cfgs.push_back({app, 0.2});
        cfgs.push_back({app, 0.6});
    }
    return cfgs;
}

std::vector<MixSpec>
buildMixes(std::uint32_t per_combo, std::uint64_t seed,
           std::uint32_t max_batch_mixes)
{
    auto batch = buildBatchMixes(per_combo, seed);
    if (max_batch_mixes > 0 && batch.size() > max_batch_mixes) {
        // Stratified subset: a coprime stride walks the combo list in
        // a scattered order so even tiny subsets span all four
        // classes (a plain stride would visit the lexicographically
        // early, n/f-heavy combos only).
        std::vector<BatchMix> subset;
        std::size_t n = batch.size();
        for (std::uint32_t i = 0; i < max_batch_mixes; i++)
            subset.push_back(batch[(5 + 17ull * i) % n]);
        batch = std::move(subset);
    }
    std::vector<MixSpec> mixes;
    for (const auto &lc : buildLcConfigs()) {
        for (const auto &bm : batch) {
            MixSpec m;
            m.name = lc.app.name +
                     (isLowLoad(lc.load) ? "-lo/" : "-hi/") + bm.name;
            m.lc = lc;
            m.batch = bm;
            mixes.push_back(std::move(m));
        }
    }
    return mixes;
}

std::vector<MixSpec>
cacheHungryMixes()
{
    const std::vector<std::array<BatchClass, 3>> combos = {
        {BatchClass::Friendly, BatchClass::Friendly,
         BatchClass::Streaming},
        {BatchClass::Friendly, BatchClass::Fitting,
         BatchClass::Fitting},
    };
    std::vector<MixSpec> out;
    for (const LcConfig &lc : buildLcConfigs()) {
        std::uint32_t v = 0;
        for (const auto &combo : combos) {
            MixSpec m;
            m.lc = lc;
            m.batch.name = std::string() + enumName(combo[0]) +
                           enumName(combo[1]) + enumName(combo[2]);
            for (std::size_t i = 0; i < 3; i++)
                m.batch.apps[i] = batch_presets::make(combo[i], v + 1);
            m.name = lc.app.name +
                     (isLowLoad(lc.load) ? "-lo" : "-hi") + "/" +
                     m.batch.name;
            v++;
            out.push_back(std::move(m));
        }
    }
    return out;
}

} // namespace ubik
