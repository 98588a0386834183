/**
 * @file
 * ubik_gen: emit seeded random scenario specs (sim/scenario_gen.h)
 * as ubik_run-compatible JSON.
 *
 *   # One spec to stdout
 *   ubik_gen --seed 42
 *
 *   # A batch of spec files, gen-<seed>.json each
 *   ubik_gen --seed 1 --count 200 --out-dir specs/
 *
 *   # Replay any of them standalone
 *   ubik_run --spec specs/gen-42.json
 *
 * Generation is pure in the seed: the same seed always emits the
 * same spec, independent of batch size or order, so a seed number in
 * a CI log or a property-test failure is enough to reproduce the
 * exact scenario. CI pipes a fixed batch through `ubik_run --spec`
 * and the SLO property suite sweeps the same specs in-process
 * (tests/integration/slo_property_test.cpp).
 */

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/cli.h"
#include "common/log.h"
#include "sim/scenario.h"
#include "sim/scenario_gen.h"

using namespace ubik;

int
main(int argc, char **argv)
{
    Cli cli("ubik_gen",
            "emit seeded random scenario specs as ubik_run JSON");
    auto &seed = cli.flag("seed", static_cast<std::int64_t>(1),
                          "first generator seed");
    auto &count = cli.flag("count", static_cast<std::int64_t>(1),
                           "number of consecutive seeds to emit");
    auto &out_dir =
        cli.flag("out-dir", "",
                 "write one gen-<seed>.json per seed into this "
                 "directory (default: concatenate to stdout)");
    cli.parse(argc, argv);

    // The last seed, first + count - 1, must not pass INT64_MAX.
    const std::uint64_t first = flagInRange(seed, 0, INT64_MAX);
    const std::uint64_t n = flagInRange(count, 1, INT64_MAX - first + 1);

    if (!out_dir.value.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(out_dir.value, ec);
        if (ec)
            fatal("cannot create %s: %s", out_dir.value.c_str(),
                  ec.message().c_str());
    }

    for (std::uint64_t s = first; s < first + n; s++) {
        std::string json = scenarioCanonicalJson(generateScenario(s));
        if (out_dir.value.empty()) {
            std::printf("%s\n", json.c_str());
            continue;
        }
        std::string path =
            out_dir.value + "/gen-" + std::to_string(s) + ".json";
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            fatal("cannot write %s", path.c_str());
        std::fprintf(f, "%s\n", json.c_str());
        std::fclose(f);
    }
    return 0;
}
