#include "sim/scenario_gen.h"

#include <cstdio>

#include "common/rng.h"
#include "workload/batch_app.h"

namespace ubik {

namespace {

/** Generator stream namespace: distinct from every simulation seed
 *  domain so generated *scenarios* never correlate with the
 *  simulations that run them. */
constexpr std::uint64_t kGenStream = 0x5ce7a21064e7ull;

} // namespace

ScenarioSpec
generateScenario(std::uint64_t seed)
{
    // Pure function of the seed: jobStream never consumes shared
    // state, so generation order and batch size are irrelevant.
    Rng rng = Rng::jobStream(kGenStream, seed);

    ScenarioSpec s;
    s.name = "gen-" + std::to_string(seed);

    static const char *const kPresets[] = {"xapian", "masstree",
                                           "moses", "shore",
                                           "specjbb"};
    static const BatchClass kClasses[] = {
        BatchClass::Insensitive, BatchClass::Friendly,
        BatchClass::Fitting, BatchClass::Streaming};
    static const double kLoads[] = {0.2, 0.6};
    static const double kSlacks[] = {0.05, 0.10};

    ScenarioMix m;
    m.lcPreset = kPresets[rng.uniformInt(5)];
    m.load = kLoads[rng.uniformInt(2)];
    std::string codes;
    for (int i = 0; i < 3; i++) {
        m.batch[i].cls = kClasses[rng.uniformInt(4)];
        m.batch[i].variation =
            static_cast<std::uint32_t>(rng.uniformInt(4));
        codes += enumName(m.batch[i].cls);
    }
    m.batchName = codes + "-g";
    s.mixes.push_back(m);
    s.source = MixSource::Explicit;

    double slack = kSlacks[rng.uniformInt(2)];
    s.schemes = {
        {"StaticLC", SchemeKind::Vantage, ArrayKind::Z4_52,
         PolicyKind::StaticLc, 0.0},
        {"Ubik", SchemeKind::Vantage, ArrayKind::Z4_52,
         PolicyKind::Ubik, slack},
    };

    // Every kind, constant included: the guarantee is not allowed to
    // regress in the static regime either.
    LoadProfile &p = s.profile;
    switch (rng.uniformInt(5)) {
      case 0:
        p.kind = LoadProfileKind::Constant;
        break;
      case 1: {
        static const double kAmps[] = {0.25, 0.5, 0.75};
        static const double kPeriods[] = {1.0, 2.0};
        p.kind = LoadProfileKind::Diurnal;
        p.amplitude = kAmps[rng.uniformInt(3)];
        p.periods = kPeriods[rng.uniformInt(2)];
        break;
      }
      case 2: {
        static const double kStarts[] = {0.2, 0.4, 0.6};
        static const double kDurs[] = {0.1, 0.2, 0.3};
        static const double kMults[] = {2.0, 3.0, 4.0};
        p.kind = LoadProfileKind::FlashCrowd;
        p.start = kStarts[rng.uniformInt(3)];
        p.duration = kDurs[rng.uniformInt(3)];
        p.multiplier = kMults[rng.uniformInt(3)];
        break;
      }
      case 3: {
        static const double kDurs[] = {0.05, 0.1};
        static const double kMults[] = {2.0, 4.0};
        p.kind = LoadProfileKind::Bursts;
        p.bursts = static_cast<std::uint32_t>(
            2u << rng.uniformInt(3)); // 2, 4, or 8
        p.duration = kDurs[rng.uniformInt(2)];
        p.multiplier = kMults[rng.uniformInt(2)];
        p.burstSeed = rng.uniformInt(1000);
        break;
      }
      case 4: {
        static const double kStarts[] = {0.3, 0.5};
        static const double kDurs[] = {0.2, 0.4};
        p.kind = LoadProfileKind::Churn;
        p.start = kStarts[rng.uniformInt(2)];
        p.duration = kDurs[rng.uniformInt(2)];
        break;
      }
    }
    p.validate(s.name.c_str());

    char title[160];
    std::snprintf(title, sizeof(title),
                  "Generated scenario (seed %llu): %s@%g vs %s "
                  "batch, %s load, Ubik slack %g%%",
                  static_cast<unsigned long long>(seed),
                  m.lcPreset.c_str(), m.load, codes.c_str(),
                  enumName(p.kind), slack * 100);
    s.title = title;
    s.seeds = 1;
    s.reports = {{ReportKind::Averages, "gen", LoadBand::All}};
    return s;
}

} // namespace ubik
