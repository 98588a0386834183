/**
 * @file
 * Batch application models (§6).
 *
 * The paper draws batch apps from SPEC CPU2006, classified into four
 * cache-behaviour types following Vantage's Table 2: insensitive (n),
 * cache-friendly (f), cache-fitting (t), and streaming (s). UCP,
 * Lookahead, and Ubik's cost-benefit analysis consume batch apps only
 * through their miss curves and access intensity, so each class is
 * replaced by a stochastic address-stream generator spanning the same
 * miss-curve taxonomy:
 *
 *  - insensitive: small hot set; flat near-zero curve beyond it
 *  - friendly:    large zipf-skewed set; smooth concave curve
 *  - fitting:     circular scan over a mid-size set; step curve
 *  - streaming:   sequential, no reuse; flat all-miss curve
 */

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/enum_names.h"
#include "common/rng.h"
#include "common/types.h"
#include "trace/access_trace.h"

namespace ubik {

/** The four SPEC-class behaviours (Vantage Table 2 taxonomy). */
enum class BatchClass
{
    Insensitive,
    Friendly,
    Fitting,
    Streaming,
};

/** Single-letter codes, as in mix names ("fts") and spec JSON. */
template <>
struct EnumNames<BatchClass>
{
    static constexpr const char *noun = "batch class";
    static constexpr EnumSpelling<BatchClass> spellings[] = {
        {BatchClass::Insensitive, "n"},
        {BatchClass::Friendly, "f"},
        {BatchClass::Fitting, "t"},
        {BatchClass::Streaming, "s"},
    };
};

/** Parameters for one batch app (full-scale units). */
struct BatchAppParams
{
    std::string name;
    BatchClass cls = BatchClass::Friendly;

    /** LLC accesses per thousand instructions. */
    double apki = 20.0;

    /** Working set, lines (meaning depends on class). */
    std::uint64_t wsLines = 131072;

    /** Zipf exponent (Friendly/Insensitive address skew). */
    double theta = 0.6;

    /** Memory-level parallelism factor. */
    double mlp = 2.0;

    /** Non-memory IPC on an OOO core. */
    double baseIpc = 1.5;

    /** Return a copy scaled down by `scale` (footprints only). */
    BatchAppParams scaled(double scale) const;
};

namespace batch_presets {

/**
 * Canonical parameters for a class. `variation` perturbs intensity
 * and footprint deterministically, standing in for the spread of
 * SPEC apps within one class (the paper uses 29 apps in 4 classes).
 */
BatchAppParams make(BatchClass cls, std::uint32_t variation = 0);

} // namespace batch_presets

/** Address-stream generator for one batch app instance. */
class BatchApp
{
  public:
    BatchApp(BatchAppParams params, std::uint32_t instance, Rng rng);

    const BatchAppParams &params() const { return params_; }

    /** Next line address. */
    Addr nextAddr();

    /**
     * Switch to trace-replay mode: the recorded access stream loops
     * forever, ignoring any request structure (batch apps have none).
     * Addresses are shifted by (instance << 40) — instance 0 replays
     * the captured addresses exactly, further instances stay
     * disjoint. Timing parameters (apki, mlp, baseIpc) still come
     * from params(). fatal() on a trace with no accesses.
     */
    void bindTrace(std::shared_ptr<const TraceData> trace);

    /** Whether this app replays a trace. */
    bool replaying() const { return trace_ != nullptr; }

  private:
    BatchAppParams params_;
    Rng rng_;
    /** Address skew of the classes that sample one (Insensitive,
     *  Friendly); the scan classes never build it. */
    std::optional<ZipfDistribution> zipf_;
    Addr base_;
    std::uint64_t cursor_ = 0; ///< scan/stream/replay position

    /** Replay mode (bindTrace). */
    std::shared_ptr<const TraceData> trace_;
    Addr traceSalt_ = 0; ///< per-instance address offset
};

} // namespace ubik
