/**
 * @file
 * Time-varying offered load for the open-loop LC request harness.
 *
 * Every sweep before this ran static load bands, but Ubik's whole
 * claim (§5.1, §6) is that strict tail SLOs survive *transitions* —
 * so this models the transients datacenter services actually see:
 * diurnal swings, flash crowds, correlated bursts across co-located
 * instances, and apps arriving/departing mid-run.
 *
 * A LoadProfile is a pure function from run position (fraction of
 * the nominal warmup+ROI span) to an arrival-rate multiplier. The
 * CMP's arrival pump divides each exponential interarrival gap by
 * the multiplier at the previous arrival's timestamp — a standard
 * thinning-free nonhomogeneous-Poisson construction that consumes
 * exactly one RNG draw per arrival, so the constant profile is
 * bit-identical to the legacy fixed-rate path and every profile is
 * deterministic per seed.
 *
 * Profiles are workload *shape*, not scale: they ride on LcConfig /
 * ScenarioSpec, serialize through the scenario JSON schema
 * ("load_profile"), and enter the persistent result-cache keys via
 * canonical().
 */

#pragma once

#include <cstdint>
#include <string>

#include "common/enum_names.h"

namespace ubik {

/** The dynamic-load shapes the scenario layer can request. */
enum class LoadProfileKind
{
    Constant,   ///< legacy fixed-rate arrivals
    Diurnal,    ///< sinusoidal swing around the nominal rate
    FlashCrowd, ///< step to multiplier x rate inside one window
    Bursts,     ///< short correlated windows at multiplier x rate
    Churn,      ///< app departs (rate 0) inside one window, returns
};

template <>
struct EnumNames<LoadProfileKind>
{
    static constexpr const char *noun = "load profile kind";
    static constexpr EnumSpelling<LoadProfileKind> spellings[] = {
        {LoadProfileKind::Constant, "constant"},
        {LoadProfileKind::Diurnal, "diurnal"},
        {LoadProfileKind::FlashCrowd, "flash-crowd"},
        {LoadProfileKind::Bursts, "bursts"},
        {LoadProfileKind::Churn, "churn"},
    };
};

/**
 * One time-varying load shape. Window positions are fractions of the
 * nominal run span (warmup+ROI requests at the nominal rate), so the
 * same profile stays meaningful across UBIK_SCALE / UBIK_REQUESTS
 * settings; past the nominal span the profile evaluates to the
 * nominal rate (diurnal keeps oscillating).
 */
struct LoadProfile
{
    LoadProfileKind kind = LoadProfileKind::Constant;

    /** Diurnal: swing fraction in (0, 1]; rate = 1 + a*sin(...). */
    double amplitude = 0.5;

    /** Diurnal: full sine periods over the nominal span. */
    double periods = 1.0;

    /** FlashCrowd/Churn: window start, span fraction in [0, 1). */
    double start = 0.4;

    /** FlashCrowd/Churn: window length; Bursts: per-burst length. */
    double duration = 0.2;

    /** FlashCrowd/Bursts: in-window arrival-rate multiple (> 1). */
    double multiplier = 3.0;

    /** Bursts: window count over the span. */
    std::uint32_t bursts = 4;

    /** Bursts: placement stream (splitmix64); co-located instances
     *  sharing the profile get the *same* windows — that is what
     *  makes the bursts correlated. */
    std::uint64_t burstSeed = 1;

    bool isConstant() const
    {
        return kind == LoadProfileKind::Constant;
    }

    /** Arrival-rate multiplier at span fraction `t` (>= 0; exactly
     *  0 only inside a Churn window). */
    double scaleAt(double t) const;

    /** Earliest span fraction >= `t` with a nonzero rate — how the
     *  arrival pump skips a Churn departure window instead of
     *  dividing by zero. Identity for every other kind. */
    double nextActiveFrac(double t) const;

    /** fatal() (naming `what`) unless the parameters are valid for
     *  the kind. */
    void validate(const char *what) const;

    /** Stable canonical string (kind plus every kind-relevant
     *  parameter, doubles as exact bit patterns): equal profiles
     *  produce equal strings and any parameter change changes the
     *  string. Part of the persistent result-cache mix keys. */
    std::string canonical() const;
};

bool operator==(const LoadProfile &a, const LoadProfile &b);
inline bool
operator!=(const LoadProfile &a, const LoadProfile &b)
{
    return !(a == b);
}

} // namespace ubik
