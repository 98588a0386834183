/**
 * @file
 * Deterministic fault injection for the I/O layers (failpoints).
 *
 * A failpoint is a named site compiled into the binary permanently —
 * `failpointEval("cache.append")` costs one relaxed atomic load and a
 * predictable branch while disarmed, so production paths keep their
 * sites forever. A schedule (from the `--failpoints` flag of ubik_run
 * and ubik_serve, or failpointConfigure()) arms selected sites with
 * an action and a trigger:
 *
 *   cache.append=short_write@3;claim.create=err:EIO@p0.05,seed7;
 *   claim.heartbeat=hang:2s@1
 *
 * Grammar, per `;`-separated entry:
 *
 *   <site>=<action>@<trigger>[,seed<k>]
 *
 *   action  := err[:<errno-name-or-number>]   simulated I/O error
 *            | short_write[:<bytes>]          partial write, retryable
 *            | torn[:<bytes>]                 partial write, then the
 *                                             writer "crashes" (no
 *                                             retry; tests torn tails)
 *            | hang:<seconds>s                sleep at the site
 *   trigger := <n>        fire on exactly the n-th evaluation (1-based)
 *            | <n>+       fire on the n-th and every later evaluation
 *            | *          fire on every evaluation
 *            | p<frac>    fire each evaluation with probability <frac>,
 *                         drawn from a seeded Rng stream — replayable
 *
 * Sites are the fixed set compiled into the binary (the table in
 * failpoint.cpp); a schedule naming any other site is rejected, so a
 * typo cannot arm nothing and pass as a fault-free chaos run.
 * `random:<seed>` expands to a seeded schedule over the site table
 * (the nightly chaos loop uses this; the expanded schedule is
 * available via failpointScheduleString() for replay).
 *
 * Everything is deterministic given the schedule string: probability
 * triggers draw from Rng::jobStream(seed, hash(site)), and counters
 * are per-site. Evaluation order across racing threads is the only
 * nondeterminism, which is exactly the nondeterminism of real faults.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace ubik {

/** What a fired failpoint instructs its site to do. */
struct FailpointHit
{
    enum class Kind
    {
        None,       ///< proceed normally
        Err,        ///< fail with errno `err`
        ShortWrite, ///< write only `arg` bytes, then report short
        Torn,       ///< write only `arg` bytes, then abandon (crash)
        Hang,       ///< the sleep already happened; proceed normally
    };

    Kind kind = Kind::None;
    int err = 0;            ///< errno value for Kind::Err
    std::uint64_t arg = 0;  ///< byte count for ShortWrite / Torn
    double hangSec = 0;     ///< duration slept for Kind::Hang

    explicit operator bool() const { return kind != Kind::None; }
};

namespace failpoint_detail {

/** Whether any site is armed; false until a schedule is configured. */
extern std::atomic<bool> g_armed;

FailpointHit evalSlow(const char *site);

} // namespace failpoint_detail

/**
 * Evaluate the named fault site. The common (disarmed) case is one
 * relaxed atomic load and an always-taken branch; the slow path is
 * only entered while a schedule is armed.
 */
inline FailpointHit
failpointEval(const char *site)
{
    if (!failpoint_detail::g_armed.load(std::memory_order_relaxed))
        return FailpointHit{};
    return failpoint_detail::evalSlow(site);
}

/**
 * Replace the active schedule. An empty string disarms every site.
 * `random:<seed>` expands to a seeded schedule over the site table.
 * Malformed schedules, and entries naming an unknown site, are a
 * configuration error: fatal() with the offending entry. Resets all
 * per-site counters.
 */
void failpointConfigure(const std::string &schedule);

/** Disarm everything and clear counters (tests). */
void failpointReset();

/** True when any site is armed. */
bool failpointsArmed();

/**
 * Canonical form of the active schedule (random: schedules come back
 * expanded, so a failing chaos run is replayable verbatim). Numbers
 * print in shortest round-trip form: configuring the echo arms the
 * same schedule, which echoes the same text.
 */
std::string failpointScheduleString();

/** Per-site counters since the schedule was configured. */
struct FailpointSiteStats
{
    std::string site;
    std::uint64_t evals = 0; ///< times the site was evaluated
    std::uint64_t fires = 0; ///< times it returned a fault
};

std::vector<FailpointSiteStats> failpointStats();

/** Print `[failpoints]` lines for every armed site (run epilogues). */
void failpointReport(std::FILE *out);

} // namespace ubik
