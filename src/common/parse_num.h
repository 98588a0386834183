/**
 * @file
 * Strict string-to-number parsing: whole-string, base-10,
 * range-checked.
 *
 * The libc strto* family silently tolerates exactly the inputs that
 * bite in configuration strings: trailing garbage ("4x" parses as 4),
 * leading whitespace, negative values wrapping through unsigned
 * casts, out-of-range values clamping to LONG_MAX and then
 * truncating through a narrowing cast ("4294967297" becoming 1
 * worker), and "nan" passing every `<` range check. Every numeric
 * environment variable (ExperimentConfig::fromEnv, JobPool), every
 * failpoint schedule and every floating-point flag (Cli) funnels
 * through these helpers, so malformed input is either rejected or
 * reported, never silently reinterpreted. Integer flags are parsed by
 * Cli and range-checked by flagInRange (common/cli.h) before any
 * unsigned cast.
 */

#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace ubik {

/**
 * Parse `s` as a non-negative base-10 integer <= `max`. Returns false
 * on null/empty input, any non-digit character (including signs,
 * whitespace, hex prefixes, and trailing garbage), or a value that
 * overflows either unsigned long long or `max`.
 */
inline bool
parseU64Strict(const char *s, std::uint64_t max, std::uint64_t &out)
{
    if (!s || !*s)
        return false;
    // strtoull itself accepts leading whitespace and a sign (negative
    // values wrap); requiring a digit first rejects both up front.
    if (*s < '0' || *s > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (errno == ERANGE || end == s || *end != '\0')
        return false;
    if (v > max)
        return false;
    out = v;
    return true;
}

/**
 * Parse all of `s` as a finite number. Returns false on
 * null/empty input, leading whitespace, trailing garbage, "nan",
 * "inf", or a value that overflows a double.
 */
inline bool
parseFiniteStrict(const char *s, double &out)
{
    if (!s || !*s || std::isspace(static_cast<unsigned char>(*s)))
        return false;
    char *end = nullptr;
    double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

} // namespace ubik
