/**
 * @file
 * Fixed-width lower-case hex text for 64-bit values, and doubles as
 * their bit patterns.
 *
 * This is the canonical encoding of result-cache keys and records
 * (sim/result_cache.h), claim file names (sim/claim_store.h) and the
 * canonical() strings of service distributions and load profiles, so
 * its output is part of on-disk formats: 16 digits, '0'-padded,
 * "0123456789abcdef". Table-driven both ways; no libc formatting.
 */

#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace ubik {

/** Write `v` as 16 hex digits at `p` (no terminator). */
inline void
writeHex64(char *p, std::uint64_t v)
{
    static constexpr char kDigits[] = "0123456789abcdef";
    for (int i = 15; i >= 0; i--) {
        p[i] = kDigits[v & 15];
        v >>= 4;
    }
}

inline void
appendHex64(std::string &out, std::uint64_t v)
{
    char buf[16];
    writeHex64(buf, v);
    out.append(buf, sizeof buf);
}

inline std::string
hex64(std::uint64_t v)
{
    std::string out;
    appendHex64(out, v);
    return out;
}

inline std::uint64_t
doubleBits(double d)
{
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

/** Exact bit pattern: the only double encoding that round-trips. */
inline std::string
hexDouble(double d)
{
    return hex64(doubleBits(d));
}

/** Value of a hex digit (either case), or -1. */
inline int
hexDigitValue(char c)
{
    static constexpr std::array<signed char, 256> kValue = [] {
        std::array<signed char, 256> t{};
        for (auto &v : t)
            v = -1;
        for (int i = 0; i < 10; i++)
            t['0' + i] = static_cast<signed char>(i);
        for (int i = 0; i < 6; i++) {
            t['a' + i] = static_cast<signed char>(10 + i);
            t['A' + i] = static_cast<signed char>(10 + i);
        }
        return t;
    }();
    return kValue[static_cast<unsigned char>(c)];
}

/** Parse exactly 16 hex digits (no sign, space or prefix). */
inline bool
parseHex64(std::string_view s, std::uint64_t &out)
{
    if (s.size() != 16)
        return false;
    std::uint64_t v = 0;
    for (char c : s) {
        int d = hexDigitValue(c);
        if (d < 0)
            return false;
        v = v << 4 | static_cast<std::uint64_t>(d);
    }
    out = v;
    return true;
}

inline bool
parseHexDouble(std::string_view s, double &out)
{
    std::uint64_t u;
    if (!parseHex64(s, u))
        return false;
    std::memcpy(&out, &u, sizeof(out));
    return true;
}

} // namespace ubik
