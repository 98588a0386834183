/**
 * @file
 * Tests for the minimal JSON reader/writer: value model, lossless
 * round-trips (including bit-exact doubles), strict-grammar rejects
 * over a fuzz-ish corpus of malformed inputs (truncations, bad
 * escapes, depth overflow), and writer determinism.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "common/json.h"

namespace ubik {
namespace {

Json
parseOk(const std::string &text)
{
    Json out;
    std::string err;
    EXPECT_TRUE(Json::parse(text, out, err))
        << "input: " << text << " error: " << err;
    return out;
}

std::string
parseErr(const std::string &text)
{
    Json out;
    std::string err;
    EXPECT_FALSE(Json::parse(text, out, err)) << "input: " << text;
    EXPECT_FALSE(err.empty());
    return err;
}

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(parseOk("null").isNull());
    EXPECT_TRUE(parseOk("true").boolean());
    EXPECT_FALSE(parseOk("false").boolean());
    EXPECT_DOUBLE_EQ(parseOk("42").number(), 42.0);
    EXPECT_DOUBLE_EQ(parseOk("-0.5e2").number(), -50.0);
    EXPECT_EQ(parseOk("\"hi\\n\\\"there\\\"\"").str(),
              "hi\n\"there\"");
    EXPECT_EQ(parseOk("  \"pad\"  ").str(), "pad");
}

TEST(Json, ParsesContainersAndPreservesOrder)
{
    Json v = parseOk("{\"b\": [1, 2, {\"x\": null}], \"a\": true}");
    ASSERT_TRUE(v.isObject());
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v.members()[0].first, "b");
    EXPECT_EQ(v.members()[1].first, "a");
    const Json *b = v.find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(b->size(), 3u);
    EXPECT_DOUBLE_EQ(b->at(1).number(), 2.0);
    EXPECT_TRUE(b->at(2).find("x")->isNull());
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, UnicodeEscapesDecodeToUtf8)
{
    EXPECT_EQ(parseOk("\"\\u0041\"").str(), "A");
    EXPECT_EQ(parseOk("\"\\u00e9\"").str(), "\xc3\xa9");     // é
    EXPECT_EQ(parseOk("\"\\u20ac\"").str(), "\xe2\x82\xac"); // €
    // Surrogate pair: U+1F600.
    EXPECT_EQ(parseOk("\"\\ud83d\\ude00\"").str(),
              "\xf0\x9f\x98\x80");
}

TEST(Json, DumpParseRoundTripsStructurally)
{
    Json obj = Json::object();
    obj.set("s", "line1\nline2\ttab \"quoted\" back\\slash");
    obj.set("i", 123456789);
    obj.set("d", 0.1);
    obj.set("neg", -1.5e-300);
    obj.set("b", true);
    obj.set("n", Json());
    Json arr = Json::array();
    arr.push(1).push("two").push(Json::object());
    obj.set("arr", std::move(arr));

    for (bool pretty : {false, true}) {
        Json back = parseOk(obj.dump(pretty));
        EXPECT_EQ(back, obj);
        // Canonical: dumping the reparse reproduces the bytes.
        EXPECT_EQ(back.dump(pretty), obj.dump(pretty));
    }
}

TEST(Json, DoublesRoundTripBitExactly)
{
    const double cases[] = {
        0.0,
        1.0 / 3.0,
        0.1,
        1e-310, // subnormal
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::epsilon(),
        9007199254740991.0, // 2^53 - 1: still integer-formatted
        9007199254740994.0, // > 2^53: scientific
        -123456.789012345678,
    };
    for (double d : cases) {
        Json v(d);
        double back = parseOk(v.dump()).number();
        std::uint64_t a, b;
        std::memcpy(&a, &d, sizeof(a));
        std::memcpy(&b, &back, sizeof(b));
        EXPECT_EQ(a, b) << "value " << d << " dumped as " << v.dump();
    }
    // Integral doubles print as integers (diff-friendly).
    EXPECT_EQ(Json(4.0).dump(), "4");
    EXPECT_EQ(Json(-17.0).dump(), "-17");
    EXPECT_EQ(jsonNumberText(1048576.0), "1048576");
}

/** Reference for the writer's number text, in libc terms: integers
 *  below 2^53 through "%lld", everything else the shortest of
 *  "%.15g"/"%.16g"/"%.17g" that strtod() parses back bit-exact.
 *  jsonNumberText() must match it byte for byte. */
std::string
referenceNumberText(double d)
{
    char buf[40];
    if (d == std::floor(d) && std::fabs(d) < 9007199254740992.0) {
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
        return buf;
    }
    for (int prec = 15; prec <= 17; prec++) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, d);
        if (std::strtod(buf, nullptr) == d)
            return buf;
    }
    return "%.17g failed to round-trip";
}

std::uint64_t
bitsOf(double d)
{
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

/** Counts values whose text differs from the reference (reporting
 *  the first few). */
struct NumberTextChecker
{
    std::size_t checked = 0;
    std::size_t mismatches = 0;

    void operator()(double d)
    {
        if (!std::isfinite(d))
            return;
        checked++;
        std::string want = referenceNumberText(d);
        std::string got = jsonNumberText(d);
        if (got != want && mismatches++ < 10)
            ADD_FAILURE() << std::hexfloat << d << ": wrote " << got
                          << ", reference " << want;
    }
};

TEST(JsonNumberText, MatchesPrintfReferenceOnSeededDoubles)
{
    std::mt19937_64 rng(0x5eed2026);
    NumberTextChecker check;
    for (int i = 0; i < 600000; i++) {
        std::uint64_t u = rng();
        double d;
        std::memcpy(&d, &u, sizeof(d));
        check(d);
    }
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_real_distribution<double> wide(-1e9, 1e9);
    std::uniform_real_distribution<double> cycles(0.0, 1e12);
    for (int i = 0; i < 150000; i++) {
        check(unit(rng));
        check(wide(rng));
        check(cycles(rng));
        // Short decimals (a spec's 0.35, a load's 0.2) and ratios.
        check(static_cast<double>(rng() % 100000) / 1000.0);
    }
    EXPECT_GE(check.checked, 1000000u);
    EXPECT_EQ(check.mismatches, 0u);
}

TEST(JsonNumberText, MatchesPrintfReferenceOnEdgeCases)
{
    NumberTextChecker check;
    const double lim[] = {0.0,
                          -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          1e-310,
                          std::numeric_limits<double>::min() -
                              std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::epsilon(),
                          9007199254740991.0,  // 2^53 - 1
                          9007199254740992.0,  // 2^53
                          9007199254740994.0,  // 2^53 + 2
                          1.0 / 3.0,           // 16 digits
                          0.1 + 0.2,           // 17 digits
                          0.1};                // 15 digits
    for (double d : lim) {
        check(d);
        check(-d);
    }
    for (double p = 1e15; p <= 1e23; p *= 10) {
        check(p);
        check(std::nextafter(p, 0.0));
        check(std::nextafter(p, 1e300));
    }
    // Every power of two and its neighbours: next to a power of two
    // the rounding interval is lopsided, where the shortest digit
    // count alone picks one digit too few.
    for (int e = -1074; e <= 1023; e++) {
        double d = std::ldexp(1.0, e);
        for (double v : {d, std::nextafter(d, 0.0),
                         std::nextafter(
                             d, std::numeric_limits<double>::infinity())}) {
            check(v);
            check(-v);
        }
    }
    EXPECT_EQ(check.mismatches, 0u);
    EXPECT_EQ(jsonNumberText(1.0 / 3.0), "0.3333333333333333");
    EXPECT_EQ(jsonNumberText(0.1 + 0.2), "0.30000000000000004");
    EXPECT_EQ(jsonNumberText(0.1), "0.1");
    EXPECT_EQ(jsonNumberText(-0.0), "0");
    EXPECT_EQ(jsonNumberText(9007199254740992.0), "9007199254740992");
    EXPECT_EQ(jsonNumberText(1e23), "1e+23");
    EXPECT_EQ(jsonNumberText(std::ldexp(1.0, -1017)),
              "7.1202363472230444e-307");
}

TEST(JsonNumberText, ParserMatchesStrtodOnSeededText)
{
    // Texts of every precision the writer (and hand-written specs)
    // produce; the parser must read each as strtod() does.
    std::mt19937_64 rng(0x9a25e);
    std::size_t mismatches = 0;
    for (int i = 0; i < 200000; i++) {
        std::uint64_t u = rng();
        double d;
        std::memcpy(&d, &u, sizeof(d));
        if (!std::isfinite(d))
            continue;
        char text[40];
        std::snprintf(text, sizeof text, "%.*g",
                      1 + static_cast<int>(rng() % 17), d);
        double want = std::strtod(text, nullptr);
        Json out;
        std::string err;
        bool ok = Json::parse(text, out, err);
        if (!std::isfinite(want)) {
            EXPECT_FALSE(ok) << text;
            continue;
        }
        if ((!ok || bitsOf(out.number()) != bitsOf(want)) &&
            mismatches++ < 10)
            ADD_FAILURE() << text << ": " << err;
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(JsonNumberText, ParserRangeEdges)
{
    parseErr("1e999");
    parseErr("-1e999");
    parseErr("[1.7976931348623159e308]");
    // Underflow keeps its sign: +0.0 and -0.0.
    double pos = parseOk("1e-999").number();
    double neg = parseOk("-1e-999").number();
    EXPECT_EQ(pos, 0.0);
    EXPECT_FALSE(std::signbit(pos));
    EXPECT_EQ(neg, 0.0);
    EXPECT_TRUE(std::signbit(neg));
    EXPECT_EQ(bitsOf(parseOk("4.9e-324").number()),
              bitsOf(std::numeric_limits<double>::denorm_min()));
    EXPECT_EQ(bitsOf(parseOk("2.4e-324").number()), bitsOf(0.0));
    EXPECT_EQ(parseOk("1.7976931348623157e308").number(),
              std::numeric_limits<double>::max());
    EXPECT_EQ(bitsOf(parseOk("-0").number()), bitsOf(-0.0));
}

TEST(Json, EqualityIgnoresObjectOrderButNotContent)
{
    Json a = parseOk("{\"x\": 1, \"y\": [true]}");
    Json b = parseOk("{\"y\": [true], \"x\": 1}");
    EXPECT_EQ(a, b);
    Json c = parseOk("{\"x\": 1, \"y\": [false]}");
    EXPECT_NE(a, c);
    EXPECT_NE(parseOk("[1,2]"), parseOk("[2,1]"));
    EXPECT_EQ(parseOk("1"), parseOk("1.0"));
}

TEST(Json, RejectsMalformedInputs)
{
    const char *cases[] = {
        "",                      // empty
        "   ",                   // whitespace only
        "tru",                   // truncated literal
        "nul",                   //
        "falsey",                // trailing garbage inside literal
        "[1, 2",                 // unterminated array
        "[1, 2,]",               // trailing comma
        "[1 2]",                 // missing comma
        "{\"a\": 1",             // unterminated object
        "{\"a\" 1}",             // missing colon
        "{\"a\": }",             // missing value
        "{a: 1}",                // unquoted key
        "{\"a\": 1,}",           // trailing comma
        "{\"a\": 1, \"a\": 2}",  // duplicate key
        "\"abc",                 // unterminated string
        "\"ab\\q\"",             // bad escape
        "\"ab\\u12\"",           // truncated \u
        "\"ab\\u12zq\"",         // bad hex digit
        "\"\\ud83d\"",           // lone high surrogate
        "\"\\ude00\"",           // lone low surrogate
        "\"\\ud83d\\u0041\"",    // high surrogate + non-low
        "\"ctl\x01\"",           // raw control character
        "01",                    // leading zero
        "+1",                    // leading plus
        ".5",                    // bare fraction
        "1.",                    // digitless fraction
        "1e",                    // digitless exponent
        "1e+",                   //
        "0x10",                  // hex
        "NaN",                   // non-finite
        "Infinity",              //
        "1e999",                 // overflows to infinity
        "1 2",                   // two top-level values
        "[1] []",                // trailing garbage
    };
    for (const char *c : cases)
        parseErr(c);
}

TEST(Json, TruncationSweepNeverAcceptsAPrefix)
{
    // Every strict prefix of a valid document must be rejected —
    // the classic fuzz finding for hand-rolled parsers.
    const std::string doc =
        "{\"name\": \"fig9\", \"seeds\": 4, \"schemes\": "
        "[{\"label\": \"U\\u0042ik\", \"slack\": 5e-2}], "
        "\"ok\": [true, false, null]}";
    ASSERT_TRUE(parseOk(doc).isObject());
    for (std::size_t n = 0; n < doc.size(); n++) {
        Json out;
        std::string err;
        EXPECT_FALSE(Json::parse(doc.substr(0, n), out, err))
            << "prefix of length " << n << " was accepted";
    }
}

TEST(Json, DepthLimitIsEnforced)
{
    auto nested = [](int depth, char open, char close) {
        std::string s(static_cast<std::size_t>(depth), open);
        s += std::string(static_cast<std::size_t>(depth), close);
        return s;
    };
    EXPECT_TRUE(parseOk(nested(Json::kMaxDepth, '[', ']')).isArray());
    std::string err =
        parseErr(nested(Json::kMaxDepth + 1, '[', ']'));
    EXPECT_NE(err.find("nesting"), std::string::npos);
    // Objects burn depth too.
    std::string deepObj;
    for (int i = 0; i < Json::kMaxDepth + 1; i++)
        deepObj += "{\"k\":";
    deepObj += "1";
    for (int i = 0; i < Json::kMaxDepth + 1; i++)
        deepObj += "}";
    parseErr(deepObj);
}

TEST(Json, ErrorsCarryByteOffsets)
{
    std::string err = parseErr("{\"a\": tru}");
    EXPECT_NE(err.find("byte"), std::string::npos);
    EXPECT_NE(err.find("'true'"), std::string::npos);
}

TEST(Json, ParseFileReportsMissingFiles)
{
    Json out;
    std::string err;
    EXPECT_FALSE(Json::parseFile("/nonexistent/no.json", out, err));
    EXPECT_NE(err.find("cannot open"), std::string::npos);
}

} // namespace
} // namespace ubik
