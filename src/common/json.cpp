#include "common/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/hex.h"
#include "common/log.h"

namespace ubik {

// ---------------------------------------------------------------------------
// Value accessors
// ---------------------------------------------------------------------------

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::Object;
    return j;
}

const char *
Json::kindName(Kind k)
{
    switch (k) {
      case Kind::Null:
        return "null";
      case Kind::Bool:
        return "bool";
      case Kind::Number:
        return "number";
      case Kind::String:
        return "string";
      case Kind::Array:
        return "array";
      case Kind::Object:
        return "object";
    }
    panic("bad Json::Kind");
}

bool
Json::boolean() const
{
    if (kind_ != Kind::Bool)
        fatal("json: expected bool, have %s", kindName(kind_));
    return bool_;
}

double
Json::number() const
{
    if (kind_ != Kind::Number)
        fatal("json: expected number, have %s", kindName(kind_));
    return num_;
}

const std::string &
Json::str() const
{
    if (kind_ != Kind::String)
        fatal("json: expected string, have %s", kindName(kind_));
    return str_;
}

std::size_t
Json::size() const
{
    if (kind_ == Kind::Array)
        return arr_.size();
    if (kind_ == Kind::Object)
        return obj_.size();
    fatal("json: size() on %s", kindName(kind_));
}

const Json &
Json::at(std::size_t i) const
{
    if (kind_ != Kind::Array)
        fatal("json: at() on %s", kindName(kind_));
    if (i >= arr_.size())
        fatal("json: index %zu out of range (size %zu)", i,
              arr_.size());
    return arr_[i];
}

Json &
Json::push(Json v)
{
    if (kind_ != Kind::Array)
        fatal("json: push() on %s", kindName(kind_));
    arr_.push_back(std::move(v));
    return *this;
}

const std::vector<Json> &
Json::items() const
{
    if (kind_ != Kind::Array)
        fatal("json: items() on %s", kindName(kind_));
    return arr_;
}

const Json *
Json::find(std::string_view key) const
{
    if (kind_ != Kind::Object)
        fatal("json: find(\"%.*s\") on %s", static_cast<int>(key.size()),
              key.data(), kindName(kind_));
    for (const auto &m : obj_)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

Json &
Json::set(std::string key, Json v)
{
    if (kind_ != Kind::Object)
        fatal("json: set(\"%s\") on %s", key.c_str(), kindName(kind_));
    for (auto &m : obj_) {
        if (m.first == key) {
            m.second = std::move(v);
            return *this;
        }
    }
    obj_.emplace_back(std::move(key), std::move(v));
    return *this;
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    if (kind_ != Kind::Object)
        fatal("json: members() on %s", kindName(kind_));
    return obj_;
}

bool
Json::operator==(const Json &o) const
{
    if (kind_ != o.kind_)
        return false;
    switch (kind_) {
      case Kind::Null:
        return true;
      case Kind::Bool:
        return bool_ == o.bool_;
      case Kind::Number:
        return num_ == o.num_;
      case Kind::String:
        return str_ == o.str_;
      case Kind::Array:
        if (arr_.size() != o.arr_.size())
            return false;
        for (std::size_t i = 0; i < arr_.size(); i++)
            if (!(arr_[i] == o.arr_[i]))
                return false;
        return true;
      case Kind::Object: {
        if (obj_.size() != o.obj_.size())
            return false;
        for (const auto &m : obj_) {
            const Json *v = o.find(m.first);
            if (!v || !(m.second == *v))
                return false;
        }
        return true;
      }
    }
    return false;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

namespace {

/** Longest number text: "-" + 17 digits + "." + "e-308". */
constexpr std::size_t kNumberTextMax = 32;

/**
 * The double that the number text [first, last) denotes, as strtod
 * reads it. from_chars leaves its output untouched when it reports
 * the value out of range, so such text takes strtod's answer:
 * overflow (1e999) is infinite, and underflow keeps its sign (1e-999
 * is +0.0, -1e-999 is -0.0).
 */
double
numberValue(const char *first, const char *last)
{
    double d = 0;
    if (std::from_chars(first, last, d).ec ==
        std::errc::result_out_of_range)
        d = std::strtod(std::string(first, last).c_str(), nullptr);
    return d;
}

/** The number text "%.<p>g" gives a normal double that is not a power
 *  of two, from its shortest round-trip text `sci` (scientific form,
 *  [sci, sciEnd)): p = max(15, k) for k significant digits, and
 *  the k digits laid out as "%.<p>g" lays them out (jsonNumberText).
 *  Writes into `buf`; returns the end of the text. */
char *
layoutShortest(char *buf, const char *sci, const char *sciEnd)
{
    char *o = buf;
    const char *c = sci;
    if (*c == '-')
        *o++ = *c++;
    char digits[17];
    int k = 0;
    for (; *c != 'e'; c++)
        if (*c != '.')
            digits[k++] = *c;
    const char *const exp = c; // "e+XX", printf's exponent form
    int x = 0;
    for (const char *e = exp + 2; e < sciEnd; e++)
        x = x * 10 + (*e - '0');
    if (exp[1] == '-')
        x = -x;
    if (x < -4 || x >= std::max(15, k)) {
        *o++ = digits[0];
        if (k > 1) {
            *o++ = '.';
            o = std::copy(digits + 1, digits + k, o);
        }
        return std::copy(exp, sciEnd, o);
    }
    if (x < 0) {
        *o++ = '0';
        *o++ = '.';
        o = std::fill_n(o, -x - 1, '0');
        return std::copy(digits, digits + k, o);
    }
    // x + 1 integer digits; trailing zeros only if the digits end
    // before the point, as "%g" strips them after it.
    const int whole = std::min(k, x + 1);
    o = std::copy(digits, digits + whole, o);
    o = std::fill_n(o, x + 1 - whole, '0');
    if (k > whole) {
        *o++ = '.';
        o = std::copy(digits + whole, digits + k, o);
    }
    return o;
}

/** Write jsonNumberText(d) into `buf` (kNumberTextMax bytes); returns
 *  the end of the text. */
char *
numberText(char *buf, double d)
{
    if (!std::isfinite(d))
        fatal("json: cannot serialize non-finite number");
    char *const end = buf + kNumberTextMax;
    // 2^53: largest range where every integer is exact in a double.
    if (d == std::floor(d) && std::fabs(d) < 9007199254740992.0)
        return std::to_chars(buf, end, static_cast<long long>(d)).ptr;

    char sci[kNumberTextMax];
    char *const sciEnd =
        std::to_chars(sci, sci + sizeof sci, d,
                      std::chars_format::scientific)
            .ptr;
    // A normal double whose significand bits are not all zero has a
    // symmetric rounding interval: the shortest digits are the text.
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    if (std::isnormal(d) && (bits & ((std::uint64_t{1} << 52) - 1)))
        return layoutShortest(buf, sci, sciEnd);

    // printf's %.<p>g for the smallest p of 15, 16 and 17 whose text
    // parses back to the same bits. No text with fewer significant
    // digits than the shortest round-trip text (k digits) parses back,
    // so the search starts at p = max(15, k).
    int k = 0;
    for (const char *c = sci; c < sciEnd && *c != 'e'; c++)
        k += *c >= '0' && *c <= '9';
    for (int p = std::max(15, k);; p++) {
        char *text =
            std::to_chars(buf, end, d, std::chars_format::general, p).ptr;
        if (p == 17 || numberValue(buf, text) == d)
            return text;
    }
}

} // namespace

std::string
jsonNumberText(double d)
{
    char buf[kNumberTextMax];
    return std::string(buf, numberText(buf, d));
}

namespace {

/** Bytes a string's run of plain ASCII ends at: '"', '\\', controls
 *  (each escaped), and bytes >= 0x80 (copied only as valid UTF-8). */
bool
endsPlainRun(unsigned char c)
{
    return c < 0x20 || c == '"' || c == '\\' || c >= 0x80;
}

/** Length of the well-formed UTF-8 sequence at [p, end), whose first
 *  byte is >= 0x80, or 0 if there is none: a stray continuation byte,
 *  an overlong form, a surrogate, a code point past U+10FFFF, or a
 *  sequence cut short. The ranges are Unicode's table of well-formed
 *  byte sequences. */
std::size_t
utf8Length(const unsigned char *p, const unsigned char *end)
{
    const unsigned char c = p[0];
    std::size_t n = 0;
    unsigned char lo = 0x80, hi = 0xBF; // the second byte's range
    if (c >= 0xC2 && c <= 0xDF) {
        n = 2;
    } else if (c >= 0xE0 && c <= 0xEF) {
        n = 3;
        lo = c == 0xE0 ? 0xA0 : lo;
        hi = c == 0xED ? 0x9F : hi;
    } else if (c >= 0xF0 && c <= 0xF4) {
        n = 4;
        lo = c == 0xF0 ? 0x90 : lo;
        hi = c == 0xF4 ? 0x8F : hi;
    }
    if (n == 0 || static_cast<std::size_t>(end - p) < n || p[1] < lo ||
        p[1] > hi)
        return 0;
    for (std::size_t i = 2; i < n; i++)
        if ((p[i] & 0xC0) != 0x80)
            return 0;
    return n;
}

void
writeString(std::string &out, std::string_view s)
{
    out += '"';
    const auto *p = reinterpret_cast<const unsigned char *>(s.data());
    const auto *const end = p + s.size();
    while (p < end) {
        // Copy the run of plain bytes in one append.
        const auto *run = p;
        while (p < end && !endsPlainRun(*p))
            p++;
        out.append(reinterpret_cast<const char *>(run),
                   static_cast<std::size_t>(p - run));
        if (p == end)
            break;
        if (*p >= 0x80) {
            // Valid UTF-8 is copied as it is; a byte that begins no
            // valid sequence (text a request echoes, say) becomes
            // U+FFFD, so the output is always valid UTF-8.
            if (const std::size_t n = utf8Length(p, end)) {
                out.append(reinterpret_cast<const char *>(p), n);
                p += n;
            } else {
                out += "\xEF\xBF\xBD";
                p++;
            }
            continue;
        }
        const unsigned char c = *p++;
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default: {
            static constexpr char kHex[] = "0123456789abcdef";
            const char esc[6] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                 kHex[c & 15]};
            out.append(esc, sizeof esc);
          }
        }
    }
    out += '"';
}

} // namespace

void
JsonWriter::next()
{
    if (bare_) {
        bare_ = false;
        return;
    }
    if (!empty_)
        out_ += ',';
    empty_ = false;
    if (pretty_) {
        out_ += '\n';
        out_.append(static_cast<std::size_t>(depth_) * 2, ' ');
    }
}

JsonWriter &
JsonWriter::open(char c)
{
    next();
    out_ += c;
    depth_++;
    empty_ = true;
    return *this;
}

JsonWriter &
JsonWriter::close(char c)
{
    depth_--;
    if (!empty_ && pretty_) {
        out_ += '\n';
        out_.append(static_cast<std::size_t>(depth_) * 2, ' ');
    }
    out_ += c;
    // The container is itself an element of the one around it.
    empty_ = false;
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    next();
    writeString(out_, k);
    out_ += pretty_ ? ": " : ":";
    bare_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view s)
{
    next();
    writeString(out_, s);
    return *this;
}

JsonWriter &
JsonWriter::value(bool b)
{
    next();
    out_ += b ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    next();
    out_ += "null";
    return *this;
}

JsonWriter &
JsonWriter::number(double d)
{
    char buf[kNumberTextMax];
    char *const text = numberText(buf, d);
    next();
    out_.append(buf, static_cast<std::size_t>(text - buf));
    return *this;
}

JsonWriter &
JsonWriter::value(const Json &v)
{
    switch (v.kind()) {
      case Json::Kind::Null:
        return null();
      case Json::Kind::Bool:
        return value(v.boolean());
      case Json::Kind::Number:
        return number(v.number());
      case Json::Kind::String:
        return value(v.str());
      case Json::Kind::Array:
        beginArray();
        for (const Json &e : v.items())
            value(e);
        return endArray();
      case Json::Kind::Object:
        beginObject();
        for (const auto &m : v.members())
            member(m.first, m.second);
        return endObject();
    }
    panic("bad Json::Kind");
}

std::string
Json::dump(bool pretty) const
{
    std::string out;
    JsonWriter(out, pretty).value(*this);
    return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

/** Recursive-descent parser over a byte range, collecting the first
 *  error (byte offset + message) instead of dying. */
class Parser
{
  public:
    Parser(const std::string &text) : s_(text) {}

    bool
    run(Json &out, std::string &err)
    {
        skipWs();
        Json v;
        if (!value(v, 0))
            return fail(err);
        skipWs();
        if (pos_ != s_.size()) {
            error("trailing characters after JSON value");
            return fail(err);
        }
        out = std::move(v);
        return true;
    }

  private:
    bool
    fail(std::string &err)
    {
        err = "byte " + std::to_string(errPos_) + ": " + errMsg_;
        return false;
    }

    void
    error(const std::string &msg)
    {
        if (errMsg_.empty()) {
            errMsg_ = msg;
            errPos_ = pos_;
        }
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            pos_++;
    }

    bool
    literal(const char *word, Json v, Json &out)
    {
        std::size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0) {
            error(std::string("invalid literal (expected '") + word +
                  "')");
            return false;
        }
        pos_ += n;
        out = std::move(v);
        return true;
    }

    bool
    value(Json &out, int depth)
    {
        if (depth >= Json::kMaxDepth) {
            error("nesting deeper than " +
                  std::to_string(Json::kMaxDepth) + " levels");
            return false;
        }
        if (pos_ >= s_.size()) {
            error("unexpected end of input (expected a value)");
            return false;
        }
        switch (s_[pos_]) {
          case 'n':
            return literal("null", Json(), out);
          case 't':
            return literal("true", Json(true), out);
          case 'f':
            return literal("false", Json(false), out);
          case '"':
            return string(out);
          case '[':
            return array(out, depth);
          case '{':
            return object(out, depth);
          default:
            return number(out);
        }
    }

    bool
    array(Json &out, int depth)
    {
        pos_++; // '['
        Json arr = Json::array();
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == ']') {
            pos_++;
            out = std::move(arr);
            return true;
        }
        for (;;) {
            skipWs();
            Json v;
            if (!value(v, depth + 1))
                return false;
            arr.push(std::move(v));
            skipWs();
            if (pos_ >= s_.size()) {
                error("unexpected end of input inside array");
                return false;
            }
            if (s_[pos_] == ',') {
                pos_++;
                continue;
            }
            if (s_[pos_] == ']') {
                pos_++;
                out = std::move(arr);
                return true;
            }
            error("expected ',' or ']' in array");
            return false;
        }
    }

    bool
    object(Json &out, int depth)
    {
        pos_++; // '{'
        Json obj = Json::object();
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == '}') {
            pos_++;
            out = std::move(obj);
            return true;
        }
        for (;;) {
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != '"') {
                error("expected '\"' to begin an object key");
                return false;
            }
            Json key;
            if (!string(key))
                return false;
            if (obj.find(key.str())) {
                error("duplicate object key \"" + key.str() + "\"");
                return false;
            }
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != ':') {
                error("expected ':' after object key");
                return false;
            }
            pos_++;
            skipWs();
            Json v;
            if (!value(v, depth + 1))
                return false;
            obj.set(key.str(), std::move(v));
            skipWs();
            if (pos_ >= s_.size()) {
                error("unexpected end of input inside object");
                return false;
            }
            if (s_[pos_] == ',') {
                pos_++;
                continue;
            }
            if (s_[pos_] == '}') {
                pos_++;
                out = std::move(obj);
                return true;
            }
            error("expected ',' or '}' in object");
            return false;
        }
    }

    bool
    hex4(std::uint32_t &out)
    {
        if (pos_ + 4 > s_.size()) {
            error("truncated \\u escape");
            return false;
        }
        out = 0;
        for (int i = 0; i < 4; i++) {
            int n = hexDigitValue(s_[pos_ + static_cast<std::size_t>(i)]);
            if (n < 0) {
                error("bad hex digit in \\u escape");
                return false;
            }
            out = out * 16 + static_cast<std::uint32_t>(n);
        }
        pos_ += 4;
        return true;
    }

    void
    appendUtf8(std::string &out, std::uint32_t cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    bool
    string(Json &out)
    {
        pos_++; // '"'
        std::string v;
        for (;;) {
            if (pos_ >= s_.size()) {
                error("unterminated string");
                return false;
            }
            unsigned char c = static_cast<unsigned char>(s_[pos_]);
            if (c == '"') {
                pos_++;
                out = Json(std::move(v));
                return true;
            }
            if (c < 0x20) {
                error("unescaped control character in string");
                return false;
            }
            if (c != '\\') {
                // Copy the run of plain bytes in one append.
                std::size_t run = pos_;
                while (pos_ < s_.size() && s_[pos_] != '"' &&
                       s_[pos_] != '\\' &&
                       static_cast<unsigned char>(s_[pos_]) >= 0x20)
                    pos_++;
                v.append(s_, run, pos_ - run);
                continue;
            }
            pos_++; // '\'
            if (pos_ >= s_.size()) {
                error("truncated escape sequence");
                return false;
            }
            char e = s_[pos_++];
            switch (e) {
              case '"':
                v += '"';
                break;
              case '\\':
                v += '\\';
                break;
              case '/':
                v += '/';
                break;
              case 'b':
                v += '\b';
                break;
              case 'f':
                v += '\f';
                break;
              case 'n':
                v += '\n';
                break;
              case 'r':
                v += '\r';
                break;
              case 't':
                v += '\t';
                break;
              case 'u': {
                std::uint32_t cp;
                if (!hex4(cp))
                    return false;
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // High surrogate: must pair with \uDC00-\uDFFF.
                    if (pos_ + 2 > s_.size() || s_[pos_] != '\\' ||
                        s_[pos_ + 1] != 'u') {
                        error("lone high surrogate in \\u escape");
                        return false;
                    }
                    pos_ += 2;
                    std::uint32_t lo;
                    if (!hex4(lo))
                        return false;
                    if (lo < 0xDC00 || lo > 0xDFFF) {
                        error("invalid low surrogate in \\u escape");
                        return false;
                    }
                    cp = 0x10000 + ((cp - 0xD800) << 10) +
                         (lo - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    error("lone low surrogate in \\u escape");
                    return false;
                }
                appendUtf8(v, cp);
                break;
              }
              default:
                error(std::string("bad escape '\\") + e + "'");
                return false;
            }
        }
    }

    bool
    number(Json &out)
    {
        // Validate the JSON number grammar by hand: the converters
        // accept forms JSON forbids (hex, "inf", leading '+', ".5").
        std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            pos_++;
        if (pos_ >= s_.size() ||
            !(s_[pos_] >= '0' && s_[pos_] <= '9')) {
            pos_ = start;
            error("invalid value");
            return false;
        }
        if (s_[pos_] == '0') {
            pos_++;
        } else {
            while (pos_ < s_.size() && s_[pos_] >= '0' &&
                   s_[pos_] <= '9')
                pos_++;
        }
        if (pos_ < s_.size() && s_[pos_] == '.') {
            pos_++;
            if (pos_ >= s_.size() ||
                !(s_[pos_] >= '0' && s_[pos_] <= '9')) {
                error("digit required after decimal point");
                return false;
            }
            while (pos_ < s_.size() && s_[pos_] >= '0' &&
                   s_[pos_] <= '9')
                pos_++;
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            pos_++;
            if (pos_ < s_.size() &&
                (s_[pos_] == '+' || s_[pos_] == '-'))
                pos_++;
            if (pos_ >= s_.size() ||
                !(s_[pos_] >= '0' && s_[pos_] <= '9')) {
                error("digit required in exponent");
                return false;
            }
            while (pos_ < s_.size() && s_[pos_] >= '0' &&
                   s_[pos_] <= '9')
                pos_++;
        }
        // The span is valid JSON number grammar, which from_chars
        // converts as is.
        const double d =
            numberValue(s_.data() + start, s_.data() + pos_);
        if (!std::isfinite(d)) {
            // Overflowing literals (1e999) have valid grammar but no
            // finite value; reject rather than store infinity.
            pos_ = start;
            error("number out of range");
            return false;
        }
        out = Json(d);
        return true;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
    std::string errMsg_;
    std::size_t errPos_ = 0;
};

} // namespace

bool
Json::parse(const std::string &text, Json &out, std::string &err)
{
    return Parser(text).run(out, err);
}

Json
Json::parseOrDie(const std::string &text, const char *what)
{
    Json out;
    std::string err;
    if (!parse(text, out, err))
        fatal("%s: invalid JSON: %s", what, err.c_str());
    return out;
}

bool
Json::parseFile(const std::string &path, Json &out, std::string &err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        err = "cannot open " + path;
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    if (!parse(ss.str(), out, err)) {
        err = path + ": " + err;
        return false;
    }
    return true;
}

} // namespace ubik
