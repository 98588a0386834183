/**
 * @file
 * Minimal dependency-free JSON reader and writer.
 *
 * Built for the declarative scenario layer (sim/scenario.h): specs
 * are pure data, serialized to JSON for `ubik_run --spec` files and
 * structured result exports. The implementation is deliberately
 * small and strict — RFC 8259 JSON, no extensions (no comments, no
 * trailing commas, no NaN/Infinity), recursion bounded by
 * kMaxDepth — and the parser reports byte-precise errors instead of
 * dying, so malformed spec files fail with a message the user can
 * act on (and the fuzz-ish tests can exercise every reject path).
 *
 * Losslessness contract: `parse(dump(v))` reproduces `v` exactly.
 * Numbers are stored as doubles; the writer emits them as
 * jsonNumberText() does. Object members keep insertion order, so
 * dump() output is deterministic and diff-friendly.
 */

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ubik {

/** One JSON value: null, bool, number, string, array, or object. */
class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    /** Parser recursion bound (arrays/objects nested deeper fail). */
    static constexpr int kMaxDepth = 64;

    Json() = default; ///< null
    Json(bool b) : kind_(Kind::Bool), bool_(b) {}
    Json(double d) : kind_(Kind::Number), num_(d) {}
    Json(int v) : kind_(Kind::Number), num_(v) {}
    Json(std::int64_t v)
        : kind_(Kind::Number), num_(static_cast<double>(v))
    {
    }
    Json(std::uint64_t v)
        : kind_(Kind::Number), num_(static_cast<double>(v))
    {
    }
    Json(std::uint32_t v) : kind_(Kind::Number), num_(v) {}
    Json(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
    Json(const char *s) : kind_(Kind::String), str_(s) {}

    /** Empty array / object (distinct from null). */
    static Json array();
    static Json object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Human-readable kind name ("object", "number", ...). */
    static const char *kindName(Kind k);

    /** Typed accessors; fatal() on a kind mismatch. */
    bool boolean() const;
    double number() const;
    const std::string &str() const;

    /** Array/object element count; fatal() on scalars. */
    std::size_t size() const;

    /** Array element (bounds-checked, fatal() on misuse). */
    const Json &at(std::size_t i) const;

    /** Append to an array (fatal() unless array). */
    Json &push(Json v);

    /** Array elements (fatal() unless array). */
    const std::vector<Json> &items() const;

    /** Object member, or nullptr when absent (fatal() unless
     *  object). */
    const Json *find(std::string_view key) const;

    /** Insert or overwrite an object member, keeping first-insertion
     *  order (fatal() unless object). Returns *this for chaining. */
    Json &set(std::string key, Json v);

    /** Object members in insertion order (fatal() unless object). */
    const std::vector<std::pair<std::string, Json>> &members() const;

    /**
     * Structural equality. Numbers compare by value (so 1 == 1.0;
     * note -0.0 == 0.0, which is also how they round-trip), objects
     * by key set and per-key value — member *order* is ignored, so
     * two specs that differ only in field order compare equal.
     */
    bool operator==(const Json &o) const;
    bool operator!=(const Json &o) const { return !(*this == o); }

    /**
     * Serialize. Compact by default; `pretty` uses two-space
     * indentation and one member/element per line. fatal() on
     * non-finite numbers (JSON cannot represent them).
     */
    std::string dump(bool pretty = false) const;

    /**
     * Parse `text` (one JSON value, trailing whitespace only).
     * Returns false and sets `err` ("byte N: message") on any
     * syntax error, depth overflow, or trailing garbage; `out` is
     * untouched on failure.
     */
    static bool parse(const std::string &text, Json &out,
                      std::string &err);

    /** parse() that fatal()s on error, naming `what` in the
     *  message — for inputs that are bugs to get wrong. */
    static Json parseOrDie(const std::string &text, const char *what);

    /** Read and parse a whole file; false + `err` on I/O or syntax
     *  errors. */
    static bool parseFile(const std::string &path, Json &out,
                          std::string &err);

  private:
    void dumpTo(std::string &out, bool pretty, int indent) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
};

/**
 * Render a finite double the way the writer does. Integral values
 * below 2^53 print as plain integers. Every other value prints as
 * printf's "%.<p>g" would, with p the smallest of 15, 16 and 17 whose
 * text parses back to the same bits. The search starts at
 * p = max(15, k), where k is the digit count of the shortest text that
 * round-trips, since no text with fewer digits parses back; p rises
 * past that start only in rare cases next to a power of two. Exposed
 * for the report layer's structured exports, which need the same
 * "bit-identical runs produce byte-identical files" guarantee.
 */
std::string jsonNumberText(double d);

} // namespace ubik
