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
 * Losslessness contract: `parse(dump(v))` reproduces `v` exactly when
 * its strings are valid UTF-8. Numbers are stored as doubles; the
 * writer emits them as jsonNumberText() does. Object members keep
 * insertion order, so dump() output is deterministic and
 * diff-friendly. Output is always valid UTF-8: a string byte that
 * begins no well-formed sequence is written as U+FFFD.
 *
 * Output goes through one JsonWriter, which appends a document to a
 * string as it is described, with no tree built first: the documents
 * a hot path produces (results, daemon answers, canonical specs) are
 * written with it directly, and dump() walks a tree into it, so the
 * indentation, escaping and number rules live in one place.
 */

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace ubik {

class Json;

/**
 * Streaming writer: appends one JSON value to a string, container by
 * container. Pretty output indents two spaces per level and puts one
 * member or element per line, exactly as Json::dump(true) does;
 * compact output has no whitespace. A document written after a key
 * (or as an array element) of another one lays out as that member,
 * so the whole is what Json::dump gives the tree with it in place.
 *
 * Calls must describe one well-formed value: an object's members are
 * key() then one value each, and every begin has its end. Strings
 * are escaped, and bytes that are not valid UTF-8 become U+FFFD;
 * non-finite numbers are fatal().
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::string &out, bool pretty = false)
        : out_(out), pretty_(pretty)
    {
    }

    JsonWriter &beginObject() { return open('{'); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray() { return open('['); }
    JsonWriter &endArray() { return close(']'); }

    /** The next object member's key; its value is the next call. */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view s);
    JsonWriter &value(const std::string &s)
    {
        return value(std::string_view(s));
    }
    JsonWriter &value(const char *s) { return value(std::string_view(s)); }
    JsonWriter &value(bool b);
    /** A number: every arithmetic type is written as the double it
     *  converts to, as a Json number holds it. */
    template <class T,
              std::enable_if_t<std::is_arithmetic_v<T> &&
                                   !std::is_same_v<T, bool>,
                               int> = 0>
    JsonWriter &value(T v)
    {
        return number(static_cast<double>(v));
    }
    /** A whole tree, as Json::dump lays it out. */
    JsonWriter &value(const Json &v);
    JsonWriter &null();

    /** key(k) then value(v). */
    template <class T>
    JsonWriter &member(std::string_view k, const T &v)
    {
        key(k);
        return value(v);
    }

  private:
    JsonWriter &open(char c);
    JsonWriter &close(char c);
    JsonWriter &number(double d);
    /** Before a value: the separator and line break it needs. */
    void next();

    std::string &out_;
    bool pretty_;
    /** Containers open around the next value. */
    int depth_ = 0;
    /** The innermost open container holds nothing yet. */
    bool empty_ = true;
    /** The next value needs no separator: it is the document itself,
     *  or follows its key. */
    bool bare_ = true;
};

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
     * Serialize through a JsonWriter. Compact by default; `pretty`
     * uses two-space indentation and one member/element per line.
     * fatal() on non-finite numbers (JSON cannot represent them).
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
 * text parses back to the same bits.
 *
 * One shortest round-trip conversion (k digits) gives that text for
 * every normal double that is not a power of two: p is max(15, k),
 * and the text is those k digits laid out as "%.<p>g" lays them out.
 * There the rounding interval is symmetric, so the nearest p-digit
 * decimal is at least as close as the shortest one, and it is the
 * shortest one padded with zeros. Next to a power of two the interval
 * is lopsided, and among subnormals a 15-digit decimal resolves finer
 * than the spacing of doubles, so for those two the writer prints
 * "%.<p>g" for p from max(15, k) up and parses each text back until
 * one gives the same bits; p passes max(15, k) only next to a power
 * of two. Exposed for the report layer's structured exports, which
 * need the same "bit-identical runs produce byte-identical files"
 * guarantee.
 */
std::string jsonNumberText(double d);

/** The value `write` writes into a JsonWriter, parsed back into a
 *  tree: the Json form of a document that is written directly. */
template <class Write>
Json
writtenJson(Write &&write)
{
    std::string text;
    JsonWriter w(text);
    write(w);
    return Json::parseOrDie(text, "written JSON");
}

} // namespace ubik
