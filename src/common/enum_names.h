/**
 * @file
 * One spelling table per user-facing enum, and the one lookup that
 * reads them all.
 *
 * Every enum a user names (in spec JSON, on a command line, or in a
 * result-cache key) declares its spellings once, next to the enum, by
 * specializing EnumNames: a noun for error messages and {value, name}
 * pairs (EnumNames<ArrayKind> in sim/cmp.h is one). The first name of
 * a value is canonical (enumName()); later ones are accepted aliases.
 * Parsing and printing go only through the functions below, so a name
 * accepted anywhere is accepted everywhere, and every error lists the
 * same names.
 */

#pragma once

#include <string>
#include <string_view>

#include "common/log.h"

namespace ubik {

template <class E>
struct EnumSpelling
{
    E value;
    const char *name;
};

/** Specialized next to each enum (see the file comment). */
template <class E>
struct EnumNames;

/** The canonical spelling of `v`. */
template <class E>
const char *
enumName(E v)
{
    for (const EnumSpelling<E> &s : EnumNames<E>::spellings)
        if (s.value == v)
            return s.name;
    panic("%s %d has no spelling", EnumNames<E>::noun,
          static_cast<int>(v));
}

/** The value spelled `name` (canonical or alias); false when none. */
template <class E>
bool
tryEnumFromName(std::string_view name, E &out)
{
    for (const EnumSpelling<E> &s : EnumNames<E>::spellings)
        if (name == s.name) {
            out = s.value;
            return true;
        }
    return false;
}

/** Every accepted spelling, in table order: "LRU, UCP, ...". */
template <class E>
std::string
enumNameList()
{
    std::string out;
    for (const EnumSpelling<E> &s : EnumNames<E>::spellings) {
        if (!out.empty())
            out += ", ";
        out += s.name;
    }
    return out;
}

/** tryEnumFromName(), or fatal() naming `where` (the flag or spec
 *  field, when given), the noun, and every accepted spelling. */
template <class E>
E
enumFromName(std::string_view name, const char *where = nullptr)
{
    E out = EnumNames<E>::spellings[0].value;
    if (!tryEnumFromName(name, out))
        fatal("%s%sunknown %s '%.*s' (%s)", where ? where : "",
              where ? ": " : "", EnumNames<E>::noun,
              static_cast<int>(name.size()), name.data(),
              enumNameList<E>().c_str());
    return out;
}

} // namespace ubik
