#include "common/cli.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <variant>

#include "common/log.h"
#include "common/parse_num.h"

namespace ubik {

/** Type-erased flag storage: a pointer to the typed Flag plus a
 *  parser for its value text. */
struct Cli::Entry
{
    std::string name;
    std::string help;
    std::string defaultText;

    std::variant<Flag<std::string> *, Flag<std::int64_t> *,
                 Flag<double> *, Flag<bool> *,
                 Flag<std::vector<std::string>> *>
        target;

    /** Typed flags are owned here (one variant member is active). */
    std::variant<std::monostate, Flag<std::string>, Flag<std::int64_t>,
                 Flag<double>, Flag<bool>,
                 Flag<std::vector<std::string>>>
        storage;

    /** Whether this flag consumes a value ("--x v"); bools do not. */
    bool takesValue = true;

    void
    set(const std::string &text)
    {
        if (auto **f = std::get_if<Flag<std::string> *>(&target)) {
            (*f)->value = text;
            (*f)->seen = true;
            return;
        }
        if (auto **f = std::get_if<Flag<std::int64_t> *>(&target)) {
            // Base 10 always: base-0 auto-detection reads the classic
            // zero-padded "--seeds 010" as octal 8, silently running
            // a different experiment than the user asked for.
            errno = 0;
            char *end = nullptr;
            long long v = std::strtoll(text.c_str(), &end, 10);
            if (end == text.c_str() || *end != '\0')
                fatal("--%s: '%s' is not a base-10 integer",
                      name.c_str(), text.c_str());
            if (errno == ERANGE)
                fatal("--%s: '%s' is out of range", name.c_str(),
                      text.c_str());
            (*f)->value = v;
            (*f)->seen = true;
            return;
        }
        if (auto **f = std::get_if<Flag<double> *>(&target)) {
            // "nan" would pass every `<` range check a tool makes, and
            // no flag means anything by "inf".
            double v = 0;
            if (!parseFiniteStrict(text.c_str(), v))
                fatal("--%s: '%s' is not a number (finite values only)",
                      name.c_str(), text.c_str());
            (*f)->value = v;
            (*f)->seen = true;
            return;
        }
        if (auto **f = std::get_if<Flag<bool> *>(&target)) {
            if (text == "true" || text == "1" || text.empty()) {
                (*f)->value = true;
            } else if (text == "false" || text == "0") {
                (*f)->value = false;
            } else {
                fatal("--%s: '%s' is not a boolean", name.c_str(),
                      text.c_str());
            }
            (*f)->seen = true;
            return;
        }
        if (auto **f = std::get_if<Flag<std::vector<std::string>> *>(
                &target)) {
            (*f)->value.push_back(text);
            (*f)->seen = true;
            return;
        }
        panic("flag '%s' has no target", name.c_str());
    }
};

Cli::Cli(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description))
{
}

Cli::~Cli() = default;

Cli::Entry &
Cli::add(const std::string &name, const std::string &help)
{
    if (name.empty() || name[0] == '-')
        fatal("flag name '%s' must not start with '-'", name.c_str());
    if (find(name))
        fatal("duplicate flag --%s", name.c_str());
    entries_.push_back(std::make_unique<Entry>());
    Entry &e = *entries_.back();
    e.name = name;
    e.help = help;
    return e;
}

Flag<std::string> &
Cli::flag(const std::string &name, const char *default_value,
          const std::string &help)
{
    Entry &e = add(name, help);
    e.storage = Flag<std::string>{name, help, default_value, false};
    auto &f = std::get<Flag<std::string>>(e.storage);
    e.target = &f;
    e.defaultText = default_value;
    return f;
}

Flag<std::int64_t> &
Cli::flag(const std::string &name, std::int64_t default_value,
          const std::string &help)
{
    Entry &e = add(name, help);
    e.storage = Flag<std::int64_t>{name, help, default_value, false};
    auto &f = std::get<Flag<std::int64_t>>(e.storage);
    e.target = &f;
    e.defaultText = std::to_string(default_value);
    return f;
}

Flag<double> &
Cli::flag(const std::string &name, double default_value,
          const std::string &help)
{
    Entry &e = add(name, help);
    e.storage = Flag<double>{name, help, default_value, false};
    auto &f = std::get<Flag<double>>(e.storage);
    e.target = &f;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", default_value);
    e.defaultText = buf;
    return f;
}

Flag<bool> &
Cli::flag(const std::string &name, bool default_value,
          const std::string &help)
{
    Entry &e = add(name, help);
    e.storage = Flag<bool>{name, help, default_value, false};
    auto &f = std::get<Flag<bool>>(e.storage);
    e.target = &f;
    e.takesValue = false;
    e.defaultText = default_value ? "true" : "false";
    return f;
}

Flag<std::vector<std::string>> &
Cli::multiFlag(const std::string &name, const std::string &help)
{
    Entry &e = add(name, help);
    e.storage =
        Flag<std::vector<std::string>>{name, help, {}, false};
    auto &f = std::get<Flag<std::vector<std::string>>>(e.storage);
    e.target = &f;
    e.defaultText = "none; repeatable";
    return f;
}

void
Cli::allowPositionals(const std::string &name, const std::string &help)
{
    allowPositionals_ = true;
    positionalName_ = name;
    positionalHelp_ = help;
}

Cli::Entry *
Cli::find(const std::string &name)
{
    for (auto &e : entries_)
        if (e->name == name)
            return e.get();
    return nullptr;
}

void
Cli::printHelp() const
{
    std::printf("%s — %s\n", program_.c_str(),
                description_.c_str());
    if (allowPositionals_)
        std::printf("\nArguments:\n  %-16s %s\n",
                    positionalName_.c_str(), positionalHelp_.c_str());
    std::printf("\nFlags:\n");
    for (const auto &e : entries_)
        std::printf("  --%-14s %s (default: %s)\n", e->name.c_str(),
                    e->help.c_str(), e->defaultText.c_str());
    std::printf("  --%-14s %s\n", "help", "print this message");
}

void
Cli::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            if (!allowPositionals_)
                fatal("unexpected argument '%s' (flags start with "
                      "--)",
                      arg.c_str());
            positionals_.push_back(std::move(arg));
            continue;
        }
        arg = arg.substr(2);

        std::string value;
        bool has_value = false;
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_value = true;
        }

        if (arg == "help") {
            printHelp();
            std::exit(0);
        }

        Entry *e = find(arg);
        if (!e)
            fatal("unknown flag --%s (try --help)", arg.c_str());

        if (!has_value && e->takesValue) {
            if (i + 1 >= argc)
                fatal("--%s needs a value", arg.c_str());
            value = argv[++i];
        }
        e->set(value);
    }
}

std::uint64_t
flagInRange(const Flag<std::int64_t> &flag, std::uint64_t lo,
            std::uint64_t hi)
{
    if (flag.value < 0 || static_cast<std::uint64_t>(flag.value) < lo ||
        static_cast<std::uint64_t>(flag.value) > hi)
        fatal("--%s must be in [%llu, %llu] (got %lld)",
              flag.name.c_str(), static_cast<unsigned long long>(lo),
              static_cast<unsigned long long>(hi),
              static_cast<long long>(flag.value));
    return static_cast<std::uint64_t>(flag.value);
}

} // namespace ubik
