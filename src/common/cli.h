/**
 * @file
 * Minimal command-line flag parser for the tools and examples.
 *
 * Flags are declared with a name, default, and help text; parse()
 * consumes `--name value` and `--name=value` forms, supports `--help`
 * (prints usage and exits 0), and rejects unknown flags and malformed
 * values with fatal(). Declaration order defines the usage listing.
 *
 *   Cli cli("ubik_cli", "Run one mix under one scheme");
 *   auto &policy = cli.flag("policy", "Ubik", "partitioning policy");
 *   auto &slack = cli.flag("slack", 0.05, "Ubik tail-latency slack");
 *   cli.parse(argc, argv);
 *   use(policy.value, slack.value);
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ubik {

/** One declared flag holding a typed value. */
template <typename T>
struct Flag
{
    std::string name;
    std::string help;
    T value;          ///< default until parse(), then the parsed value
    bool seen = false; ///< whether the command line set it
};

/** Declarative command-line parser. */
class Cli
{
  public:
    Cli(std::string program, std::string description);
    ~Cli();

    /** Declare a flag; the reference stays valid for the Cli's life. */
    Flag<std::string> &flag(const std::string &name,
                            const char *default_value,
                            const std::string &help);
    Flag<std::int64_t> &flag(const std::string &name,
                             std::int64_t default_value,
                             const std::string &help);
    Flag<double> &flag(const std::string &name, double default_value,
                       const std::string &help);
    Flag<bool> &flag(const std::string &name, bool default_value,
                     const std::string &help);

    /** Declare a repeatable flag: every `--name value` occurrence
     *  appends to the vector (e.g. `--set a=1 --set b=2`). */
    Flag<std::vector<std::string>> &
    multiFlag(const std::string &name, const std::string &help);

    /**
     * Accept bare (non `--`) arguments, collected in order into
     * positionals(). Without this call they stay fatal() errors.
     * `name`/`help` label them in the usage text.
     */
    void allowPositionals(const std::string &name,
                          const std::string &help);

    /** The bare arguments parse() collected. */
    const std::vector<std::string> &positionals() const
    {
        return positionals_;
    }

    /**
     * Parse the command line. Exits 0 on --help; fatal() on unknown
     * flags, missing values, or unparseable values.
     */
    void parse(int argc, const char *const *argv);

    /** Print the usage/help text to stdout. */
    void printHelp() const;

  private:
    struct Entry;

    Entry &add(const std::string &name, const std::string &help);
    Entry *find(const std::string &name);

    std::string program_;
    std::string description_;
    std::vector<std::unique_ptr<Entry>> entries_;

    bool allowPositionals_ = false;
    std::string positionalName_;
    std::string positionalHelp_;
    std::vector<std::string> positionals_;
};

/**
 * An integer flag's value checked against [lo, hi]; fatal() naming
 * the flag when it is outside. Tools read counts through this before
 * any unsigned or narrowing cast, so "-1" cannot wrap to 2^64-1 and
 * 4294967297 workers cannot truncate to one.
 */
std::uint64_t flagInRange(const Flag<std::int64_t> &flag,
                          std::uint64_t lo, std::uint64_t hi);

} // namespace ubik
