/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic()  — an internal invariant was violated (a ubik bug); aborts.
 * fatal()  — the simulation cannot continue due to a user error (bad
 *            configuration, invalid arguments); exits with code 1
 *            after flushing stdio, without running destructors. Of
 *            concurrent callers only the first prints.
 * warn()   — something is suspicious but the run can continue.
 */

#pragma once

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace ubik {

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/**
 * Thrown by fatal() instead of exiting when the calling thread has an
 * armed FatalTrap. what() carries the formatted message (without the
 * "fatal: file:line:" prefix).
 */
struct FatalError : std::runtime_error
{
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/**
 * RAII guard turning fatal() into a catchable FatalError on *this
 * thread* for its lifetime. Long-lived servers arm one around
 * request handling so a bad user spec produces an error response
 * instead of killing the process; tests arm one instead of spawning
 * a death-test child. panic() (internal invariants) still aborts —
 * only user-error fatals are trappable. JobPool runs each batch's
 * jobs under the submitting thread's state (`armed` =
 * fatalTrapped() there), so a trapped fatal() in a job reaches the
 * submitter as a rethrown FatalError.
 */
class FatalTrap
{
  public:
    explicit FatalTrap(bool armed = true);
    ~FatalTrap();
    FatalTrap(const FatalTrap &) = delete;
    FatalTrap &operator=(const FatalTrap &) = delete;

  private:
    bool prev_;
};

/** Whether fatal() throws on this thread (a FatalTrap is armed). */
bool fatalTrapped();

void warnImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace ubik

#define panic(...) ::ubik::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define fatal(...) ::ubik::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define warn(...) ::ubik::warnImpl(__VA_ARGS__)

/**
 * Simulation-state assertion: checked in all build types (the
 * simulator's correctness depends on these, and RelWithDebInfo is the
 * default build).
 */
#define ubik_assert(cond)                                                    \
    do {                                                                     \
        if (!(cond))                                                         \
            ::ubik::panicImpl(__FILE__, __LINE__,                            \
                              "assertion failed: %s", #cond);                \
    } while (0)
