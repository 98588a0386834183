#include "common/log.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace ubik {

namespace {
thread_local bool tFatalTrapped = false;
} // namespace

FatalTrap::FatalTrap(bool armed) : prev_(tFatalTrapped)
{
    tFatalTrapped = armed;
}

FatalTrap::~FatalTrap()
{
    tFatalTrapped = prev_;
}

bool
fatalTrapped()
{
    return tFatalTrapped;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    std::fprintf(stderr, "panic: %s:%d: ", file, line);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    if (tFatalTrapped) {
        char buf[2048];
        va_list args;
        va_start(args, fmt);
        std::vsnprintf(buf, sizeof buf, fmt, args);
        va_end(args);
        throw FatalError(buf);
    }
    // Several pool workers can hit the same user error at once. The
    // first one reports it and ends the process; the others wait for
    // that instead of printing again. _Exit, not exit: exit() would
    // run static destructors while other workers still simulate.
    static std::atomic_flag reported = ATOMIC_FLAG_INIT;
    if (reported.test_and_set())
        for (;;)
            std::this_thread::sleep_for(std::chrono::seconds(1));
    std::fprintf(stderr, "fatal: %s:%d: ", file, line);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
    std::fflush(nullptr);
    std::_Exit(1);
}

void
warnImpl(const char *fmt, ...)
{
    std::fprintf(stderr, "warn: ");
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
}

} // namespace ubik
