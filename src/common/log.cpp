#include "common/log.h"

#include <cstdio>
#include <cstdlib>

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
    std::fprintf(stderr, "fatal: %s:%d: ", file, line);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
    std::exit(1);
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
