#include "common/log.hh"

#include <atomic>
#include <cstdarg>
#include <mutex>
#include <stdexcept>

namespace rsn {

namespace {
std::atomic<int> g_log_level{0};

/** Serializes warn/inform output so concurrent sweep lanes never
 *  interleave mid-line. The level itself is atomic (read on hot-ish
 *  paths); the mutex only guards the cold fprintf calls. */
std::mutex &
logMutex()
{
    static std::mutex m;
    return m;
}
} // namespace

int logLevel() { return g_log_level.load(std::memory_order_relaxed); }
void
setLogLevel(int level)
{
    g_log_level.store(level, std::memory_order_relaxed);
}

namespace detail {

std::string
formatv(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out(n > 0 ? n : 0, '\0');
    if (n > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    // Throwing (rather than abort) lets death-style unit tests observe
    // panics without killing the test binary.
    throw std::logic_error("panic: " + msg);
}

void
fatalImpl(const std::string &msg)
{
    // A user error, not a bug: the message is the whole diagnosis, and
    // whoever catches it (the drivers' main) prints it once.
    throw std::runtime_error("fatal: " + msg);
}

void
warnImpl(const std::string &msg)
{
    std::lock_guard<std::mutex> lock(logMutex());
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (logLevel() >= 1) {
        std::lock_guard<std::mutex> lock(logMutex());
        std::fprintf(stdout, "info: %s\n", msg.c_str());
    }
}

} // namespace detail
} // namespace rsn
