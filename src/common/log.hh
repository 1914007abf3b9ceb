/**
 * @file
 * Minimal logging / assertion helpers in the gem5 style: panic() for
 * simulator bugs, fatal() for user errors, warn()/inform() for status.
 *
 * Thread safety: every entry point may be called from sweep-executor
 * worker lanes (lib/sweep.hh). The log level is an atomic, warn/inform
 * serialize their writes through one process-wide mutex (messages never
 * interleave mid-line), and `rsn_warn_once` wraps a `std::once_flag`
 * per call site so deprecation nags fire exactly once no matter how
 * many lanes race through the site.
 */

#ifndef RSN_COMMON_LOG_HH
#define RSN_COMMON_LOG_HH

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

namespace rsn {

/** Global verbosity: 0 = quiet, 1 = inform, 2 = debug trace.
 *  Atomic underneath: safe to read from worker lanes (set it from the
 *  main thread before spawning a sweep). */
int logLevel();
void setLogLevel(int level);

namespace detail {
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
std::string formatv(const char *fmt, ...) __attribute__((format(printf, 1, 2)));
} // namespace detail

/** Abort: something happened that indicates a simulator bug. */
#define rsn_panic(...) \
    ::rsn::detail::panicImpl(__FILE__, __LINE__, \
                             ::rsn::detail::formatv(__VA_ARGS__))

/**
 * Throw std::runtime_error("fatal: <msg>"): the simulation cannot
 * continue due to a user/config error. Nothing is printed here; the
 * drivers catch it and print the message once.
 */
#define rsn_fatal(...) \
    ::rsn::detail::fatalImpl(::rsn::detail::formatv(__VA_ARGS__))

/** Warning that does not stop the simulation. */
#define rsn_warn(...) \
    ::rsn::detail::warnImpl(::rsn::detail::formatv(__VA_ARGS__))

/**
 * Warning emitted at most once per call site, no matter how many
 * threads race through it (std::once_flag per expansion). Use for
 * deprecation nags and other advice that would otherwise spam a sweep.
 */
#define rsn_warn_once(...) \
    do { \
        static std::once_flag rsn_warn_once_flag_; \
        std::call_once(rsn_warn_once_flag_, \
                       [&] { rsn_warn(__VA_ARGS__); }); \
    } while (0)

/** Status message shown at logLevel() >= 1. */
#define rsn_inform(...) \
    ::rsn::detail::informImpl(::rsn::detail::formatv(__VA_ARGS__))

/** Internal invariant check that survives NDEBUG builds. */
#define rsn_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            rsn_panic("assertion failed: %s — %s", #cond, \
                      ::rsn::detail::formatv(__VA_ARGS__).c_str()); \
        } \
    } while (0)

} // namespace rsn

#endif // RSN_COMMON_LOG_HH
