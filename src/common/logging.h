#ifndef MIRAGE_COMMON_LOGGING_H
#define MIRAGE_COMMON_LOGGING_H

/**
 * @file
 * Status and error reporting in the gem5 spirit: fatal() for user errors
 * (bad configuration, invalid arguments), panic() for internal invariant
 * violations (simulator bugs), and leveled non-fatal logging.
 *
 * Non-fatal messages go through MIRAGE_LOG(level, ...) with a process-wide
 * threshold: messages below the threshold are filtered before their
 * arguments are formatted (the macro guards on logEnabled() first). The
 * threshold defaults to Info and is configurable via the MIRAGE_LOG_LEVEL
 * environment variable — "error", "warn", "info", "debug" or the numeric
 * levels 0-3; parsing is loud-on-garbage like MIRAGE_THREADS (an invalid
 * value logs a warning and falls back to Info rather than silently
 * changing verbosity). MIRAGE_WARN / MIRAGE_INFORM remain as aliases for
 * the two historical levels.
 */

#include <iosfwd>
#include <sstream>
#include <string>

namespace mirage {

/** Severity of a non-fatal log message; lower is more severe. */
enum class LogLevel
{
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
};

namespace detail {

/** Concatenates a parameter pack into a single message string. */
template <typename... Args>
std::string
concatMessage(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

/** Terminates the process with exit(1) after printing a fatal banner. */
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);

/** Aborts the process (core-dump friendly) after printing a panic banner. */
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);

/** Prints one leveled log line (the threshold was already checked by the
 *  MIRAGE_LOG macro; calling this directly bypasses filtering). */
void logImpl(LogLevel level, const char *file, int line,
             const std::string &msg);

/** Redirects non-fatal log output (nullptr restores std::cerr); returns
 *  the previous stream. For unit tests capturing log lines. */
std::ostream *setLogStream(std::ostream *os);

} // namespace detail

/** Current threshold: messages with level > threshold are dropped. */
LogLevel logLevel();

/** Overrides the threshold at runtime (wins over MIRAGE_LOG_LEVEL). */
void setLogLevel(LogLevel level);

/** True when a message at `level` passes the current threshold. */
bool logEnabled(LogLevel level);

/**
 * Parses a MIRAGE_LOG_LEVEL-style string: the names "error", "warn",
 * "info", "debug" (case-insensitive) or the numeric levels 0-3. Returns
 * true and fills *out on success; returns false and fills *error (when
 * non-null) for anything else. Exposed for unit tests.
 */
bool parseLogLevel(const char *value, LogLevel *out,
                   std::string *error = nullptr);

/**
 * Reports an unrecoverable *user* error (bad configuration, invalid
 * arguments) and exits with status 1. Not a simulator bug.
 */
template <typename... Args>
[[noreturn]] void
fatal(const char *file, int line, Args &&...args)
{
    detail::fatalImpl(file, line, detail::concatMessage(std::forward<Args>(args)...));
}

/**
 * Reports an internal invariant violation (a bug in this library) and
 * aborts so a debugger or core dump can capture the state.
 */
template <typename... Args>
[[noreturn]] void
panic(const char *file, int line, Args &&...args)
{
    detail::panicImpl(file, line, detail::concatMessage(std::forward<Args>(args)...));
}

} // namespace mirage

/** User-error termination. Use for invalid configurations or arguments. */
#define MIRAGE_FATAL(...) ::mirage::fatal(__FILE__, __LINE__, __VA_ARGS__)

/** Internal-bug termination. Use when an invariant that must hold is broken. */
#define MIRAGE_PANIC(...) ::mirage::panic(__FILE__, __LINE__, __VA_ARGS__)

/**
 * Leveled non-fatal log line; `level_` is a bare LogLevel enumerator
 * (Error, Warn, Info, Debug). Arguments are only formatted when the level
 * passes the MIRAGE_LOG_LEVEL threshold.
 */
#define MIRAGE_LOG(level_, ...) \
    do { \
        if (::mirage::logEnabled(::mirage::LogLevel::level_)) { \
            ::mirage::detail::logImpl( \
                ::mirage::LogLevel::level_, __FILE__, __LINE__, \
                ::mirage::detail::concatMessage(__VA_ARGS__)); \
        } \
    } while (false)

/** Non-fatal warning with source location (MIRAGE_LOG at Warn). */
#define MIRAGE_WARN(...) MIRAGE_LOG(Warn, __VA_ARGS__)

/** Informational status message (MIRAGE_LOG at Info). */
#define MIRAGE_INFORM(...) MIRAGE_LOG(Info, __VA_ARGS__)

/** Panics when `cond` is false; for internal invariants, not user input. */
#define MIRAGE_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            MIRAGE_PANIC("assertion failed: " #cond " ", ##__VA_ARGS__); \
        } \
    } while (false)

/**
 * Debug-build-only assertion for checks too expensive for release hot
 * loops (e.g. per-bucket index checks in metric histograms). Compiled out
 * under NDEBUG; the condition must be side-effect free.
 */
#ifdef NDEBUG
#define MIRAGE_DASSERT(cond, ...) \
    do { \
    } while (false)
#else
#define MIRAGE_DASSERT(cond, ...) MIRAGE_ASSERT(cond, ##__VA_ARGS__)
#endif

#endif // MIRAGE_COMMON_LOGGING_H
