#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

/**
 * @file
 * In-memory span log for the traced run. Spans are recorded at the
 * benchmark's own call sites and decorators (never inside the library),
 * kept in memory while the workload runs, and written out once at the end.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** One timed interval. `name` points at a string literal. */
struct Span
{
    const char *name = "";
    uint64_t uid = 0;      ///< Unique per span; 0 is never used.
    uint64_t parent = 0;   ///< uid of the span that caused it; 0 for a root.
    uint64_t trace_id = 0; ///< One per training step, burst or request.
    int lane = -1;         ///< Replica index; -1 for the driving thread.
    int tag = -1;          ///< Workload-defined label (a GEMM site); -1: none.
    double start_s = 0.0;  ///< Seconds since the log's epoch.
    double end_s = 0.0;
};

/** Thread-safe append-only span store; recording is off until enabled. */
class SpanLog
{
  public:
    SpanLog();

    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

    uint64_t newUid() { return next_uid_.fetch_add(1) + 1; }

    /** Seconds since the log's epoch. */
    double now() const;

    /** Seconds since the epoch of an absolute time point. */
    double at(Clock::time_point t) const;

    void add(const Span &span);

    /** Moves every recorded span out and leaves the log empty. */
    std::vector<Span> take();

    /**
     * Writes at most `max_spans` spans as Chrome trace-event JSON (open
     * in Perfetto); returns false when the file cannot be written.
     */
    static bool writeChromeTrace(const std::vector<Span> &spans,
                                 const std::string &path, size_t max_spans);

  private:
    Clock::time_point epoch_;
    std::atomic<bool> enabled_{false};
    std::atomic<uint64_t> next_uid_{0};
    std::mutex mu_; ///< Guards spans_.
    std::vector<Span> spans_;
};

/**
 * RAII span: records [construction, destruction) when the log is enabled
 * and costs one relaxed load otherwise. Nested scopes on one thread take
 * the enclosing scope as parent unless `parent` names one explicitly
 * (needed when the cause ran on another thread).
 */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, const char *name, uint64_t trace_id, int lane,
              uint64_t parent = 0);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** This span's uid; 0 when the log is disabled. */
    uint64_t uid() const { return span_.uid; }

    void setTag(int tag) { span_.tag = tag; }

  private:
    SpanLog *log_ = nullptr; ///< Null when recording is off.
    Span span_;
    uint64_t saved_current_ = 0;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * that its children cover (children on several threads are merged into
 * one covered set). Indexed like `spans`.
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Length of the union of [start, end) intervals, clipped to [lo, hi). */
double coveredLength(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
