#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

/**
 * @file
 * What every workload takes and returns. A workload builds its inputs
 * from the seed, sets itself up, checks its outputs, measures for the
 * given seconds, and returns its metrics; main.cpp prints them.
 */

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions
{
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;     ///< Per-layer run: spans on, per-layer metrics.
    std::string trace_out;  ///< Chrome-trace file for the spans; may be empty.
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct WorkloadResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /// Correctness-gate violations; any entry makes the run incorrect.
    std::vector<std::string> gate_failures;
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    void check(bool ok, const std::string &what)
    {
        if (!ok)
            gate_failures.push_back(what);
    }
};

/** Set-ups per run; setup_s reports their median. */
inline constexpr int kSetups = 3;

WorkloadResult runTrainResnet(const RunOptions &opt);
WorkloadResult runEngineBurst(const RunOptions &opt);
WorkloadResult runServeZoo(const RunOptions &opt);

/** Peak resident set of this process so far [MB]. */
double rssPeakMb();

inline double
secondsBetween(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** The steady-clock time `seconds` from now. */
inline std::chrono::steady_clock::time_point
deadlineAfter(double seconds)
{
    return std::chrono::steady_clock::now() +
           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(seconds));
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
