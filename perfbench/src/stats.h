#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

/**
 * @file
 * Statistics rules every workload reports by. Each rule has a case in
 * tests/selftest.cpp, which run.py executes before every measurement.
 */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

namespace perfbench {

/** 1-based nearest rank of the p-th percentile (p in [0, 100]) of n. */
inline size_t
nearestRank(size_t n, double p)
{
    const auto rank =
        static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    return std::clamp<size_t>(rank, 1, std::max<size_t>(n, 1));
}

/** Nearest-rank percentile of an unsorted sample; 0 when it is empty. */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    const size_t rank = nearestRank(v.size(), p);
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    return v[rank - 1];
}

/** Samples ranked strictly beyond the p-th percentile of n samples. */
inline size_t
samplesBeyond(size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

/**
 * The highest of `candidates` that still has at least `min_beyond`
 * samples beyond it out of n, so that a tail percentile is never read
 * off a handful of samples. Returns 0 when none qualifies.
 */
inline double
highestSupportedPercentile(size_t n, std::initializer_list<double> candidates,
                           size_t min_beyond = 10)
{
    double best = 0.0;
    for (double p : candidates)
        if (samplesBeyond(n, p) >= min_beyond)
            best = std::max(best, p);
    return best;
}

/**
 * Latency of an open-loop request timed from when it was due: how late
 * the generator sent it plus the server's own admission-to-completion
 * time. A stalled generator therefore charges its stall to every request
 * that queued up behind it, instead of hiding it.
 */
inline double
dueLatency(double due_s, double sent_s, double server_latency_s)
{
    return (sent_s - due_s) + server_latency_s;
}

/**
 * Outcome tally of one load phase. A failed or rejected operation counts
 * against the attempted total and as missing its deadline.
 */
struct Outcomes
{
    uint64_t attempted = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t met = 0; ///< Completed within the deadline.

    void
    complete(bool deadline_met)
    {
        ++attempted;
        ++completed;
        if (deadline_met)
            ++met;
    }

    void
    fail()
    {
        ++attempted;
        ++failed;
    }

    double
    failedShare() const
    {
        return attempted > 0 ? static_cast<double>(failed) / attempted : 0.0;
    }

    double
    completedShare() const
    {
        return attempted > 0 ? static_cast<double>(completed) / attempted
                             : 0.0;
    }

    /** Share of attempts that completed and met their deadline. */
    double
    goodput() const
    {
        return attempted > 0 ? static_cast<double>(met) / attempted : 0.0;
    }
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H
