/**
 * @file
 * Self-tests of the benchmark's statistics and tracing rules. run.py runs
 * this before every measurement; any failure exits nonzero.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b));
}

void
testPercentileRule()
{
    using perfbench::highestSupportedPercentile;
    using perfbench::samplesBeyond;
    // Nearest rank: p50 of 1..20 is 10, with 10 samples beyond it.
    std::vector<double> v;
    for (int i = 20; i >= 1; --i)
        v.push_back(i);
    expect(perfbench::percentile(v, 50) == 10.0, "p50 of 1..20 is 10");
    expect(perfbench::percentile(v, 100) == 20.0, "p100 is the maximum");
    expect(perfbench::percentile({}, 50) == 0.0, "empty sample reads 0");
    expect(samplesBeyond(20, 50) == 10, "20 samples: 10 beyond p50");
    expect(highestSupportedPercentile(20, {50, 90, 99}) == 50,
           "20 samples support p50 but not p90");
    expect(highestSupportedPercentile(19, {50, 90, 99}) == 0,
           "19 samples support no percentile of the ladder");
    expect(highestSupportedPercentile(100, {50, 90, 99}) == 90,
           "100 samples support p90 (10 beyond) but not p99");
    expect(highestSupportedPercentile(1000, {50, 90, 99}) == 99,
           "1000 samples support p99 (10 beyond)");
    expect(highestSupportedPercentile(999, {50, 90, 99}) == 90,
           "999 samples leave 9 beyond p99");
}

void
testDueLatency()
{
    // Sent on time: due-time latency equals the server's latency.
    expect(near(perfbench::dueLatency(1.0, 1.0, 0.004), 0.004),
           "on-time send adds nothing");
    // A generator 30 ms late charges those 30 ms to the request.
    expect(near(perfbench::dueLatency(1.0, 1.030, 0.004), 0.034),
           "generator lateness is part of the latency");
}

void
testFailureAsMiss()
{
    perfbench::Outcomes o;
    o.complete(true);
    o.complete(false); // completed late
    o.fail();          // rejected
    o.fail();          // failed
    expect(o.attempted == 4, "every outcome is an attempt");
    expect(near(o.failedShare(), 0.5), "failed share counts rejections");
    expect(near(o.completedShare(), 0.5), "completed share");
    expect(near(o.goodput(), 0.25), "failures count as deadline misses");
    expect(perfbench::Outcomes{}.goodput() == 0.0, "no attempts: 0");
}

void
testSelfTime()
{
    using perfbench::Span;
    // Root [0, 10) with children [1, 4) and [3, 6) on two threads and a
    // grandchild [1, 2): root self 10 - 5, first child 3 - 1.
    std::vector<Span> spans = {
        {"root", 1, 0, 7, -1, -1, 0.0, 10.0},
        {"a", 2, 1, 7, 0, -1, 1.0, 4.0},
        {"b", 3, 1, 7, 1, -1, 3.0, 6.0},
        {"c", 4, 2, 7, 0, -1, 1.0, 2.0},
    };
    const std::vector<double> self = perfbench::selfTimes(spans);
    expect(near(self[0], 5.0), "root self time excludes overlapping children");
    expect(near(self[1], 2.0), "child self time excludes its grandchild");
    expect(near(self[2], 3.0), "leaf self time is its duration");
    expect(near(perfbench::coveredLength({{-1, 2}, {8, 12}}, 0, 10), 4.0),
           "covered length clips to the parent");
}

} // namespace

int
main()
{
    testPercentileRule();
    testDueLatency();
    testFailureAsMiss();
    testSelfTime();
    if (failures == 0)
        std::fprintf(stderr, "selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
