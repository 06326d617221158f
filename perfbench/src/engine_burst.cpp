/**
 * @file
 * engine_burst: closed loop of bursts of 8 identical 192x64x96 BFP+RNS
 * GEMM jobs through RuntimeEngine::submitGemm (4 tiles, max_batch 8, the
 * default thread pool); the next burst starts when the previous one has
 * completed. The engine's fusion, row sharding and thread pool do the
 * work here while nn/, train/ and serve/ are idle.
 */

#include <algorithm>
#include <cstring>
#include <future>
#include <iostream>

#include "core/mirage.h"
#include "runtime/engine.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace mirage;

constexpr int kM = 192, kK = 64, kN = 96;
constexpr int kJobsPerBurst = 8;
constexpr int kTiles = 4;
/// Bursts run in each set-up; the first cold bursts read ~25% slow.
constexpr int kWarmupBursts = 20;
constexpr double kTailPct = 99.0;

runtime::EngineConfig
engineConfig()
{
    runtime::EngineConfig cfg;
    cfg.tiles = kTiles;
    cfg.max_batch = kJobsPerBurst;
    return cfg;
}

struct Operands
{
    std::vector<float> a, b;
    std::vector<float> expected; ///< MirageAccelerator::gemm on (a, b).
};

struct Burst
{
    std::vector<double> job_latency_s;
    std::vector<double> job_queue_s;
    double wall_s = 0.0;
};

struct Loop
{
    std::vector<double> latency_s, queue_s, exec_s;
    std::vector<double> burst_s; ///< Wall time of each burst.
    uint64_t bursts = 0;
};

/** GEMM jobs per second at the median burst time. */
double
jobsPerSecond(const Loop &loop)
{
    return kJobsPerBurst / percentile(loop.burst_s, 50);
}

/** One burst; every result is checked bit for bit against `ops`. */
Burst
runBurst(runtime::RuntimeEngine &engine, const std::vector<Operands> &ops,
         SpanLog &log, uint64_t burst_id, Outcomes &outcomes,
         WorkloadResult &out)
{
    Burst burst;
    SpanScope root(log, "engine.burst", burst_id, -1);
    const auto t0 = Clock::now();
    std::vector<std::future<runtime::GemmResult>> futures;
    std::vector<double> submit_at;
    futures.reserve(ops.size());
    for (const Operands &op : ops) {
        runtime::GemmRequest req;
        req.a = op.a;
        req.b = op.b;
        req.m = kM;
        req.k = kK;
        req.n = kN;
        submit_at.push_back(log.now());
        futures.push_back(engine.submitGemm(std::move(req)));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
        try {
            const runtime::GemmResult r = futures[i].get();
            const bool exact =
                r.c.size() == ops[i].expected.size() &&
                std::memcmp(r.c.data(), ops[i].expected.data(),
                            r.c.size() * sizeof(float)) == 0;
            out.check(exact, "engine GEMM result differs from "
                             "MirageAccelerator::gemm");
            outcomes.complete(exact);
            burst.job_latency_s.push_back(r.latency_s);
            burst.job_queue_s.push_back(r.queue_s);
            if (log.enabled()) {
                // The job's own spans, placed from the engine's timings.
                const uint64_t job = log.newUid();
                const double s = submit_at[i];
                log.add({"runtime.job", job, root.uid(), burst_id, -1, -1, s,
                         s + r.latency_s});
                log.add({"runtime.queue", log.newUid(), job, burst_id, -1, -1,
                         s, s + r.queue_s});
                log.add({"runtime.exec", log.newUid(), job, burst_id, -1, -1,
                         s + r.queue_s, s + r.latency_s});
            }
        } catch (const std::exception &e) {
            outcomes.fail();
            std::cerr << "engine_burst: job failed: " << e.what() << "\n";
        }
    }
    burst.wall_s = secondsBetween(t0, Clock::now());
    return burst;
}

Loop
closedLoop(runtime::RuntimeEngine &engine, const std::vector<Operands> &ops,
           SpanLog &log, double seconds, Outcomes &outcomes,
           WorkloadResult &out)
{
    Loop loop;
    const auto end = deadlineAfter(seconds);
    do {
        const Burst b = runBurst(engine, ops, log, ++loop.bursts, outcomes, out);
        loop.burst_s.push_back(b.wall_s);
        for (size_t i = 0; i < b.job_latency_s.size(); ++i) {
            loop.latency_s.push_back(b.job_latency_s[i]);
            loop.queue_s.push_back(b.job_queue_s[i]);
            loop.exec_s.push_back(b.job_latency_s[i] - b.job_queue_s[i]);
        }
    } while (Clock::now() < end);
    return loop;
}

} // namespace

WorkloadResult
runEngineBurst(const RunOptions &opt)
{
    WorkloadResult out;
    Rng rng(opt.seed);
    core::MirageAccelerator reference(engineConfig().accel);
    std::vector<Operands> ops(kJobsPerBurst);
    for (Operands &op : ops) {
        op.a.resize(static_cast<size_t>(kM) * kK);
        op.b.resize(static_cast<size_t>(kK) * kN);
        for (float &v : op.a)
            v = static_cast<float>(rng.gaussian());
        for (float &v : op.b)
            v = static_cast<float>(rng.gaussian());
        op.expected = reference.gemm(op.a, op.b, kM, kK, kN);
    }

    SpanLog log;
    Outcomes warm_outcomes;
    std::vector<double> setup_s;
    std::unique_ptr<runtime::RuntimeEngine> engine;
    for (int s = 0; s < kSetups; ++s) {
        const auto t0 = Clock::now();
        engine.reset();
        engine = std::make_unique<runtime::RuntimeEngine>(engineConfig());
        for (int i = 0; i < kWarmupBursts; ++i)
            runBurst(*engine, ops, log, 0, warm_outcomes, out);
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    }

    Outcomes outcomes;
    Loop loop = closedLoop(*engine, ops, log,
                           opt.trace ? opt.seconds / 2 : opt.seconds,
                           outcomes, out);
    out.attempted = outcomes.attempted;
    out.failed = outcomes.failed;
    const double mac_per_job = static_cast<double>(kM) * kK * kN;
    const arch::GemmPerf modeled =
        reference.perfModel().best(arch::GemmShape{kM, kK, kN}).second;

    if (!opt.trace) {
        const arch::MirageEnergyModel energy(reference.config());
        out.add("setup_s", percentile(setup_s, 50), "s");
        out.add("completed_share", outcomes.completedShare(), "share");
        out.add("goodput_share", outcomes.goodput(), "share");
        out.add("throughput_per_s", jobsPerSecond(loop), "1/s");
        out.add("modeled_uj_per_item",
                energy.gemmEnergyJ(modeled, /*include_sram=*/false) * 1e6, "uJ");
        return out;
    }

    // Traced half: the same loop with spans on, read against the
    // engine's own counters over exactly that window.
    const double untraced_p50 = percentile(loop.latency_s, 50);
    const runtime::RuntimeReport mid = engine->report();
    // The workload's own end-to-end figures, from the untraced half.
    out.add("mem.rss_peak_mb", rssPeakMb(), "MB");
    out.add("load.failed_share", outcomes.failedShare(), "share");
    out.add("engine.gmacs_per_s", jobsPerSecond(loop) * mac_per_job / 1e9,
            "GMAC/s");
    out.add("engine.job_ms_p50", untraced_p50 * 1e3, "ms");
    out.add("engine.job_ms_p99", percentile(loop.latency_s, kTailPct) * 1e3, "ms");
    if (highestSupportedPercentile(loop.latency_s.size(), {kTailPct}) < kTailPct)
        std::cerr << "engine_burst: p99 has fewer than 10 samples beyond it\n";
    log.setEnabled(true);
    Outcomes traced_outcomes;
    const Loop traced =
        closedLoop(*engine, ops, log, opt.seconds / 2, traced_outcomes, out);
    log.setEnabled(false);
    const runtime::RuntimeReport after = engine->report();
    out.attempted += traced_outcomes.attempted;
    out.failed += traced_outcomes.failed;

    const double bursts = static_cast<double>(traced.bursts);
    const double busy_s = after.busy_time_s - mid.busy_time_s;
    const double window_s = after.wall_time_s - mid.wall_time_s;
    const double jobs = static_cast<double>(traced.latency_s.size());
    const double batches =
        static_cast<double>(after.batches_dispatched - mid.batches_dispatched);
    out.add("numerics.gemm.calls", jobs / bursts, "count");
    out.add("numerics.gemm.ms", busy_s / bursts * 1e3, "ms");
    out.add("numerics.gemm.share", busy_s / (window_s * kTiles), "share");
    out.add("numerics.gemm.gmacs_per_s", jobs * mac_per_job / busy_s / 1e9,
            "GMAC/s");
    out.add("numerics.gemm.fwd_ms", busy_s / bursts * 1e3, "ms");
    out.add("runtime.queue_ms_p50", percentile(traced.queue_s, 50) * 1e3, "ms");
    out.add("runtime.exec_ms_p50", percentile(traced.exec_s, 50) * 1e3, "ms");
    out.add("runtime.tile_utilization", busy_s / (window_s * kTiles), "share");
    out.add("runtime.jobs_per_batch",
            batches > 0 ? static_cast<double>(after.gemm_jobs - mid.gemm_jobs) /
                              batches
                        : 0.0,
            "count");
    out.add("runtime.max_queue_depth",
            static_cast<double>(after.max_queue_depth), "count");
    out.add("runtime.job_retries",
            static_cast<double>(after.job_retries - mid.job_retries), "count");
    out.add("runtime.jobs_failed",
            static_cast<double>(after.jobs_failed - mid.jobs_failed), "count");
    out.add("runtime.gmacs_per_s", jobsPerSecond(traced) * mac_per_job / 1e9,
            "GMAC/s");
    out.add("arch.modeled_item_ms", modeled.time_s * 1e3, "ms");
    out.add("arch.modeled_gemm_ms.engine_job.fwd", modeled.time_s * 1e3, "ms");
    out.add("arch.measured_over_modeled.engine_job.fwd",
            percentile(traced.exec_s, 50) / modeled.time_s, "ratio");
    out.add("obs.trace_overhead_share",
            percentile(traced.latency_s, 50) / untraced_p50 - 1.0, "share");
    if (!opt.trace_out.empty() &&
        !SpanLog::writeChromeTrace(log.take(), opt.trace_out, 200000))
        std::cerr << "engine_burst: cannot write " << opt.trace_out << "\n";
    return out;
}

} // namespace perfbench
