/**
 * @file
 * serve_zoo: open-loop Poisson arrivals at a fixed 20k req/s, 90%
 * interactive, over shape-only ResNet-18 / AlexNet / MobileNetV2 on 2
 * engine tiles, then a stepped-rate ladder for the highest rate that
 * holds. The 3-model working set exceeds the 2 tiles, so the weight cache
 * misses. Admission, the batcher, the weight cache and the engine task
 * path do all the work and numerics do none, so a numeric-kernel change
 * must show no change here. A scraper thread calls stats() at a fixed
 * interval, as a metrics endpoint would.
 */

#include <atomic>
#include <cmath>
#include <deque>
#include <future>
#include <iostream>
#include <thread>

#include "arch/perf_model.h"
#include "core/mirage.h"
#include "models/zoo.h"
#include "runtime/engine.h"
#include "serve/repository.h"
#include "serve/server.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace mirage;
using serve::SloClass;

constexpr double kRate = 20000.0;          ///< Fixed-phase arrivals [1/s].
constexpr double kInteractiveShare = 0.9;
constexpr double kInteractiveDeadline = 0.050;
constexpr double kBatchDeadline = 0.500;
constexpr int kTiles = 2;
constexpr int kMaxBatch = 8;
/// Admission bound, about 0.1 s of arrivals at the highest rates the
/// ladder reaches: a brief stall of the host then shows as latency, and a
/// rate the server cannot sustain as a backlog that outgrows the deadline.
constexpr size_t kQueueCapacity = 16384;
constexpr double kScrapeInterval = 0.100;  ///< stats() period [s].
constexpr double kTailPct = 99.0;
/// Ladder: climb by kClimb until a step fails, then bisect kBisect times.
constexpr double kClimb = 1.5;
constexpr int kMaxClimb = 8;
constexpr int kBisect = 3;
/// A ladder step holds when this share of its requests meet their deadline
/// and interactive p99 stays within the interactive deadline.
constexpr double kHoldGoodput = 0.99;
/// The generator fell behind, rather than stalling briefly, when its median
/// lateness exceeds kLateLimit [s] or its last send trails the schedule by
/// more than kLateTailShare of the step. Brief stalls are not excused:
/// due-time latencies charge them to every request they delay.
constexpr double kLateLimit = 0.0005;
constexpr double kLateTailShare = 0.03;
/// Set-up warm-up: requests sent at kRate through a fresh stack.
constexpr int kWarmupRequests = 2000;
/// A ladder step stops sending once the generator is this far behind [s].
constexpr double kGiveUpLate = 0.050;
constexpr double kNeverGiveUp = 1e9;

const char *const kModels[] = {"resnet18", "alexnet", "mobilenetv2"};
constexpr int kModelCount = 3;

models::ModelShape
modelShape(int i)
{
    switch (i) {
    case 0:
        return models::resNet18();
    case 1:
        return models::alexNet();
    default:
        return models::mobileNetV2();
    }
}

serve::ServerConfig
serverConfig()
{
    serve::ServerConfig cfg;
    cfg.max_batch = kMaxBatch;
    cfg.queue_capacity = kQueueCapacity;
    cfg.interactive = {0.002, kInteractiveDeadline};
    cfg.batch = {0.050, kBatchDeadline};
    return cfg;
}

/** Repository, engine and server of one measured phase. */
struct Stack
{
    Stack()
    {
        for (int i = 0; i < kModelCount; ++i)
            repo.publishShape(kModels[i], modelShape(i));
        runtime::EngineConfig ec;
        ec.tiles = kTiles;
        engine = std::make_unique<runtime::RuntimeEngine>(ec);
        server = std::make_unique<serve::InferenceServer>(repo, *engine,
                                                          serverConfig());
    }

    serve::ModelRepository repo;
    std::unique_ptr<runtime::RuntimeEngine> engine;
    std::unique_ptr<serve::InferenceServer> server;
};

/**
 * Expected modeled time of a reply: estimateInference for its batch size
 * plus, on a cache miss, the reprogramming time of its model's weights.
 */
struct ModeledTable
{
    ModeledTable()
    {
        const core::MirageAccelerator accel;
        for (int m = 0; m < kModelCount; ++m) {
            const models::ModelShape shape = modelShape(m);
            for (int b = 1; b <= kMaxBatch; ++b)
                infer_s[m][b] = accel.estimateInference(shape, b).time_s;
            program_s[m] = accel.perfModel().programmingTimeS(
                shape.weightElements());
        }
    }

    bool
    matches(int model, const serve::InferenceReply &r) const
    {
        if (r.batch_size < 1 || r.batch_size > kMaxBatch)
            return false;
        const double expected =
            infer_s[model][r.batch_size] + (r.cache_hit ? 0.0 : program_s[model]);
        return std::abs(r.model_time_s - expected) <= 1e-12 * expected;
    }

    double infer_s[kModelCount][kMaxBatch + 1] = {};
    double program_s[kModelCount] = {};
};

struct Arrival
{
    double due_s = 0.0; ///< Offset from the phase start.
    SloClass slo = SloClass::Interactive;
    int model = 0;
};

/** Poisson arrivals at `rate` for `seconds`, seeded. */
std::vector<Arrival>
schedule(double rate, double seconds, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Arrival> out;
    out.reserve(static_cast<size_t>(rate * seconds * 1.05) + 16);
    for (double t = 0.0;;) {
        t += -std::log(rng.uniformReal(1e-12, 1.0)) / rate;
        if (t >= seconds)
            break;
        Arrival a;
        a.due_s = t;
        a.slo = rng.bernoulli(kInteractiveShare) ? SloClass::Interactive
                                                 : SloClass::Batch;
        a.model = static_cast<int>(rng.uniformInt(0, kModelCount - 1));
        out.push_back(a);
    }
    return out;
}

/** What one open-loop phase measured. */
struct Phase
{
    Outcomes outcomes;
    std::vector<double> interactive_s, batch_s; ///< Due-time latencies.
    std::vector<double> late_s, submit_s, scrape_s;
    std::vector<double> queue_s, execute_s;
    double batch_size_sum = 0.0;
    double modeled_s_sum = 0.0; ///< Requests' shares of modeled batch time.
    uint64_t modeled_mismatches = 0;
    serve::ServerStats stats;
    runtime::RuntimeReport engine_report;
};

/** Calls stats() every kScrapeInterval until stopped; joins on exit. */
class Scraper
{
  public:
    Scraper(const serve::InferenceServer &server, SpanLog &log)
        : thread_([this, &server, &log] {
              auto next = Clock::now();
              while (!stop_.load()) {
                  next += std::chrono::microseconds(
                      static_cast<int64_t>(kScrapeInterval * 1e6));
                  std::this_thread::sleep_until(next);
                  if (stop_.load())
                      break;
                  SpanScope span(log, "serve.scrape", 0, 1);
                  const auto t0 = Clock::now();
                  (void)server.stats();
                  durations_.push_back(secondsBetween(t0, Clock::now()));
              }
          })
    {
    }

    ~Scraper() { stop(); }

    Scraper(const Scraper &) = delete;
    Scraper &operator=(const Scraper &) = delete;

    /** Stops and joins the thread; returns each scrape's duration. */
    std::vector<double>
    stop()
    {
        stop_.store(true);
        if (thread_.joinable())
            thread_.join();
        return durations_;
    }

  private:
    std::atomic<bool> stop_{false};
    std::vector<double> durations_; ///< Written by the thread until joined.
    std::thread thread_;
};

struct InFlight
{
    size_t arrival = 0;
    double due_s = 0.0, sent_s = 0.0;
    std::future<serve::InferenceReply> reply;
};

/**
 * Sends `arrivals` on schedule through a fresh stack and collects every
 * reply. Sending stops early once the generator runs `give_up_late_s`
 * behind schedule; the phase is then generator-limited and the unsent
 * arrivals are not attempted.
 */
Phase
runPhase(const std::vector<Arrival> &arrivals, const ModeledTable &modeled,
         SpanLog &log, double give_up_late_s)
{
    Stack stack;
    Phase phase;
    std::deque<InFlight> inflight;

    auto settle = [&](InFlight &f) {
        const Arrival &a = arrivals[f.arrival];
        const bool interactive = a.slo == SloClass::Interactive;
        try {
            const serve::InferenceReply r = f.reply.get();
            const double lat = dueLatency(f.due_s, f.sent_s, r.latency_s);
            const double deadline =
                interactive ? kInteractiveDeadline : kBatchDeadline;
            phase.outcomes.complete(lat <= deadline);
            (interactive ? phase.interactive_s : phase.batch_s).push_back(lat);
            phase.queue_s.push_back(r.queue_s);
            const double exec_s = static_cast<double>(r.record.execute_ns) * 1e-9;
            phase.execute_s.push_back(exec_s);
            phase.batch_size_sum += r.batch_size;
            phase.modeled_s_sum += static_cast<double>(r.record.modeled_ns) * 1e-9;
            if (!modeled.matches(a.model, r))
                ++phase.modeled_mismatches;
            if (log.enabled()) {
                const uint64_t req = log.newUid();
                const uint64_t id = f.arrival + 1;
                const double admitted = f.sent_s;
                log.add({"serve.request", req, 0, id, -1, -1, f.due_s,
                         f.due_s + lat});
                log.add({"serve.queue", log.newUid(), req, id, -1, -1,
                         admitted, admitted + r.queue_s});
                log.add({"serve.execute", log.newUid(), req, id, -1, -1,
                         admitted + r.queue_s,
                         admitted + r.queue_s + exec_s});
            }
        } catch (const std::exception &) {
            phase.outcomes.fail(); // rejected or failed: a deadline miss
        }
    };

    Scraper scraper(*stack.server, log);
    const auto start = Clock::now() + std::chrono::milliseconds(1);
    const double t0 = log.at(start);
    for (size_t i = 0; i < arrivals.size(); ++i) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         arrivals[i].due_s));
        // Ahead of schedule: collect finished replies, oldest first.
        while (Clock::now() < due) {
            if (!inflight.empty() &&
                inflight.front().reply.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready) {
                settle(inflight.front());
                inflight.pop_front();
            }
        }
        serve::InferenceRequest req;
        req.model = kModels[arrivals[i].model];
        req.slo = arrivals[i].slo;
        req.samples = 1;
        InFlight f;
        f.arrival = i;
        f.due_s = t0 + arrivals[i].due_s;
        const uint64_t span_id = i + 1;
        {
            SpanScope span(log, "serve.submit", span_id, -1);
            const auto sent = Clock::now();
            f.reply = stack.server->submit(std::move(req));
            f.sent_s = log.at(sent);
            phase.submit_s.push_back(secondsBetween(sent, Clock::now()));
        }
        phase.late_s.push_back(f.sent_s - f.due_s);
        inflight.push_back(std::move(f));
        if (phase.late_s.back() > give_up_late_s)
            break;
    }
    stack.server->drain();
    for (InFlight &f : inflight)
        settle(f);
    phase.scrape_s = scraper.stop();
    phase.stats = stack.server->stats();
    phase.engine_report = stack.engine->report();
    return phase;
}

struct Step
{
    double rate = 0.0;
    bool held = false;
    bool generator_limited = false;
};

Step
ladderStep(double rate, double seconds, uint64_t seed,
           const ModeledTable &modeled, SpanLog &log)
{
    const std::vector<Arrival> arrivals = schedule(rate, seconds, seed);
    const Phase p = runPhase(arrivals, modeled, log, kGiveUpLate);
    Step s;
    s.rate = rate;
    s.generator_limited =
        p.late_s.size() < arrivals.size() ||
        (!p.late_s.empty() && (percentile(p.late_s, 50) > kLateLimit ||
                               p.late_s.back() > kLateTailShare * seconds));
    const double p99 = percentile(p.interactive_s, kTailPct);
    s.held = !s.generator_limited && p.outcomes.goodput() >= kHoldGoodput &&
             p99 <= kInteractiveDeadline;
    std::cerr << "serve_zoo ladder: rate " << rate << "/s goodput "
              << p.outcomes.goodput() << " interactive p99 " << p99 * 1e3
              << " ms, generator late p50/p99 "
              << percentile(p.late_s, 50) * 1e3 << "/"
              << percentile(p.late_s, 99) * 1e3 << " ms"
              << (s.generator_limited ? " (generator-limited)"
                                      : s.held ? " (holds)" : " (fails)")
              << "\n";
    return s;
}

/**
 * Highest rate that holds: climb geometrically from the fixed rate until
 * a step fails, then bisect between the last step that held and the first
 * that did not. A generator-limited step says nothing about the server,
 * so it ends the search without counting as a failure of the server.
 */
double
ladder(double seconds_per_step, uint64_t seed, const ModeledTable &modeled,
       SpanLog &log, int &generator_limited_steps)
{
    double good = 0.0, bad = 0.0;
    uint64_t step_seed = seed;
    double rate = kRate;
    for (int i = 0; i < kMaxClimb; ++i, rate *= kClimb) {
        const Step s = ladderStep(rate, seconds_per_step, ++step_seed, modeled, log);
        generator_limited_steps += s.generator_limited;
        if (s.generator_limited)
            return good;
        if (!s.held) {
            bad = rate;
            break;
        }
        good = rate;
    }
    if (bad == 0.0)
        return good;
    for (int i = 0; i < kBisect; ++i) {
        const double mid = std::sqrt(std::max(good, kRate / kClimb) * bad);
        const Step s = ladderStep(mid, seconds_per_step, ++step_seed, modeled, log);
        generator_limited_steps += s.generator_limited;
        if (s.generator_limited)
            break;
        (s.held ? good : bad) = mid;
    }
    return good;
}

} // namespace

WorkloadResult
runServeZoo(const RunOptions &opt)
{
    WorkloadResult out;
    SpanLog log;
    const ModeledTable modeled;

    std::vector<double> setup_s;
    for (int s = 0; s < kSetups; ++s) {
        const auto t0 = Clock::now();
        runPhase(schedule(kRate, kWarmupRequests / kRate, opt.seed + 100 + s),
                 modeled, log, kNeverGiveUp);
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    }

    // The untraced run spends all its time in the fixed-rate phase. The
    // traced run splits it into an untraced and a traced part, then climbs
    // the ladder.
    const double fixed_s = opt.trace ? opt.seconds * 0.3 : opt.seconds;
    const std::vector<Arrival> arrivals = schedule(kRate, fixed_s, opt.seed);
    const Phase fixed = runPhase(arrivals, modeled, log, kNeverGiveUp);
    // Before the ladder's overload steps and before any span is recorded.
    const double rss_mb = rssPeakMb();
    auto gate = [&out](const Phase &p, size_t sent) {
        out.check(p.outcomes.attempted == sent,
                  "a sent request got no reply and no counted failure");
        out.check(p.stats.submitted == sent &&
                      p.stats.completed + p.stats.failed + p.stats.rejected ==
                          p.stats.submitted,
                  "server stats do not account for every sent request");
        out.check(p.modeled_mismatches == 0,
                  "a reply's modeled time differs from estimateInference "
                  "plus reprogramming");
        out.attempted += p.outcomes.attempted;
        out.failed += p.outcomes.failed;
    };
    gate(fixed, arrivals.size());
    if (!opt.trace) {
        out.add("setup_s", percentile(setup_s, 50), "s");
        out.add("completed_share", fixed.outcomes.completedShare(), "share");
        out.add("goodput_share", fixed.outcomes.goodput(), "share");
        out.add("throughput_per_s",
                static_cast<double>(fixed.outcomes.met) / fixed_s, "1/s");
        out.add("modeled_uj_per_item", fixed.stats.energyPerRequestJ() * 1e6,
                "uJ");
        return out;
    }

    log.setEnabled(true);
    const std::vector<Arrival> traced_arrivals =
        schedule(kRate, fixed_s, opt.seed + 1);
    const Phase traced =
        runPhase(traced_arrivals, modeled, log, kNeverGiveUp);
    log.setEnabled(false);
    gate(traced, traced_arrivals.size());

    int generator_limited = 0;
    const double max_rate =
        ladder(opt.seconds * 0.4 / (kBisect + 6), opt.seed * 7919 + 1,
               modeled, log, generator_limited);

    const serve::ServerStats &st = traced.stats;
    const runtime::RuntimeReport &er = traced.engine_report;
    const double tasks = static_cast<double>(er.jobs_completed);
    // The workload's own end-to-end figures, from the untraced part.
    out.add("mem.rss_peak_mb", rss_mb, "MB");
    out.add("load.failed_share", fixed.outcomes.failedShare(), "share");
    out.add("serve.goodput", fixed.outcomes.goodput(), "share");
    out.add("serve.interactive_ms_p50", percentile(fixed.interactive_s, 50) * 1e3,
            "ms");
    out.add("serve.interactive_ms_p99",
            percentile(fixed.interactive_s, kTailPct) * 1e3, "ms");
    out.add("serve.batch_ms_p99", percentile(fixed.batch_s, kTailPct) * 1e3, "ms");
    out.add("serve.modeled_uj_per_req", fixed.stats.energyPerRequestJ() * 1e6,
            "uJ");
    out.add("serve.max_rate_rps", max_rate, "1/s");
    out.add("load.generator_limited_steps", generator_limited, "count");
    out.add("serve.submit_us_p50", percentile(traced.submit_s, 50) * 1e6, "us");
    out.add("serve.submit_us_p99", percentile(traced.submit_s, 99) * 1e6, "us");
    out.add("serve.scrape_ms_p50", percentile(traced.scrape_s, 50) * 1e3, "ms");
    out.add("serve.scrape_ms_max", percentile(traced.scrape_s, 100) * 1e3, "ms");
    out.add("serve.queue_ms_p50", percentile(traced.queue_s, 50) * 1e3, "ms");
    out.add("serve.execute_ms_p50", percentile(traced.execute_s, 50) * 1e3, "ms");
    out.add("serve.batch_size_mean",
            traced.outcomes.completed > 0
                ? traced.batch_size_sum / traced.outcomes.completed
                : 0.0,
            "count");
    out.add("serve.cache_hit_rate", st.cacheHitRate(), "share");
    out.add("load.late_ms_max", percentile(traced.late_s, 100) * 1e3, "ms");
    // The engine's task path publishes only sums (RuntimeReport), so these
    // two are per-task means.
    out.add("runtime.queue_ms_p50",
            tasks > 0 ? (er.total_latency_s - er.busy_time_s) / tasks * 1e3 : 0.0,
            "ms");
    out.add("runtime.exec_ms_p50",
            tasks > 0 ? er.busy_time_s / tasks * 1e3 : 0.0, "ms");
    out.add("runtime.tile_utilization", er.utilization(), "share");
    out.add("runtime.max_queue_depth", static_cast<double>(er.max_queue_depth),
            "count");
    out.add("runtime.job_retries", static_cast<double>(er.job_retries), "count");
    out.add("runtime.jobs_failed", static_cast<double>(er.jobs_failed), "count");
    out.add("arch.modeled_item_ms",
            traced.outcomes.completed > 0
                ? traced.modeled_s_sum / traced.outcomes.completed * 1e3
                : 0.0,
            "ms");
    out.add("obs.trace_overhead_share",
            percentile(traced.interactive_s, 50) /
                    percentile(fixed.interactive_s, 50) -
                1.0,
            "share");
    if (!opt.trace_out.empty() &&
        !SpanLog::writeChromeTrace(log.take(), opt.trace_out, 200000))
        std::cerr << "serve_zoo: cannot write " << opt.trace_out << "\n";
    return out;
}

} // namespace perfbench
