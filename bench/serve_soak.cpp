/**
 * @file
 * Open-loop Poisson soak test for the serve/ subsystem.
 *
 * A seeded load generator precomputes a deterministic arrival schedule
 * (exponential inter-arrivals, Bernoulli SLO mix, round-robin model
 * choice) and replays it against an InferenceServer over a RuntimeEngine,
 * sweeping arrival rate x SLO mix x engine tiles. The report shows the
 * batching-vs-latency tradeoff (p50/p95/p99 wall latency against the
 * interactive class's max_delay flush bound) and the weight-programming
 * cache's amortization: energy per request with a resident working set
 * versus a thrashing one versus the cold-programming path.
 *
 * The schedule is deterministic for a fixed seed; wall-clock latencies
 * naturally vary with the host, but the batching structure, cache hit
 * pattern, and modeled energy are reproducible.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "models/zoo.h"
#include "obs/context.h"
#include "obs/fidelity.h"
#include "obs/flight_recorder.h"
#include "runtime/engine.h"
#include "serve/repository.h"
#include "serve/server.h"

namespace {

using namespace mirage;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kScheduleSeed = 0x534f414bu; // "SOAK"

struct Arrival
{
    double time_s = 0.0;
    serve::SloClass slo = serve::SloClass::Interactive;
    int model = 0;
};

/** Deterministic open-loop schedule: Poisson arrivals, Bernoulli mix. */
std::vector<Arrival>
makeSchedule(int requests, double rate_per_s, double interactive_frac,
             int model_count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Arrival> schedule;
    schedule.reserve(static_cast<size_t>(requests));
    double t = 0.0;
    for (int i = 0; i < requests; ++i) {
        // Exponential inter-arrival via inverse CDF on a uniform draw.
        const double u = rng.uniformReal(1e-12, 1.0);
        t += -std::log(u) / rate_per_s;
        Arrival a;
        a.time_s = t;
        a.slo = rng.bernoulli(interactive_frac)
                    ? serve::SloClass::Interactive
                    : serve::SloClass::Batch;
        a.model = static_cast<int>(
            rng.uniformInt(0, static_cast<int64_t>(model_count) - 1));
        schedule.push_back(a);
    }
    return schedule;
}

struct SoakResult
{
    serve::ServerStats stats;
    double wall_s = 0.0;
};

/**
 * Replays one schedule against a fresh repository/engine/server.
 * Completed requests' structured records are appended to `request_log`
 * (submission order) when non-null; `deadline_override_s` > 0 stamps
 * every request with that deadline (miss-burst injection); `slo_cfg`
 * overrides the server's burn-monitor knobs.
 */
/** Deterministic tile failure: tile `tile` is failed via
 *  RuntimeEngine::failTile once the replay clock passes `time_s`. */
struct TileFail
{
    int tile = 0;
    double time_s = 0.0;
};

SoakResult
runSoak(const std::vector<models::ModelShape> &zoo, int tiles,
        const std::vector<Arrival> &schedule, int max_batch,
        std::vector<obs::RequestRecord> *request_log = nullptr,
        double deadline_override_s = 0.0,
        const serve::SloMonitorConfig *slo_cfg = nullptr,
        const std::vector<TileFail> *tile_fails = nullptr)
{
    serve::ModelRepository repo;
    for (const models::ModelShape &m : zoo)
        repo.publishShape(m.name, m);

    runtime::EngineConfig ecfg;
    ecfg.tiles = tiles;
    ecfg.queue_capacity = 256;
    runtime::RuntimeEngine engine(ecfg);

    serve::ServerConfig scfg;
    scfg.max_batch = max_batch;
    scfg.queue_capacity = schedule.size() + 1;
    scfg.interactive = {0.002, 0.050};
    scfg.batch = {0.020, 0.500};
    if (slo_cfg != nullptr)
        scfg.slo = *slo_cfg;
    serve::InferenceServer server(repo, engine, scfg);

    std::vector<TileFail> fails;
    if (tile_fails != nullptr)
        fails = *tile_fails;
    std::sort(fails.begin(), fails.end(),
              [](const TileFail &x, const TileFail &y) {
                  return x.time_s < y.time_s;
              });
    size_t next_fail = 0;

    std::vector<std::future<serve::InferenceReply>> futures;
    futures.reserve(schedule.size());
    const Clock::time_point t0 = Clock::now();
    for (const Arrival &a : schedule) {
        // Deterministic failover injection: tile N goes dark once the
        // schedule clock passes T (keyed to the arrival schedule, not the
        // host wall clock, so the same spec fails at the same request).
        while (next_fail < fails.size() &&
               fails[next_fail].time_s <= a.time_s) {
            engine.failTile(fails[next_fail].tile % tiles);
            ++next_fail;
        }
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(a.time_s)));
        serve::InferenceRequest req;
        req.model = zoo[static_cast<size_t>(a.model)].name;
        req.slo = a.slo;
        req.samples = 1;
        req.deadline_s = deadline_override_s;
        futures.push_back(server.submit(std::move(req)));
    }
    for (auto &f : futures) {
        try {
            serve::InferenceReply reply = f.get();
            if (request_log != nullptr)
                request_log->push_back(reply.record);
        } catch (const std::exception &) {
            if (request_log == nullptr)
                throw; // default runs treat failures as fatal
            // Logged runs tolerate rejected requests: they carry no
            // completion record.
        }
    }
    server.drain();

    SoakResult out;
    out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    out.stats = server.stats();
    return out;
}

std::string
ms(double seconds, int decimals = 2)
{
    return formatFixed(seconds * 1e3, decimals);
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts = bench::BenchOptions::parse(
        argc, argv,
        {{"--request-log", "<path>",
          "JSONL of per-request completion records"},
         {"--inject-miss-burst", nullptr,
          "extra scenario with impossible deadlines (drives the "
          "deadline-burn alert path)"},
         {"--hold", "<seconds>",
          "keep the process alive at the end so a scraper can curl the "
          "metrics endpoint"},
         {"--inject-tile-fail", "<N@T>",
          "(repeatable) extra failover scenario that fails tile N once the "
          "arrival-schedule clock passes T seconds"},
         {"--inject-noise-drift", nullptr,
          "extra scenario feeding a seeded degrading SNR series into the "
          "fidelity drift detector (drives the fidelity_drift alert "
          "path)"}});
    std::string request_log_path;
    bool inject_miss_burst = false;
    bool inject_noise_drift = false;
    double hold_s = 0.0;
    std::vector<TileFail> tile_fails;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--request-log") == 0 && i + 1 < argc)
            request_log_path = argv[++i];
        else if (std::strcmp(argv[i], "--inject-miss-burst") == 0)
            inject_miss_burst = true;
        else if (std::strcmp(argv[i], "--inject-noise-drift") == 0)
            inject_noise_drift = true;
        else if (std::strcmp(argv[i], "--hold") == 0 && i + 1 < argc)
            hold_s = std::atof(argv[++i]);
        else if (std::strcmp(argv[i], "--inject-tile-fail") == 0 &&
                 i + 1 < argc) {
            const std::string spec = argv[++i];
            const size_t at = spec.find('@');
            if (at == std::string::npos) {
                std::cerr << "--inject-tile-fail wants N@T, got '" << spec
                          << "'\n";
                return 2;
            }
            TileFail tf;
            tf.tile = std::atoi(spec.substr(0, at).c_str());
            tf.time_s = std::atof(spec.substr(at + 1).c_str());
            tile_fails.push_back(tf);
        }
    }
    std::vector<obs::RequestRecord> request_log;
    std::vector<obs::RequestRecord> *log_ptr =
        request_log_path.empty() ? nullptr : &request_log;

    bench::banner("serve soak",
                  "SLO-aware serving: Poisson load x SLO mix x tiles", opts);

    // Zoo working set: three mid-size models (distinct weight footprints).
    const std::vector<models::ModelShape> zoo = {
        models::resNet18(), models::alexNet(), models::mobileNetV2()};

    const int requests = opts.full ? 2000 : 400;
    const std::vector<double> rates =
        opts.full ? std::vector<double>{500, 2000, 8000}
                  : std::vector<double>{1000, 4000};
    const std::vector<double> mixes =
        opts.full ? std::vector<double>{0.5, 0.9} : std::vector<double>{0.9};
    const std::vector<int> tile_counts =
        opts.full ? std::vector<int>{2, 4, 8} : std::vector<int>{2, 4};
    const int max_batch = 8;

    // --- sweep: arrival rate x mix x tiles ------------------------------
    TablePrinter sweep({"rate(req/s)", "inter%", "tiles", "reqs", "thpt(req/s)",
                        "p50 int(ms)", "p95 int(ms)", "p99 int(ms)",
                        "p99 batch(ms)", "miss%", "cache hit%",
                        "energy/req(mJ)", "prog share%", "avg batch"});
    for (double rate : rates) {
        for (double mix : mixes) {
            const std::vector<Arrival> schedule = makeSchedule(
                requests, rate, mix, static_cast<int>(zoo.size()),
                kScheduleSeed);
            for (int tiles : tile_counts) {
                const SoakResult res =
                    runSoak(zoo, tiles, schedule, max_batch, log_ptr);
                const serve::ServerStats &s = res.stats;
                const double thpt =
                    res.wall_s > 0 ? static_cast<double>(s.completed) /
                                         res.wall_s
                                   : 0.0;
                const double avg_batch =
                    s.batches > 0 ? static_cast<double>(s.completed) /
                                        static_cast<double>(s.batches)
                                  : 0.0;
                sweep.addRow(
                    {formatFixed(rate, 0), formatFixed(mix * 100, 0),
                     std::to_string(tiles), std::to_string(s.completed),
                     formatFixed(thpt, 0),
                     ms(s.interactive_latency.p50_s),
                     ms(s.interactive_latency.p95_s),
                     ms(s.interactive_latency.p99_s),
                     ms(s.batch_latency.p99_s),
                     formatFixed(s.completed > 0
                                     ? 100.0 * static_cast<double>(
                                                   s.deadline_misses) /
                                           static_cast<double>(s.completed)
                                     : 0.0,
                                 2),
                     formatFixed(100.0 * s.cacheHitRate(), 1),
                     formatSig(s.energyPerRequestJ() * 1e3, 4),
                     formatFixed(s.energy_j > 0
                                     ? 100.0 * s.programming_energy_j /
                                           s.energy_j
                                     : 0.0,
                                 1),
                     formatFixed(avg_batch, 2)});
            }
        }
    }
    bench::emit(sweep, opts);

    // --- cache amortization: resident vs thrashing vs cold --------------
    // The SAME 3-model Poisson workload served with a tile count that
    // holds the working set (every request after warm-up hits) versus one
    // that does not (LRU thrash), against the analytic cold path that
    // reprograms the model's weights for every micro-batch.
    TablePrinter cache({"scenario", "models", "tiles", "cache hit%",
                        "energy/req(mJ)", "prog share%", "vs cold"});
    {
        const double rate = 4000;
        const std::vector<Arrival> schedule = makeSchedule(
            requests, rate, 1.0, static_cast<int>(zoo.size()),
            kScheduleSeed);

        // Mean programming energy across the working set, from the same
        // arch model the WeightCache charges on a miss.
        const arch::MirageEnergyModel energy_model{arch::MirageConfig{}};
        double mean_prog_j = 0.0;
        for (const models::ModelShape &m : zoo)
            mean_prog_j += energy_model.programmingEnergyJ(m.weightElements());
        mean_prog_j /= static_cast<double>(zoo.size());

        struct Scenario
        {
            const char *name;
            int tiles;
        };
        double cold_energy_per_req = 0.0;
        std::vector<std::vector<std::string>> rows;
        for (const Scenario &sc :
             {Scenario{"resident", 4}, Scenario{"thrashing", 2}}) {
            const SoakResult res =
                runSoak(zoo, sc.tiles, schedule, max_batch, log_ptr);
            const serve::ServerStats &s = res.stats;
            const double compute_per_req =
                (s.energy_j - s.programming_energy_j) /
                static_cast<double>(s.completed);
            const double avg_batch =
                s.batches > 0 ? static_cast<double>(s.completed) /
                                    static_cast<double>(s.batches)
                              : 1.0;
            // Cold path on this same workload: one reprogram per batch.
            if (cold_energy_per_req == 0.0)
                cold_energy_per_req =
                    compute_per_req + mean_prog_j / avg_batch;
            rows.push_back(
                {sc.name, std::to_string(zoo.size()),
                 std::to_string(sc.tiles),
                 formatFixed(100.0 * s.cacheHitRate(), 1),
                 formatSig(s.energyPerRequestJ() * 1e3, 4),
                 formatFixed(s.energy_j > 0
                                 ? 100.0 * s.programming_energy_j /
                                       s.energy_j
                                 : 0.0,
                             1),
                 formatFixed(s.energyPerRequestJ() / cold_energy_per_req,
                             3)});
        }
        cache.addRow({"cold (reprogram each batch)",
                      std::to_string(zoo.size()), "-", "0.0",
                      formatSig(cold_energy_per_req * 1e3, 4), "-",
                      "1.000"});
        for (auto &row : rows)
            cache.addRow(std::move(row));
    }
    bench::emit(cache, opts);

    // --- injected deadline-miss burst (SLO alert + flight-dump path) ----
    if (inject_miss_burst) {
        // Every request carries an impossible 1 µs deadline, so every
        // completion is a miss: fast/slow-window burn saturates at
        // 1/miss_budget = 100x, far past the 10x alert threshold. Short
        // windows keep the whole excursion inside the quick run.
        serve::SloMonitorConfig slo;
        slo.fast_window_s = 1.0;
        slo.slow_window_s = 12.0;
        slo.min_events = 10;
        const std::vector<Arrival> burst =
            makeSchedule(200, 4000, 1.0, static_cast<int>(zoo.size()),
                         kScheduleSeed ^ 0xb525u);
        const SoakResult res = runSoak(zoo, 2, burst, max_batch, log_ptr,
                                       /*deadline_override_s=*/1e-6, &slo);
        std::cout << "miss-burst: completed=" << res.stats.completed
                  << " misses=" << res.stats.deadline_misses
                  << " slo_alerts=" << res.stats.slo_alerts << "\n";
        if (res.stats.slo_alerts == 0) {
            std::cerr << "miss-burst scenario raised no SLO alert\n";
            return 1;
        }
    }

    // --- injected analog noise drift (fidelity alert + flight dump) -----
    if (inject_noise_drift) {
        // A seeded synthetic per-tile SNR series holds a ~30 dB baseline,
        // then degrades by 1.5 dB — the EWMA+CUSUM detector must raise
        // exactly one rising-edge fidelity_drift alert. A live server
        // subscribes to the fidelity alert bus, so the same excursion also
        // proves the server-side forwarding (SloAlertKind::FidelityDrift
        // through ServerConfig::on_alert) and the flight dump. Runs after
        // the sweeps so the flight ring holds real request records.
        serve::ModelRepository repo;
        repo.publishShape(zoo[0].name, zoo[0]);
        runtime::EngineConfig ecfg;
        ecfg.tiles = 2;
        runtime::RuntimeEngine engine(ecfg);
        serve::ServerConfig scfg;
        std::atomic<uint64_t> forwarded{0};
        scfg.on_alert = [&forwarded](serve::SloClass,
                                     const serve::SloAlert &a) {
            if (a.kind == serve::SloAlertKind::FidelityDrift)
                forwarded.fetch_add(1, std::memory_order_relaxed);
        };
        serve::InferenceServer server(repo, engine, scfg);

        obs::FlightRecorder &flight = obs::FlightRecorder::global();
        flight.setMinTriggerInterval(0.0); // earlier scenarios just dumped
        const uint64_t dumps_before = flight.triggerCount();

        obs::fidelity::SeriesConfig snr_cfg;
        snr_cfg.drift.alpha = 0.5;
        snr_cfg.drift.slack = 0.25;
        snr_cfg.drift.threshold = 2.0;
        snr_cfg.drift.min_samples = 8;
        snr_cfg.alert_up = false; // SNR: only degradation pages
        obs::fidelity::Series &snr =
            obs::fidelity::series("fidelity.snr.soak0", snr_cfg);
        const uint64_t alerts_before = snr.alerts();

        Rng rng(kScheduleSeed ^ 0xd21f7u);
        for (int i = 0; i < 40; ++i)
            snr.observe(rng.gaussian(30.0, 0.05));
        for (int i = 0; i < 40; ++i)
            snr.observe(rng.gaussian(28.5, 0.05));

        const uint64_t alerts = snr.alerts() - alerts_before;
        const serve::ServerStats s = server.stats();
        const uint64_t dumps = flight.triggerCount() - dumps_before;
        std::cout << "noise-drift: alerts=" << alerts
                  << " forwarded=" << forwarded.load()
                  << " server_fidelity_alerts=" << s.fidelity_alerts
                  << " flight_dumps=" << dumps << "\n";
        if (alerts == 0) {
            std::cerr << "noise-drift scenario raised no fidelity alert\n";
            return 1;
        }
        if (forwarded.load() == 0 || s.fidelity_alerts == 0) {
            std::cerr << "noise-drift alert did not reach the server "
                         "alert path\n";
            return 1;
        }
        if (flight.armed() && dumps == 0) {
            std::cerr << "noise-drift alert produced no flight dump\n";
            return 1;
        }
    }

    // --- injected tile failures (failover + graceful degradation) -------
    if (!tile_fails.empty()) {
        const int tiles = 4;
        const std::vector<Arrival> schedule = makeSchedule(
            requests, 2000, 0.9, static_cast<int>(zoo.size()),
            kScheduleSeed ^ 0xfa11u);
        const SoakResult res =
            runSoak(zoo, tiles, schedule, max_batch, log_ptr,
                    /*deadline_override_s=*/0.0, /*slo_cfg=*/nullptr,
                    &tile_fails);
        const serve::ServerStats &s = res.stats;
        std::cout << "tile-fail: submitted=" << s.submitted
                  << " completed=" << s.completed
                  << " rejected=" << s.rejected << " errors="
                  << s.request_errors << " tile_failures="
                  << s.tile_failures << "\n";
        // No lost replies: every admitted request completed (possibly
        // with the error field) or was rejected at admission.
        if (s.completed + s.failed + s.rejected != s.submitted) {
            std::cerr << "tile-fail scenario lost replies\n";
            return 1;
        }
        if (s.tile_failures < tile_fails.size()) {
            std::cerr << "tile-fail scenario observed "
                      << s.tile_failures << " tile failures, expected >= "
                      << tile_fails.size() << "\n";
            return 1;
        }
    }

    if (!request_log_path.empty()) {
        std::ofstream os(request_log_path);
        if (!os) {
            std::cerr << "cannot write request log to '" << request_log_path
                      << "'\n";
            return 1;
        }
        for (const obs::RequestRecord &rec : request_log)
            obs::writeRequestJsonl(os, rec);
        std::cout << "request log (" << request_log.size()
                  << " records) written to " << request_log_path << "\n";
    }

    bench::JsonReport json;
    json.add("soak_sweep", sweep);
    json.add("cache_amortization", cache);
    json.writeIfRequested("serve_soak", opts);
    if (!bench::writeObsOutputs(opts))
        return 1;

    std::cout
        << "Interactive p50/p95/p99 are wall-clock latencies; the batcher\n"
           "flushes an interactive group after max_delay = 2 ms, so tail\n"
           "latency ~ max_delay + execution. 'vs cold' compares energy per\n"
           "request against reprogramming the MMVMU weights for every\n"
           "micro-batch: a resident working set amortizes programming to\n"
           "near zero, a thrashing one pays most of the cold cost.\n";

    if (hold_s > 0.0) {
        std::cout << "holding for " << hold_s
                  << " s (metrics scrape window)" << std::endl;
        std::this_thread::sleep_for(std::chrono::duration<double>(hold_s));
    }
    return 0;
}
