/**
 * @file
 * Chaos soak: drives a seeded fault schedule through the serve and train
 * stacks and asserts that every recovery contract holds.
 *
 * Three scenarios, each armed through the fault/ registry (the same
 * machinery MIRAGE_FAULT uses), each asserting its acceptance criteria
 * and exiting non-zero on any violation:
 *
 *   1. serve under tile flaps — "engine.tile_fail" fires on a fixed
 *      schedule while a Poisson load runs; every injected failure must
 *      recover (fault.injected == fault.recovered), no reply may be lost,
 *      no request may fail terminally, and the interactive deadline-miss
 *      burn must stay below the alert threshold throughout.
 *
 *   2. checkpoint corruption — "ckpt.corrupt" flips a byte of the final
 *      checkpoint write of a short training run; loadFile must fall back
 *      to the .last_good generation, and a fresh trainer resumed from the
 *      fallback must reach weights bit-identical to the original run.
 *
 *   3. replica kill + elastic resume — "train.replica_fail" kills one of
 *      three replicas mid-step; the trainer elides it, reloads the last
 *      checkpoint, and finishes at two replicas. The final weights must
 *      be bit-identical to an uninterrupted two-replica run.
 *
 * The fault schedule is fixed (hit-count specs, no wall-clock coupling),
 * so the injected faults — and therefore the fault.* counters CI gates
 * via check_regression.py — are reproducible run to run.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "fault/injection.h"
#include "models/trainable.h"
#include "models/zoo.h"
#include "nn/data.h"
#include "nn/optimizer.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "runtime/engine.h"
#include "serve/checkpoint.h"
#include "serve/repository.h"
#include "serve/server.h"
#include "train/trainer.h"

namespace {

using namespace mirage;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kScheduleSeed = 0xc4405u; // "CHAOS"

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (ok) {
        std::cout << "ok    " << what << "\n";
    } else {
        std::cout << "FAIL  " << what << "\n";
        ++failures;
    }
}

uint64_t
counterValue(const std::string &name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

// ---------------------------------------------------------------------------
// Scenario 1: serve under tile flaps
// ---------------------------------------------------------------------------

struct ServeOutcome
{
    serve::ServerStats stats;
    serve::SloStatus interactive;
    uint64_t injected = 0;
    uint64_t recovered = 0;
};

ServeOutcome
serveUnderTileFlaps(int requests, std::vector<obs::RequestRecord> *log)
{
    const std::vector<models::ModelShape> zoo = {models::resNet18(),
                                                 models::mobileNetV2()};
    serve::ModelRepository repo;
    for (const models::ModelShape &m : zoo)
        repo.publishShape(m.name, m);

    runtime::EngineConfig ecfg;
    ecfg.tiles = 4;
    ecfg.queue_capacity = 256;
    runtime::RuntimeEngine engine(ecfg);

    serve::ServerConfig scfg;
    scfg.max_batch = 8;
    scfg.queue_capacity = static_cast<size_t>(requests) + 1;
    scfg.interactive = {0.002, 0.050};
    scfg.batch = {0.020, 0.500};
    serve::InferenceServer server(repo, engine, scfg);

    const uint64_t injected_before =
        counterValue("fault.injected.engine.tile_fail");
    const uint64_t recovered_before =
        counterValue("fault.recovered.engine.tile_fail");

    // Tile flaps: the 25th engine task attempt fails, then every 60th
    // after it — several failures spread across the run, each recovered
    // by the engine's retry-on-healthy-tiles path while the cooldown
    // probe reintegrates the flapped tile.
    fault::armPoint("engine.tile_fail", fault::FaultSpec::hitEvery(25, 60));

    Rng rng(kScheduleSeed);
    std::vector<std::future<serve::InferenceReply>> futures;
    futures.reserve(static_cast<size_t>(requests));
    const Clock::time_point t0 = Clock::now();
    double t = 0.0;
    for (int i = 0; i < requests; ++i) {
        const double u = rng.uniformReal(1e-12, 1.0);
        t += -std::log(u) / 2000.0; // 2000 req/s Poisson arrivals
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(t)));
        serve::InferenceRequest req;
        req.model = zoo[rng.bernoulli(0.5) ? 1 : 0].name;
        req.slo = rng.bernoulli(0.9) ? serve::SloClass::Interactive
                                     : serve::SloClass::Batch;
        req.samples = 1;
        futures.push_back(server.submit(std::move(req)));
    }
    for (auto &f : futures) {
        try {
            serve::InferenceReply reply = f.get();
            if (log != nullptr)
                log->push_back(reply.record);
        } catch (const std::exception &) {
            // Rejected at admission; counted in stats.rejected.
        }
    }
    server.drain();
    fault::disarmPoint("engine.tile_fail");

    ServeOutcome out;
    out.stats = server.stats();
    out.interactive = server.sloStatus(serve::SloClass::Interactive);
    out.injected =
        counterValue("fault.injected.engine.tile_fail") - injected_before;
    out.recovered =
        counterValue("fault.recovered.engine.tile_fail") - recovered_before;
    return out;
}

// ---------------------------------------------------------------------------
// Train scenarios share one tiny deterministic model
// ---------------------------------------------------------------------------

constexpr int kIn = 16, kHidden = 32, kClasses = 4;

serve::ModelFactory
mlpFactory()
{
    return [](nn::GemmBackend *backend, Rng &rng) {
        return models::makeMlp(kIn, kHidden, kClasses, backend, rng);
    };
}

train::TrainerConfig
trainConfig()
{
    train::TrainerConfig cfg;
    cfg.replicas = 2;
    cfg.micro_batch = 4;
    cfg.shards_per_step = 2;
    cfg.accum_rounds = 1;
    cfg.seed = 1234;
    return cfg;
}

/** Flattened replica-0 parameters, for bit-exact comparison. */
std::vector<float>
flatParams(train::Trainer &t)
{
    std::vector<float> out;
    for (const nn::Param *p : t.net().params())
        out.insert(out.end(), p->value.data(),
                   p->value.data() + p->value.size());
    return out;
}

void
removeCheckpoint(const std::string &path)
{
    std::remove(path.c_str());
    std::remove((path + ".last_good").c_str());
}

// ---------------------------------------------------------------------------
// Scenario 2: checkpoint corruption + last_good fallback
// ---------------------------------------------------------------------------

void
checkpointCorruption(const nn::Dataset &data)
{
    const std::string path = "chaos_soak_ckpt_corrupt.bin";
    removeCheckpoint(path);

    train::TrainerConfig cfg = trainConfig();
    cfg.checkpoint_path = path;
    cfg.checkpoint_every_steps = 2;

    const uint64_t injected_before =
        counterValue("fault.injected.ckpt.corrupt");
    const uint64_t fallbacks_before = counterValue("serve.ckpt.fallbacks");

    // Saves land at steps 2, 4 and 6; corrupt the third (final) write, so
    // the primary is damaged and .last_good holds the intact step-4
    // generation.
    fault::armPoint("ckpt.corrupt", fault::FaultSpec::hit(3));
    train::Trainer trainer(mlpFactory(),
                           std::make_unique<nn::Sgd>(0.05f, 0.9f), cfg);
    trainer.run(data, nullptr, /*target_epochs=*/1000, /*max_steps=*/6);
    fault::disarmPoint("ckpt.corrupt");
    const std::vector<float> final_weights = flatParams(trainer);

    const uint64_t injected =
        counterValue("fault.injected.ckpt.corrupt") - injected_before;
    expect(injected == 1, "ckpt.corrupt injected exactly once (got " +
                              std::to_string(injected) + ")");

    // loadFile must detect the corruption and fall back to .last_good.
    serve::Checkpoint ckpt = serve::loadFile(path);
    const uint64_t fallbacks =
        counterValue("serve.ckpt.fallbacks") - fallbacks_before;
    expect(fallbacks == 1, "loadFile fell back to .last_good");
    expect(ckpt.meta("train/step") == 4,
           "fallback generation is the intact step-4 checkpoint (got step " +
               std::to_string(ckpt.meta("train/step")) + ")");

    // Resuming from the fallback and replaying steps 5..6 must land on
    // weights bit-identical to the uninterrupted run (PR 5 contract).
    train::TrainerConfig resume_cfg = trainConfig();
    train::Trainer resumed(mlpFactory(),
                           std::make_unique<nn::Sgd>(0.05f, 0.9f),
                           resume_cfg);
    resumed.loadCheckpoint(ckpt);
    resumed.run(data, nullptr, /*target_epochs=*/1000, /*max_steps=*/2);
    expect(resumed.globalStep() == 6, "resumed run reached step 6");
    expect(flatParams(resumed) == final_weights,
           "weights after fallback resume are bit-identical to the "
           "uninterrupted run");

    removeCheckpoint(path);
}

// ---------------------------------------------------------------------------
// Scenario 3: replica kill + elastic resume
// ---------------------------------------------------------------------------

void
replicaKillElasticResume(const nn::Dataset &data)
{
    const std::string path = "chaos_soak_ckpt_elastic.bin";
    removeCheckpoint(path);
    const int64_t steps = 10;

    // Baseline: uninterrupted two-replica run.
    train::TrainerConfig base_cfg = trainConfig();
    train::Trainer baseline(mlpFactory(),
                            std::make_unique<nn::Sgd>(0.05f, 0.9f),
                            base_cfg);
    baseline.run(data, nullptr, 1000, steps);
    const std::vector<float> base_weights = flatParams(baseline);

    // Chaos: three replicas, checkpoints every 3 steps. The point is
    // evaluated once per (replica, round) — 3 per step — so the 11th
    // evaluation kills one replica during step 4, after the step-3
    // checkpoint exists: the trainer must elide the replica, reload the
    // checkpoint, and replay steps 4..10 at two replicas.
    train::TrainerConfig chaos_cfg = trainConfig();
    chaos_cfg.replicas = 3;
    chaos_cfg.checkpoint_path = path;
    chaos_cfg.checkpoint_every_steps = 3;

    const uint64_t injected_before =
        counterValue("fault.injected.train.replica_fail");
    const uint64_t recovered_before =
        counterValue("fault.recovered.train.replica_fail");
    fault::armPoint("train.replica_fail", fault::FaultSpec::hit(11));
    train::Trainer chaos(mlpFactory(),
                         std::make_unique<nn::Sgd>(0.05f, 0.9f), chaos_cfg);
    const train::TrainReport report = chaos.run(data, nullptr, 1000, steps);
    fault::disarmPoint("train.replica_fail");

    const uint64_t injected =
        counterValue("fault.injected.train.replica_fail") - injected_before;
    const uint64_t recovered =
        counterValue("fault.recovered.train.replica_fail") - recovered_before;
    expect(injected == 1, "train.replica_fail injected exactly once");
    expect(recovered == injected, "every replica kill recovered");
    expect(report.replica_failures == 1, "report counts one elided replica");
    expect(report.elastic_resumes == 1,
           "report counts one elastic checkpoint resume");
    expect(chaos.config().replicas == 2,
           "trainer finished at the surviving replica count");
    expect(chaos.globalStep() == steps, "chaos run reached step " +
                                            std::to_string(steps));
    expect(flatParams(chaos) == base_weights,
           "weights after replica kill + elastic resume are bit-identical "
           "to the uninterrupted two-replica run");

    removeCheckpoint(path);
}

} // namespace

int
main(int argc, char **argv)
{
    // --request-log <path>: JSONL of serve-phase completion records, in
    // the same format serve_soak emits (check_requests.py validates it).
    const bench::BenchOptions opts = bench::BenchOptions::parse(
        argc, argv,
        {{"--request-log", "<path>",
          "JSONL of serve-phase completion records"}});
    std::string request_log_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--request-log") == 0 && i + 1 < argc)
            request_log_path = argv[++i];
    }

    bench::banner("chaos soak",
                  "seeded fault schedule through serve+train with recovery "
                  "assertions",
                  opts);

    // A stray MIRAGE_FAULT would overlay this bench's own schedule.
    fault::reset();

    const int requests = opts.full ? 1200 : 400;
    std::vector<obs::RequestRecord> request_log;
    std::vector<obs::RequestRecord> *log_ptr =
        request_log_path.empty() ? nullptr : &request_log;

    // --- scenario 1: serve under tile flaps -----------------------------
    const ServeOutcome serve_out = serveUnderTileFlaps(requests, log_ptr);
    const serve::ServerStats &s = serve_out.stats;
    std::cout << "serve: submitted=" << s.submitted << " completed="
              << s.completed << " rejected=" << s.rejected
              << " errors=" << s.request_errors << " tile_failures="
              << s.tile_failures << " injected=" << serve_out.injected
              << " recovered=" << serve_out.recovered << "\n";
    expect(serve_out.injected >= 1, "tile failures were injected");
    expect(serve_out.recovered == serve_out.injected,
           "every injected tile failure recovered (" +
               std::to_string(serve_out.recovered) + "/" +
               std::to_string(serve_out.injected) + ")");
    expect(s.completed + s.failed + s.rejected == s.submitted,
           "no lost replies");
    expect(s.request_errors == 0,
           "no request failed terminally (retries absorbed every failure)");
    expect(s.slo_alerts == 0, "no SLO burn alert fired");
    const double alert_burn = serve::SloMonitorConfig{}.alert_burn;
    expect(serve_out.interactive.miss_burn_fast < alert_burn,
           "interactive deadline-miss burn " +
               formatFixed(serve_out.interactive.miss_burn_fast, 2) +
               " stayed below the alert threshold " +
               formatFixed(alert_burn, 1));

    // --- scenarios 2+3: train/checkpoint recovery -----------------------
    const nn::Dataset data =
        nn::makeGaussianClusters(512, kClasses, kIn, 3.0f, 41);
    checkpointCorruption(data);
    replicaKillElasticResume(data);

    // --- outputs --------------------------------------------------------
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

    TablePrinter table({"counter", "value"});
    for (const char *name :
         {"fault.injected", "fault.recovered",
          "fault.injected.engine.tile_fail",
          "fault.recovered.engine.tile_fail", "fault.injected.ckpt.corrupt",
          "fault.recovered.ckpt.corrupt",
          "fault.injected.train.replica_fail",
          "fault.recovered.train.replica_fail", "serve.ckpt.fallbacks"})
        table.addRow({name, std::to_string(counterValue(name))});
    bench::emit(table, opts);

    bench::JsonReport json;
    json.add("fault_counters", table);
    if (!json.writeIfRequested("chaos_soak", opts))
        return 1;
    if (!bench::writeObsOutputs(opts))
        return 1;

    if (failures > 0) {
        std::cerr << failures << " chaos assertion(s) failed\n";
        return 1;
    }
    std::cout << "chaos soak passed: every injected fault recovered\n";
    return 0;
}
