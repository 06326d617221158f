/**
 * @file
 * train_resnet: closed loop of data-parallel optimizer steps.
 *
 * The Trainer trains makeMiniResNet(4) on seeded 16x16 pattern images
 * with emulated Mirage BFP+RNS numerics: 2 replicas x 4 shards x
 * micro-batch 16 (effective batch 64), SGD with momentum. This is the
 * paper's workload, a training step; nearly all of its wall time is in
 * the BFP+RNS GEMMs, so numeric-kernel and nn changes show here while
 * serve/ does nothing.
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>

#include "core/mirage.h"
#include "decorators.h"
#include "models/trainable.h"
#include "nn/data.h"
#include "nn/optimizer.h"
#include "stats.h"
#include "train/trainer.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace mirage;

constexpr int kClasses = 4;
constexpr int kImage = 16;
constexpr int kSamples = 1024;
constexpr float kNoise = 0.3f;
constexpr int kReplicas = 2;
/// Steps run in set-up: warm-up, and the prefix the digest gate compares.
constexpr int kPrefixSteps = 2;
/// Largest share of step wall time the traced layers may leave unaccounted.
constexpr double kSelfTimeTolerance = 0.05;

/** Im2col GEMM shapes of makeMiniResNet on [B, 1, 16, 16] inputs. */
models::ModelShape
miniResNetShape()
{
    models::ModelShape s;
    s.name = "mini_resnet";
    s.layers = {{"stem", 8, 9, 256, 1, true},
                {"block8.conv1", 8, 72, 256, 1, true},
                {"block8.conv2", 8, 72, 256, 1, true},
                {"conv16", 16, 72, 64, 1, true},
                {"block16.conv1", 16, 144, 64, 1, true},
                {"block16.conv2", 16, 144, 64, 1, true},
                {"fc", kClasses, 16, 1, 1, true}};
    return s;
}

train::TrainerConfig
trainerConfig(uint64_t seed, int replicas)
{
    train::TrainerConfig cfg;
    cfg.replicas = replicas;
    cfg.micro_batch = 16;
    cfg.shards_per_step = 4;
    cfg.accum_rounds = 1;
    cfg.seed = seed;
    cfg.mode = core::ExecutionMode::Emulated;
    cfg.shape = miniResNetShape();
    return cfg;
}

/** A trainer behind the benchmark's decorators. */
struct Rig
{
    explicit Rig(SpanLog &log, uint64_t seed, int replicas) : probe(log)
    {
        auto opt = std::make_unique<TimedOptimizer>(
            std::make_unique<nn::Sgd>(0.05f, 0.9f), probe);
        trainer = std::make_unique<train::Trainer>(
            timedFactory(probe,
                         [](nn::GemmBackend *backend, Rng &rng) {
                             return models::makeMiniResNet(kClasses, backend,
                                                           rng);
                         },
                         &layers),
            std::move(opt), trainerConfig(seed, replicas));
    }

    TrainProbe probe;
    std::vector<const TimedLayer *> layers;
    std::unique_ptr<train::Trainer> trainer;
    uint64_t steps = 0;

    /** One optimizer step; returns its loss. */
    float
    step(const nn::Dataset &data)
    {
        probe.step_id.store(++steps, std::memory_order_relaxed);
        SpanScope root(probe.log, "train.step", steps, -1);
        probe.step_uid.store(root.uid(), std::memory_order_relaxed);
        const train::TrainReport rep =
            trainer->run(data, nullptr, 1 << 30, /*max_steps=*/1);
        if (rep.steps_run != 1 || rep.step_loss.size() != 1)
            throw std::runtime_error("Trainer::run did not take one step");
        return rep.step_loss[0];
    }
};

/** FNV-1a over the bits of the losses and of replica 0's parameters. */
uint64_t
digest(train::Trainer &trainer, const std::vector<float> &losses)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const void *p, size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i)
            h = (h ^ b[i]) * 0x100000001b3ull;
    };
    mix(losses.data(), losses.size() * sizeof(float));
    for (const nn::Param *p : trainer.net().params())
        mix(p->value.data(), static_cast<size_t>(p->value.size()) * sizeof(float));
    return h;
}

struct Loop
{
    std::vector<double> step_s;
    std::vector<float> losses;
};

Loop
closedLoop(Rig &rig, const nn::Dataset &data, double seconds)
{
    Loop loop;
    const auto end = deadlineAfter(seconds);
    do {
        const auto t0 = Clock::now();
        loop.losses.push_back(rig.step(data));
        loop.step_s.push_back(secondsBetween(t0, Clock::now()));
    } while (Clock::now() < end);
    return loop;
}

/** Samples per second at the median step time. */
double
samplesPerSecond(const Loop &loop, int64_t batch)
{
    return static_cast<double>(batch) / percentile(loop.step_s, 50);
}

/** Per-layer metrics from the traced steps' spans. */
void
layerMetrics(const std::vector<Span> &spans, const Rig &rig,
             const core::MirageAccelerator &accel, WorkloadResult &out)
{
    const std::vector<double> self = selfTimes(spans);
    struct StepAcc
    {
        double wall = 0, root_self = 0, optimizer = 0;
        double busy[kReplicas] = {};
        double fwd_self[kReplicas] = {}, bwd_self[kReplicas] = {};
        double gemm[kReplicas] = {};
        double kind[kReplicas][3] = {};
    };
    std::map<uint64_t, StepAcc> steps;
    std::vector<double> site_s(rig.layers[0]->backend().sites().size(), 0.0);
    std::vector<uint64_t> site_calls(site_s.size(), 0);
    double gemm_all_s = 0.0;
    uint64_t gemm_calls = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        StepAcc &a = steps[s.trace_id];
        const double dur = s.end_s - s.start_s;
        const std::string name = s.name;
        const int r = s.lane;
        if (name == "train.step") {
            a.wall = dur;
            a.root_self = self[i];
        } else if (name == "nn.optimizer") {
            a.optimizer += dur;
        } else if (r >= 0 && r < kReplicas && name == "nn.fwd") {
            a.busy[r] += dur;
            a.fwd_self[r] += self[i];
        } else if (r >= 0 && r < kReplicas && name == "nn.bwd") {
            a.busy[r] += dur;
            a.bwd_self[r] += self[i];
        } else if (r >= 0 && r < kReplicas &&
                   name.rfind("numerics.gemm", 0) == 0) {
            a.gemm[r] += dur;
            gemm_all_s += dur;
            ++gemm_calls;
            if (s.tag >= 0) {
                a.kind[r][s.tag % 3] += dur;
                site_s[static_cast<size_t>(s.tag)] += dur;
                ++site_calls[static_cast<size_t>(s.tag)];
            }
        }
    }

    // The slowest replica of a step blocks it, so per-step layer times are
    // read on that replica; the step's own self time is everything its
    // children (both replicas and the optimizer) leave uncovered.
    double n = 0, wall = 0, orch = 0, opt = 0, busy_max = 0, imbalance = 0;
    double fwd_self = 0, bwd_self = 0, gemm = 0, kind[3] = {};
    for (const auto &[id, a] : steps) {
        if (a.wall <= 0)
            continue;
        const int c = a.busy[1] > a.busy[0] ? 1 : 0;
        const double lo = std::min(a.busy[0], a.busy[1]);
        n += 1;
        wall += a.wall;
        orch += a.root_self;
        opt += a.optimizer;
        busy_max += a.busy[c];
        imbalance += lo > 0 ? a.busy[c] / lo - 1.0 : 0.0;
        fwd_self += a.fwd_self[c];
        bwd_self += a.bwd_self[c];
        gemm += a.gemm[c];
        for (int k = 0; k < 3; ++k)
            kind[k] += a.kind[c][k];
    }
    if (n == 0)
        throw std::runtime_error("traced run recorded no steps");

    int64_t macs = 0;
    const std::vector<GemmSite> &sites = rig.layers[0]->backend().sites();
    for (size_t i = 0; i < sites.size(); ++i)
        macs += static_cast<int64_t>(site_calls[i]) * sites[i].m * sites[i].k *
                sites[i].n;

    const double ms = 1e3 / n; // total seconds -> ms per step
    out.add("numerics.gemm.calls", static_cast<double>(gemm_calls) / n, "count");
    out.add("numerics.gemm.ms", gemm * ms, "ms");
    out.add("numerics.gemm.share", gemm / wall, "share");
    out.add("numerics.gemm.gmacs_per_s",
            gemm_all_s > 0 ? static_cast<double>(macs) / gemm_all_s / 1e9 : 0.0,
            "GMAC/s");
    out.add("numerics.gemm.fwd_ms", kind[0] * ms, "ms");
    out.add("numerics.gemm.wgrad_ms", kind[1] * ms, "ms");
    out.add("numerics.gemm.dgrad_ms", kind[2] * ms, "ms");
    out.add("nn.fwd_self_ms", fwd_self * ms, "ms");
    out.add("nn.bwd_self_ms", bwd_self * ms, "ms");
    out.add("nn.optimizer_ms", opt * ms, "ms");
    out.add("train.replica_busy_ms_max", busy_max * ms, "ms");
    out.add("train.replica_imbalance", imbalance / n, "share");
    out.add("train.orchestration_ms", orch * ms, "ms");
    const double accounted = orch + opt + fwd_self + bwd_self + gemm;
    out.add("obs.self_time_share", accounted / wall, "share");
    // Spans that miss part of the step would misplace its time, so the
    // per-layer split is only reported as correct when it adds up.
    out.check(std::abs(accounted / wall - 1.0) <= kSelfTimeTolerance,
              "layer self times do not account for the step wall time");

    const auto &layers = rig.layers[0]->backend().layers();
    for (size_t i = 0; i < sites.size(); ++i) {
        const GemmSite &s = sites[i];
        const std::string key = layers[static_cast<size_t>(s.layer)].path +
                                "." + kGemmKindNames[static_cast<size_t>(s.kind)];
        const double modeled_s =
            accel.perfModel().best(arch::GemmShape{s.m, s.k, s.n}).second.time_s;
        const double measured_s =
            site_calls[i] > 0 ? site_s[i] / static_cast<double>(site_calls[i])
                              : 0.0;
        out.add("arch.modeled_gemm_ms." + key, modeled_s * 1e3, "ms");
        out.add("arch.measured_over_modeled." + key,
                modeled_s > 0 ? measured_s / modeled_s : 0.0, "ratio");
    }
    uint64_t unattributed = 0;
    for (const TimedLayer *l : rig.layers)
        unattributed += l->backend().unattributed();
    if (unattributed > 0)
        std::cerr << "train_resnet: " << unattributed
                  << " GEMM calls not attributed to a layer\n";
}

} // namespace

WorkloadResult
runTrainResnet(const RunOptions &opt)
{
    WorkloadResult out;
    const nn::Dataset data =
        nn::makePatternImages(kSamples, kClasses, kImage, kNoise, opt.seed);
    SpanLog log;

    // Gate reference: a 1-replica run of the same seed must produce the
    // same losses and weights, bit for bit, as the 2-replica trainer.
    uint64_t ref_digest = 0;
    {
        std::vector<float> ref_losses;
        Rig ref(log, opt.seed, 1);
        for (int i = 0; i < kPrefixSteps; ++i)
            ref_losses.push_back(ref.step(data));
        ref_digest = digest(*ref.trainer, ref_losses);
    }

    // Set-up: construction plus the warm-up prefix, several times.
    std::vector<double> setup_s;
    std::unique_ptr<Rig> rig;
    std::vector<float> losses;
    for (int s = 0; s < kSetups; ++s) {
        const auto t0 = Clock::now();
        rig.reset();
        rig = std::make_unique<Rig>(log, opt.seed, kReplicas);
        losses.clear();
        for (int i = 0; i < kPrefixSteps; ++i)
            losses.push_back(rig->step(data));
        setup_s.push_back(secondsBetween(t0, Clock::now()));
        out.check(digest(*rig->trainer, losses) == ref_digest,
                  "2-replica prefix digest differs from the 1-replica run");
    }

    // The closed loop. A step that fails throws out of Trainer::run and
    // ends the run, so every step recorded here completed.
    Loop loop = closedLoop(*rig, data, opt.trace ? opt.seconds / 2 : opt.seconds);
    Outcomes outcomes;
    for (size_t i = 0; i < loop.step_s.size(); ++i)
        outcomes.complete(/*deadline_met=*/true);
    if (highestSupportedPercentile(loop.step_s.size(), {50}) < 50)
        std::cerr << "train_resnet: only " << loop.step_s.size()
                  << " steps; p50 has fewer than 10 samples beyond it\n";
    const int64_t batch = rig->trainer->config().effectiveBatch();
    const core::MirageAccelerator accel;
    const core::PerformanceReport perf =
        accel.estimateTraining(miniResNetShape(), batch);
    const double uj_per_sample =
        perf.energy_j / static_cast<double>(batch) * 1e6;

    if (!opt.trace) {
        out.add("setup_s", percentile(setup_s, 50), "s");
        out.add("completed_share", outcomes.completedShare(), "share");
        out.add("goodput_share", outcomes.goodput(), "share");
        out.add("throughput_per_s", samplesPerSecond(loop, batch), "1/s");
        out.add("modeled_uj_per_item", uj_per_sample, "uJ");
    } else {
        // The workload's own end-to-end figures, from the untraced half.
        const double untraced_p50 = percentile(loop.step_s, 50);
        out.add("mem.rss_peak_mb", rssPeakMb(), "MB");
        out.add("load.failed_share", outcomes.failedShare(), "share");
        out.add("train.samples_per_s", samplesPerSecond(loop, batch), "1/s");
        out.add("train.step_ms_p50", untraced_p50 * 1e3, "ms");
        out.add("train.modeled_step_ms", perf.time_s * 1e3, "ms");
        out.add("train.modeled_uj_per_sample", uj_per_sample, "uJ");
        out.add("arch.modeled_item_ms", perf.time_s * 1e3, "ms");

        log.setEnabled(true);
        const Loop traced = closedLoop(*rig, data, opt.seconds / 2);
        log.setEnabled(false);
        const std::vector<Span> spans = log.take();
        layerMetrics(spans, *rig, accel, out);
        out.add("obs.trace_overhead_share",
                percentile(traced.step_s, 50) / untraced_p50 - 1.0, "share");
        for (size_t i = 0; i < traced.step_s.size(); ++i)
            outcomes.complete(/*deadline_met=*/true);
        loop.losses.insert(loop.losses.end(), traced.losses.begin(),
                           traced.losses.end());
        if (!opt.trace_out.empty() &&
            !SpanLog::writeChromeTrace(spans, opt.trace_out, 200000))
            std::cerr << "train_resnet: cannot write " << opt.trace_out << "\n";
    }
    out.attempted = outcomes.attempted;
    out.failed = outcomes.failed;

    // Gates: finite losses that fall over the run.
    losses.insert(losses.end(), loop.losses.begin(), loop.losses.end());
    bool finite = true;
    for (float l : losses)
        finite = finite && std::isfinite(l);
    out.check(finite, "non-finite training loss");
    const size_t third = std::max<size_t>(losses.size() / 3, 1);
    double head = 0, tail = 0;
    for (size_t i = 0; i < third; ++i) {
        head += losses[i];
        tail += losses[losses.size() - 1 - i];
    }
    out.check(tail < head, "training loss did not fall over the run");
    return out;
}

} // namespace perfbench
