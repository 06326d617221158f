/**
 * @file
 * Allocation-count guard for the GEMM/conv hot paths: a counting global
 * operator new/delete plus a GemmBackend decorator that arms the counter
 * around every GEMM executed by a real training loop. After warm-up (arena
 * growth, cache fills, codec construction) the steady-state hot path must
 * perform ZERO heap allocations — the contract the Workspace refactor
 * establishes (see README "Performance & memory model").
 *
 * The suite pins the global pool to one worker: the single-thread
 * parallelFor fast path is inline and allocation-free, so the counter sees
 * the whole kernel. (Multi-thread dispatch allocates per-call task state in
 * the pool itself — a documented, separate cost.)
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "models/trainable.h"
#include "nn/data.h"
#include "nn/gemm_backend.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "test_support.h"
#include "train/trainer.h"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<int64_t> g_alloc_count{0};

void *
countedAlloc(std::size_t size)
{
    if (g_armed.load(std::memory_order_relaxed))
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(size == 0 ? 1 : size);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

// Binary-wide counting allocator (all usual forms; alignment handled with
// aligned_alloc so over-aligned types stay correct).
void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}
void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}
void *
operator new(std::size_t size, std::align_val_t al)
{
    if (g_armed.load(std::memory_order_relaxed))
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void *p = std::aligned_alloc(static_cast<std::size_t>(al),
                                 (size + static_cast<std::size_t>(al) - 1) &
                                     ~(static_cast<std::size_t>(al) - 1));
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}
void *
operator new[](std::size_t size, std::align_val_t al)
{
    return operator new(size, al);
}
void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace mirage {
namespace {

/** Counts heap allocations performed inside the guarded region. */
class AllocProbe
{
  public:
    AllocProbe() : start_(g_alloc_count.load()) { g_armed.store(true); }
    ~AllocProbe() { g_armed.store(false); }
    int64_t count() const { return g_alloc_count.load() - start_; }

  private:
    int64_t start_;
};

/**
 * GemmBackend decorator: forwards to the wrapped backend and attributes
 * every heap allocation inside the call to the GEMM hot path.
 */
class CountingBackend : public nn::GemmBackend
{
  public:
    explicit CountingBackend(nn::GemmBackend *inner) : inner_(inner) {}

    std::string name() const override { return inner_->name(); }
    using nn::GemmBackend::gemm;
    void
    gemm(std::span<const float> a, std::span<const float> b, int m, int k,
         int n, bool a_is_grad, bool b_is_grad,
         std::span<float> out) override
    {
        ++calls;
        AllocProbe probe;
        inner_->gemm(a, b, m, k, n, a_is_grad, b_is_grad, out);
        hot_path_allocs += probe.count();
    }

    int64_t calls = 0;
    int64_t hot_path_allocs = 0;

  private:
    nn::GemmBackend *inner_;
};

class AllocGuardTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        runtime::ThreadPool::setGlobalThreads(1);
        // The zero-alloc contract must hold WITH observability on: every
        // suite below runs with metrics and tracing enabled, after one
        // warm span so this thread's trace ring buffer (the only
        // allocating trace path) already exists.
        obs::setEnabled(true);
        obs::setTraceEnabled(true);
        {
            MIRAGE_SPAN("test.alloc_guard.warm");
        }
    }

    void
    TearDown() override
    {
        obs::setTraceEnabled(false);
        runtime::ThreadPool::setGlobalThreads(0);
    }
};

TEST_F(AllocGuardTest, WarmObsPrimitivesAreAllocationFree)
{
    // The obs hot-path contract directly: once the handle is registered
    // and the thread's trace ring exists, recording performs zero heap
    // allocations — counters/gauges/histograms are relaxed fetch_adds on
    // pre-sized shards, spans write a fixed-size event into the warm
    // ring.
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    obs::Counter &counter = reg.counter("test.alloc.counter");
    obs::Gauge &gauge = reg.gauge("test.alloc.gauge");
    obs::Histogram &hist = reg.histogram("test.alloc.hist");
    {
        MIRAGE_SPAN("test.alloc.span"); // warm (ring exists from SetUp)
    }

    AllocProbe probe;
    for (int i = 0; i < 1000; ++i) {
        counter.add(1);
        gauge.set(i);
        hist.record(static_cast<uint64_t>(i) * 977);
        MIRAGE_SPAN("test.alloc.span");
    }
    EXPECT_EQ(probe.count(), 0)
        << "obs record path allocated on a warm thread";
}

TEST_F(AllocGuardTest, InstrumentedTrainerStepAddsNoAllocations)
{
    // The instrumentation in Trainer::trainStep (train.step/shard/reduce/
    // optimizer spans, step counters and histograms) must add zero
    // allocator traffic: an obs-on steady-state step performs exactly as
    // many heap allocations as an obs-off one.
    constexpr int kIn = 16, kHidden = 32, kClasses = 4;
    train::TrainerConfig cfg;
    cfg.replicas = 1;
    cfg.micro_batch = 8;
    cfg.shards_per_step = 4;
    cfg.seed = 11;
    train::Trainer trainer(
        [](nn::GemmBackend *backend, Rng &rng) {
            return models::makeMlp(kIn, kHidden, kClasses, backend, rng);
        },
        std::make_unique<nn::Sgd>(0.05f, 0.9f), cfg);
    // 256 rows / (8 x 4) = 8 steps per epoch: the three 2-step runs below
    // stay inside epoch 0, so every run sees the identical step
    // structure (no epoch-end evaluation in either measured window).
    const nn::Dataset data = nn::makeGaussianClusters(256, kClasses, kIn,
                                                      3.0f, 41);

    // Warm-up WITH obs on: registers every metric handle and records
    // spans so the trace ring and registry maps are fully grown.
    trainer.run(data, nullptr, /*target_epochs=*/1000, /*max_steps=*/2);

    obs::setEnabled(false);
    obs::setTraceEnabled(false);
    int64_t allocs_off = 0;
    {
        AllocProbe probe;
        trainer.run(data, nullptr, 1000, 2);
        allocs_off = probe.count();
    }

    obs::setEnabled(true);
    obs::setTraceEnabled(true);
    int64_t allocs_on = 0;
    {
        AllocProbe probe;
        trainer.run(data, nullptr, 1000, 2);
        allocs_on = probe.count();
    }
    EXPECT_EQ(allocs_on, allocs_off)
        << "enabling metrics+tracing changed steady-state training"
           " allocation counts";
}

TEST_F(AllocGuardTest, SteadyStateCnnTrainingStepGemmPathIsAllocationFree)
{
    Rng rng(5);
    numerics::FormatGemmConfig cfg;
    cfg.moduli = test::paperModuli();
    nn::FormatBackend inner(numerics::DataFormat::MirageBfpRns, cfg);
    CountingBackend backend(&inner);
    auto model = models::makeSmallCnn(4, &backend, rng);
    const nn::Dataset data = nn::makePatternImages(8, 4, 16, 0.2f, 3);
    nn::Sgd opt(0.02f, 0.9f);
    const std::vector<nn::Param *> params = model->params();

    const auto train_step = [&] {
        nn::Optimizer::zeroGrad(params);
        const nn::Tensor logits = model->forward(data.inputs, true);
        const nn::LossResult loss = nn::softmaxCrossEntropy(logits, data.labels);
        model->backward(loss.grad);
        opt.step(params);
    };

    // Warm-up: arenas grow and consolidate, conv column caches size up,
    // the RNS codec cache fills.
    train_step();
    train_step();

    backend.calls = 0;
    backend.hot_path_allocs = 0;
    train_step();
    train_step();
    EXPECT_GT(backend.calls, 0);
    EXPECT_EQ(backend.hot_path_allocs, 0)
        << "GEMM/conv hot path allocated on a warm training step";
}

TEST_F(AllocGuardTest, WarmFormatBackendSpanGemmIsAllocationFree)
{
    Rng rng(9);
    numerics::FormatGemmConfig cfg;
    cfg.moduli = test::paperModuli();
    for (numerics::DataFormat fmt :
         {numerics::DataFormat::FP32, numerics::DataFormat::BFLOAT16,
          numerics::DataFormat::HFP8, numerics::DataFormat::INT8,
          numerics::DataFormat::MirageBfpRns}) {
        nn::FormatBackend backend(fmt, cfg);
        const int m = 24, k = 64, n = 24;
        std::vector<float> a(static_cast<size_t>(m) * k),
            b(static_cast<size_t>(k) * n), c(static_cast<size_t>(m) * n);
        for (auto &v : a)
            v = static_cast<float>(rng.gaussian());
        for (auto &v : b)
            v = static_cast<float>(rng.gaussian());

        backend.gemm(std::span<const float>(a), std::span<const float>(b),
                     m, k, n, false, false, std::span<float>(c)); // warm-up
        AllocProbe probe;
        backend.gemm(std::span<const float>(a), std::span<const float>(b),
                     m, k, n, false, false, std::span<float>(c));
        EXPECT_EQ(probe.count(), 0) << numerics::toString(fmt);
    }
}

TEST_F(AllocGuardTest, WarmRnsMmvmuMvmSpanIsAllocationFree)
{
    Rng rng(17);
    const photonic::DeviceKit kit;
    photonic::RnsMmvmu array(rns::ModuliSet::special(5), 16, 16, kit, 10e9);
    std::vector<int64_t> tile(16 * 16), x(16), y(16);
    for (auto &v : tile)
        v = rng.uniformInt(-15, 15);
    for (auto &v : x)
        v = rng.uniformInt(-15, 15);

    array.programTile(tile, 16, 16);
    array.mvm(std::span<const int64_t>(x), nullptr,
              std::span<int64_t>(y)); // warm-up
    AllocProbe probe;
    array.programTile(tile, 16, 16);
    array.mvm(std::span<const int64_t>(x), nullptr, std::span<int64_t>(y));
    EXPECT_EQ(probe.count(), 0);
}

} // namespace
} // namespace mirage
