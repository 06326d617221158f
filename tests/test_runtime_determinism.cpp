/**
 * @file
 * Thread-count invariance tests: every parallelized hot path — BFP/RNS
 * GEMMs (deterministic and stochastic rounding), the photonic pipeline
 * with noise injection, and a full training run through the nn:: stack —
 * must produce bit-identical results at 1 thread and at 8 threads. This is
 * the guarantee that lets the runtime engine scale without changing any
 * experiment's numbers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bfp/bfp_gemm.h"
#include "models/trainable.h"
#include "nn/data.h"
#include "nn/gemm_backend.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "photonic/mmvmu.h"
#include "runtime/thread_pool.h"
#include "test_support.h"

namespace {

using namespace mirage;

/** Runs fn at 1 thread and at 8 threads, restoring the default after. */
template <typename F>
auto
atThreadCounts(F fn) -> std::pair<decltype(fn()), decltype(fn())>
{
    runtime::ThreadPool::setGlobalThreads(1);
    auto serial = fn();
    runtime::ThreadPool::setGlobalThreads(8);
    auto parallel = fn();
    runtime::ThreadPool::setGlobalThreads(0);
    return {std::move(serial), std::move(parallel)};
}

class RuntimeDeterminism : public mirage::test::SeededTest
{
};

TEST_F(RuntimeDeterminism, BfpRnsGemmIsThreadCountInvariant)
{
    // Large enough that the compute loop is above the serialBelow cutoff:
    // the 8-thread run genuinely executes in parallel.
    const int m = 48, k = 48, n = 32;
    const auto a = mirage::test::gaussianVector(rng, static_cast<size_t>(m) * k);
    const auto b = mirage::test::gaussianVector(rng, static_cast<size_t>(k) * n);

    auto [serial, parallel] = atThreadCounts([&] {
        bfp::BfpGemmOptions opts;
        opts.moduli = mirage::test::paperModuli();
        return mirage::test::bfpGemm(a, b, m, k, n, opts);
    });
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "element " << i;
}

TEST_F(RuntimeDeterminism, StochasticRoundingGemmIsThreadCountInvariant)
{
    // Stochastic rounding draws randomness, yet per-row Rng::split streams
    // make the result a function of the seed only, not the thread count.
    // m*k exceeds the encode cutoff, so parallel encoding really runs.
    const int m = 192, k = 96, n = 8;
    const auto a = mirage::test::gaussianVector(rng, static_cast<size_t>(m) * k);
    const auto b = mirage::test::gaussianVector(rng, static_cast<size_t>(k) * n);

    auto [serial, parallel] = atThreadCounts([&] {
        Rng gemm_rng(20240607);
        bfp::BfpGemmOptions opts;
        opts.config = bfp::BfpConfig{4, 16, bfp::Rounding::Stochastic};
        opts.rng = &gemm_rng;
        return mirage::test::bfpGemm(a, b, m, k, n, opts);
    });
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "element " << i;
}

TEST_F(RuntimeDeterminism, NoisyPhotonicMvmIsThreadCountInvariant)
{
    photonic::PhotonicNoiseConfig noise;
    noise.eps_ps = std::exp2(-9);
    noise.eps_mrr = 0.0005;
    // 128 rows x g=64 puts both the per-unit loop and each unit's row loop
    // above the serialBelow cutoffs.
    const auto tile =
        mirage::test::randomIntVector(rng, 128 * 64, -15, 15);
    const auto x = mirage::test::randomIntVector(rng, 64, -15, 15);

    auto [serial, parallel] = atThreadCounts([&] {
        photonic::RnsMmvmu array(mirage::test::paperModuli(), 128, 64,
                                 photonic::DeviceKit{}, 10e9, noise);
        array.programTile(tile, 128, 64);
        Rng noise_rng(5150);
        std::vector<std::vector<int64_t>> outs;
        for (int rep = 0; rep < 3; ++rep)
            outs.push_back(array.mvm(x, &noise_rng));
        return outs;
    });
    EXPECT_EQ(serial, parallel);
}

TEST_F(RuntimeDeterminism, TrainingStepThroughParallelBackendMatchesSerial)
{
    // One full training run (forward, backward, optimizer updates) through
    // the Mirage BFP+RNS backend: weights after training must be
    // bit-identical at every thread count.
    auto trainedWeights = [] {
        numerics::FormatGemmConfig fmt;
        fmt.moduli = mirage::test::paperModuli();
        nn::FormatBackend backend(numerics::DataFormat::MirageBfpRns, fmt, 3);

        Rng init_rng(42);
        auto model = models::makeMlp(8, 16, 3, &backend, init_rng);
        const nn::Dataset all = nn::makeGaussianClusters(96, 3, 8, 3.0f, 11);
        const nn::Dataset train = all.slice(0, 64);
        const nn::Dataset test = all.slice(64, 32);
        nn::Sgd opt(0.05f);
        nn::TrainConfig cfg;
        cfg.epochs = 2;
        cfg.batch_size = 16;
        cfg.verbose = false;
        nn::trainClassifier(*model, opt, train, test, cfg);

        std::vector<float> weights;
        for (nn::Param *p : model->params())
            for (int64_t i = 0; i < p->value.size(); ++i)
                weights.push_back(p->value[i]);
        return weights;
    };

    auto [serial, parallel] = atThreadCounts(trainedWeights);
    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_FALSE(serial.empty());
    for (size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "weight " << i;
}

} // namespace
