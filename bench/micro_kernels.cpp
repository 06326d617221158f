/**
 * @file
 * google-benchmark micro suites for the numeric kernels: RNS conversion,
 * BFP encode + GEMM, and the functional photonic pipeline.
 * These measure the *simulator's* software throughput (useful when sizing
 * experiments), not the modeled hardware.
 */

#include <benchmark/benchmark.h>

#include "bfp/bfp_gemm.h"
#include "common/rng.h"
#include "common/workspace.h"
#include "nn/gemm_backend.h"
#include "nn/layers_conv.h"
#include "nn/tensor.h"
#include "numerics/quantized_gemm.h"
#include "photonic/mmvmu.h"
#include "rns/special_converter.h"

namespace {

using namespace mirage;

void
BM_RnsForwardConversion(benchmark::State &state)
{
    const rns::SpecialConverter conv(5);
    Rng rng(1);
    std::vector<int64_t> values(1024);
    for (auto &v : values)
        v = rng.uniformInt(-16000, 16000);
    for (auto _ : state) {
        for (int64_t v : values)
            benchmark::DoNotOptimize(conv.forwardSigned(v));
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_RnsForwardConversion);

void
BM_RnsReverseConversion(benchmark::State &state)
{
    const rns::SpecialConverter conv(5);
    Rng rng(2);
    std::vector<rns::ResidueVector> residues;
    for (int i = 0; i < 1024; ++i)
        residues.push_back(conv.forwardSigned(rng.uniformInt(-16000, 16000)));
    for (auto _ : state) {
        for (const auto &r : residues)
            benchmark::DoNotOptimize(conv.reverseSigned(r));
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_RnsReverseConversion);

/// A train_resnet im2col operand: K = 72 (8 channels x 3x3) by N = 4096;
/// the stem's is K = 9 (1 channel x 3x3).
constexpr int kEncodeK = 72;
constexpr int kStemK = 9;
constexpr int kEncodeN = 4096;

void
BM_BfpEncode(benchmark::State &state, bool columns, int k)
{
    // The packed encoders the GEMMs run, with training's Nearest rounding:
    // the k x 4096 operand's columns (B's side), or the same buffer read
    // as k rows of 4096 (A's side).
    Rng rng(4);
    std::vector<float> values(static_cast<size_t>(k) * kEncodeN);
    for (auto &v : values)
        v = static_cast<float>(rng.gaussian());
    const bfp::BfpConfig cfg{4, 16, bfp::Rounding::Nearest};
    Workspace ws;
    for (auto _ : state) {
        Workspace::Scope scope(ws);
        const bfp::BfpPackedMatrix enc =
            columns ? bfp::encodeColsPacked(values, k, kEncodeN, cfg, ws)
                    : bfp::encodeRowsPacked(values, k, kEncodeN, cfg, ws);
        benchmark::DoNotOptimize(enc.mantissas.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * k * kEncodeN);
}
BENCHMARK_CAPTURE(BM_BfpEncode, rows, false, kEncodeK);
BENCHMARK_CAPTURE(BM_BfpEncode, cols, true, kEncodeK);
// The stem's short operand: one ragged 9-row chunk per column.
BENCHMARK_CAPTURE(BM_BfpEncode, cols_short, true, kStemK);

void
BM_BfpRnsGemm(benchmark::State &state, int m, int k, int n,
              bfp::Rounding rounding)
{
    Rng rng(5);
    std::vector<float> a(static_cast<size_t>(m) * k),
        b(static_cast<size_t>(k) * n), c(static_cast<size_t>(m) * n);
    for (auto &v : a)
        v = static_cast<float>(rng.gaussian());
    for (auto &v : b)
        v = static_cast<float>(rng.gaussian());
    bfp::BfpGemmOptions opts;
    opts.config = {4, 16, rounding};
    opts.moduli = rns::ModuliSet::special(5);
    for (auto _ : state) {
        bfp::bfpGemm(a, b, c, m, k, n, opts);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * int64_t{m} * k * n);
}
BENCHMARK_CAPTURE(BM_BfpRnsGemm, 32, 32, 32, 32, bfp::Rounding::Truncate);
BENCHMARK_CAPTURE(BM_BfpRnsGemm, 64, 64, 64, 64, bfp::Rounding::Truncate);
BENCHMARK_CAPTURE(BM_BfpRnsGemm, 128, 128, 128, 128, bfp::Rounding::Truncate);
// train_resnet's skinny forward shape: 8 filters over a 72 x 4096 im2col.
BENCHMARK_CAPTURE(BM_BfpRnsGemm, 8x72x4096_nearest, 8, 72, 4096,
                  bfp::Rounding::Nearest);
// Its weight gradient: dY (8 x 4096) times the im2col transposed, a long
// K against a skinny N.
BENCHMARK_CAPTURE(BM_BfpRnsGemm, 8x4096x72_nearest, 8, 4096, 72,
                  bfp::Rounding::Nearest);

void
BM_Fp32Gemm(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Rng rng(8);
    std::vector<float> a(static_cast<size_t>(n) * n),
        b(static_cast<size_t>(n) * n), c(static_cast<size_t>(n) * n);
    for (auto &v : a)
        v = static_cast<float>(rng.gaussian());
    for (auto &v : b)
        v = static_cast<float>(rng.gaussian());
    numerics::GemmCall call;
    call.a = a;
    call.b = b;
    call.m = n;
    call.k = n;
    call.n = n;
    for (auto _ : state) {
        numerics::gemmFp32(call, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}
BENCHMARK(BM_Fp32Gemm)->Arg(64)->Arg(256);

/**
 * Training-representative convolution (CIFAR-class interior layer):
 * batch 8, 16 -> 32 channels, 16x16 images, 3x3 stride-1 pad-1, through
 * the FP32 reference backend (im2col + one batched GEMM).
 */
nn::Tensor
convInput(Rng &rng)
{
    nn::Tensor x({8, 16, 16, 16});
    for (int64_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.gaussian());
    return x;
}

void
BM_ConvForward(benchmark::State &state)
{
    Rng rng(9);
    nn::FormatBackend backend(numerics::DataFormat::FP32);
    nn::Conv2d conv(16, 32, 3, 1, 1, &backend, rng);
    const nn::Tensor x = convInput(rng);
    for (auto _ : state) {
        nn::Tensor y = conv.forward(x, true);
        benchmark::DoNotOptimize(y.data());
    }
    // MACs per forward: out_ch * (in_ch * k * k) * batch * out_h * out_w.
    state.SetItemsProcessed(state.iterations() * 32 * (16 * 9) *
                            (8 * 16 * 16));
}
BENCHMARK(BM_ConvForward);

void
BM_ConvBackward(benchmark::State &state)
{
    Rng rng(10);
    nn::FormatBackend backend(numerics::DataFormat::FP32);
    nn::Conv2d conv(16, 32, 3, 1, 1, &backend, rng);
    const nn::Tensor x = convInput(rng);
    nn::Tensor y = conv.forward(x, true);
    nn::Tensor dy(y.shape());
    for (int64_t i = 0; i < dy.size(); ++i)
        dy[i] = static_cast<float>(rng.gaussian(0.0, 0.01));
    for (auto _ : state) {
        nn::Tensor dx = conv.backward(dy);
        benchmark::DoNotOptimize(dx.data());
    }
    // Backward executes the dW and dX GEMMs: ~2x the forward MACs.
    state.SetItemsProcessed(state.iterations() * 2 * 32 * (16 * 9) *
                            (8 * 16 * 16));
}
BENCHMARK(BM_ConvBackward);

void
BM_PhotonicMvm(benchmark::State &state)
{
    const photonic::DeviceKit kit;
    photonic::RnsMmvmu array(rns::ModuliSet::special(5), 32, 16, kit, 10e9);
    Rng rng(6);
    std::vector<int64_t> tile(32 * 16);
    for (auto &v : tile)
        v = rng.uniformInt(-15, 15);
    array.programTile(tile, 32, 16);
    std::vector<int64_t> x(16);
    for (auto &v : x)
        v = rng.uniformInt(-15, 15);
    for (auto _ : state)
        benchmark::DoNotOptimize(array.mvm(x));
    state.SetItemsProcessed(state.iterations() * 32 * 16);
}
BENCHMARK(BM_PhotonicMvm);

} // namespace

BENCHMARK_MAIN();
