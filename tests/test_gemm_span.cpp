/**
 * @file
 * Bit-equality tests for the span (allocation-free) GEMM APIs against the
 * legacy vector APIs, across every backend: format emulation (all data
 * formats, BFP/RNS included), the photonic MMVMU pipeline, and the
 * PhotonicBackend. The span overloads are
 * the hot path; these tests pin the refactor to "same bits, fewer
 * allocations".
 */

#include <gtest/gtest.h>

#include "nn/gemm_backend.h"
#include "photonic/mmvmu.h"
#include "test_support.h"

namespace mirage {
namespace {

using nn::FormatBackend;
using nn::PhotonicBackend;
using numerics::DataFormat;

class GemmSpanTest : public test::SeededTest
{
  protected:
    std::vector<float>
    randomMatrix(int rows, int cols, float scale = 1.0f)
    {
        std::vector<float> m(static_cast<size_t>(rows) * cols);
        for (auto &v : m)
            v = static_cast<float>(rng.gaussian(0.0, scale));
        return m;
    }
};

TEST_F(GemmSpanTest, FormatBackendsMatchVectorApiBitExactly)
{
    const int m = 9, k = 33, n = 7; // deliberately non-multiples of 4
    const std::vector<float> a = randomMatrix(m, k);
    const std::vector<float> b = randomMatrix(k, n);

    for (DataFormat fmt :
         {DataFormat::FP32, DataFormat::BFLOAT16, DataFormat::HFP8,
          DataFormat::INT8, DataFormat::INT12, DataFormat::FMAC,
          DataFormat::MirageBfpRns}) {
        numerics::FormatGemmConfig cfg;
        cfg.moduli = test::paperModuli();
        // Same seed on both sides: stochastic-rounding formats must draw
        // the identical stream through both entry points.
        FormatBackend vec_backend(fmt, cfg, 42);
        FormatBackend span_backend(fmt, cfg, 42);

        const std::vector<float> c_vec =
            vec_backend.gemm(a, b, m, k, n, false, false);
        std::vector<float> c_span(static_cast<size_t>(m) * n, -1.0f);
        span_backend.gemm(std::span<const float>(a),
                          std::span<const float>(b), m, k, n, false, false,
                          std::span<float>(c_span));
        for (size_t i = 0; i < c_vec.size(); ++i)
            EXPECT_EQ(c_vec[i], c_span[i])
                << numerics::toString(fmt) << " @" << i;
    }
}

TEST_F(GemmSpanTest, FormatBackendGradFlagsCarryThroughSpanApi)
{
    // Values above E4M3 max must survive only through the gradient (E5M2)
    // format — same contract as the vector API.
    const std::vector<float> a = {1000.0f};
    const std::vector<float> b = {1.0f};
    FormatBackend backend(DataFormat::HFP8, {}, 1);
    std::vector<float> out(1);
    backend.gemm(std::span<const float>(a), std::span<const float>(b), 1, 1,
                 1, false, false, std::span<float>(out));
    EXPECT_FLOAT_EQ(out[0], 448.0f);
    backend.gemm(std::span<const float>(a), std::span<const float>(b), 1, 1,
                 1, true, false, std::span<float>(out));
    EXPECT_FLOAT_EQ(out[0], 1024.0f);
}

TEST_F(GemmSpanTest, RnsMmvmuSpanMvmMatchesVector)
{
    const photonic::DeviceKit kit;
    photonic::RnsMmvmu array(rns::ModuliSet::special(5), 8, 16, kit, 10e9);
    std::vector<int64_t> tile(8 * 16);
    for (auto &v : tile)
        v = rng.uniformInt(-15, 15);
    array.programTile(tile, 8, 16);
    std::vector<int64_t> x(16);
    for (auto &v : x)
        v = rng.uniformInt(-15, 15);

    const std::vector<int64_t> y_vec = array.mvm(x);
    std::vector<int64_t> y_span(8, -1);
    array.mvm(std::span<const int64_t>(x), nullptr,
              std::span<int64_t>(y_span));
    EXPECT_EQ(y_vec, y_span);
}

TEST_F(GemmSpanTest, PhotonicBackendSpanMatchesVectorApi)
{
    const int m = 5, k = 20, n = 4;
    const std::vector<float> a = randomMatrix(m, k, 0.5f);
    const std::vector<float> b = randomMatrix(k, n, 0.5f);
    PhotonicBackend vec_backend(4, 16, 5, 8, {}, 3);
    PhotonicBackend span_backend(4, 16, 5, 8, {}, 3);

    const std::vector<float> c_vec =
        vec_backend.gemm(a, b, m, k, n, false, false);
    std::vector<float> c_span(static_cast<size_t>(m) * n);
    span_backend.gemm(std::span<const float>(a), std::span<const float>(b),
                      m, k, n, false, false, std::span<float>(c_span));
    for (size_t i = 0; i < c_vec.size(); ++i)
        EXPECT_EQ(c_vec[i], c_span[i]) << i;
}

TEST_F(GemmSpanTest, NoisyPhotonicBackendSpanMatchesVectorApi)
{
    photonic::PhotonicNoiseConfig noise;
    noise.shot_thermal_enabled = true;
    const int m = 4, k = 16, n = 3;
    const std::vector<float> a = randomMatrix(m, k, 0.5f);
    const std::vector<float> b = randomMatrix(k, n, 0.5f);
    PhotonicBackend vec_backend(4, 16, 5, 8, noise, 11);
    PhotonicBackend span_backend(4, 16, 5, 8, noise, 11);

    const std::vector<float> c_vec =
        vec_backend.gemm(a, b, m, k, n, false, false);
    std::vector<float> c_span(static_cast<size_t>(m) * n);
    span_backend.gemm(std::span<const float>(a), std::span<const float>(b),
                      m, k, n, false, false, std::span<float>(c_span));
    for (size_t i = 0; i < c_vec.size(); ++i)
        EXPECT_EQ(c_vec[i], c_span[i]) << i;
}

} // namespace
} // namespace mirage
