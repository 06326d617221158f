#ifndef MIRAGE_TESTS_TEST_SUPPORT_H
#define MIRAGE_TESTS_TEST_SUPPORT_H

/**
 * @file
 * Shared infrastructure for the Mirage test suites: deterministic RNG
 * fixtures, ULP/relative-tolerance matchers, a golden reference GEMM, and
 * moduli-set factories for the configurations the paper exercises.
 *
 * Everything lives in namespace mirage::test and is header-only so each
 * suite stays a single translation unit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bfp/bfp_gemm.h"
#include "common/rng.h"
#include "nn/layer.h"
#include "rns/moduli_set.h"

namespace mirage {
namespace test {

// ---------------------------------------------------------------------------
// Deterministic RNG fixtures
// ---------------------------------------------------------------------------

/**
 * Fixture whose Rng is seeded from the running test's full name, so every
 * test gets a stable-but-distinct stream: re-running a single test
 * reproduces its exact data without sharing a sequence with its neighbours.
 */
class SeededTest : public ::testing::Test
{
  protected:
    SeededTest() : rng(seedFromTestName()) {}

    /** FNV-1a hash of "Suite.TestName" — stable across runs and platforms. */
    static uint64_t
    seedFromTestName()
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string name = "mirage";
        if (info != nullptr) {
            name = std::string(info->test_suite_name()) + "." + info->name();
        }
        uint64_t h = 1469598103934665603ull;
        for (const char c : name) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ull;
        }
        return h;
    }

    Rng rng;
};

/** Fills a vector with uniform integers in [lo, hi]. */
inline std::vector<int64_t>
randomIntVector(Rng &rng, size_t n, int64_t lo, int64_t hi)
{
    std::vector<int64_t> v(n);
    for (auto &x : v)
        x = rng.uniformInt(lo, hi);
    return v;
}

/** Fills a vector with uniform reals in [lo, hi). */
inline std::vector<float>
randomRealVector(Rng &rng, size_t n, double lo, double hi)
{
    std::vector<float> v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.uniformReal(lo, hi));
    return v;
}

/** Fills a vector with Gaussian samples. */
inline std::vector<float>
gaussianVector(Rng &rng, size_t n, double mean = 0.0, double sigma = 1.0)
{
    std::vector<float> v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.gaussian(mean, sigma));
    return v;
}

// ---------------------------------------------------------------------------
// ULP / relative-tolerance matchers
// ---------------------------------------------------------------------------

/** Distance in representable floats between a and b (0 when bit-equal). */
inline uint64_t
ulpDiff(float a, float b)
{
    if (std::isnan(a) || std::isnan(b))
        return UINT64_MAX;
    int32_t ia;
    int32_t ib;
    std::memcpy(&ia, &a, sizeof(ia));
    std::memcpy(&ib, &b, sizeof(ib));
    // Map the sign-magnitude float ordering onto a monotone integer line.
    const int64_t la = (ia < 0) ? INT64_C(-2147483648) - ia : ia;
    const int64_t lb = (ib < 0) ? INT64_C(-2147483648) - ib : ib;
    return static_cast<uint64_t>(la > lb ? la - lb : lb - la);
}

/**
 * Predicate for EXPECT_TRUE: actual is within max_ulps representable floats
 * of expected. The failure message carries the observed ULP distance.
 * (Plain gtest AssertionResult — the image ships gtest without gmock, so
 * MATCHER_P-style matchers are not available.)
 */
inline ::testing::AssertionResult
ulpClose(float actual, float expected, uint64_t max_ulps)
{
    const uint64_t d = ulpDiff(actual, expected);
    if (d <= max_ulps)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << actual << " is " << d << " ULPs from " << expected
           << " (allowed " << max_ulps << ")";
}

/**
 * Predicate for EXPECT_TRUE: |actual - expected| <= rel_tol * |expected|,
 * with expected == 0 requiring actual == 0.
 */
inline ::testing::AssertionResult
relClose(double actual, double expected, double rel_tol)
{
    if (expected == 0.0) {
        if (actual == 0.0)
            return ::testing::AssertionSuccess();
        return ::testing::AssertionFailure()
               << actual << " differs from an exact zero expectation";
    }
    const double rel = std::fabs(actual - expected) / std::fabs(expected);
    if (rel <= rel_tol)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << actual << " has relative error " << rel << " vs " << expected
           << " (allowed " << rel_tol << ")";
}

// ---------------------------------------------------------------------------
// Golden reference GEMM
// ---------------------------------------------------------------------------

/**
 * Naive triple-loop C = A(m x k) * B(k x n), row-major. The accumulator type
 * is the element type itself, so int64_t inputs check exact integer GEMMs and
 * float inputs produce the order-independent-enough reference the BFP and
 * photonic suites compare against.
 */
template <typename T>
std::vector<T>
referenceGemm(const std::vector<T> &a, const std::vector<T> &b, int64_t m,
              int64_t k, int64_t n)
{
    std::vector<T> c(static_cast<size_t>(m) * n, T{0});
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t kk = 0; kk < k; ++kk) {
            const T aik = a[static_cast<size_t>(i) * k + kk];
            for (int64_t j = 0; j < n; ++j) {
                c[static_cast<size_t>(i) * n + j] +=
                    aik * b[static_cast<size_t>(kk) * n + j];
            }
        }
    }
    return c;
}

/** bfp::bfpGemm (span form) into a freshly allocated m x n result. */
inline std::vector<float>
bfpGemm(const std::vector<float> &a, const std::vector<float> &b, int m,
        int k, int n, const bfp::BfpGemmOptions &opts)
{
    std::vector<float> c(static_cast<size_t>(m) * n);
    bfp::bfpGemm(a, b, c, m, k, n, opts);
    return c;
}

// ---------------------------------------------------------------------------
// Moduli-set factories
// ---------------------------------------------------------------------------

/** The paper's main configuration: special set {31, 32, 33} (k = 5). */
inline rns::ModuliSet
paperModuli()
{
    return rns::ModuliSet::special(5);
}

/** A tiny hand-checkable set {3, 4, 5}: M = 60, psi = 29. */
inline rns::ModuliSet
tinyModuli()
{
    return rns::ModuliSet({3, 4, 5});
}

/** A wide co-prime set near 8 bits per residue, for conversion stress. */
inline rns::ModuliSet
wideModuli()
{
    return rns::ModuliSet({251, 253, 255, 256, 257});
}

// ---------------------------------------------------------------------------
// Layer gradient checking
// ---------------------------------------------------------------------------

/** Scalar probe loss: L = sum_i c_i * y_i with fixed random weights c. */
struct ProbeLoss
{
    nn::Tensor c;

    ProbeLoss(const nn::Tensor &y, Rng &rng)
    {
        c = nn::Tensor(y.shape());
        for (int64_t i = 0; i < c.size(); ++i)
            c[i] = static_cast<float>(rng.gaussian());
    }

    float
    value(const nn::Tensor &y) const
    {
        double s = 0.0;
        for (int64_t i = 0; i < y.size(); ++i)
            s += static_cast<double>(c[i]) * y[i];
        return static_cast<float>(s);
    }
};

/**
 * Central-difference gradient check for `layer` on input `x`: verifies
 * dL/dx and dL/dtheta for a strided subset of every parameter. A layer
 * whose backward pass disagrees with numeric gradients would silently
 * corrupt every accuracy experiment, so this is the framework's bedrock
 * check.
 */
inline void
gradCheck(nn::Layer &layer, nn::Tensor x, double tol = 2e-2)
{
    Rng rng(1234);
    nn::Tensor y0 = layer.forward(x, true);
    ProbeLoss probe(y0, rng);

    // Analytic gradients.
    for (nn::Param *p : layer.params())
        p->zeroGrad();
    layer.forward(x, true);
    const nn::Tensor dx = layer.backward(probe.c);

    const float eps = 1e-3f;
    auto check = [&](float analytic, const std::function<void(float)> &set,
                     float original, const char *what, int64_t idx) {
        set(original + eps);
        const float up = probe.value(layer.forward(x, true));
        set(original - eps);
        const float down = probe.value(layer.forward(x, true));
        set(original);
        const float numeric = (up - down) / (2.0f * eps);
        const double bound =
            tol * std::max(1.0, std::fabs(static_cast<double>(numeric)));
        EXPECT_NEAR(analytic, numeric, bound) << what << "[" << idx << "]";
    };

    // Check a strided subset of input gradients (cost control).
    const int64_t x_stride = std::max<int64_t>(1, x.size() / 24);
    for (int64_t i = 0; i < x.size(); i += x_stride) {
        const float orig = x[i];
        check(dx[i], [&](float v) { x[i] = v; }, orig, "dx", i);
    }

    // Check a strided subset of every parameter's gradients.
    for (nn::Param *p : layer.params()) {
        const int64_t stride = std::max<int64_t>(1, p->value.size() / 16);
        for (int64_t i = 0; i < p->value.size(); i += stride) {
            const float orig = p->value[i];
            check(p->grad[i], [&](float v) { p->value[i] = v; }, orig,
                  p->name.c_str(), i);
        }
    }
}

/** Deterministic Gaussian tensor for gradient-check inputs. */
inline nn::Tensor
randomTensor(std::vector<int> shape, uint64_t seed, float stddev = 1.0f)
{
    Rng rng(seed);
    return nn::Tensor::randn(std::move(shape), rng, stddev);
}

} // namespace test
} // namespace mirage

#endif // MIRAGE_TESTS_TEST_SUPPORT_H
