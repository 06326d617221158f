/**
 * @file
 * Tests for BFP encoding and the BFP GEMM: shared-exponent selection,
 * rounding modes, quantization error bounds, and the key transparency
 * property — routing chunk dot products through the RNS domain changes
 * nothing (paper Sec. III / V-A), checked against a reference that
 * performs every residue conversion and modular dot explicitly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "bfp/bfp.h"
#include "bfp/bfp_gemm.h"
#include "common/rng.h"
#include "rns/conversion.h"
#include "rns/modulus.h"
#include "test_support.h"

namespace mirage {
namespace bfp {
namespace {

using BfpSeeded = mirage::test::SeededTest;

TEST(BfpBlock, SharedExponentIsMaxExponent)
{
    const BfpConfig cfg{4, 8, Rounding::Nearest};
    std::vector<float> vals = {0.5f, -3.0f, 0.25f, 1.5f};
    const BfpBlock block = encodeBlock(vals, cfg);
    // max |v| = 3.0 -> exponent 2 (3.0 < 2^2).
    EXPECT_EQ(block.exponent, 2);
}

TEST(BfpBlock, AllZeroGroup)
{
    const BfpConfig cfg{4, 8, Rounding::Truncate};
    std::vector<float> vals(8, 0.0f);
    const BfpBlock block = encodeBlock(vals, cfg);
    for (auto m : block.mantissas)
        EXPECT_EQ(m, 0);
    const auto decoded = decodeBlock(block, cfg);
    for (float v : decoded)
        EXPECT_EQ(v, 0.0f);
}

TEST(BfpBlock, ExactValuesSurviveRoundTrip)
{
    // Values already on the BFP grid must be unchanged by encode/decode.
    // Max |v| = 1.0 pins the shared exponent to 1, so the grid is 2^(1-4).
    const BfpConfig cfg{4, 4, Rounding::Nearest};
    std::vector<float> vals = {1.0f, -0.75f, 0.5f, 0.875f}; // /8 grid at e=1
    const BfpBlock block = encodeBlock(vals, cfg);
    const auto decoded = decodeBlock(block, cfg);
    for (size_t i = 0; i < vals.size(); ++i)
        EXPECT_EQ(decoded[i], vals[i]) << i;
}

TEST_F(BfpSeeded, MantissaRangeRespected)
{
    const BfpConfig cfg{4, 16, Rounding::Nearest};
    for (int t = 0; t < 200; ++t) {
        const auto vals = mirage::test::gaussianVector(rng, 16, 0, 10);
        const BfpBlock block = encodeBlock(vals, cfg);
        // (bm+1)-bit two's complement: [-16, 15] for bm = 4.
        for (auto q : block.mantissas) {
            EXPECT_LE(q, 15);
            EXPECT_GE(q, -16);
        }
    }
}

TEST_F(BfpSeeded, QuantizationErrorBound)
{
    // |error| <= 2^(e - bm) per element: one mantissa ULP for nearest
    // rounding is half that, truncation a full ULP.
    const BfpConfig cfg{4, 16, Rounding::Truncate};
    for (int t = 0; t < 100; ++t) {
        const auto vals = mirage::test::gaussianVector(rng, 16, 0, 2);
        const BfpBlock block = encodeBlock(vals, cfg);
        const double ulp = std::ldexp(1.0, block.exponent - cfg.bm);
        for (size_t i = 0; i < vals.size(); ++i) {
            const double err = std::fabs(block.decode(i, cfg.bm) - vals[i]);
            EXPECT_LE(err, ulp * (1.0 + 1e-9)) << "i=" << i;
        }
    }
}

TEST(BfpBlock, TruncationRoundsTowardMinusInfinity)
{
    // Two's-complement LSB truncation == floor: decoded values never
    // exceed the originals, for either sign.
    const BfpConfig cfg{4, 4, Rounding::Truncate};
    std::vector<float> vals = {0.99f, -0.99f, 0.33f, -0.33f};
    const BfpBlock block = encodeBlock(vals, cfg);
    for (size_t i = 0; i < vals.size(); ++i)
        EXPECT_LE(block.decode(i, cfg.bm), vals[i]);
    // Positive values shrink; negative values grow in magnitude.
    EXPECT_LE(std::fabs(block.decode(0, cfg.bm)), 0.99f);
    EXPECT_GE(std::fabs(block.decode(1, cfg.bm)), 0.99f);
}

TEST_F(BfpSeeded, StochasticRoundingIsUnbiased)
{
    const float v = 0.53f; // deliberately off-grid
    double sum = 0;
    const int n = 20000;
    for (int t = 0; t < n; ++t) {
        std::vector<float> vals = {v, 1.0f}; // second value pins exponent
        BfpConfig cfg2{4, 2, Rounding::Stochastic};
        const BfpBlock block = encodeBlock(vals, cfg2, &rng);
        sum += block.decode(0, cfg2.bm);
    }
    EXPECT_NEAR(sum / n, v, 0.002);
}

TEST(BfpBlock, NearestMayRoundAwayButSaturates)
{
    // 0.97 at shared exponent 0 scales to 15.52 -> nearest would be 16,
    // which exceeds bm=4 mantissa range and must saturate to 15.
    const BfpConfig cfg{4, 2, Rounding::Nearest};
    std::vector<float> vals = {0.97f, 0.999f};
    const BfpBlock block = encodeBlock(vals, cfg);
    EXPECT_EQ(block.mantissas[0], 15);
    EXPECT_EQ(block.mantissas[1], 15);
}

TEST(BfpGemmTest, MatchesFp32OnGridValues)
{
    // Inputs representable exactly in BFP: GEMM must be exact.
    const int m = 3, k = 8, n = 2;
    std::vector<float> a(m * k), b(k * n);
    for (int i = 0; i < m * k; ++i)
        a[i] = static_cast<float>((i % 7) - 3) * 0.125f;
    for (int i = 0; i < k * n; ++i)
        b[i] = static_cast<float>((i % 5) - 2) * 0.25f;

    BfpGemmOptions opts;
    opts.config = {4, 4, Rounding::Nearest};
    const auto c = bfpGemm(a, b, m, k, n, opts);
    const auto ref = mirage::test::referenceGemm(a, b, m, k, n);
    for (size_t i = 0; i < ref.size(); ++i)
        EXPECT_NEAR(c[i], ref[i], 1e-6) << i;
}

/**
 * Reference for the RNS datapath, independent of bfpGemm's kernels: every
 * group is encoded with encodeBlock (same per-row/column rounding streams
 * as bfpGemm: a base draw for A's rows, then one for B's columns), and
 * every chunk dot goes through rns::RnsCodec — forward conversion, one
 * modular dot per modulus, CRT decode — before the double ldexp scale and
 * the FP32 accumulation in ascending chunk order.
 */
std::vector<float>
rnsReferenceGemm(const std::vector<float> &a, const std::vector<float> &b,
                 int m, int k, int n, const BfpConfig &cfg,
                 const rns::ModuliSet &set, Rng *rng = nullptr)
{
    const rns::RnsCodec codec(set);
    const bool stochastic =
        rng != nullptr && cfg.rounding == Rounding::Stochastic;
    const int chunks = (k + cfg.g - 1) / cfg.g;
    // blocks[line][chunk] for A's rows, then B's columns.
    const auto encodeLines = [&](int lines, auto element) {
        const uint64_t base = stochastic ? rng->nextU64() : 0;
        std::vector<std::vector<BfpBlock>> out(static_cast<size_t>(lines));
        for (int line = 0; line < lines; ++line) {
            Rng line_rng = Rng::stream(base, static_cast<uint64_t>(line));
            for (int c = 0; c < chunks; ++c) {
                std::vector<float> group;
                for (int t = c * cfg.g; t < std::min(k, (c + 1) * cfg.g); ++t)
                    group.push_back(element(line, t));
                out[static_cast<size_t>(line)].push_back(encodeBlock(
                    group, cfg, stochastic ? &line_rng : nullptr));
            }
        }
        return out;
    };
    const auto rows = encodeLines(
        m, [&](int i, int t) { return a[static_cast<size_t>(i) * k + t]; });
    const auto cols = encodeLines(
        n, [&](int j, int t) { return b[static_cast<size_t>(t) * n + j]; });

    std::vector<float> c(static_cast<size_t>(m) * n);
    for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (int ch = 0; ch < chunks; ++ch) {
                const BfpBlock &qa = rows[static_cast<size_t>(i)][ch];
                const BfpBlock &qb = cols[static_cast<size_t>(j)][ch];
                std::vector<rns::Residue> digits(set.count(), 0);
                for (size_t t = 0; t < qa.mantissas.size(); ++t) {
                    const rns::ResidueVector ra = codec.encode(qa.mantissas[t]);
                    const rns::ResidueVector rb = codec.encode(qb.mantissas[t]);
                    for (size_t mi = 0; mi < set.count(); ++mi) {
                        const uint64_t mod = set.modulus(mi);
                        digits[mi] = rns::addMod(
                            digits[mi], rns::mulMod(ra[mi], rb[mi], mod), mod);
                    }
                }
                const int64_t isum = codec.decode(digits);
                acc += static_cast<float>(
                    std::ldexp(static_cast<double>(isum),
                               qa.exponent + qb.exponent - 2 * cfg.bm));
            }
            c[static_cast<size_t>(i) * n + j] = acc;
        }
    }
    return c;
}

/** Byte-for-byte equality (NaN-safe, tells -0 from +0). */
void
expectBitIdentical(const std::vector<float> &got,
                   const std::vector<float> &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(std::bit_cast<uint32_t>(got[i]),
                  std::bit_cast<uint32_t>(want[i]))
            << what << " @" << i << ": " << got[i] << " vs " << want[i];
}

TEST_F(BfpSeeded, RnsPathIsTransparent)
{
    // The paper's core numerical claim: with Eq. (13) satisfied, computing
    // the chunk dot products in the RNS domain changes nothing. bfpGemm
    // with and without a moduli set must both equal the RNS reference.
    const int m = 6, k = 40, n = 5; // k not a multiple of g: tail groups
    const auto a = mirage::test::gaussianVector(rng, m * k);
    const auto b = mirage::test::gaussianVector(rng, k * n);

    BfpGemmOptions plain;
    plain.config = {4, 16, Rounding::Truncate};
    BfpGemmOptions with_rns = plain;
    with_rns.moduli = mirage::test::paperModuli();

    const auto ref =
        rnsReferenceGemm(a, b, m, k, n, plain.config, *with_rns.moduli);
    expectBitIdentical(bfpGemm(a, b, m, k, n, plain), ref, "plain");
    expectBitIdentical(bfpGemm(a, b, m, k, n, with_rns), ref, "rns");
}

TEST_F(BfpSeeded, RnsTransparencyAcrossConfigs)
{
    struct Shape { int m, k, n; };
    // m % 4 != 0 (row tail), n off multiples of 8 and 64 (column tails and
    // a second column tile), k off multiples of g (zero-padded chunk).
    const Shape shapes[] = {{1, 5, 1}, {7, 35, 13}, {9, 67, 70}, {4, 48, 64}};
    for (const int bm : {3, 4, 6}) {
        for (const Rounding rounding :
             {Rounding::Truncate, Rounding::Nearest, Rounding::Stochastic}) {
            for (const int k_set : {4, 5, 6}) {
                const rns::ModuliSet set = rns::ModuliSet::special(k_set);
                const BfpConfig cfg{bm, 16, rounding};
                if (!set.canHoldDotProduct(cfg.bm, cfg.g))
                    continue;
                for (const Shape &sh : shapes) {
                    auto a =
                        mirage::test::gaussianVector(rng, sh.m * sh.k, 0, 4);
                    const auto b =
                        mirage::test::gaussianVector(rng, sh.k * sh.n, 0, 0.5);
                    if (sh.m > 2) // an all-zero row
                        std::fill(a.begin() + sh.k, a.begin() + 2 * sh.k, 0.0f);
                    const std::string what =
                        "bm=" + std::to_string(bm) + " " + toString(rounding) +
                        " k=" + std::to_string(k_set) + " m=" +
                        std::to_string(sh.m) + " n=" + std::to_string(sh.n);

                    BfpGemmOptions opts;
                    opts.config = cfg;
                    opts.moduli = set;
                    Rng gemm_rng(rng.nextU64());
                    Rng ref_rng = gemm_rng;
                    opts.rng = &gemm_rng;
                    const auto got = bfpGemm(a, b, sh.m, sh.k, sh.n, opts);
                    expectBitIdentical(got,
                                       rnsReferenceGemm(a, b, sh.m, sh.k, sh.n,
                                                        cfg, set, &ref_rng),
                                       what);
                    // Both consumed the caller's rng identically.
                    EXPECT_EQ(gemm_rng.nextU64(), ref_rng.nextU64()) << what;
                }
            }
        }
    }
}

TEST_F(BfpSeeded, RnsTransparencyAtExtremeExponents)
{
    // Shared exponents near the ends of the float range push the chunk
    // scale 2^(ea + eb - 2 bm) outside the normal float range, and the
    // products into the subnormal range or to overflow.
    const int m = 5, k = 37, n = 11;
    const BfpConfig cfg{4, 16, Rounding::Nearest};
    const rns::ModuliSet set = mirage::test::paperModuli();
    for (const auto &[a_scale, b_scale] :
         {std::pair{1e-38, 1e-3}, std::pair{1e-38, 1e30}, std::pair{1e37, 1e-3},
          std::pair{1e37, 1e-30}, std::pair{1e-20, 1e-20},
          std::pair{1e37, 10.0}}) {
        auto a = mirage::test::gaussianVector(rng, m * k);
        auto b = mirage::test::gaussianVector(rng, k * n);
        for (float &v : a)
            v = static_cast<float>(std::clamp(v, -3.0f, 3.0f) * a_scale);
        for (float &v : b)
            v = static_cast<float>(std::clamp(v, -3.0f, 3.0f) * b_scale);
        BfpGemmOptions opts;
        opts.config = cfg;
        opts.moduli = set;
        expectBitIdentical(bfpGemm(a, b, m, k, n, opts),
                           rnsReferenceGemm(a, b, m, k, n, cfg, set),
                           "scales " + std::to_string(a_scale) + " x " +
                               std::to_string(b_scale));
    }
}

TEST_F(BfpSeeded, RnsTransparencyWithWideChunkDots)
{
    // bm = 15, g = 64: chunk dots reach 2^36, past float's exact integers
    // (2^24) and past int32, so they must be scaled from the exact value.
    const int m = 5, k = 130, n = 9;
    const BfpConfig cfg{15, 64, Rounding::Truncate};
    const rns::ModuliSet set = rns::ModuliSet::special(13);
    ASSERT_TRUE(set.canHoldDotProduct(cfg.bm, cfg.g));
    // Same-sign operands, so the products add up instead of cancelling.
    const auto a = mirage::test::randomRealVector(rng, m * k, 0.5, 1.0);
    const auto b = mirage::test::randomRealVector(rng, k * n, 0.5, 1.0);
    BfpGemmOptions opts;
    opts.config = cfg;
    opts.moduli = set;
    expectBitIdentical(bfpGemm(a, b, m, k, n, opts),
                       rnsReferenceGemm(a, b, m, k, n, cfg, set), "bm=15");
}

TEST(BfpGemmTest, Eq13BoundaryMatchesRnsReference)
{
    // Truncation maps -0.99999 to the most negative mantissa -2^bm, so 16
    // such products reach the largest chunk dot, g * 2^(2 bm) = 4096.
    const BfpConfig cfg{4, 16, Rounding::Truncate};
    const std::vector<float> a(16, -0.99999f), b(16, -0.99999f);
    BfpGemmOptions plain;
    plain.config = cfg;
    ASSERT_EQ(bfpGemm(a, b, 1, 16, 1, plain)[0], 16.0f);

    // psi(8193) = 4096 holds that dot; the RNS reference agrees.
    const rns::ModuliSet holds({8193});
    ASSERT_TRUE(holds.canHoldDotProduct(cfg.bm, cfg.g));
    BfpGemmOptions with_rns = plain;
    with_rns.moduli = holds;
    expectBitIdentical(bfpGemm(a, b, 1, 16, 1, with_rns),
                       rnsReferenceGemm(a, b, 1, 16, 1, cfg, holds), "8193");

    // psi(8192) = 4095 is one short: the RNS round trip wraps the dot to
    // -4096, which is why Eq. (13) must reject this set.
    const rns::ModuliSet short_set({8192});
    EXPECT_FALSE(short_set.canHoldDotProduct(cfg.bm, cfg.g));
    EXPECT_EQ(rnsReferenceGemm(a, b, 1, 16, 1, cfg, short_set)[0], -16.0f);
}

TEST_F(BfpSeeded, QuantizationErrorShrinksWithMantissaBits)
{
    const int m = 8, k = 64, n = 8;
    const auto a = mirage::test::gaussianVector(rng, m * k);
    const auto b = mirage::test::gaussianVector(rng, k * n);
    const auto ref = mirage::test::referenceGemm(a, b, m, k, n);

    double prev_err = 1e30;
    for (int bm : {2, 4, 6, 8}) {
        BfpGemmOptions opts;
        opts.config = {bm, 16, Rounding::Nearest};
        const auto c = bfpGemm(a, b, m, k, n, opts);
        double err = 0;
        for (size_t i = 0; i < c.size(); ++i)
            err += std::fabs(c[i] - ref[i]);
        EXPECT_LT(err, prev_err) << "bm=" << bm;
        prev_err = err;
    }
}

TEST(BfpGemmDeath, RejectsModuliTooSmallForConfig)
{
    std::vector<float> a(16, 1.0f), b(16, 1.0f);
    BfpGemmOptions opts;
    opts.config = {5, 16, Rounding::Truncate}; // needs k >= 6
    opts.moduli = mirage::test::paperModuli();
    EXPECT_EXIT(bfpGemm(a, b, 1, 16, 1, opts), testing::ExitedWithCode(1),
                "Eq. 13");
}

TEST(BfpGemmDeath, RejectsModuliOneShortOfEq13)
{
    // log2(8192) = 13 equals 2(bm+1) + log2(g) - 1 for bm=4, g=16, but
    // psi = 4095 < 16 * 2^8: the set cannot hold the largest chunk dot.
    std::vector<float> a(16, 1.0f), b(16, 1.0f);
    BfpGemmOptions opts;
    opts.config = {4, 16, Rounding::Truncate};
    opts.moduli = rns::ModuliSet({8192});
    EXPECT_EXIT(bfpGemm(a, b, 1, 16, 1, opts), testing::ExitedWithCode(1),
                "Eq. 13");
}

TEST(BfpConfigTest, DotProductBits)
{
    // Eq. (13): 2*(bm+1) + log2(g) - 1.
    EXPECT_EQ((BfpConfig{4, 16, Rounding::Truncate}).dotProductBits(), 13);
    EXPECT_EQ((BfpConfig{5, 64, Rounding::Truncate}).dotProductBits(), 17);
    EXPECT_EQ((BfpConfig{3, 16, Rounding::Truncate}).dotProductBits(), 11);
}

TEST_F(BfpSeeded, FakeQuantizeMatchesEncodeDecode)
{
    const BfpConfig cfg{4, 16, Rounding::Truncate};
    std::vector<float> vals = mirage::test::gaussianVector(rng, 50, 0, 3);
    std::vector<float> copy = vals;
    fakeQuantize(std::span<float>(copy), cfg);
    // Re-quantizing is idempotent.
    std::vector<float> twice = copy;
    fakeQuantize(std::span<float>(twice), cfg);
    for (size_t i = 0; i < copy.size(); ++i)
        EXPECT_EQ(copy[i], twice[i]) << i;
}

} // namespace
} // namespace bfp
} // namespace mirage
