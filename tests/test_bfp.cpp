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
#include <climits>
#include <cmath>
#include <limits>
#include <string>

#include "bfp/bfp.h"
#include "bfp/bfp_gemm.h"
#include "common/rng.h"
#include "common/workspace.h"
#include "rns/conversion.h"
#include "rns/modulus.h"
#include "runtime/thread_pool.h"
#include "test_support.h"

namespace mirage {
namespace bfp {
namespace {

using BfpSeeded = mirage::test::SeededTest;
using mirage::test::bfpGemm;

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
 * Reference encoding of `lines` lines of depth k, cut into g-chunks:
 * blocks[line][chunk], each from encodeBlock. Stochastic lines draw from
 * Rng::stream(base, line), base one draw from `rng` — the packed
 * encoders' streams.
 */
template <typename Element>
std::vector<std::vector<BfpBlock>>
referenceGroups(int lines, int k, Element element, const BfpConfig &cfg,
                Rng *rng)
{
    const bool stochastic =
        rng != nullptr && cfg.rounding == Rounding::Stochastic;
    const uint64_t base = stochastic ? rng->nextU64() : 0;
    std::vector<std::vector<BfpBlock>> out(static_cast<size_t>(lines));
    for (int line = 0; line < lines; ++line) {
        Rng line_rng = Rng::stream(base, static_cast<uint64_t>(line));
        for (int c = 0; c * cfg.g < k; ++c) {
            std::vector<float> group;
            for (int t = c * cfg.g; t < std::min(k, (c + 1) * cfg.g); ++t)
                group.push_back(element(line, t));
            out[static_cast<size_t>(line)].push_back(
                encodeBlock(group, cfg, stochastic ? &line_rng : nullptr));
        }
    }
    return out;
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
    const int chunks = (k + cfg.g - 1) / cfg.g;
    const auto rows = referenceGroups(
        m, k, [&](int i, int t) { return a[static_cast<size_t>(i) * k + t]; },
        cfg, rng);
    const auto cols = referenceGroups(
        n, k, [&](int j, int t) { return b[static_cast<size_t>(t) * n + j]; },
        cfg, rng);

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

/**
 * rows x cols matrix holding the encoders' edge cases in both directions:
 * row 1 and column 2 open with an all-+-0 group (which must draw no
 * rounding randomness before the line's next group), row 3 and column 4
 * are subnormal, row 5 and column 6 all 0.999 (a group maximum that
 * rounds to 2^bm and clips), and -0.0 is scattered through the rest.
 */
std::vector<float>
edgeCaseMatrix(Rng &rng, int rows, int cols)
{
    std::vector<float> x = mirage::test::gaussianVector(
        rng, static_cast<size_t>(rows) * cols, 0, 4);
    for (int i = 0; i < rows; ++i) {
        for (int j = 0; j < cols; ++j) {
            float &v = x[static_cast<size_t>(i) * cols + j];
            if ((i == 1 && j < 16) || (j == 2 && i < 16))
                v = (i + j) % 2 ? -0.0f : 0.0f;
            else if (i == 3 || j == 4)
                v *= 1e-40f;
            else if (i == 5 || j == 6)
                v = 0.999f;
            else if ((i * cols + j) % 7 == 0)
                v = -0.0f;
        }
    }
    return x;
}

/**
 * Expects every group of an encoding to equal its reference block:
 * `mant(line, t)` reads depth t of a line, `exp(line, c)` a chunk's
 * exponent. Depths in [k, depth) are padding and must be zero.
 */
template <typename Mant, typename Exp>
void
expectGroupsMatch(const std::vector<std::vector<BfpBlock>> &ref, int k,
                  int depth, int g, Mant mant, Exp exp, const std::string &what)
{
    for (size_t line = 0; line < ref.size(); ++line) {
        const int l = static_cast<int>(line);
        for (size_t c = 0; c < ref[line].size(); ++c) {
            const BfpBlock &blk = ref[line][c];
            ASSERT_EQ(exp(l, static_cast<int>(c)), blk.exponent)
                << what << " line " << line << " chunk " << c;
            for (size_t t = 0; t < blk.mantissas.size(); ++t)
                ASSERT_EQ(mant(l, static_cast<int>(c * g + t)),
                          blk.mantissas[t])
                    << what << " line " << line << " chunk " << c << " t " << t;
        }
        for (int t = k; t < depth; ++t)
            ASSERT_EQ(mant(l, t), 0) << what << " padding, line " << line;
    }
}

TEST_F(BfpSeeded, PackedEncodersMatchBlockEncode)
{
    // Each layout the GEMMs read — A's packed rows, PhotonicBackend's
    // packed columns, and bfpGemm's K-major column blocks — holds exactly
    // encodeBlock's groups, rng draws included. 37 = 2 g + 5 rows (ragged
    // chunk) by 21 = 16 + 5 columns (ragged column block).
    const int rows_n = 37, cols_n = 21;
    const std::vector<float> x = edgeCaseMatrix(rng, rows_n, cols_n);
    const auto at = [&](int i, int j) {
        return x[static_cast<size_t>(i) * cols_n + j];
    };
    for (const Rounding rounding :
         {Rounding::Truncate, Rounding::Nearest, Rounding::Stochastic}) {
        const BfpConfig cfg{4, 16, rounding};
        const std::string what = toString(rounding);
        const uint64_t seed = rng.nextU64();
        Rng ref_rng(seed);
        const auto ref_rows =
            referenceGroups(rows_n, cols_n, at, cfg, &ref_rng);
        const auto ref_cols = referenceGroups(
            cols_n, rows_n, [&](int j, int t) { return at(t, j); }, cfg,
            &ref_rng);

        Rng enc_rng(seed);
        Workspace ws;
        Workspace::Scope scope(ws);
        const BfpPackedMatrix rows =
            encodeRowsPacked(x, rows_n, cols_n, cfg, ws, &enc_rng);
        const BfpPackedMatrix cols =
            encodeColsPacked(x, rows_n, cols_n, cfg, ws, &enc_rng);
        EXPECT_EQ(enc_rng.nextU64(), ref_rng.nextU64()) << what;
        const auto packed = [](const BfpPackedMatrix &p) {
            return [&p](int line, int t) {
                return p.chunk(line, t / p.g)[t % p.g];
            };
        };
        const auto packed_exp = [](const BfpPackedMatrix &p) {
            return [&p](int line, int c) { return p.exponent(line, c); };
        };
        expectGroupsMatch(ref_rows, cols_n, rows.chunk_count * cfg.g, cfg.g,
                          packed(rows), packed_exp(rows), what + " rows");
        expectGroupsMatch(ref_cols, rows_n, cols.chunk_count * cfg.g, cfg.g,
                          packed(cols), packed_exp(cols), what + " cols");

        // bfpGemm's K-major panel: B's own layout, one encodeColumnBlock
        // per 16 columns, column j on Rng::stream(base, j).
        const bool stochastic = rounding == Rounding::Stochastic;
        Rng km_rng(seed);
        if (stochastic)
            km_rng.nextU64(); // the rows' base draw
        const uint64_t base = stochastic ? km_rng.nextU64() : 0;
        std::vector<int32_t> mant(x.size(), 12345), exps(3 * cols_n);
        GroupTally tally;
        for (int j0 = 0; j0 < cols_n; j0 += kColumnBlock) {
            const int n = std::min(kColumnBlock, cols_n - j0);
            std::vector<Rng> streams;
            Rng *rngs[kColumnBlock] = {};
            for (int j = 0; j < n && stochastic; ++j)
                streams.push_back(Rng::stream(base, j0 + j));
            for (size_t j = 0; j < streams.size(); ++j)
                rngs[j] = &streams[j];
            encodeColumnBlock(x.data() + j0, cols_n, rows_n, n, cfg,
                              mant.data() + j0, cols_n, exps.data() + j0,
                              cols_n, rngs, tally);
        }
        expectGroupsMatch(
            ref_cols, rows_n, rows_n, cfg.g,
            [&](int j, int t) { return mant[t * cols_n + j]; },
            [&](int j, int c) { return exps[c * cols_n + j]; },
            what + " K-major");
    }
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
    // Every (k, g, bm) that Eq. (13) admits, its edge pairs included: k = 5
    // holds g = 32 at bm = 4 and k = 6 holds g = 64 at bm = 5, each with
    // under 2x headroom.
    for (const int bm : {3, 4, 5, 6}) {
        for (const int g : {4, 16, 32, 64}) {
            for (const int k_set : {4, 5, 6}) {
                const rns::ModuliSet set = rns::ModuliSet::special(k_set);
                if (!set.canHoldDotProduct(bm, g))
                    continue;
                for (const Rounding rounding : {Rounding::Truncate,
                                                Rounding::Nearest,
                                                Rounding::Stochastic}) {
                    const BfpConfig cfg{bm, g, rounding};
                    for (const Shape &sh : shapes) {
                        auto a = mirage::test::gaussianVector(
                            rng, sh.m * sh.k, 0, 4);
                        const auto b = mirage::test::gaussianVector(
                            rng, sh.k * sh.n, 0, 0.5);
                        if (sh.m > 2) // an all-zero row
                            std::fill(a.begin() + sh.k, a.begin() + 2 * sh.k,
                                      0.0f);
                        const std::string what =
                            "bm=" + std::to_string(bm) + " g=" +
                            std::to_string(g) + " k=" + std::to_string(k_set) +
                            " " + toString(rounding) + " m=" +
                            std::to_string(sh.m) + " n=" + std::to_string(sh.n);

                        BfpGemmOptions opts;
                        opts.config = cfg;
                        opts.moduli = set;
                        Rng gemm_rng(rng.nextU64());
                        Rng ref_rng = gemm_rng;
                        opts.rng = &gemm_rng;
                        const auto got = bfpGemm(a, b, sh.m, sh.k, sh.n, opts);
                        expectBitIdentical(
                            got,
                            rnsReferenceGemm(a, b, sh.m, sh.k, sh.n, cfg, set,
                                             &ref_rng),
                            what);
                        // Both consumed the caller's rng identically.
                        EXPECT_EQ(gemm_rng.nextU64(), ref_rng.nextU64())
                            << what;
                    }
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

TEST_F(BfpSeeded, RnsTransparencyAtEveryThreadCount)
{
    // bfpGemm splits its multiply into (4-row block x column group) tasks
    // whose width comes from the shape. M = 1, 8, 9 give a lone row, whole
    // row blocks and a row tail; N = 1, 9, 72, 4096 a lone column, a
    // column-panel tail, the skinny weight-gradient width and many column
    // groups; k = 37 two full chunks and an odd 5-deep one. Every split,
    // at 1 and 4 threads, must equal the RNS reference.
    struct ThreadsGuard
    {
        ~ThreadsGuard() { runtime::ThreadPool::setGlobalThreads(0); }
    } guard;
    const int k = 37;
    const BfpConfig cfg{4, 16, Rounding::Nearest};
    const rns::ModuliSet set = mirage::test::paperModuli();
    BfpGemmOptions opts;
    opts.config = cfg;
    opts.moduli = set;
    for (const int m : {1, 8, 9}) {
        for (const int n : {1, 9, 72, 4096}) {
            const auto a = mirage::test::gaussianVector(rng, m * k);
            const auto b = mirage::test::gaussianVector(rng, k * n);
            const auto ref = rnsReferenceGemm(a, b, m, k, n, cfg, set);
            for (const int threads : {1, 4}) {
                runtime::ThreadPool::setGlobalThreads(threads);
                expectBitIdentical(bfpGemm(a, b, m, k, n, opts), ref,
                                   "m=" + std::to_string(m) +
                                       " n=" + std::to_string(n) +
                                       " threads=" + std::to_string(threads));
            }
        }
    }
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

TEST(BfpGemmTest, ChunkDotAccumulatorBoundary)
{
    // All-q_min operands (Truncate maps -0.99999 to -2^bm) make every
    // chunk dot g * 2^(2 bm), the largest there is. bfpGemm accumulates in
    // int32 only while that fits: at 2^31 it must take int64 (an int32
    // sum would wrap to -2^31), at 2^30 int32 holds it. Each product
    // scales to 1, so every output is exactly k.
    const rns::ModuliSet set = rns::ModuliSet::special(13);
    struct Case
    {
        int bm, g;
        bool int32_dots;
    };
    for (const Case &cs : {Case{15, 2, false}, Case{14, 8, false},
                           Case{14, 4, true}}) {
        const BfpConfig cfg{cs.bm, cs.g, Rounding::Truncate};
        const int64_t max_dot = int64_t{cs.g} << (2 * cs.bm);
        ASSERT_EQ(max_dot <= INT32_MAX, cs.int32_dots);
        ASSERT_TRUE(set.canHoldDotProduct(cfg.bm, cfg.g));
        const int m = 5, k = 3 * cs.g + 1, n = 19; // ragged everywhere
        const std::vector<float> a(static_cast<size_t>(m) * k, -0.99999f);
        const std::vector<float> b(static_cast<size_t>(k) * n, -0.99999f);
        BfpGemmOptions opts;
        opts.config = cfg;
        opts.moduli = set;
        const auto got = bfpGemm(a, b, m, k, n, opts);
        const std::string what = "bm=" + std::to_string(cs.bm) +
                                 " g=" + std::to_string(cs.g);
        expectBitIdentical(got, rnsReferenceGemm(a, b, m, k, n, cfg, set),
                           what);
        EXPECT_EQ(got[0], static_cast<float>(k)) << what;
    }
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

TEST(BfpGemmDeath, NonFiniteOperandsAreFatal)
{
    // A NaN in one of A's row groups and a +Inf in one of B's column
    // groups (second, ragged column block) both stop the GEMM.
    const int m = 2, k = 40, n = 20;
    BfpGemmOptions opts;
    opts.config = {4, 16, Rounding::Nearest};
    std::vector<float> a(static_cast<size_t>(m) * k, 0.5f);
    std::vector<float> b(static_cast<size_t>(k) * n, 0.25f);
    a[k + 33] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_EXIT(bfpGemm(a, b, m, k, n, opts), testing::ExitedWithCode(1),
                "non-finite value in BFP group");
    a[k + 33] = 0.5f;
    b[21 * n + 17] = std::numeric_limits<float>::infinity();
    EXPECT_EXIT(bfpGemm(a, b, m, k, n, opts), testing::ExitedWithCode(1),
                "non-finite value in BFP group");
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
