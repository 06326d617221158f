/**
 * @file
 * Bit-equality tests for the simd dispatch layer (common/simd.h): every
 * vectorized axpy / panel kernel must return results byte-identical
 * to its scalar reference — integer ops because they are exact, FP32 ops
 * because the vector bodies perform the same multiply-then-add roundings
 * in the same per-element order (no FMA contraction). This is the
 * invariant that lets the SIMD kernels keep both the thread-count
 * determinism contract and every committed golden value.
 *
 * The BFP quantize core is pinned the same way: its AVX2 float-lane body
 * against the double scalar core, byte for byte, on the groups where
 * float rounding could go wrong (ties, near-ties, underflowing products,
 * extreme shared exponents).
 *
 * On hosts without AVX2 the wrappers dispatch to the scalar reference
 * and these tests pass trivially; on vector hardware they pin the real
 * vector bodies (including ragged tails and the per-row zero-skip).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/simd.h"
#include "test_support.h"

namespace {

using namespace mirage;

class SimdTest : public mirage::test::SeededTest
{
  protected:
    std::vector<float>
    floats(size_t n)
    {
        std::vector<float> v(n);
        for (auto &x : v) {
            x = static_cast<float>(rng.gaussian(0, 1));
            const double u = rng.uniformReal();
            if (u < 0.1)
                x = 0.0f;
            else if (u < 0.15)
                x = -0.0f;
        }
        return v;
    }

    std::vector<int32_t>
    ints(size_t n, int32_t lo, int32_t hi)
    {
        std::vector<int32_t> v(n);
        for (auto &x : v)
            x = static_cast<int32_t>(
                lo + static_cast<int64_t>(rng.uniformReal() * (hi - lo + 1)));
        return v;
    }
};

/** Byte equality of two float vectors. An empty vector's data() may be
 *  null, and memcmp's pointers must be valid even for zero bytes. */
bool
sameBytes(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST_F(SimdTest, BackendNameIsKnown)
{
    const std::string name = simd::backendName();
    EXPECT_TRUE(name == "avx2" || name == "scalar") << name;
}

TEST_F(SimdTest, AxpysMatchScalarReferenceBitExact)
{
    for (int n : {0, 1, 3, 7, 8, 9, 16, 23, 40}) {
        const auto b = floats(static_cast<size_t>(n));
        for (float a : {1.5f, 0.0f, -0.0f, -2.25e-7f}) {
            auto r_vec = floats(static_cast<size_t>(n));
            auto r_ref = r_vec;
            simd::axpyF32(a, b.data(), r_vec.data(), n);
            simd::scalar::axpyF32(a, b.data(), r_ref.data(), n);
            EXPECT_TRUE(sameBytes(r_vec, r_ref)) << "n=" << n << " a=" << a;
        }

        const auto bi = ints(static_cast<size_t>(n), -100000, 100000);
        std::vector<int64_t> iv(static_cast<size_t>(n), 7), ir = iv;
        simd::axpyI32I64(-12345, bi.data(), iv.data(), n);
        simd::scalar::axpyI32I64(-12345, bi.data(), ir.data(), n);
        EXPECT_EQ(iv, ir) << "n=" << n;
    }
}

TEST_F(SimdTest, Fp32PanelKernelMatchesScalarReferenceBitExact)
{
    for (int kd : {0, 1, 3, 17, 64}) {
        for (int jt : {1, 5, 8, 16, 23, 32}) {
            const int64_t lda = kd + 2, ldb = jt + 3;
            auto a = floats(static_cast<size_t>(4) * lda);
            const auto b = floats(static_cast<size_t>(std::max(kd, 1)) * ldb);
            if (kd > 0) // a whole zero row exercises the row skip
                for (int k = 0; k < kd; ++k)
                    a[static_cast<size_t>(2) * lda + k] = 0.0f;
            auto acc_vec = floats(static_cast<size_t>(4) * jt);
            auto acc_ref = acc_vec; // nonzero start pins accumulate-into
            simd::gemmPanel4F32(a.data(), lda, b.data(), ldb, kd,
                                acc_vec.data(), jt);
            simd::scalar::gemmPanel4F32(a.data(), lda, b.data(), ldb, kd,
                                        acc_ref.data(), jt);
            EXPECT_EQ(0, std::memcmp(acc_vec.data(), acc_ref.data(),
                                     acc_vec.size() * sizeof(float)))
                << "kd=" << kd << " jt=" << jt;
        }
    }
}

TEST_F(SimdTest, IntegerPanelKernelMatchesScalarReference)
{
    for (int kd : {0, 1, 5, 33}) {
        for (int jt : {1, 4, 8, 13, 16, 24, 40}) {
            const int64_t lda = kd + 1, ldb = jt + 2;
            auto ai = ints(static_cast<size_t>(4) * lda, -2000, 2000);
            const auto bi =
                ints(static_cast<size_t>(std::max(kd, 1)) * ldb, -2000, 2000);
            if (kd > 0)
                for (int k = 0; k < kd; ++k)
                    ai[static_cast<size_t>(1) * lda + k] = 0;
            std::vector<int64_t> acc_vec(static_cast<size_t>(4) * jt, 11);
            auto acc_ref = acc_vec;
            simd::gemmPanel4I32I64(ai.data(), lda, bi.data(), ldb, kd,
                                   acc_vec.data(), jt);
            simd::scalar::gemmPanel4I32I64(ai.data(), lda, bi.data(), ldb, kd,
                                           acc_ref.data(), jt);
            EXPECT_EQ(acc_vec, acc_ref) << "kd=" << kd << " jt=" << jt;
        }
    }
}

/**
 * The fused BFP chunk tile (simd::chunkTile4) against its scalar twin,
 * byte for byte, and the twin against a plain int64-dot, ldexp-scaled
 * reference. Every (bm, g) keeps g * 2^(2 bm) <= INT32_MAX, the kernel's
 * precondition. Depths cover odd and even chunk lengths and kd < g; tiles
 * cover every rows % 4 and cols % 8 tail. Exponent bases near -126 and
 * 127 make ea + eb straddle the float-scale range, so ldexp chunks fire;
 * bm = 11, g = 16 reaches dots of 2^26, past float's exact integers,
 * which the float path must still scale exactly like ldexp.
 */
TEST_F(SimdTest, ChunkTileMatchesScalarTwinByteForByte)
{
    struct Config
    {
        int bm, g;
    };
    int tile_id = 0;
    for (const Config cfg : {Config{4, 16}, Config{4, 7}, Config{6, 5},
                             Config{8, 3}, Config{11, 16}, Config{15, 1}}) {
        ASSERT_LE(int64_t{cfg.g} << (2 * cfg.bm), INT32_MAX);
        const int32_t q_max = (1 << cfg.bm) - 1;
        for (const int k_depth :
             {1, std::max(1, cfg.g - 1), cfg.g, 2 * cfg.g, 3 * cfg.g + 5}) {
            const int chunks = (k_depth + cfg.g - 1) / cfg.g;
            const int64_t lda = static_cast<int64_t>(chunks) * cfg.g;
            for (const int base : {0, -122, 123, -131, 60}) {
                for (int rows = 1; rows <= 4; ++rows, ++tile_id) {
                    const int cols = 1 + tile_id % 37;
                    // Same-sign, near-full-scale mantissas in half the
                    // tiles, so the dots reach g * 2^(2 bm) with random
                    // low bits; the other half also pairs two -2^bm.
                    const bool wide = tile_id % 2 == 0;
                    auto mant = [&](size_t n) {
                        std::vector<int32_t> v =
                            wide ? ints(n, std::max(0, q_max - 64), q_max)
                                 : ints(n, -q_max - 1, q_max);
                        if (!wide)
                            v[0] = -q_max - 1;
                        return v;
                    };
                    std::vector<int32_t> a = mant(4 * lda);
                    for (int r = 0; r < 4; ++r) // A's zero padding
                        for (int64_t t = k_depth; t < lda; ++t)
                            a[r * lda + t] = 0;
                    const std::vector<int32_t> b =
                        mant(static_cast<size_t>(k_depth) * cols);
                    // ea = exps_a - 2 bm in base +- 6, ea + eb in
                    // base +- 12.
                    const std::vector<int32_t> exps_a =
                        ints(static_cast<size_t>(4) * chunks,
                             base + 2 * cfg.bm - 6, base + 2 * cfg.bm + 6);
                    const std::vector<int32_t> eb =
                        ints(static_cast<size_t>(chunks) * cols, -6, 6);

                    // ChunkTile's layouts, built from its contract.
                    const int pairs = (cfg.g + 1) / 2;
                    const int panel = simd::ChunkTile::kPanel;
                    const int panels = (cols + panel - 1) / panel;
                    auto pair = [&](auto depth, int ch, int p) {
                        const int t = ch * cfg.g + 2 * p;
                        const int end = std::min(k_depth, (ch + 1) * cfg.g);
                        const uint32_t lo = static_cast<uint32_t>(depth(t));
                        const uint32_t hi =
                            t + 1 < end ? static_cast<uint32_t>(depth(t + 1))
                                        : 0;
                        return static_cast<int32_t>((lo & 0xffffu) |
                                                    (hi << 16));
                    };
                    std::vector<int32_t> a_pairs(
                        static_cast<size_t>(chunks) * pairs * 4, 0);
                    std::vector<int32_t> ea(static_cast<size_t>(chunks) * 4);
                    std::vector<int32_t> b_pairs(
                        static_cast<size_t>(panels) * chunks * pairs * panel,
                        0);
                    std::vector<int32_t> eb_panels(
                        static_cast<size_t>(panels) * chunks * panel, 0);
                    for (int ch = 0; ch < chunks; ++ch) {
                        const int kd =
                            std::min(cfg.g, k_depth - ch * cfg.g);
                        for (int r = 0; r < 4; ++r) {
                            ea[ch * 4 + r] =
                                exps_a[std::min(r, rows - 1) * chunks + ch] -
                                2 * cfg.bm;
                            for (int p = 0; 2 * p < kd && r < rows; ++p)
                                a_pairs[(ch * pairs + p) * 4 + r] = pair(
                                    [&](int t) { return a[r * lda + t]; }, ch,
                                    p);
                        }
                        for (int j = 0; j < cols; ++j) {
                            const size_t at = static_cast<size_t>(j / panel) *
                                                  chunks * panel +
                                              ch * panel + j % panel;
                            eb_panels[at] = eb[ch * cols + j];
                            for (int p = 0; 2 * p < kd; ++p)
                                b_pairs[static_cast<size_t>(j / panel) *
                                            chunks * pairs * panel +
                                        (ch * pairs + p) * panel +
                                        j % panel] =
                                    pair([&](int t) { return b[t * cols + j]; },
                                         ch, p);
                        }
                    }

                    const int64_t ldc = cols + 3;
                    std::vector<float> c_vec(4 * ldc,
                                             std::bit_cast<float>(0x7fc01234u));
                    auto c_ref = c_vec;
                    simd::ChunkTile tile{a_pairs.data(),
                                         ea.data(),
                                         b_pairs.data(),
                                         eb_panels.data(),
                                         k_depth,
                                         cfg.g,
                                         c_vec.data(),
                                         ldc,
                                         rows,
                                         cols};
                    simd::chunkTile4(tile);
                    tile.c = c_ref.data();
                    simd::scalar::chunkTile4(tile);
                    const std::string what =
                        "bm=" + std::to_string(cfg.bm) + " g=" +
                        std::to_string(cfg.g) + " k=" +
                        std::to_string(k_depth) + " base=" +
                        std::to_string(base) + " rows=" +
                        std::to_string(rows) + " cols=" + std::to_string(cols);
                    ASSERT_TRUE(sameBytes(c_vec, c_ref)) << what;

                    // The twin itself: int64 dots, ldexp scale, FP32 sum.
                    for (int r = 0; r < rows; ++r)
                        for (int j = 0; j < cols; ++j) {
                            float acc = 0.0f;
                            for (int ch = 0; ch < chunks; ++ch) {
                                int64_t dot = 0;
                                for (int t = ch * cfg.g;
                                     t < std::min(k_depth, (ch + 1) * cfg.g);
                                     ++t)
                                    dot += int64_t{a[r * lda + t]} *
                                           b[static_cast<size_t>(t) * cols + j];
                                acc += static_cast<float>(std::ldexp(
                                    static_cast<double>(dot),
                                    exps_a[r * chunks + ch] - 2 * cfg.bm +
                                        eb[static_cast<size_t>(ch) * cols +
                                           j]));
                            }
                            ASSERT_EQ(std::bit_cast<uint32_t>(acc),
                                      std::bit_cast<uint32_t>(
                                          c_ref[r * ldc + j]))
                                << what << " r=" << r << " j=" << j;
                        }
                }
            }
        }
    }
}

/** frexp exponent of a group's largest magnitude (0 when all zero): the
 *  BFP shared exponent, so |v| < 2^shared. */
int
sharedExponent(const float *v, int n, int64_t stride = 1)
{
    float m = 0.0f;
    for (int i = 0; i < n; ++i)
        m = std::max(m, std::fabs(v[i * stride]));
    int e = 0;
    if (m != 0.0f)
        std::frexp(m, &e);
    return e;
}

/**
 * Quantize groups that probe every float-lane exactness argument, for
 * mantissa width bm. Kind 0: gaussians at a random scale; 1: exact ties
 * (k + 1/2) 2^(e - bm) and their nextafter neighbours; 2: a large value
 * with tiny negative normals and subnormals whose products underflow;
 * 3: +-0 with one element of either sign; 4: all zero; 5: shared exponent
 * 128 (values up to FLT_MAX); 6: shared exponent -148 (only +-2^-149).
 */
class QuantizeGroups : public SimdTest
{
  protected:
    static constexpr int kKinds = 7;

    void
    fill(float *v, int n, int64_t stride, int kind, int bm)
    {
        constexpr float kDenormMin = std::numeric_limits<float>::denorm_min();
        const auto at = [&](int i) -> float & { return v[i * stride]; };
        for (int i = 0; i < n; ++i)
            at(i) = 0.0f;
        switch (kind) {
          case 0: {
            const int e = static_cast<int>(rng.uniformReal() * 200) - 100;
            for (int i = 0; i < n; ++i)
                at(i) = std::ldexp(static_cast<float>(rng.gaussian()), e);
            break;
          }
          case 1: {
            const int e = static_cast<int>(rng.uniformReal() * 60) - 30;
            const float ulp = std::ldexp(1.0f, e - bm);
            at(0) = std::ldexp(0.75f, e); // fixes the shared exponent at e
            for (int i = 1; i < n; ++i) {
                const int k = static_cast<int>(rng.uniformReal() *
                                               (2 << bm)) - (1 << bm);
                const float tie = (static_cast<float>(k) + 0.5f) * ulp;
                const int nudge = i % 3; // exact tie, then either side
                at(i) = nudge == 0 ? tie
                        : nudge == 1
                            ? std::nextafter(tie, 0.0f)
                            : std::nextafter(tie, 2.0f * tie + 1.0f);
            }
            break;
          }
          case 2:
            at(0) = std::ldexp(-0.9f, 10);
            for (int i = 1; i < n; ++i)
                at(i) = i % 3 == 0   ? -1e-38f
                        : i % 3 == 1 ? -3.0f * kDenormMin
                                     : kDenormMin * static_cast<float>(i);
            break;
          case 3:
            for (int i = 0; i < n; ++i)
                at(i) = i % 2 == 0 ? -0.0f : 0.0f;
            at(n - 1) = rng.uniformReal() < 0.5 ? -1.5f : 1.25f;
            break;
          case 4:
            break;
          case 5:
            at(0) = std::numeric_limits<float>::max();
            for (int i = 1; i < n; ++i)
                at(i) = i % 2 == 0
                            ? std::ldexp(static_cast<float>(rng.gaussian()),
                                         126)
                            : -std::ldexp(1.0f, -100);
            break;
          default:
            for (int i = 0; i < n; ++i)
                at(i) = i % 3 == 0 ? kDenormMin
                        : i % 3 == 1 ? -kDenormMin
                                     : 0.0f;
            break;
        }
    }
};

TEST_F(QuantizeGroups, RowsMatchDoubleCoreByteForByte)
{
    for (int bm : {1, 4, 8, 15}) {
        const int32_t q_max = (1 << bm) - 1;
        for (int n : {1, 5, 8, 13, 16, 23}) { // ragged K % g tails
            for (int kind = 0; kind < kKinds; ++kind) {
                std::vector<float> v(static_cast<size_t>(n));
                fill(v.data(), n, 1, kind, bm);
                EXPECT_EQ(simd::maxMagnitude(v.data(), n),
                          simd::scalar::maxMagnitude(v.data(), n));
                const int shift = bm - sharedExponent(v.data(), n);
                for (bool nearest : {true, false}) {
                    std::vector<int32_t> q_vec(v.size(), -7), q_ref = q_vec;
                    const int32_t c_vec = simd::quantizeRow(
                        v.data(), n, shift, q_max, nearest, q_vec.data());
                    const int32_t c_ref = simd::scalar::quantizeRow(
                        v.data(), n, shift, q_max, nearest, q_ref.data());
                    EXPECT_EQ(q_vec, q_ref)
                        << "bm=" << bm << " n=" << n << " kind=" << kind
                        << " nearest=" << nearest;
                    EXPECT_EQ(c_vec, c_ref)
                        << "bm=" << bm << " n=" << n << " kind=" << kind;
                }
            }
        }
    }
}

TEST_F(QuantizeGroups, ColumnsMatchDoubleCoreByteForByte)
{
    for (int bm : {1, 4, 8, 15}) {
        const int32_t q_max = (1 << bm) - 1;
        for (int rows : {1, 5, 16}) {
            for (int cols : {1, 7, 8, 9, 16}) { // ragged N % 16 blocks
                const int64_t ldv = cols + 3, ldq = cols + 1;
                for (int rep = 0; rep < 2; ++rep) {
                    std::vector<float> v(static_cast<size_t>(rows) * ldv);
                    int32_t shift[16] = {};
                    for (int j = 0; j < cols; ++j) {
                        // Mixed kinds per block, and one whole block of
                        // each kind, so both the per-lane float path and
                        // the whole-block double fallback run.
                        const int kind = rep == 0 ? j % kKinds
                                                  : (bm + rows) % kKinds;
                        fill(v.data() + j, rows, ldv, kind, bm);
                        shift[j] = bm - sharedExponent(v.data() + j, rows, ldv);
                    }
                    uint32_t max_vec[16] = {}, max_ref[16] = {};
                    simd::maxMagnitudeCols(v.data(), ldv, rows, cols,
                                           max_vec);
                    simd::scalar::maxMagnitudeCols(v.data(), ldv, rows, cols,
                                                   max_ref);
                    EXPECT_EQ(0, std::memcmp(max_vec, max_ref,
                                             cols * sizeof(uint32_t)))
                        << "rows=" << rows << " cols=" << cols;
                    for (bool nearest : {true, false}) {
                        std::vector<int32_t> q_vec(
                            static_cast<size_t>(rows) * ldq, -7),
                            q_ref = q_vec;
                        std::vector<int32_t> c_vec(16, 3), c_ref = c_vec;
                        simd::quantizeCols(v.data(), ldv, rows, cols, shift,
                                           q_max, nearest, q_vec.data(), ldq,
                                           c_vec.data());
                        simd::scalar::quantizeCols(
                            v.data(), ldv, rows, cols, shift, q_max, nearest,
                            q_ref.data(), ldq, c_ref.data());
                        EXPECT_EQ(q_vec, q_ref)
                            << "bm=" << bm << " rows=" << rows
                            << " cols=" << cols << " rep=" << rep
                            << " nearest=" << nearest;
                        EXPECT_EQ(c_vec, c_ref)
                            << "bm=" << bm << " rows=" << rows
                            << " cols=" << cols << " rep=" << rep;
                    }
                }
            }
        }
    }
}

TEST_F(QuantizeGroups, DoubleCoreRoundsTiesAwayAndFloorsUnderflow)
{
    // Pins the reference itself, so the byte comparisons above cannot pass
    // against a broken core. bm = 4, shared exponent 0: scale 2^4.
    const float v[] = {2.5f / 16, -2.5f / 16, std::nextafter(2.5f / 16, 0.0f),
                       -0.0f, -std::numeric_limits<float>::denorm_min(),
                       0.96875f};
    int32_t q[6] = {};
    EXPECT_EQ(simd::scalar::quantizeRow(v, 6, 4, 15, true, q), 1);
    EXPECT_EQ(std::vector<int32_t>(q, q + 6),
              (std::vector<int32_t>{3, -3, 2, 0, 0, 15}));
    EXPECT_EQ(simd::scalar::quantizeRow(v, 6, 4, 15, false, q), 0);
    EXPECT_EQ(std::vector<int32_t>(q, q + 6),
              (std::vector<int32_t>{2, -3, 2, 0, -1, 15}));
    // The float lanes see -2^-149 * 2^-6 underflow to -0 and must still
    // floor to -1, as the double core does.
    const float tiny[] = {std::ldexp(-0.9f, 10),
                          -std::numeric_limits<float>::denorm_min(), -1e-38f,
                          0.0f, 1e-38f, -0.0f, 3.0f, -5.0f};
    int32_t q_vec[8] = {}, q_ref[8] = {};
    simd::quantizeRow(tiny, 8, -6, 15, false, q_vec);
    simd::scalar::quantizeRow(tiny, 8, -6, 15, false, q_ref);
    EXPECT_EQ(std::vector<int32_t>(q_vec, q_vec + 8),
              (std::vector<int32_t>{-15, -1, -1, 0, 0, 0, 0, -1}));
    EXPECT_EQ(0, std::memcmp(q_vec, q_ref, sizeof q_vec));
}

TEST_F(SimdTest, TransposeTileMatchesScalarReference)
{
    const auto src = floats(8 * 11);
    std::vector<float> t_vec(8 * 13, 1.0f), t_ref = t_vec;
    simd::transpose8x8F32(src.data(), 11, t_vec.data(), 13);
    simd::scalar::transpose8x8F32(src.data(), 11, t_ref.data(), 13);
    EXPECT_EQ(0, std::memcmp(t_vec.data(), t_ref.data(),
                             t_vec.size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(&t_ref[3 * 13 + 5], &src[5 * 11 + 3],
                             sizeof(float)));
}

TEST(SimdEnv, ParseAcceptsOnlyKnownValues)
{
    EXPECT_EQ(simd::parseSimdEnv("scalar"), false);
    EXPECT_EQ(simd::parseSimdEnv("off"), false);
    EXPECT_EQ(simd::parseSimdEnv(" 0 "), false);
    EXPECT_EQ(simd::parseSimdEnv("auto"), true);
    EXPECT_EQ(simd::parseSimdEnv("on"), true);
    EXPECT_EQ(simd::parseSimdEnv("1"), true);

    std::string error;
    for (const char *bad : {"", "  ", "scalr", "avx2", "SCALAR", "2", "0x",
                            "scalar,"}) {
        error.clear();
        EXPECT_EQ(simd::parseSimdEnv(bad, &error), std::nullopt) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
    EXPECT_EQ(simd::parseSimdEnv(nullptr), std::nullopt);
}

} // namespace
