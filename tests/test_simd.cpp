/**
 * @file
 * Bit-equality tests for the simd dispatch layer (common/simd.h): every
 * vectorized dot / axpy / panel kernel must return results byte-identical
 * to its scalar reference — integer ops because they are exact, FP32 ops
 * because the vector bodies perform the same multiply-then-add roundings
 * in the same per-element order (no FMA contraction). This is the
 * invariant that lets the SIMD kernels keep both the thread-count
 * determinism contract and every committed golden value.
 *
 * On hosts without AVX2/NEON the wrappers dispatch to the scalar reference
 * and these tests pass trivially; on vector hardware they pin the real
 * vector bodies (including ragged tails and the per-row zero-skip).
 */

#include <gtest/gtest.h>

#include <cstring>
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

    /** uint64 values that fit in 32 bits (RNS residues). */
    std::vector<uint64_t>
    residues(size_t n, uint64_t modulus)
    {
        std::vector<uint64_t> v(n);
        for (auto &x : v) {
            x = static_cast<uint64_t>(rng.uniformReal() * modulus) % modulus;
            if (rng.uniformReal() < 0.1)
                x = 0;
        }
        return v;
    }
};

TEST_F(SimdTest, BackendNameIsKnown)
{
    const std::string name = simd::backendName();
    EXPECT_TRUE(name == "avx2" || name == "neon" || name == "scalar")
        << name;
}

TEST_F(SimdTest, DotsMatchScalarReference)
{
    for (int n : {0, 1, 2, 3, 7, 8, 15, 16, 17, 31, 40, 67}) {
        const auto ai = ints(static_cast<size_t>(n), -4000, 4000);
        const auto bi = ints(static_cast<size_t>(n), -4000, 4000);
        EXPECT_EQ(simd::dotI32I64(ai.data(), bi.data(), n),
                  simd::scalar::dotI32I64(ai.data(), bi.data(), n))
            << "n=" << n;

        std::vector<uint32_t> au(static_cast<size_t>(n)), bu(au.size());
        for (size_t i = 0; i < au.size(); ++i) {
            au[i] = static_cast<uint32_t>(ai[i] + 4000);
            bu[i] = static_cast<uint32_t>(bi[i] + 4000);
        }
        EXPECT_EQ(simd::dotU32U64(au.data(), bu.data(), n),
                  simd::scalar::dotU32U64(au.data(), bu.data(), n))
            << "n=" << n;

        const auto ar = residues(static_cast<size_t>(n), (1u << 21) - 9);
        const auto br = residues(static_cast<size_t>(n), (1u << 21) - 9);
        EXPECT_EQ(simd::dotU64Lo32(ar.data(), br.data(), n),
                  simd::scalar::dotU64Lo32(ar.data(), br.data(), n))
            << "n=" << n;
    }
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
            EXPECT_EQ(0, std::memcmp(r_vec.data(), r_ref.data(),
                                     r_vec.size() * sizeof(float)))
                << "n=" << n << " a=" << a;
        }

        auto r0 = floats(static_cast<size_t>(n)), r1 = r0, r2 = r0, r3 = r0;
        auto s0 = r0, s1 = r1, s2 = r2, s3 = r3;
        simd::axpy4F32(0.5f, -0.0f, 3.0f, 1e-30f, b.data(), r0.data(),
                       r1.data(), r2.data(), r3.data(), n);
        simd::scalar::axpy4F32(0.5f, -0.0f, 3.0f, 1e-30f, b.data(), s0.data(),
                               s1.data(), s2.data(), s3.data(), n);
        for (auto [v, s] : {std::pair{&r0, &s0}, {&r1, &s1}, {&r2, &s2},
                            {&r3, &s3}})
            EXPECT_EQ(0, std::memcmp(v->data(), s->data(),
                                     v->size() * sizeof(float)))
                << "n=" << n;

        const auto bi = ints(static_cast<size_t>(n), -100000, 100000);
        std::vector<int64_t> iv(static_cast<size_t>(n), 7), ir = iv;
        simd::axpyI32I64(-12345, bi.data(), iv.data(), n);
        simd::scalar::axpyI32I64(-12345, bi.data(), ir.data(), n);
        EXPECT_EQ(iv, ir) << "n=" << n;

        const auto br = residues(static_cast<size_t>(n), 0xFFFFFFF1u);
        std::vector<uint64_t> uv(static_cast<size_t>(n), 3), ur = uv;
        simd::axpyU64Lo32(0x12345678u, br.data(), uv.data(), n);
        simd::scalar::axpyU64Lo32(0x12345678u, br.data(), ur.data(), n);
        EXPECT_EQ(uv, ur) << "n=" << n;
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

TEST_F(SimdTest, IntegerPanelKernelsMatchScalarReference)
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

            // |sums| < 33 * 2000^2 fit the int32 panel.
            std::vector<int32_t> iacc_vec(static_cast<size_t>(4) * jt, 11);
            auto iacc_ref = iacc_vec;
            simd::gemmPanel4I32I32(ai.data(), lda, bi.data(), ldb, kd,
                                   iacc_vec.data(), jt);
            simd::scalar::gemmPanel4I32I32(ai.data(), lda, bi.data(), ldb, kd,
                                           iacc_ref.data(), jt);
            EXPECT_EQ(iacc_vec, iacc_ref) << "kd=" << kd << " jt=" << jt;
            EXPECT_EQ(std::vector<int64_t>(iacc_ref.begin(), iacc_ref.end()),
                      acc_ref)
                << "kd=" << kd << " jt=" << jt;

            const auto au =
                residues(static_cast<size_t>(4) * lda, (1u << 21) - 9);
            const auto bu = residues(
                static_cast<size_t>(std::max(kd, 1)) * ldb, (1u << 21) - 9);
            std::vector<uint64_t> uacc_vec(static_cast<size_t>(4) * jt, 5);
            auto uacc_ref = uacc_vec;
            simd::gemmPanel4U64Lo32(au.data(), lda, bu.data(), ldb, kd,
                                    uacc_vec.data(), jt);
            simd::scalar::gemmPanel4U64Lo32(au.data(), lda, bu.data(), ldb,
                                            kd, uacc_ref.data(), jt);
            EXPECT_EQ(uacc_vec, uacc_ref) << "kd=" << kd << " jt=" << jt;
        }
    }
}

} // namespace
