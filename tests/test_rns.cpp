/**
 * @file
 * Unit and property tests for the RNS core: modular primitives, moduli set
 * validation, Eq. (13) capacity checks, and CRT/mixed-radix conversion
 * round trips.
 */

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/rng.h"
#include "rns/conversion.h"
#include "rns/moduli_set.h"
#include "rns/modulus.h"
#include "test_support.h"

namespace mirage {
namespace rns {
namespace {

using RnsSeeded = mirage::test::SeededTest;

TEST(Modulus, AddSubMul)
{
    EXPECT_EQ(addMod(30, 5, 31), 4u);
    EXPECT_EQ(addMod(0, 0, 31), 0u);
    EXPECT_EQ(subMod(3, 5, 31), 29u);
    EXPECT_EQ(mulMod(30, 30, 31), 1u); // (-1)^2 = 1
    EXPECT_EQ(mulMod(12345678901ull, 98765432109ull, 1000000007ull),
              (static_cast<unsigned __int128>(12345678901ull) *
               98765432109ull) % 1000000007ull);
}

TEST(Modulus, ReduceSigned)
{
    EXPECT_EQ(reduceSigned(0, 31), 0u);
    EXPECT_EQ(reduceSigned(-1, 31), 30u);
    EXPECT_EQ(reduceSigned(-31, 31), 0u);
    EXPECT_EQ(reduceSigned(-32, 31), 30u);
    EXPECT_EQ(reduceSigned(64, 31), 2u);
}

TEST(Modulus, InvModAgainstBruteForce)
{
    for (uint64_t m : {3ull, 31ull, 32ull, 33ull, 257ull}) {
        for (uint64_t a = 1; a < m; ++a) {
            if (gcd64(a, m) != 1)
                continue;
            const uint64_t inv = invMod(a, m);
            EXPECT_EQ(mulMod(a, inv, m), 1u) << "a=" << a << " m=" << m;
        }
    }
}

TEST(ModuliSet, SpecialSetK5)
{
    const ModuliSet set = ModuliSet::special(5);
    ASSERT_EQ(set.count(), 3u);
    EXPECT_EQ(set.modulus(0), 31u);
    EXPECT_EQ(set.modulus(1), 32u);
    EXPECT_EQ(set.modulus(2), 33u);
    // M = 2^{3k} - 2^k = 32768 - 32 = 32736.
    EXPECT_EQ(static_cast<uint64_t>(set.dynamicRange()), 32736u);
    EXPECT_EQ(static_cast<uint64_t>(set.psi()), 16367u);
    EXPECT_EQ(set.maxConverterBits(), 6); // ceil(log2 33)
    EXPECT_EQ(set.converterBits(0), 5);
    EXPECT_EQ(set.converterBits(1), 5);
    EXPECT_EQ(set.converterBits(2), 6);
}

TEST(ModuliSet, Eq13CapacityMatchesPaper)
{
    // Paper Sec. VI-A1: kmin = 4 for bm=3, kmin = 5 for bm=4, kmin = 6 for
    // bm=5 (with g = 16).
    EXPECT_EQ(ModuliSet::minSpecialK(3, 16), 4);
    EXPECT_EQ(ModuliSet::minSpecialK(4, 16), 5);
    EXPECT_EQ(ModuliSet::minSpecialK(5, 16), 6);

    EXPECT_TRUE(ModuliSet::special(5).canHoldDotProduct(4, 16));
    EXPECT_FALSE(ModuliSet::special(5).canHoldDotProduct(5, 16));
    // bm = 5 needs k = 6 up to g = 64 (paper Fig. 5 discussion).
    EXPECT_TRUE(ModuliSet::special(6).canHoldDotProduct(5, 64));
}

TEST(ModuliSet, Eq13IsExactAtTheBoundary)
{
    // (bm+1)-bit mantissas reach -2^bm, so a chunk dot reaches +g * 2^(2bm)
    // and needs psi >= g * 2^(2bm). For bm=4, g=16 that is 4096: M = 8192
    // (log2 M = 13, exactly the log2 form of Eq. 13) leaves psi = 4095.
    EXPECT_FALSE(ModuliSet({8192}).canHoldDotProduct(4, 16));
    EXPECT_TRUE(ModuliSet({8193}).canHoldDotProduct(4, 16));
    // special(3) = {7, 8, 9}: M = 504 = 63 * 2^3, psi = 251 < 63 * 2^2.
    EXPECT_FALSE(ModuliSet::special(3).canHoldDotProduct(1, 63));
    EXPECT_TRUE(ModuliSet::special(3).canHoldDotProduct(1, 62));
}

TEST(ModuliSet, SignedRange)
{
    const ModuliSet set = ModuliSet::special(5);
    EXPECT_TRUE(set.inSignedRange(16367));
    EXPECT_TRUE(set.inSignedRange(-16367));
    EXPECT_FALSE(set.inSignedRange(16368));
    EXPECT_FALSE(set.inSignedRange(-16368));
}

TEST(ModuliSetDeath, RejectsNonCoprime)
{
    EXPECT_EXIT(ModuliSet({6, 9}), testing::ExitedWithCode(1), "co-prime");
}

TEST(ModuliSetDeath, RejectsTrivialModulus)
{
    EXPECT_EXIT(ModuliSet({1, 5}), testing::ExitedWithCode(1), "modulus");
}

TEST(RnsCodec, EncodeDecodeRoundTripExhaustiveSmallSet)
{
    const RnsCodec codec{mirage::test::tinyModuli()}; // M = 60, psi = 29
    for (int64_t x = -29; x <= 29; ++x) {
        const ResidueVector r = codec.encode(x);
        EXPECT_EQ(codec.decode(r), x);
        EXPECT_EQ(codec.decodeMixedRadix(r), x);
    }
}

TEST(RnsCodec, RoundTripSpecialSetBoundaries)
{
    const RnsCodec codec{ModuliSet::special(5)};
    for (int64_t x : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{16367},
                      int64_t{-16367}, int64_t{12345}, int64_t{-9876}}) {
        EXPECT_EQ(codec.decode(codec.encode(x)), x) << "x=" << x;
    }
}

TEST_F(RnsSeeded, CrtMatchesMixedRadixRandomized)
{
    for (int k : {4, 5, 6, 8}) {
        const RnsCodec codec{ModuliSet::special(k)};
        const int64_t psi = static_cast<int64_t>(codec.set().psi());
        for (int t = 0; t < 2000; ++t) {
            const int64_t x = rng.uniformInt(-psi, psi);
            const ResidueVector r = codec.encode(x);
            EXPECT_EQ(codec.decode(r), x);
            EXPECT_EQ(codec.decodeMixedRadix(r), codec.decode(r));
        }
    }
}

TEST_F(RnsSeeded, LargeGenericSet)
{
    // Five co-prime moduli, M ~ 2^38.
    const RnsCodec codec{mirage::test::wideModuli()};
    const int64_t psi = static_cast<int64_t>(codec.set().psi());
    for (int t = 0; t < 1000; ++t) {
        const int64_t x = rng.uniformInt(-psi, psi);
        EXPECT_EQ(codec.decode(codec.encode(x)), x);
        EXPECT_EQ(codec.decodeMixedRadix(codec.encode(x)), x);
    }
}

TEST(RnsCodec, UnsignedDecode)
{
    const RnsCodec codec{ModuliSet::special(5)};
    for (uint64_t x : {0ull, 1ull, 31ull, 32ull, 33ull, 32735ull}) {
        EXPECT_EQ(static_cast<uint64_t>(
                      codec.decodeUnsigned(codec.encodeUnsigned(x))),
                  x);
    }
}

} // namespace
} // namespace rns
} // namespace mirage
