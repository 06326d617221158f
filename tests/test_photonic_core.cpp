/**
 * @file
 * Tests for the functional photonic pipeline: MMU phase arithmetic, MDPU
 * accumulation + phase detection, MMVMU tiling, and the headline invariant
 * — the phase-domain simulation is bit-exact against integer modular
 * arithmetic for every modulus and operand (noise off), and degrades
 * gracefully (not catastrophically) with noise on.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/units.h"
#include "photonic/mdpu.h"
#include "photonic/mmu.h"
#include "photonic/mmvmu.h"
#include "test_support.h"

namespace mirage {
namespace photonic {
namespace {

using PhotonicSeeded = mirage::test::SeededTest;

TEST(MmuTest, PaperWorkedExample)
{
    // Sec. IV-A1: x = 101b (5), w = 011b (3) -> 15 Phi0 total phase.
    Mmu mmu(8, 3); // arbitrary m = 8 for a 3-bit example
    mmu.setWeight(3);
    const double phi0 = 2.0 * units::kPi / 8.0;
    EXPECT_NEAR(mmu.idealPhase(5), 15.0 * phi0, 1e-12);
}

TEST(MmuTest, PhaseProportionalToProduct)
{
    const uint64_t m = 33;
    Mmu mmu(m, 6);
    const double phi0 = 2.0 * units::kPi / static_cast<double>(m);
    for (uint64_t w = 0; w < m; w += 5) {
        mmu.setWeight(w);
        for (uint64_t x = 0; x < m; x += 3)
            EXPECT_NEAR(mmu.idealPhase(x), static_cast<double>(x * w) * phi0,
                        1e-9);
    }
}

TEST(MmuTest, ReprogramCounting)
{
    Mmu mmu(31, 5);
    EXPECT_EQ(mmu.reprogramCount(), 0u);
    mmu.setWeight(7);
    mmu.setWeight(7); // reprogramming with the same value still counts
    EXPECT_EQ(mmu.reprogramCount(), 2u);
}

TEST(PhaseDetectorTest, IdealDetectionExhaustive)
{
    for (uint64_t m : {31ull, 32ull, 33ull}) {
        const PhaseDetector det(m);
        const double phi0 = 2.0 * units::kPi / static_cast<double>(m);
        // Any multiple of phi0 (incl. many wraps) detects to value mod m.
        for (uint64_t v = 0; v < 4 * m; ++v)
            EXPECT_EQ(det.detectIdeal(static_cast<double>(v) * phi0), v % m);
    }
}

TEST(PhaseDetectorTest, IdealDetectionToleratesSmallPhaseError)
{
    const PhaseDetector det(33);
    const double phi0 = 2.0 * units::kPi / 33.0;
    for (uint64_t v : {0ull, 1ull, 16ull, 32ull}) {
        const double phase = static_cast<double>(v) * phi0;
        EXPECT_EQ(det.detectIdeal(phase + 0.4 * phi0), v);
        EXPECT_EQ(det.detectIdeal(phase - 0.4 * phi0), v);
    }
}

TEST_F(PhotonicSeeded, NoisyDetectionHighSnrIsExact)
{
    const PhaseDetector det(33);
    const double phi0 = 2.0 * units::kPi / 33.0;
    // SNR = 1e4: error probability is negligible.
    for (int t = 0; t < 500; ++t) {
        const uint64_t v = static_cast<uint64_t>(rng.uniformInt(0, 32));
        EXPECT_EQ(det.detectNoisy(v * phi0, 1.0, 1e-4, rng), v);
    }
}

TEST(PhaseDetectorTest, NoisyDetectionLowSnrMakesErrors)
{
    Rng rng(9);
    const PhaseDetector det(33);
    const double phi0 = 2.0 * units::kPi / 33.0;
    int errors = 0;
    for (int t = 0; t < 500; ++t) {
        const uint64_t v = static_cast<uint64_t>(rng.uniformInt(0, 32));
        if (det.detectNoisy(v * phi0, 1.0, 0.3, rng) != v)
            ++errors;
    }
    EXPECT_GT(errors, 50); // SNR ~ 3 for 33 levels must fail often
}

TEST_F(PhotonicSeeded, MdpuMatchesIntegerModularDot)
{
    for (uint64_t m : {31ull, 32ull, 33ull}) {
        const int bits = (m == 33) ? 6 : 5;
        Mdpu mdpu(m, bits, 16);
        for (int trial = 0; trial < 50; ++trial) {
            std::vector<rns::Residue> w(16), x(16);
            for (auto &v : w)
                v = static_cast<rns::Residue>(rng.uniformInt(0, m - 1));
            for (auto &v : x)
                v = static_cast<rns::Residue>(rng.uniformInt(0, m - 1));
            mdpu.programWeights(w);
            // Phase-domain result equals the integer modular dot product.
            rns::Residue golden = 0;
            for (int i = 0; i < 16; ++i)
                golden = (golden + x[i] * w[i]) % m;
            EXPECT_EQ(mdpu.compute(x, nullptr, 1.0, 0.0, nullptr), golden);
            EXPECT_EQ(mdpu.dotIdeal(x), golden);
        }
    }
}

TEST(MdpuTest, ShortInputsZeroFill)
{
    Mdpu mdpu(31, 5, 16);
    std::vector<rns::Residue> w(16, 3);
    mdpu.programWeights(w);
    std::vector<rns::Residue> x = {5, 7}; // only two active inputs
    EXPECT_EQ(mdpu.compute(x, nullptr, 1.0, 0.0, nullptr),
              (5u * 3u + 7u * 3u) % 31u);
}

TEST_F(PhotonicSeeded, MmvmuMatchesIdealMvm)
{
    const DeviceKit kit;
    Mmvmu unit(33, 8, 16, kit, 10e9, PhotonicNoiseConfig{});
    std::vector<rns::Residue> tile(8 * 16);
    for (auto &v : tile)
        v = static_cast<rns::Residue>(rng.uniformInt(0, 32));
    unit.programTile(tile, 8, 16);
    for (int t = 0; t < 20; ++t) {
        std::vector<rns::Residue> x(16);
        for (auto &v : x)
            v = static_cast<rns::Residue>(rng.uniformInt(0, 32));
        EXPECT_EQ(unit.mvm(x, nullptr), unit.mvmIdeal(x));
    }
    EXPECT_EQ(unit.stats().tiles_programmed, 1u);
    EXPECT_EQ(unit.stats().mvms_executed, 20u);
}

TEST_F(PhotonicSeeded, RnsMmvmuSignedMvmRoundTrip)
{
    const DeviceKit kit;
    RnsMmvmu array(mirage::test::paperModuli(), 8, 16, kit, 10e9);
    // bm = 4 mantissas: [-15, 15].
    const auto tile = mirage::test::randomIntVector(rng, 8 * 16, -15, 15);
    array.programTile(tile, 8, 16);
    for (int t = 0; t < 20; ++t) {
        const auto x = mirage::test::randomIntVector(rng, 16, -15, 15);
        const auto y = array.mvm(x);
        // The reference MVM is a 1-column GEMM with the tile as A.
        const auto expect = mirage::test::referenceGemm(tile, x, 8, 16, 1);
        for (int r = 0; r < 8; ++r)
            EXPECT_EQ(y[static_cast<size_t>(r)],
                      expect[static_cast<size_t>(r)])
                << "row " << r;
    }
}

TEST_F(PhotonicSeeded, PhotonicGemmMatchesExactInt)
{
    const rns::ModuliSet set = mirage::test::paperModuli();
    const DeviceKit kit;
    RnsMmvmu array(set, 4, 8, kit, 10e9); // small array forces tiling
    const int m = 9, k = 19, n = 5;      // deliberately non-multiples
    const auto a =
        mirage::test::randomIntVector(rng, static_cast<size_t>(m) * k, -15, 15);
    const auto b =
        mirage::test::randomIntVector(rng, static_cast<size_t>(k) * n, -15, 15);

    const auto c_photonic = photonicGemm(array, a, b, m, k, n);
    const auto c_exact = mirage::test::referenceGemm(a, b, m, k, n);
    ASSERT_EQ(c_photonic.size(), c_exact.size());
    for (size_t i = 0; i < c_photonic.size(); ++i) {
        // Inside [-psi, psi] the RNS round trip is exact (Eq. (13)), so the
        // exact integer GEMM is the photonic pipeline's golden model.
        ASSERT_TRUE(set.inSignedRange(c_exact[i])) << i;
        EXPECT_EQ(c_photonic[i], c_exact[i]) << i;
    }
}

TEST(PhotonicGemmTest, TileAndMvmCountsMatchAnalyticTiling)
{
    const rns::ModuliSet set = mirage::test::paperModuli();
    const DeviceKit kit;
    RnsMmvmu array(set, 4, 8, kit, 10e9);
    const int m = 9, k = 19, n = 5;
    std::vector<int64_t> a(m * k, 1), b(k * n, 1);
    photonicGemm(array, a, b, m, k, n);
    // ceil(9/4) * ceil(19/8) = 3 * 3 = 9 tiles; each streams n = 5 vectors.
    EXPECT_EQ(array.unit(0).stats().tiles_programmed, 9u);
    EXPECT_EQ(array.unit(0).stats().mvms_executed, 45u);
}

TEST(PhotonicNoise, DeviceErrorsDegradeGracefully)
{
    // At a design point comfortably inside the Eq. (14) budget (10-bit DAC
    // encoding error, 0.03 % MRR error) the dominant effect must be
    // occasional +-1-level detection errors, not large corruption.
    Rng rng(16);
    const DeviceKit kit;
    PhotonicNoiseConfig noise;
    noise.eps_ps = std::exp2(-10);
    noise.eps_mrr = 0.0003;
    Mmvmu unit(33, 8, 16, kit, 10e9, noise);

    std::vector<rns::Residue> tile(8 * 16);
    for (auto &v : tile)
        v = static_cast<rns::Residue>(rng.uniformInt(0, 32));
    unit.programTile(tile, 8, 16);

    int mismatches = 0, total = 0;
    for (int t = 0; t < 100; ++t) {
        std::vector<rns::Residue> x(16);
        for (auto &v : x)
            v = static_cast<rns::Residue>(rng.uniformInt(0, 32));
        const auto noisy = unit.mvm(x, &rng);
        const auto ideal = unit.mvmIdeal(x);
        for (size_t r = 0; r < noisy.size(); ++r) {
            ++total;
            if (noisy[r] != ideal[r]) {
                ++mismatches;
                // Errors are at most a couple of levels (mod m).
                const int64_t diff =
                    std::abs(static_cast<int64_t>(noisy[r]) -
                             static_cast<int64_t>(ideal[r]));
                EXPECT_LE(std::min(diff, 33 - diff), 3);
            }
        }
    }
    EXPECT_LT(mismatches, total / 4);
}

TEST(PhotonicNoise, ShotThermalAtDesignSnrIsMostlyClean)
{
    Rng rng(17);
    const DeviceKit kit;
    PhotonicNoiseConfig noise;
    noise.shot_thermal_enabled = true;
    noise.snr_safety = 2.0; // design margin
    Mmvmu unit(33, 8, 16, kit, 10e9, noise);
    std::vector<rns::Residue> tile(8 * 16);
    for (auto &v : tile)
        v = static_cast<rns::Residue>(rng.uniformInt(0, 32));
    unit.programTile(tile, 8, 16);
    int mismatches = 0, total = 0;
    for (int t = 0; t < 100; ++t) {
        std::vector<rns::Residue> x(16);
        for (auto &v : x)
            v = static_cast<rns::Residue>(rng.uniformInt(0, 32));
        const auto noisy = unit.mvm(x, &rng);
        const auto ideal = unit.mvmIdeal(x);
        for (size_t r = 0; r < noisy.size(); ++r) {
            ++total;
            mismatches += (noisy[r] != ideal[r]);
        }
    }
    EXPECT_LT(mismatches, total / 100);
}

} // namespace
} // namespace photonic
} // namespace mirage
