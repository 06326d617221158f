/**
 * @file
 * Cross-module property sweeps: randomized invariants that tie the stack
 * together beyond the per-module unit tests — RNS round trips over many
 * generic (non-special) moduli sets, photonic/integer GEMM equivalence
 * across array geometries, BFP fuzzing across configurations, and
 * monotonicity properties of the analytic models.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "arch/energy_model.h"
#include "arch/perf_model.h"
#include "bfp/bfp_gemm.h"
#include "common/rng.h"
#include "photonic/mmvmu.h"
#include "test_support.h"

namespace mirage {
namespace {

using PropertySeeded = mirage::test::SeededTest;

TEST_F(PropertySeeded, GenericModuliSetsRoundTrip)
{
    // Many co-prime sets of varied size and magnitude; encode/decode and
    // both reverse algorithms must agree everywhere.
    const std::vector<std::vector<uint64_t>> sets = {
        {3, 5}, {7, 9, 11}, {13, 17, 19, 23}, {2, 3, 5, 7, 11, 13},
        {64, 63, 65}, {128, 127, 129}, {255, 256, 257, 253},
        {1021, 1024, 1023}, {5, 7, 9, 11, 13, 16},
    };
    for (const auto &moduli : sets) {
        const rns::RnsCodec codec{rns::ModuliSet(moduli)};
        const int64_t psi = static_cast<int64_t>(
            std::min<rns::uint128>(codec.set().psi(), int64_t{1} << 62));
        for (int t = 0; t < 500; ++t) {
            const int64_t x = rng.uniformInt(-psi, psi);
            const rns::ResidueVector r = codec.encode(x);
            ASSERT_EQ(codec.decode(r), x);
            ASSERT_EQ(codec.decodeMixedRadix(r), x);
        }
    }
}

TEST_F(PropertySeeded, RnsAdditionAndMultiplicationHomomorphism)
{
    // The RNS is closed under + and * (Sec. II-D): componentwise modular
    // ops on residues equal encode(op(x, y)) while in range.
    const rns::RnsCodec codec{mirage::test::paperModuli()};
    const rns::ModuliSet &set = codec.set();
    for (int t = 0; t < 2000; ++t) {
        const int64_t x = rng.uniformInt(-127, 127);
        const int64_t y = rng.uniformInt(-127, 127);
        const auto rx = codec.encode(x);
        const auto ry = codec.encode(y);
        rns::ResidueVector sum(set.count()), prod(set.count());
        for (size_t i = 0; i < set.count(); ++i) {
            sum[i] = rns::addMod(rx[i], ry[i], set.modulus(i));
            prod[i] = rns::mulMod(rx[i], ry[i], set.modulus(i));
        }
        ASSERT_EQ(codec.decode(sum), x + y);
        ASSERT_EQ(codec.decode(prod), x * y);
    }
}

/** Photonic/integer equivalence across geometries and moduli sets. */
class PhotonicEquivalenceSweep
    : public testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(PhotonicEquivalenceSweep, GemmBitExact)
{
    const auto [k_param, rows, g] = GetParam();
    const rns::ModuliSet set = rns::ModuliSet::special(k_param);
    const photonic::DeviceKit kit;
    photonic::RnsMmvmu array(set, rows, g, kit, 10e9);
    Rng rng(100 + k_param + rows + g);

    const int bm = (k_param == 5) ? 4 : 5;
    const int64_t q_max = (1 << bm) - 1;
    const int m = rows + 3, k_depth = g + 5, n = 4; // force edge tiles
    const auto a = mirage::test::randomIntVector(
        rng, static_cast<size_t>(m) * k_depth, -q_max, q_max);
    const auto b = mirage::test::randomIntVector(
        rng, static_cast<size_t>(k_depth) * n, -q_max, q_max);

    const auto c_photonic = photonicGemm(array, a, b, m, k_depth, n);
    const auto c_int = mirage::test::referenceGemm(a, b, m, k_depth, n);
    // In range, the RNS round trip is exact, so the photonic result must
    // equal the exact integer GEMM.
    for (const int64_t v : c_int)
        ASSERT_TRUE(set.inSignedRange(v)) << v;
    ASSERT_EQ(c_photonic, c_int);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PhotonicEquivalenceSweep,
    testing::Values(std::tuple<int, int, int>{5, 4, 8},
                    std::tuple<int, int, int>{5, 8, 16},
                    std::tuple<int, int, int>{5, 32, 16},
                    std::tuple<int, int, int>{6, 8, 16},
                    std::tuple<int, int, int>{6, 16, 32},
                    std::tuple<int, int, int>{7, 4, 8}),
    [](const testing::TestParamInfo<std::tuple<int, int, int>> &info) {
        std::string name = "k";
        name += std::to_string(std::get<0>(info.param));
        name += "_r";
        name += std::to_string(std::get<1>(info.param));
        name += "_g";
        name += std::to_string(std::get<2>(info.param));
        return name;
    });

TEST_F(PropertySeeded, BfpFuzzEncodeDecodeBounds)
{
    // For every (bm, g, rounding) and wild value scales: mantissas in
    // two's-complement range, reconstruction within one ULP of the shared
    // exponent, idempotent re-encoding.
    for (int bm : {2, 3, 4, 5, 8}) {
        for (int g : {1, 3, 16, 33}) {
            for (bfp::Rounding mode :
                 {bfp::Rounding::Truncate, bfp::Rounding::Nearest}) {
                const bfp::BfpConfig cfg{bm, g, mode};
                for (int t = 0; t < 50; ++t) {
                    std::vector<float> vals(static_cast<size_t>(g));
                    const double scale = std::pow(10.0, rng.uniformInt(-6, 6));
                    for (auto &v : vals)
                        v = static_cast<float>(rng.gaussian(0.0, scale));
                    const bfp::BfpBlock blk = bfp::encodeBlock(vals, cfg);
                    const double ulp =
                        std::ldexp(1.0, blk.exponent - cfg.bm);
                    for (size_t i = 0; i < vals.size(); ++i) {
                        ASSERT_LE(blk.mantissas[i], (1 << bm) - 1);
                        ASSERT_GE(blk.mantissas[i], -(1 << bm));
                        ASSERT_LE(std::fabs(blk.decode(i, bm) - vals[i]),
                                  ulp * (1.0 + 1e-9));
                    }
                }
            }
        }
    }
}

TEST_F(PropertySeeded, MirageLatencyMonotonicInShape)
{
    const arch::MiragePerfModel model{arch::MirageConfig{}};
    for (int t = 0; t < 200; ++t) {
        const arch::GemmShape s{rng.uniformInt(1, 2000),
                                rng.uniformInt(1, 2000),
                                rng.uniformInt(1, 2000)};
        const double base = model.gemm(s, arch::Dataflow::DF1).time_s;
        for (const arch::GemmShape &bigger :
             {arch::GemmShape{s.m * 2, s.k, s.n},
              arch::GemmShape{s.m, s.k * 2, s.n},
              arch::GemmShape{s.m, s.k, s.n * 2}}) {
            ASSERT_GE(model.gemm(bigger, arch::Dataflow::DF1).time_s,
                      base * (1.0 - 1e-12));
        }
    }
}

TEST(Property, EnergyModelMonotonicInGeometry)
{
    // More arrays / rows / wider groups never reduce total power or area.
    arch::MirageConfig base;
    const arch::MirageEnergyModel bm_model(base);
    const double p0 = bm_model.peakPower().total();
    const double a0 = bm_model.area().total();
    for (int factor : {2, 4}) {
        arch::MirageConfig big = base;
        big.num_arrays = base.num_arrays * factor;
        const arch::MirageEnergyModel model(big);
        EXPECT_GT(model.peakPower().total(), p0);
        EXPECT_GT(model.area().total(), a0);
    }
}

TEST(Property, AdcOverrideReproducesPaperConverterShare)
{
    // Sanity for the documented alternative accounting (EXPERIMENTS.md):
    // ~30 fJ/conversion brings the converter share to the paper's ~1 %
    // level and the total near 20 W.
    arch::MirageConfig cfg;
    cfg.adc_energy_override_j = 30e-15;
    const arch::PowerBreakdown p = arch::MirageEnergyModel(cfg).peakPower();
    EXPECT_LT((p.adc_w + p.dac_w) / p.total(), 0.10);
    EXPECT_NEAR(p.total(), 19.95, 5.0);
}

TEST(Property, LinkBudgetMonotonicInEverything)
{
    const photonic::DeviceKit kit;
    const auto power = [&](uint64_t m, int bits, int g, double snr) {
        return photonic::computeLinkBudget(kit, m, bits, g, 10e9, snr,
                                           photonic::LossPolicy::AllThrough)
            .laser_wall_w;
    };
    EXPECT_LT(power(33, 6, 16, 1.0), power(33, 6, 17, 1.0)); // g
    EXPECT_LT(power(33, 6, 16, 1.0), power(33, 6, 16, 2.0)); // SNR margin
    EXPECT_LT(power(31, 5, 16, 1.0), power(33, 6, 16, 1.0)); // modulus
}

} // namespace
} // namespace mirage
