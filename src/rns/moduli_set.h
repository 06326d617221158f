#ifndef MIRAGE_RNS_MODULI_SET_H
#define MIRAGE_RNS_MODULI_SET_H

/**
 * @file
 * A validated set of pairwise co-prime RNS moduli with its dynamic range
 * (M = prod m_i) and the Eq. (13) capacity check used by Mirage's BFP/RNS
 * co-design (Sec. IV-B of the paper).
 */

#include <cstdint>
#include <vector>

#include "rns/modulus.h"

namespace mirage {
namespace rns {

/**
 * Immutable, validated collection of pairwise co-prime moduli.
 *
 * The dynamic range M and the symmetric bound psi = floor((M-1)/2) are
 * precomputed; signed values in [-psi, psi] are uniquely representable.
 */
class ModuliSet
{
  public:
    /**
     * Validates and stores the moduli.
     * Fatal error when a modulus is < 2 or any pair shares a factor.
     */
    explicit ModuliSet(std::vector<uint64_t> moduli);

    /**
     * The paper's special low-cost set {2^k - 1, 2^k, 2^k + 1} (Sec. IV-B).
     * @param k positive integer; the paper uses k = 5 -> {31, 32, 33}.
     */
    static ModuliSet special(int k);

    /** Number of moduli (n). */
    size_t count() const { return moduli_.size(); }

    /** The i-th modulus. */
    uint64_t modulus(size_t i) const { return moduli_[i]; }

    /** All moduli in declaration order. */
    const std::vector<uint64_t> &moduli() const { return moduli_; }

    /** Dynamic range M = prod m_i. */
    uint128 dynamicRange() const { return big_m_; }

    /** Symmetric signed bound psi = floor((M - 1) / 2). */
    uint128 psi() const { return psi_; }

    /** log2(M), the usable output bit width. */
    double log2DynamicRange() const;

    /** Data-converter precision for modulus i: ceil(log2 m_i) bits. */
    int converterBits(size_t i) const;

    /** Largest converterBits() over the set (sets the ADC/DAC width). */
    int maxConverterBits() const;

    /**
     * Eq. (13): log2(M) >= 2*(bm + 1) + log2(g) - 1, i.e. the set can hold
     * a dot product of g products of (bm+1)-bit signed operands. Evaluated
     * exactly as psi >= g * 2^(2 bm), the largest such dot's magnitude.
     */
    bool canHoldDotProduct(int bm, int g) const;

    /** True when a signed value fits the symmetric range [-psi, psi]. */
    bool inSignedRange(int64_t x) const;

    /** Minimal k such that special(k) satisfies Eq. (13); paper Sec. VI-A1. */
    static int minSpecialK(int bm, int g);

    bool operator==(const ModuliSet &other) const { return moduli_ == other.moduli_; }

  private:
    std::vector<uint64_t> moduli_;
    uint128 big_m_ = 1;
    uint128 psi_ = 0;
};

} // namespace rns
} // namespace mirage

#endif // MIRAGE_RNS_MODULI_SET_H
