#include "bfp/bfp.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/simd.h"
#include "obs/fidelity.h"

namespace mirage {
namespace bfp {

const char *
toString(Rounding r)
{
    switch (r) {
      case Rounding::Truncate: return "truncate";
      case Rounding::Nearest: return "nearest";
      case Rounding::Stochastic: return "stochastic";
    }
    return "?";
}

void
BfpConfig::validate() const
{
    if (bm < 1 || bm > 15)
        MIRAGE_FATAL("BFP mantissa bits must be in [1, 15], got ", bm);
    if (g < 1 || g > (1 << 20))
        MIRAGE_FATAL("BFP group size must be in [1, 2^20], got ", g);
}

int
BfpConfig::dotProductBits() const
{
    return 2 * (bm + 1) + static_cast<int>(std::ceil(std::log2(g))) - 1;
}

float
BfpBlock::decode(size_t i, int bm) const
{
    MIRAGE_ASSERT(i < mantissas.size(), "block index out of range");
    return static_cast<float>(std::ldexp(static_cast<double>(mantissas[i]),
                                         exponent - bm));
}

namespace {

/**
 * Shared exponent of a group whose largest magnitude has bit pattern
 * `max_bits` (|v| as IEEE bits, which order like |v| with non-finite
 * values last; see simd::maxMagnitude): the frexp exponent of that
 * element, so |v| < 2^shared for every v in the group (subnormals carry
 * no implicit bit). An all-zero group gets 0; a non-finite value is
 * fatal.
 */
int
sharedExponent(uint32_t max_bits)
{
    if (max_bits >= 0x7f800000u)
        MIRAGE_FATAL("non-finite value in BFP group");
    if (max_bits == 0)
        return 0;
    const int biased = static_cast<int>(max_bits >> 23);
    return biased != 0 ? biased - 126
                       : static_cast<int>(std::bit_width(max_bits)) - 149;
}

/**
 * Stochastic rounding of one element: floor(v * scale) plus one with
 * probability equal to the fraction, one draw from `rng` per element, then
 * the same clamp as simd::scalar::quantizeOne. value = q * 2^(e - bm), so
 * scale = 2^(bm - e): with bm - e in [-127, 163] it is a normal double and
 * the product is exact; |v * scale| < 2^bm <= 2^15, so the cast is an
 * exact trunc. Encoders pass a null `rng` for an all-zero group, which
 * draws nothing.
 */
inline int32_t
quantizeStochastic(float v, double scale, int32_t q_max, int32_t &clipped,
                   Rng *rng)
{
    const double x = static_cast<double>(v) * scale;
    const int32_t t = static_cast<int32_t>(x); // toward zero
    int32_t q = t > x ? t - 1 : t;
    if (rng != nullptr)
        q += rng->uniformReal() < x - q ? 1 : 0;
    else // only an all-zero group may encode without draws
        MIRAGE_ASSERT(x == 0.0, "stochastic rounding needs an Rng");
    clipped += (q > q_max) + (q < -q_max - 1);
    return std::clamp(q, -q_max - 1, q_max);
}

/**
 * One group of `len` <= g values: writes their mantissas to q and returns
 * the shared exponent, counting clamps in `clipped`. Nearest and Truncate
 * run the simd quantize core; Stochastic draws from `rng` in element
 * order (nothing for an all-zero group).
 */
int
encodeGroup(const float *v, int len, const BfpConfig &cfg, int32_t *q,
            Rng *rng, int32_t &clipped)
{
    const uint32_t max_bits = simd::maxMagnitude(v, len);
    const int shared = sharedExponent(max_bits);
    const int32_t q_max = (1 << cfg.bm) - 1;
    if (cfg.rounding != Rounding::Stochastic) {
        clipped += simd::quantizeRow(v, len, cfg.bm - shared, q_max,
                                     cfg.rounding == Rounding::Nearest, q);
        return shared;
    }
    const double scale = pow2d(cfg.bm - shared);
    Rng *draws = max_bits != 0 ? rng : nullptr;
    for (int i = 0; i < len; ++i)
        q[i] = quantizeStochastic(v[i], scale, q_max, clipped, draws);
    return shared;
}

} // namespace

void
GroupTally::add(int shared_exponent, int clipped)
{
    const int slot = shared_exponent - kMinExponent;
    ++counts_[slot];
    lo_ = std::min(lo_, slot);
    hi_ = std::max(hi_, slot);
    clipped_ += static_cast<uint64_t>(clipped);
}

void
GroupTally::flush()
{
    for (int slot = lo_; slot <= hi_; ++slot) {
        if (counts_[slot] == 0)
            continue;
        obs::fidelity::noteBfpGroups(slot + kMinExponent, counts_[slot],
                                     clipped_);
        counts_[slot] = 0;
        clipped_ = 0;
    }
    lo_ = kSlots;
    hi_ = -1;
}

int
encodeGroupInto(std::span<const float> values, const BfpConfig &cfg,
                std::span<int32_t> mantissas, Rng *rng, GroupTally *tally)
{
    cfg.validate();
    MIRAGE_ASSERT(values.size() <= static_cast<size_t>(cfg.g),
                  "group larger than configured size");
    MIRAGE_ASSERT(mantissas.size() >= values.size(),
                  "mantissa buffer too small");
    int32_t clipped = 0;
    const int shared =
        encodeGroup(values.data(), static_cast<int>(values.size()), cfg,
                    mantissas.data(), rng, clipped);
    if (tally)
        tally->add(shared, clipped);
    else
        obs::fidelity::noteBfpGroup(shared, clipped);
    return shared;
}

void
encodeRow(const float *row, int k_depth, const BfpConfig &cfg, int32_t *mant,
          int32_t *exps, Rng *rng, GroupTally &tally)
{
    cfg.validate();
    for (int c = 0, start = 0; start < k_depth; ++c, start += cfg.g) {
        int32_t clipped = 0;
        exps[c] = encodeGroup(row + start, std::min(cfg.g, k_depth - start),
                              cfg, mant + start, rng, clipped);
        tally.add(exps[c], clipped);
    }
}

void
encodeColumnBlock(const float *b, int64_t ldb, int k_depth, int cols,
                  const BfpConfig &cfg, int32_t *mant, int64_t ldm,
                  int32_t *exps, int64_t lde, Rng *const *rngs,
                  GroupTally &tally)
{
    cfg.validate();
    MIRAGE_ASSERT(cols >= 1 && cols <= kColumnBlock, "bad column block");
    const bool stochastic = cfg.rounding == Rounding::Stochastic;
    const int32_t q_max = (1 << cfg.bm) - 1;
    for (int start = 0; start < k_depth; start += cfg.g) {
        const int len = std::min(cfg.g, k_depth - start);
        const float *src = b + start * ldb;
        int32_t *dst = mant + start * ldm;
        int32_t *exp = exps + (start / cfg.g) * lde;
        uint32_t max_bits[kColumnBlock] = {};
        simd::maxMagnitudeCols(src, ldb, len, cols, max_bits);
        int32_t shift[kColumnBlock] = {};
        int32_t clipped[kColumnBlock] = {};
        for (int j = 0; j < cols; ++j) {
            exp[j] = sharedExponent(max_bits[j]);
            shift[j] = cfg.bm - exp[j];
        }
        if (!stochastic) {
            simd::quantizeCols(src, ldb, len, cols, shift, q_max,
                               cfg.rounding == Rounding::Nearest, dst, ldm,
                               clipped);
        } else {
            double scale[kColumnBlock];
            Rng *draws[kColumnBlock];
            for (int j = 0; j < cols; ++j) {
                scale[j] = pow2d(shift[j]);
                draws[j] =
                    max_bits[j] != 0 && rngs != nullptr ? rngs[j] : nullptr;
            }
            // Row segment by row segment: column j still draws in t order.
            for (int t = 0; t < len; ++t)
                for (int j = 0; j < cols; ++j)
                    dst[t * ldm + j] =
                        quantizeStochastic(src[t * ldb + j], scale[j], q_max,
                                           clipped[j], draws[j]);
        }
        for (int j = 0; j < cols; ++j)
            tally.add(exp[j], clipped[j]);
    }
}

BfpBlock
encodeBlock(std::span<const float> values, const BfpConfig &cfg, Rng *rng)
{
    BfpBlock block;
    block.mantissas.resize(values.size(), 0);
    block.exponent = encodeGroupInto(values, cfg, block.mantissas, rng);
    return block;
}

std::vector<float>
decodeBlock(const BfpBlock &block, const BfpConfig &cfg)
{
    std::vector<float> out(block.mantissas.size());
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = block.decode(i, cfg.bm);
    return out;
}

void
fakeQuantize(std::span<float> values, const BfpConfig &cfg, Rng *rng)
{
    for (size_t start = 0; start < values.size(); start += cfg.g) {
        const size_t len = std::min(static_cast<size_t>(cfg.g),
                                    values.size() - start);
        const BfpBlock block =
            encodeBlock(values.subspan(start, len), cfg, rng);
        for (size_t i = 0; i < len; ++i)
            values[start + i] = block.decode(i, cfg.bm);
    }
}

BlockDotResult
blockDot(const BfpBlock &a, const BfpBlock &b, int bm)
{
    MIRAGE_ASSERT(a.mantissas.size() == b.mantissas.size(),
                  "block length mismatch in dot product");
    BlockDotResult r;
    for (size_t i = 0; i < a.mantissas.size(); ++i)
        r.integer_sum += static_cast<int64_t>(a.mantissas[i]) * b.mantissas[i];
    r.value = std::ldexp(static_cast<double>(r.integer_sum),
                         a.exponent + b.exponent - 2 * bm);
    return r;
}

} // namespace bfp
} // namespace mirage
