#include "bfp/bfp.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"
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

/** std::floor for |x| < 2^31, without the libm call. Trunc-and-compare
 *  written as a select, which GCC vectorizes (a bool-to-int subtract it
 *  does not). */
inline int32_t
floorInt(double x)
{
    const int32_t t = static_cast<int32_t>(x); // toward zero
    return t > x ? t - 1 : t;
}

/** |v| as its IEEE bit pattern: orders like |v|, non-finite values last. */
inline uint32_t
magnitudeBits(float v)
{
    return std::bit_cast<uint32_t>(v) & 0x7fffffffu;
}

/**
 * Shared exponent of a group whose largest magnitude has bit pattern
 * `max_bits`: the frexp exponent of that element, so |v| < 2^shared for
 * every v in the group (subnormals carry no implicit bit). An all-zero
 * group gets 0; a non-finite value is fatal.
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

template <Rounding R>
using Mode = std::integral_constant<Rounding, R>;

/** Calls f(Mode<r>{}), so each rounding gets its own quantize loop. */
template <typename F>
void
withRounding(Rounding r, F &&f)
{
    switch (r) {
      case Rounding::Truncate: f(Mode<Rounding::Truncate>{}); break;
      case Rounding::Nearest: f(Mode<Rounding::Nearest>{}); break;
      case Rounding::Stochastic: f(Mode<Rounding::Stochastic>{}); break;
    }
}

/**
 * The quantize core of every encoder: q = clip(round(v * scale)) into the
 * (bm+1)-bit two's-complement range [-q_max - 1, q_max], counting clips.
 * value = q * 2^(e - bm), so scale = 2^(bm - e): with bm - e in
 * [-127, 163] it is a normal double and the product is exact, as std::ldexp
 * would be. |v * scale| < 2^bm <= 2^15, so the integer casts are exact
 * floor/trunc. Nearest and Truncate are branch-free (gradient signs are
 * random, so a sign branch mispredicts); Stochastic draws once from `rng`
 * per element; encoders pass a null `rng` for an all-zero group, which
 * draws nothing.
 */
template <Rounding R>
inline int32_t
quantize(Mode<R>, float v, double scale, int32_t q_max, int &clipped,
         Rng *rng)
{
    const double x = static_cast<double>(v) * scale;
    int32_t q;
    if constexpr (R == Rounding::Nearest) {
        // Half away from zero: round |x|, then restore the sign. For every
        // x, including -0 and ties, this is floor(x + 0.5) / ceil(x - 0.5).
        const int32_t t = static_cast<int32_t>(std::fabs(x) + 0.5);
        q = x < 0.0 ? -t : t;
    } else if constexpr (R == Rounding::Truncate) {
        // Hardware truncation drops LSBs of the two's-complement mantissa,
        // which rounds toward -inf (floor) — not toward zero. Toward-zero
        // truncation would systematically shrink gradient magnitudes and
        // stall training.
        q = floorInt(x);
    } else {
        q = floorInt(x);
        if (rng != nullptr)
            q += rng->uniformReal() < x - q ? 1 : 0;
        else // only an all-zero group may encode without draws
            MIRAGE_ASSERT(x == 0.0, "stochastic rounding needs an Rng");
    }
    clipped += (q > q_max) + (q < -q_max - 1);
    return std::clamp(q, -q_max - 1, q_max);
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

    uint32_t max_bits = 0;
    for (float v : values)
        max_bits = std::max(max_bits, magnitudeBits(v));
    const int shared = sharedExponent(max_bits);
    const double scale = pow2d(cfg.bm - shared);
    const int32_t q_max = (1 << cfg.bm) - 1;
    Rng *draws = max_bits != 0 ? rng : nullptr;
    int clipped = 0;
    withRounding(cfg.rounding, [&](auto mode) {
        for (size_t i = 0; i < values.size(); ++i)
            mantissas[i] =
                quantize(mode, values[i], scale, q_max, clipped, draws);
    });
    if (tally)
        tally->add(shared, clipped);
    else
        obs::fidelity::noteBfpGroup(shared, clipped);
    return shared;
}

void
encodeColumnBlock(const float *b, int64_t ldb, int k_depth, int cols,
                  const BfpConfig &cfg, int32_t *mant, int64_t ldm,
                  int32_t *exps, int64_t lde, Rng *const *rngs,
                  GroupTally &tally)
{
    cfg.validate();
    MIRAGE_ASSERT(cols >= 1 && cols <= kColumnBlock, "bad column block");
    const int32_t q_max = (1 << cfg.bm) - 1;
    for (int start = 0; start < k_depth; start += cfg.g) {
        const int len = std::min(cfg.g, k_depth - start);
        const float *src = b + start * ldb;
        int32_t *dst = mant + start * ldm;
        int32_t *exp = exps + (start / cfg.g) * lde;
        uint32_t max_bits[kColumnBlock] = {};
        for (int t = 0; t < len; ++t)
            for (int j = 0; j < cols; ++j)
                max_bits[j] =
                    std::max(max_bits[j], magnitudeBits(src[t * ldb + j]));
        double scale[kColumnBlock];
        Rng *draws[kColumnBlock];
        int clipped[kColumnBlock] = {};
        for (int j = 0; j < cols; ++j) {
            exp[j] = sharedExponent(max_bits[j]);
            scale[j] = pow2d(cfg.bm - exp[j]);
            draws[j] = max_bits[j] != 0 ? rngs[j] : nullptr;
        }
        // Row segment by row segment: column j still draws in t order.
        withRounding(cfg.rounding, [&](auto mode) {
            for (int t = 0; t < len; ++t)
                for (int j = 0; j < cols; ++j)
                    dst[t * ldm + j] = quantize(mode, src[t * ldb + j],
                                                scale[j], q_max, clipped[j],
                                                draws[j]);
        });
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
