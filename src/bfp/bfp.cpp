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

/** std::floor for |x| < 2^31, without the libm call. */
inline int32_t
floorInt(double x)
{
    const int32_t t = static_cast<int32_t>(x); // toward zero
    return t - (t > x ? 1 : 0);
}

/** std::ceil for |x| < 2^31. */
inline int32_t
ceilInt(double x)
{
    const int32_t t = static_cast<int32_t>(x);
    return t + (t < x ? 1 : 0);
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

    const auto note = [tally](int shared, int clipped) {
        if (tally)
            tally->add(shared, clipped);
        else
            obs::fidelity::noteBfpGroup(shared, clipped);
    };
    // |v| orders like its IEEE bit pattern with the sign cleared, and the
    // frexp exponent is monotone in |v|: the group's maximum element
    // exponent is that of its largest magnitude. Any non-finite value has
    // the largest bit patterns of all.
    uint32_t max_bits = 0;
    for (float v : values)
        max_bits = std::max(max_bits, std::bit_cast<uint32_t>(v) & 0x7fffffffu);
    if (max_bits >= 0x7f800000u)
        MIRAGE_FATAL("non-finite value in BFP group");
    if (max_bits == 0) { // all-zero group: no rounding, no rng draws
        for (size_t i = 0; i < values.size(); ++i)
            mantissas[i] = 0;
        note(0, 0);
        return 0;
    }
    // frexp exponent of the largest magnitude, read off its bits: |v| <
    // 2^shared for every v in the group. Subnormals carry no implicit bit.
    const int biased = static_cast<int>(max_bits >> 23);
    const int shared = biased != 0
                           ? biased - 126
                           : static_cast<int>(std::bit_width(max_bits)) - 149;

    // value = q * 2^(e - bm)  =>  q = value * 2^(bm - e). bm - e lies in
    // [-127, 163], so the power-of-two factor is a normal double and the
    // product is exact — the same value std::ldexp would return. The
    // mantissa is a (bm+1)-bit two's-complement integer: [-2^bm, 2^bm - 1].
    // Every rounding argument below is < 2^16 in magnitude, so floorInt
    // and ceilInt are exactly std::floor/std::ceil.
    const double scale = pow2d(cfg.bm - shared);
    const int32_t q_max = (1 << cfg.bm) - 1;
    const int32_t q_min = -(1 << cfg.bm);
    int clipped = 0;
    const auto quantize = [&](auto round) {
        for (size_t i = 0; i < values.size(); ++i) {
            int32_t q = round(static_cast<double>(values[i]) * scale);
            if (q > q_max) {
                q = q_max;
                ++clipped;
            }
            if (q < q_min) {
                q = q_min;
                ++clipped;
            }
            mantissas[i] = q;
        }
    };
    switch (cfg.rounding) {
      case Rounding::Truncate:
        // Hardware truncation drops LSBs of the two's-complement mantissa,
        // which rounds toward -inf (floor) — not toward zero. Toward-zero
        // truncation would systematically shrink gradient magnitudes and
        // stall training.
        quantize([](double x) { return floorInt(x); });
        break;
      case Rounding::Nearest: // half away from zero
        quantize([](double x) {
            return x >= 0.0 ? floorInt(x + 0.5) : ceilInt(x - 0.5);
        });
        break;
      case Rounding::Stochastic:
        MIRAGE_ASSERT(rng != nullptr, "stochastic rounding needs an Rng");
        quantize([rng](double x) {
            const int32_t floor_x = floorInt(x);
            return floor_x + (rng->uniformReal() < x - floor_x ? 1 : 0);
        });
        break;
    }
    note(shared, clipped);
    return shared;
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
