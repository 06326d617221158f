#ifndef MIRAGE_BFP_BFP_H
#define MIRAGE_BFP_BFP_H

/**
 * @file
 * Block Floating Point (BFP) encoding (paper Sec. II-B, III step 2).
 *
 * A group of g values shares one exponent (the maximum element exponent);
 * each element keeps a (bm+1)-bit signed integer mantissa aligned to that
 * exponent. Groups can then be multiplied with pure integer arithmetic —
 * which is what the RNS/photonic datapath executes — while the shared
 * exponent preserves dynamic range.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace mirage {
namespace bfp {

/** Mantissa rounding mode applied during BFP encoding. */
enum class Rounding
{
    Truncate,   ///< Drop LSBs (the paper's hardware behaviour, Sec. III).
    Nearest,    ///< Round half away from zero.
    Stochastic, ///< Probabilistic rounding (used by the FMAC baseline).
};

/** Name of a rounding mode, for reports. */
const char *toString(Rounding r);

/** BFP format parameters. */
struct BfpConfig
{
    int bm = 4;                            ///< Mantissa bits (excluding sign).
    int g = 16;                            ///< Group size.
    Rounding rounding = Rounding::Truncate;

    /** Fatal when parameters are outside the supported envelope. */
    void validate() const;

    /** Signed-integer dot-product bit width per Eq. (13): 2(bm+1)+log2(g)-1. */
    int dotProductBits() const;
};

/**
 * One encoded group: value_i ~= mantissa_i * 2^(exponent - bm).
 * Mantissas are held reduced to [-(2^bm - 1), 2^bm - 1].
 */
struct BfpBlock
{
    std::vector<int32_t> mantissas;
    int exponent = 0;

    /** Decodes element i back to a float. */
    float decode(size_t i, int bm) const;
};

/**
 * Encodes a group of floats into a BfpBlock.
 *
 * @param values   the group (any length <= cfg.g; shorter tail groups are
 *                 allowed at matrix edges).
 * @param cfg      format parameters.
 * @param rng      required for Rounding::Stochastic; may be null otherwise.
 */
BfpBlock encodeBlock(std::span<const float> values, const BfpConfig &cfg,
                     Rng *rng = nullptr);

/**
 * Batches the always-on per-group fidelity notes of many encodes into a
 * per-exponent count, flushed as one obs::fidelity::noteBfpGroups call per
 * distinct shared exponent. Totals match one note per group. Flushes on
 * destruction; not thread-safe (one per encoding thread).
 */
class GroupTally
{
  public:
    GroupTally() = default;
    GroupTally(const GroupTally &) = delete;
    GroupTally &operator=(const GroupTally &) = delete;
    ~GroupTally() { flush(); }

    void add(int shared_exponent, int clipped);
    void flush();

  private:
    /// Shared exponents of finite floats: frexp of 2^-149 .. FLT_MAX.
    static constexpr int kMinExponent = -148;
    static constexpr int kSlots = 128 - kMinExponent + 1;

    uint32_t counts_[kSlots] = {};
    int lo_ = kSlots;
    int hi_ = -1;
    uint64_t clipped_ = 0;
};

/**
 * Allocation-free core of encodeBlock: writes values.size() mantissas into
 * `mantissas` (first values.size() elements; the caller owns any padding)
 * and returns the shared exponent. Bit-identical to encodeBlock. The
 * group's fidelity note goes to `tally` when given, else straight out.
 */
int encodeGroupInto(std::span<const float> values, const BfpConfig &cfg,
                    std::span<int32_t> mantissas, Rng *rng = nullptr,
                    GroupTally *tally = nullptr);

/**
 * Row twin of encodeGroupInto (same quantize core, same bits): encodes
 * the ceil(k_depth / g) groups of one k_depth-long row in one call.
 * Chunk c's mantissas go to mant[c * g ...] (its real length; the caller
 * owns any padding) and its shared exponent to exps[c]. `rng` is the
 * row's rounding stream (null unless stochastic), drawn chunk by chunk.
 */
void encodeRow(const float *row, int k_depth, const BfpConfig &cfg,
               int32_t *mant, int32_t *exps, Rng *rng, GroupTally &tally);

/** Columns per encodeColumnBlock call: one 64-byte line of floats. */
inline constexpr int kColumnBlock = 16;

/**
 * Column-blocked twin of encodeGroupInto (same quantize core, same bits):
 * encodes the K-chunk groups of `cols` <= kColumnBlock adjacent columns of
 * a k_depth-row matrix whose element (t, j) is b[t * ldb + j]. Per chunk,
 * a max pass and then a quantize pass read the g row segments of the block
 * contiguously; mantissa (t, j) goes to mant[t * ldm + j] (rows past
 * k_depth are not written) and chunk c's exponent of column j to
 * exps[c * lde + j]. Under stochastic rounding rngs[j] is column j's
 * stream, drawn in (chunk, t) order as encodeGroupInto's; other roundings
 * never read `rngs`, which may be null.
 */
void encodeColumnBlock(const float *b, int64_t ldb, int k_depth, int cols,
                       const BfpConfig &cfg, int32_t *mant, int64_t ldm,
                       int32_t *exps, int64_t lde, Rng *const *rngs,
                       GroupTally &tally);

/** Decodes a whole block back to floats (the "fake quantization" view). */
std::vector<float> decodeBlock(const BfpBlock &block, const BfpConfig &cfg);

/**
 * Quantizes values in place to their nearest BFP-representable value
 * (encode followed by decode). Used by accuracy experiments that only need
 * value-level emulation.
 */
void fakeQuantize(std::span<float> values, const BfpConfig &cfg,
                  Rng *rng = nullptr);

/**
 * Exact integer dot product of two blocks scaled back to real units:
 * result = (sum_i qa_i * qb_i) * 2^(ea + eb - 2 bm).
 * The integer sum is also returned so the RNS path can be cross-checked.
 */
struct BlockDotResult
{
    int64_t integer_sum = 0; ///< Exact signed mantissa dot product.
    double value = 0.0;      ///< integer_sum scaled by the shared exponents.
};

/** Computes the exact block dot product; blocks must have equal length. */
BlockDotResult blockDot(const BfpBlock &a, const BfpBlock &b, int bm);

} // namespace bfp
} // namespace mirage

#endif // MIRAGE_BFP_BFP_H
