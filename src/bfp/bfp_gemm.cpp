#include "bfp/bfp_gemm.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/simd.h"
#include "obs/fidelity.h"
#include "rns/conversion.h"
#include "runtime/thread_pool.h"

namespace mirage {
namespace bfp {

namespace {

/// Rows per parallelFor block (column encodes take enough kColumnBlock
/// blocks per step to cover kEncodeTaskWork elements). Fixed (never
/// derived from the thread count) so the block decomposition — and with
/// it every per-row Rng substream — is identical at every thread count.
/// (Rng substreams are per-row, so the runtime::serialBelow small-workload
/// collapse never changes results.)
constexpr int64_t kEncodeGrain = 8;
/// Elements per column-encode step: each step zeroes and flushes one
/// GroupTally, which a single 16 x 72 block would not amortize.
constexpr int64_t kEncodeTaskWork = 8192;
constexpr int64_t kComputeGrain = 4;
/// Serial-below cutoffs. Encoding costs tens of cycles per element and the
/// compute loop a few per MAC; below these counts the work finishes faster
/// than the workers wake. (They were 4096/16384 — low enough that tiny
/// layers paid dispatch overhead for microseconds of work, a measurable
/// part of the historical multi-thread slowdown.)
constexpr int64_t kMinEncodeWork = 16384;
constexpr int64_t kMinComputeWork = 65536;

/// Output rows per register-tiled panel (simd::gemmPanel4I32I32/I32I64).
constexpr int kRowBlock = 4;
/// Output-column tile: one chunk's g x kColTile B panel and the 4 x kColTile
/// accumulators stay L1-resident. Tiling never reorders any element's
/// chunk accumulation, so results are unaffected.
constexpr int kColTile = 64;

/**
 * Stochastic rounding draws from a per-row (per-column) substream split
 * off one base value drawn from the caller's rng, so encoding is
 * bit-identical at every thread count; other modes never consume rng and
 * build no substreams.
 */
struct RoundingStreams
{
    bool stochastic;
    uint64_t base;

    RoundingStreams(const BfpConfig &cfg, Rng *rng)
        : stochastic(rng != nullptr && cfg.rounding == Rounding::Stochastic),
          base(stochastic ? rng->nextU64() : 0)
    {
    }

    Rng
    stream(int64_t line) const
    {
        return Rng::stream(base, static_cast<uint64_t>(line));
    }
};

/**
 * B's column groups in B's own K-major layout: mantissa (t, j) at
 * mant[t * n_cols + j] (k_depth rows, no padding) and chunk c's exponent
 * of column j at exps[c * n_cols + j].
 */
struct KMajorCols
{
    std::span<int32_t> mant;
    std::span<int32_t> exps;
};

/**
 * Encodes columns j0 .. j0 + cols - 1 with stochastic rounding, column j
 * drawing from its own substream. Out of line so that the other roundings
 * never stage kColumnBlock generators (~40 KB of state) per block.
 */
[[gnu::noinline]] void
encodeStochasticColumnBlock(std::span<const float> b, int k_depth, int n_cols,
                            int j0, int cols, const BfpConfig &cfg,
                            const RoundingStreams &streams,
                            const KMajorCols &out, GroupTally &tally)
{
    std::optional<Rng> col_rng[kColumnBlock];
    Rng *rngs[kColumnBlock] = {};
    for (int j = 0; j < cols; ++j)
        rngs[j] = &col_rng[j].emplace(streams.stream(j0 + j));
    encodeColumnBlock(b.data() + j0, n_cols, k_depth, cols, cfg,
                      out.mant.data() + j0, n_cols, out.exps.data() + j0,
                      n_cols, rngs, tally);
}

/** Encodes B (KxN, row-major) kColumnBlock columns at a time; column j
 *  draws from its own rounding substream, chunks in ascending order. */
KMajorCols
encodeColsKMajor(std::span<const float> b, int k_depth, int n_cols,
                 const BfpConfig &cfg, Workspace &ws, Rng *rng)
{
    MIRAGE_ASSERT(b.size() == static_cast<size_t>(k_depth) * n_cols,
                  "matrix shape mismatch");
    const KMajorCols out{
        ws.alloc<int32_t>(static_cast<size_t>(k_depth) * n_cols),
        ws.alloc<int32_t>(static_cast<size_t>(ceilDiv(k_depth, cfg.g)) *
                          n_cols)};
    const RoundingStreams streams(cfg, rng);
    const int64_t blocks = ceilDiv(n_cols, kColumnBlock);
    const int64_t grain = std::max<int64_t>(
        1, kEncodeTaskWork / (static_cast<int64_t>(k_depth) * kColumnBlock));
    runtime::parallelFor(
        blocks,
        runtime::serialBelow(blocks, grain,
                             static_cast<int64_t>(k_depth) * n_cols,
                             kMinEncodeWork),
        [&](int64_t b0, int64_t b1) {
            GroupTally tally;
            for (int64_t blk = b0; blk < b1; ++blk) {
                const int j0 = static_cast<int>(blk) * kColumnBlock;
                const int cols = std::min(kColumnBlock, n_cols - j0);
                if (streams.stochastic)
                    encodeStochasticColumnBlock(b, k_depth, n_cols, j0, cols,
                                                cfg, streams, out, tally);
                else
                    encodeColumnBlock(b.data() + j0, n_cols, k_depth, cols,
                                      cfg, out.mant.data() + j0, n_cols,
                                      out.exps.data() + j0, n_cols, nullptr,
                                      tally);
            }
        });
    return out;
}

/**
 * acc[j] += float(ldexp(double(isum[j]), ea + eb[j])): one chunk's dots
 * scaled back to real units and added to a row of the FP32 tile. When
 * isum is exact in float and 2^e is a normal float, the float product is
 * the same exact value rounded once — identical to the ldexp form, and a
 * vectorizable multiply. Rows with any dot outside that range take the
 * ldexp form for every element.
 */
template <typename Dot>
inline void
scaleAccumulate(const Dot *isum, int ea, const int32_t *eb, float *acc, int n)
{
    // Range scan with shifts and ORs only, so it vectorizes on baseline
    // SSE2: isum + 2^24 in [0, 2^25) (modulo 2^width) and e + 126, e + 128
    // in [0, 256).
    using U = std::make_unsigned_t<Dot>;
    U isum_out = 0;
    uint32_t e_out = 0;
    for (int j = 0; j < n; ++j) {
        isum_out |= (static_cast<U>(isum[j]) + (U{1} << 24)) >> 25;
        const uint32_t e = static_cast<uint32_t>(ea + eb[j]);
        e_out |= ((e + 126) | (e + 128)) >> 8;
    }
    if ((isum_out | e_out) == 0) {
        for (int j = 0; j < n; ++j)
            acc[j] += static_cast<float>(static_cast<int32_t>(isum[j])) *
                      pow2f(ea + eb[j]);
    } else {
        for (int j = 0; j < n; ++j)
            acc[j] += static_cast<float>(
                std::ldexp(static_cast<double>(isum[j]), ea + eb[j]));
    }
}

/**
 * C = A_enc * B_enc. Per output tile, each chunk is one exact integer panel
 * GEMM (A's 4 x kd chunk slice times B's kd x 64 panel, kd the chunk's real
 * length) into `Dot` sums; its dots are scaled and added into the FP32 tile
 * in ascending chunk order — exactly the per-element FP32 accumulation
 * sequence of Mirage's dataflow step 9. Output rows are independent and
 * rng-free, so any row blocking or thread count gives bit-identical results.
 */
template <typename Dot>
void
multiplyChunks(const BfpPackedMatrix &a_enc, const KMajorCols &b_enc,
               int k_depth, int n_cols, int bm, std::span<float> c)
{
    const int m_rows = a_enc.rows;
    const int g = a_enc.g;
    const int64_t lda = static_cast<int64_t>(a_enc.chunk_count) * g;
    runtime::parallelFor(
        m_rows,
        runtime::serialBelow(m_rows, kComputeGrain,
                             static_cast<int64_t>(m_rows) * k_depth * n_cols,
                             kMinComputeWork),
        [&](int64_t i0, int64_t i1) {
            Workspace &tws = threadWorkspace();
            Workspace::Scope tscope(tws);
            const size_t tile = static_cast<size_t>(kRowBlock) * kColTile;
            Dot *isum = tws.alloc<Dot>(tile).data();
            float *acc = tws.alloc<float>(tile).data();
            for (int64_t ib = i0; ib < i1; ib += kRowBlock) {
                const int rows =
                    static_cast<int>(std::min<int64_t>(kRowBlock, i1 - ib));
                // An m % 4 row tail runs as a full panel over zero rows.
                const int32_t *a_rows = a_enc.mantissas.data() + ib * lda;
                if (rows < kRowBlock) {
                    std::span<int32_t> pad = tws.zeroed<int32_t>(
                        static_cast<size_t>(kRowBlock) * lda);
                    std::copy(a_rows, a_rows + rows * lda, pad.begin());
                    a_rows = pad.data();
                }
                for (int j0 = 0; j0 < n_cols; j0 += kColTile) {
                    const int jt = std::min(kColTile, n_cols - j0);
                    std::fill(acc, acc + static_cast<size_t>(rows) * jt,
                              0.0f);
                    for (int ch = 0; ch < a_enc.chunk_count; ++ch) {
                        const int kd = std::min(g, k_depth - ch * g);
                        std::fill(isum,
                                  isum + static_cast<size_t>(kRowBlock) * jt,
                                  Dot{0});
                        const int32_t *b_panel =
                            &b_enc.mant[static_cast<size_t>(ch) * g * n_cols +
                                        j0];
                        if constexpr (std::is_same_v<Dot, int32_t>)
                            simd::gemmPanel4I32I32(a_rows + ch * g, lda,
                                                   b_panel, n_cols, kd, isum,
                                                   jt);
                        else
                            simd::gemmPanel4I32I64(a_rows + ch * g, lda,
                                                   b_panel, n_cols, kd, isum,
                                                   jt);
                        const int32_t *eb =
                            &b_enc.exps[static_cast<size_t>(ch) * n_cols + j0];
                        for (int r = 0; r < rows; ++r)
                            scaleAccumulate(
                                isum + static_cast<size_t>(r) * jt,
                                a_enc.exponent(static_cast<int>(ib) + r, ch) -
                                    2 * bm,
                                eb, acc + static_cast<size_t>(r) * jt, jt);
                    }
                    for (int r = 0; r < rows; ++r)
                        std::copy(acc + static_cast<size_t>(r) * jt,
                                  acc + static_cast<size_t>(r + 1) * jt,
                                  &c[static_cast<size_t>(ib + r) * n_cols +
                                     j0]);
                }
            }
        });
}

} // namespace

BfpPackedMatrix
encodeRowsPacked(std::span<const float> a, int m_rows, int k_depth,
                 const BfpConfig &cfg, Workspace &ws, Rng *rng)
{
    MIRAGE_ASSERT(a.size() == static_cast<size_t>(m_rows) * k_depth,
                  "matrix shape mismatch");
    BfpPackedMatrix out;
    out.rows = m_rows;
    out.g = cfg.g;
    out.chunk_count = static_cast<int>(ceilDiv(k_depth, cfg.g));
    const size_t blocks = static_cast<size_t>(m_rows) * out.chunk_count;
    out.mantissas = ws.zeroed<int32_t>(blocks * cfg.g);
    out.exponents = ws.alloc<int32_t>(blocks);
    const RoundingStreams streams(cfg, rng);
    runtime::parallelFor(
        m_rows,
        runtime::serialBelow(m_rows, kEncodeGrain,
                             static_cast<int64_t>(m_rows) * k_depth,
                             kMinEncodeWork),
        [&](int64_t r0, int64_t r1) {
            GroupTally tally;
            for (int64_t i = r0; i < r1; ++i) {
                const float *row = a.data() + i * k_depth;
                const size_t line = static_cast<size_t>(i) * out.chunk_count;
                int32_t *mant = out.mantissas.data() + line * cfg.g;
                int32_t *exps = out.exponents.data() + line;
                if (!streams.stochastic) {
                    encodeRow(row, k_depth, cfg, mant, exps, nullptr, tally);
                    continue;
                }
                Rng row_rng = streams.stream(i);
                encodeRow(row, k_depth, cfg, mant, exps, &row_rng, tally);
            }
        });
    return out;
}

BfpPackedMatrix
encodeColsPacked(std::span<const float> b, int k_depth, int n_cols,
                 const BfpConfig &cfg, Workspace &ws, Rng *rng)
{
    BfpPackedMatrix out;
    out.rows = n_cols;
    out.g = cfg.g;
    out.chunk_count = static_cast<int>(ceilDiv(k_depth, cfg.g));
    const size_t line = static_cast<size_t>(out.chunk_count) * cfg.g;
    out.mantissas = ws.zeroed<int32_t>(line * n_cols);
    out.exponents = ws.alloc<int32_t>(static_cast<size_t>(n_cols) *
                                      out.chunk_count);
    Workspace::Scope scope(ws);
    const KMajorCols kmajor =
        encodeColsKMajor(b, k_depth, n_cols, cfg, ws, rng);
    for (int t = 0; t < k_depth; ++t)
        for (int j = 0; j < n_cols; ++j)
            out.mantissas[j * line + t] =
                kmajor.mant[static_cast<size_t>(t) * n_cols + j];
    for (int ch = 0; ch < out.chunk_count; ++ch)
        for (int j = 0; j < n_cols; ++j)
            out.exponents[static_cast<size_t>(j) * out.chunk_count + ch] =
                kmajor.exps[static_cast<size_t>(ch) * n_cols + j];
    return out;
}

void
bfpGemm(std::span<const float> a, std::span<const float> b,
        std::span<float> c, int m_rows, int k_depth, int n_cols,
        const BfpConfig &cfg, const rns::RnsCodec *codec, Rng *rng)
{
    cfg.validate();
    MIRAGE_ASSERT(c.size() == static_cast<size_t>(m_rows) * n_cols,
                  "C shape mismatch");
    if (codec) {
        const rns::ModuliSet &set = codec->set();
        if (!set.canHoldDotProduct(cfg.bm, cfg.g)) {
            MIRAGE_FATAL("moduli set (log2 M = ", set.log2DynamicRange(),
                         ") cannot hold BFP dot products of bm=", cfg.bm,
                         " g=", cfg.g, " (Eq. 13)");
        }
        // Eq. (13) holds, so every chunk dot lies in [-psi, psi] and its
        // RNS round trip (forward conversion, modular dot per modulus, CRT
        // decode) returns the exact integer dot: computing that dot
        // directly is the same result. One overflow-margin observation per
        // (GEMM, modulus) still accounts for the g-term modular dots.
        for (size_t mi = 0; mi < set.count(); ++mi)
            obs::fidelity::recordRnsMargin(set.modulus(mi), cfg.g);
    }

    // Encodings live in the caller's arena for the duration of this GEMM;
    // the rng base draws happen rows first, then columns.
    Workspace &ws = threadWorkspace();
    Workspace::Scope scope(ws);
    const BfpPackedMatrix a_enc =
        encodeRowsPacked(a, m_rows, k_depth, cfg, ws, rng);
    const KMajorCols b_enc = encodeColsKMajor(b, k_depth, n_cols, cfg, ws, rng);
    // |chunk dot| <= g * 2^(2 bm): int32 panels whenever that fits (every
    // paper configuration), int64 otherwise.
    if ((int64_t{cfg.g} << (2 * cfg.bm)) <= INT32_MAX)
        multiplyChunks<int32_t>(a_enc, b_enc, k_depth, n_cols, cfg.bm, c);
    else
        multiplyChunks<int64_t>(a_enc, b_enc, k_depth, n_cols, cfg.bm, c);
}

void
bfpGemm(std::span<const float> a, std::span<const float> b,
        std::span<float> c, int m_rows, int k_depth, int n_cols,
        const BfpGemmOptions &opts)
{
    bfpGemm(a, b, c, m_rows, k_depth, n_cols, opts.config,
            opts.moduli ? &rns::cachedCodec(*opts.moduli) : nullptr,
            opts.rng);
}

} // namespace bfp
} // namespace mirage
