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
/// Serial-below cutoffs. Encoding costs tens of cycles per element and the
/// compute loop a few per MAC; below these counts the work finishes faster
/// than the workers wake. (They were 4096/16384 — low enough that tiny
/// layers paid dispatch overhead for microseconds of work, a measurable
/// part of the historical multi-thread slowdown.)
constexpr int64_t kMinEncodeWork = 16384;
constexpr int64_t kMinComputeWork = 65536;

/// Output rows per register tile (simd::chunkTile4, simd::gemmPanel4I32I64).
constexpr int kRowBlock = 4;
/// Int64 route's output-column tile: one chunk's g x kColTile B panel and
/// the 4 x kColTile accumulators stay L1-resident.
constexpr int kColTile = 64;
/// Compute tasks are (4-row block x column group). A group holds about
/// kComputeTaskWork MACs in a multiple of kColumnBlock columns, at most
/// kMaxGroupCols: a width fixed by the shape alone, so skinny-M layers
/// still fill the pool. Neither tiling nor the split reorders any
/// element's chunk accumulation, so results do not depend on them.
constexpr int64_t kComputeTaskWork = 65536;
constexpr int64_t kMaxGroupCols = 256;

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
 * B's column groups in simd::ChunkTile's layout: per kColumnBlock-column
 * panel, the mantissas as int16 pairs and the chunk exponents. Lanes past
 * n_cols are zero.
 */
struct PairPanels
{
    std::span<int32_t> pairs;
    std::span<int32_t> exps;
};

static_assert(kColumnBlock == simd::ChunkTile::kPanel,
              "one B encode block is one ChunkTile panel");

/**
 * Encodes columns j0 .. j0 + cols - 1 with stochastic rounding, column j
 * drawing from its own substream. Out of line so that the other roundings
 * never stage kColumnBlock generators (~40 KB of state) per block.
 */
[[gnu::noinline]] void
encodeStochasticColumnBlock(std::span<const float> b, int k_depth, int n_cols,
                            int j0, int cols, const BfpConfig &cfg,
                            const RoundingStreams &streams, int32_t *mant,
                            int64_t ldm, int32_t *exps, int64_t lde,
                            GroupTally &tally)
{
    std::optional<Rng> col_rng[kColumnBlock];
    Rng *rngs[kColumnBlock] = {};
    for (int j = 0; j < cols; ++j)
        rngs[j] = &col_rng[j].emplace(streams.stream(j0 + j));
    encodeColumnBlock(b.data() + j0, n_cols, k_depth, cols, cfg, mant, ldm,
                      exps, lde, rngs, tally);
}

/**
 * Encodes B (KxN, row-major) kColumnBlock columns at a time, in parallel
 * over a split fixed by the shape. Per block, block(j0, cols, encode) is
 * called; encode(mant, ldm, exps, lde) writes mantissa (t, j0 + l) to
 * mant[t * ldm + l] and chunk c's exponent to exps[c * lde + l]. Column j
 * draws from its own rounding substream, chunks in ascending order.
 */
template <typename Block>
void
encodeColumnBlocks(std::span<const float> b, int k_depth, int n_cols,
                   const BfpConfig &cfg, Rng *rng, Block &&block)
{
    MIRAGE_ASSERT(b.size() == static_cast<size_t>(k_depth) * n_cols,
                  "matrix shape mismatch");
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
                block(j0, cols,
                      [&](int32_t *mant, int64_t ldm, int32_t *exps,
                          int64_t lde) {
                          if (streams.stochastic)
                              encodeStochasticColumnBlock(
                                  b, k_depth, n_cols, j0, cols, cfg, streams,
                                  mant, ldm, exps, lde, tally);
                          else
                              encodeColumnBlock(b.data() + j0, n_cols,
                                                k_depth, cols, cfg, mant, ldm,
                                                exps, lde, nullptr, tally);
                      });
            }
        });
}

/** B in its own K-major layout (the int64 route and the photonic path). */
KMajorCols
encodeColsKMajor(std::span<const float> b, int k_depth, int n_cols,
                 const BfpConfig &cfg, Workspace &ws, Rng *rng)
{
    const KMajorCols out{
        ws.alloc<int32_t>(static_cast<size_t>(k_depth) * n_cols),
        ws.alloc<int32_t>(static_cast<size_t>(ceilDiv(k_depth, cfg.g)) *
                          n_cols)};
    encodeColumnBlocks(b, k_depth, n_cols, cfg, rng,
                       [&](int j0, int, auto &&encode) {
                           encode(out.mant.data() + j0, n_cols,
                                  out.exps.data() + j0, n_cols);
                       });
    return out;
}

/**
 * B in ChunkTile panels (the fused route). Each block is encoded into a
 * K-major scratch panel in the thread's workspace, then paired while it is
 * cache-hot.
 */
PairPanels
encodeColsPairs(std::span<const float> b, int k_depth, int n_cols,
                const BfpConfig &cfg, Workspace &ws, Rng *rng)
{
    const int64_t pair_panel =
        simd::ChunkTile::pairWords(k_depth, cfg.g, kColumnBlock);
    const int64_t exp_panel = ceilDiv(k_depth, cfg.g) * kColumnBlock;
    const int64_t panels = ceilDiv(n_cols, kColumnBlock);
    const PairPanels out{
        ws.alloc<int32_t>(static_cast<size_t>(panels * pair_panel)),
        ws.zeroed<int32_t>(static_cast<size_t>(panels * exp_panel))};
    encodeColumnBlocks(
        b, k_depth, n_cols, cfg, rng, [&](int j0, int cols, auto &&encode) {
            Workspace &tws = threadWorkspace();
            Workspace::Scope tscope(tws);
            int32_t *mant =
                tws.alloc<int32_t>(static_cast<size_t>(k_depth) *
                                   kColumnBlock)
                    .data();
            const int64_t panel = j0 / kColumnBlock;
            encode(mant, kColumnBlock, out.exps.data() + panel * exp_panel,
                   kColumnBlock);
            // Lanes past n_cols pack as zero pairs.
            for (int t = 0; t < k_depth && cols < kColumnBlock; ++t)
                std::fill(mant + t * kColumnBlock + cols,
                          mant + (t + 1) * kColumnBlock, 0);
            simd::packChunkPairs<kColumnBlock>(mant, 1, kColumnBlock, k_depth,
                                         cfg.g,
                                         out.pairs.data() + panel * pair_panel);
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
 * Runs tile(ib, rows, j0, j1) — output rows ib .. ib + rows - 1, columns
 * j0 .. j1 - 1 — over every (4-row block x column group) in parallel.
 * Group starts are multiples of kColumnBlock.
 */
template <typename Tile>
void
forEachTile(int m_rows, int k_depth, int n_cols, Tile &&tile)
{
    const int group = static_cast<int>(roundUp(
        std::clamp<int64_t>(
            kComputeTaskWork / (int64_t{kRowBlock} * std::max(k_depth, 1)),
            kColumnBlock, kMaxGroupCols),
        kColumnBlock));
    const int64_t groups = ceilDiv(n_cols, group);
    const int64_t tasks = ceilDiv(m_rows, kRowBlock) * groups;
    // Shallow K leaves a full-width group short of kComputeTaskWork; one
    // parallelFor step then takes several.
    const int64_t grain = std::max<int64_t>(
        1, kComputeTaskWork /
               (int64_t{kRowBlock} * std::max(k_depth, 1) * group));
    runtime::parallelFor(
        tasks,
        runtime::serialBelow(tasks, grain,
                             static_cast<int64_t>(m_rows) * k_depth * n_cols,
                             kMinComputeWork),
        [&](int64_t t0, int64_t t1) {
            for (int64_t task = t0; task < t1; ++task) {
                const int64_t ib = task / groups * kRowBlock;
                const int rows =
                    static_cast<int>(std::min<int64_t>(kRowBlock, m_rows - ib));
                const int j0 = static_cast<int>(task % groups) * group;
                tile(ib, rows, j0, std::min(n_cols, j0 + group));
            }
        });
}

/**
 * A's rows ib .. ib + rows - 1 as a full 4-row block: in place, or for an
 * m % 4 row tail a copy padded with zero rows from `ws`.
 */
const int32_t *
rowBlock(const BfpPackedMatrix &a_enc, int64_t ib, int rows, Workspace &ws)
{
    const int64_t lda = static_cast<int64_t>(a_enc.chunk_count) * a_enc.g;
    const int32_t *a_rows = a_enc.mantissas.data() + ib * lda;
    if (rows == kRowBlock)
        return a_rows;
    std::span<int32_t> pad =
        ws.zeroed<int32_t>(static_cast<size_t>(kRowBlock) * lda);
    std::copy(a_rows, a_rows + rows * lda, pad.begin());
    return pad.data();
}

/**
 * The int64 route (g * 2^(2 bm) > INT32_MAX) for one tile: per 64-column
 * tile, each chunk is one exact panel GEMM (A's 4 x kd chunk slice times
 * B's kd x 64 panel) into int64 dots, scaled and added into the FP32 tile
 * in ascending chunk order.
 */
void
multiplyTileI64(const BfpPackedMatrix &a_enc, const KMajorCols &b_enc,
                int k_depth, int n_cols, int bm, int64_t ib, int rows, int j0,
                int j1, std::span<float> c)
{
    const int g = a_enc.g;
    const int64_t lda = static_cast<int64_t>(a_enc.chunk_count) * g;
    Workspace &tws = threadWorkspace();
    Workspace::Scope tscope(tws);
    const size_t tile = static_cast<size_t>(kRowBlock) * kColTile;
    int64_t *isum = tws.alloc<int64_t>(tile).data();
    float *acc = tws.alloc<float>(tile).data();
    const int32_t *a_rows = rowBlock(a_enc, ib, rows, tws);
    for (int jb = j0; jb < j1; jb += kColTile) {
        const int jt = std::min(kColTile, j1 - jb);
        std::fill(acc, acc + static_cast<size_t>(rows) * jt, 0.0f);
        for (int ch = 0; ch < a_enc.chunk_count; ++ch) {
            const int kd = std::min(g, k_depth - ch * g);
            std::fill(isum, isum + static_cast<size_t>(kRowBlock) * jt,
                      int64_t{0});
            simd::gemmPanel4I32I64(
                a_rows + ch * g, lda,
                &b_enc.mant[static_cast<size_t>(ch) * g * n_cols + jb],
                n_cols, kd, isum, jt);
            const int32_t *eb =
                &b_enc.exps[static_cast<size_t>(ch) * n_cols + jb];
            for (int r = 0; r < rows; ++r)
                scaleAccumulate(isum + static_cast<size_t>(r) * jt,
                                a_enc.exponent(static_cast<int>(ib) + r, ch) -
                                    2 * bm,
                                eb, acc + static_cast<size_t>(r) * jt, jt);
        }
        for (int r = 0; r < rows; ++r)
            std::copy(acc + static_cast<size_t>(r) * jt,
                      acc + static_cast<size_t>(r + 1) * jt,
                      &c[static_cast<size_t>(ib + r) * n_cols + jb]);
    }
}

/**
 * The fused route (every chunk dot fits int32, which holds for every
 * paper configuration): A's 4-row blocks are packed into ChunkTile pairs
 * once, then simd::chunkTile4 computes each tile from them and B's pair
 * panels.
 */
void
multiplyPairs(const BfpPackedMatrix &a_enc, const PairPanels &b_enc,
              int k_depth, int n_cols, int bm, std::span<float> c,
              Workspace &ws)
{
    const int m_rows = a_enc.rows;
    const int g = a_enc.g;
    const int chunks = a_enc.chunk_count;
    const int64_t lda = static_cast<int64_t>(chunks) * g;
    const int64_t row_blocks = ceilDiv(m_rows, kRowBlock);
    const int64_t pair_block =
        simd::ChunkTile::pairWords(k_depth, g, kRowBlock);
    const int64_t exp_block = int64_t{chunks} * kRowBlock;
    std::span<int32_t> a_pairs =
        ws.alloc<int32_t>(static_cast<size_t>(row_blocks * pair_block));
    std::span<int32_t> a_exps =
        ws.alloc<int32_t>(static_cast<size_t>(row_blocks * exp_block));
    for (int64_t rb = 0; rb < row_blocks; ++rb) {
        const int64_t ib = rb * kRowBlock;
        const int rows =
            static_cast<int>(std::min<int64_t>(kRowBlock, m_rows - ib));
        simd::packChunkPairs<kRowBlock>(rowBlock(a_enc, ib, rows, ws), lda, 1,
                                        k_depth, g,
                                        a_pairs.data() + rb * pair_block);
        // Absent rows repeat the last row's exponents, so they never push
        // a tile off the float-scale path.
        int32_t *ea = a_exps.data() + rb * exp_block;
        for (int ch = 0; ch < chunks; ++ch)
            for (int r = 0; r < kRowBlock; ++r)
                ea[ch * kRowBlock + r] =
                    a_enc.exponent(static_cast<int>(ib) + std::min(r, rows - 1),
                                   ch) -
                    2 * bm;
    }

    const int64_t pair_panel =
        simd::ChunkTile::pairWords(k_depth, g, kColumnBlock);
    const int64_t exp_panel = int64_t{chunks} * kColumnBlock;
    forEachTile(m_rows, k_depth, n_cols,
                [&](int64_t ib, int rows, int j0, int j1) {
                    const int64_t rb = ib / kRowBlock;
                    const int64_t panel = j0 / kColumnBlock;
                    simd::chunkTile4({a_pairs.data() + rb * pair_block,
                                      a_exps.data() + rb * exp_block,
                                      b_enc.pairs.data() + panel * pair_panel,
                                      b_enc.exps.data() + panel * exp_panel,
                                      k_depth, g,
                                      c.data() + ib * n_cols + j0, n_cols,
                                      rows, j1 - j0});
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
    // Each output element is the FP32 sum, in ascending chunk order, of its
    // chunks' exact integer dots scaled by 2^(ea + eb): the per-element
    // accumulation sequence of Mirage's dataflow steps 7-9. Elements are
    // independent and rng-free, so any tiling, split or thread count gives
    // bit-identical results. |chunk dot| <= g * 2^(2 bm): the fused int16
    // route whenever that fits int32, the int64 route otherwise.
    if ((int64_t{cfg.g} << (2 * cfg.bm)) <= INT32_MAX) {
        const PairPanels b_enc =
            encodeColsPairs(b, k_depth, n_cols, cfg, ws, rng);
        multiplyPairs(a_enc, b_enc, k_depth, n_cols, cfg.bm, c, ws);
    } else {
        const KMajorCols b_enc =
            encodeColsKMajor(b, k_depth, n_cols, cfg, ws, rng);
        forEachTile(m_rows, k_depth, n_cols,
                    [&](int64_t ib, int rows, int j0, int j1) {
                        multiplyTileI64(a_enc, b_enc, k_depth, n_cols, cfg.bm,
                                        ib, rows, j0, j1, c);
                    });
    }
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
