#include "bfp/bfp_gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/simd.h"
#include "obs/fidelity.h"
#include "rns/conversion.h"
#include "runtime/thread_pool.h"

namespace mirage {
namespace bfp {

namespace {

/// Rows per parallelFor block. Fixed (never derived from the thread count)
/// so the block decomposition — and with it every per-row Rng substream —
/// is identical at every thread count. (Rng substreams are per-row, so the
/// runtime::serialBelow small-workload collapse never changes results.)
constexpr int64_t kEncodeGrain = 8;
constexpr int64_t kComputeGrain = 4;
/// Serial-below cutoffs. Encoding costs tens of cycles per element and the
/// compute loop a few per MAC; below these counts the work finishes faster
/// than the workers wake. (They were 4096/16384 — low enough that tiny
/// layers paid dispatch overhead for microseconds of work, a measurable
/// part of the historical multi-thread slowdown.)
constexpr int64_t kMinEncodeWork = 16384;
constexpr int64_t kMinComputeWork = 65536;

/// Output rows per register-tiled panel (simd::gemmPanel4I32I64).
constexpr int kRowBlock = 4;
/// Output-column tile: one chunk's g x kColTile B panel and the 4 x kColTile
/// accumulators stay L1-resident. Tiling never reorders any element's
/// chunk accumulation, so results are unaffected.
constexpr int kColTile = 64;

/**
 * Stochastic rounding draws from a per-row (per-column) substream split
 * off one base value drawn from the caller's rng, so encoding is
 * bit-identical at every thread count; other modes never consume rng.
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

    std::optional<Rng>
    stream(int64_t line) const
    {
        if (!stochastic)
            return std::nullopt;
        return Rng::stream(base, static_cast<uint64_t>(line));
    }
};

/**
 * Encodes the columns of B (KxN, row-major) into K-chunk groups: column j
 * draws from its own rounding substream, chunks in ascending order, and
 * `store(j, chunk, mantissas, exponent)` places each encoded group.
 */
template <typename Store>
void
encodeColumns(std::span<const float> b, int k_depth, int n_cols,
              const BfpConfig &cfg, Rng *rng, Store &&store)
{
    MIRAGE_ASSERT(b.size() == static_cast<size_t>(k_depth) * n_cols,
                  "matrix shape mismatch");
    const int chunks = static_cast<int>(ceilDiv(k_depth, cfg.g));
    const RoundingStreams streams(cfg, rng);
    runtime::parallelFor(
        n_cols,
        runtime::serialBelow(n_cols, kEncodeGrain,
                             static_cast<int64_t>(k_depth) * n_cols,
                             kMinEncodeWork),
        [&](int64_t j0, int64_t j1) {
            Workspace &tws = threadWorkspace();
            Workspace::Scope tscope(tws);
            std::span<float> group = tws.alloc<float>(cfg.g);
            std::span<int32_t> q = tws.alloc<int32_t>(cfg.g);
            GroupTally tally;
            for (int64_t j = j0; j < j1; ++j) {
                std::optional<Rng> col_rng = streams.stream(j);
                for (int c = 0; c < chunks; ++c) {
                    const int start = c * cfg.g;
                    const size_t len =
                        static_cast<size_t>(std::min(cfg.g, k_depth - start));
                    for (size_t t = 0; t < len; ++t)
                        group[t] = b[(start + t) * n_cols + j];
                    const int exponent = encodeGroupInto(
                        group.first(len), cfg, q, col_rng ? &*col_rng : nullptr,
                        &tally);
                    store(static_cast<int>(j), c, q.first(len), exponent);
                }
            }
        });
}

/**
 * acc[j] += float(ldexp(double(isum[j]), ea + eb[j])): one chunk's dots
 * scaled back to real units and added to a row of the FP32 tile. When
 * isum is exact in float and 2^e is a normal float, the float product is
 * the same exact value rounded once — identical to the ldexp form, and a
 * vectorizable multiply. Rows with any dot outside that range take the
 * ldexp form for every element.
 */
inline void
scaleAccumulate(const int64_t *isum, int ea, const int32_t *eb, float *acc,
                int n)
{
    // Range scan with shifts and ORs only, so it vectorizes on baseline
    // SSE2: isum + 2^24 in [0, 2^25) and e + 126, e + 128 in [0, 256).
    uint64_t isum_out = 0;
    uint32_t e_out = 0;
    for (int j = 0; j < n; ++j) {
        isum_out |= static_cast<uint64_t>(isum[j] + (int64_t{1} << 24)) >> 25;
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
                std::optional<Rng> row_rng = streams.stream(i);
                for (int c = 0; c < out.chunk_count; ++c) {
                    const int start = c * cfg.g;
                    const int len = std::min(cfg.g, k_depth - start);
                    const size_t blk =
                        static_cast<size_t>(i) * out.chunk_count + c;
                    out.exponents[blk] = encodeGroupInto(
                        a.subspan(static_cast<size_t>(i) * k_depth + start,
                                  static_cast<size_t>(len)),
                        cfg,
                        out.mantissas.subspan(blk * cfg.g,
                                              static_cast<size_t>(len)),
                        row_rng ? &*row_rng : nullptr, &tally);
                }
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
    const size_t blocks = static_cast<size_t>(n_cols) * out.chunk_count;
    out.mantissas = ws.zeroed<int32_t>(blocks * cfg.g);
    out.exponents = ws.alloc<int32_t>(blocks);
    encodeColumns(b, k_depth, n_cols, cfg, rng,
                  [&](int j, int c, std::span<const int32_t> q, int exponent) {
                      const size_t blk =
                          static_cast<size_t>(j) * out.chunk_count + c;
                      std::copy(q.begin(), q.end(),
                                out.mantissas.begin() + blk * cfg.g);
                      out.exponents[blk] = exponent;
                  });
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
    const int chunks = a_enc.chunk_count;
    const int g = cfg.g;
    const int64_t lda = static_cast<int64_t>(chunks) * g;
    // B's columns encoded K-major: a (chunks * g) x n mantissa matrix — B's
    // own layout, zero-padded to whole chunks — so chunk ch is the
    // contiguous g x n panel at row ch * g. Exponents are chunks x n.
    std::span<int32_t> b_mant =
        ws.alloc<int32_t>(static_cast<size_t>(lda) * n_cols);
    std::span<int32_t> b_exp =
        ws.alloc<int32_t>(static_cast<size_t>(chunks) * n_cols);
    std::fill(b_mant.begin() + static_cast<size_t>(k_depth) * n_cols,
              b_mant.end(), 0);
    encodeColumns(b, k_depth, n_cols, cfg, rng,
                  [&](int j, int ch, std::span<const int32_t> q, int e) {
                      int32_t *dst = &b_mant[static_cast<size_t>(ch) * g *
                                                 n_cols + j];
                      for (size_t t = 0; t < q.size(); ++t)
                          dst[t * n_cols] = q[t];
                      b_exp[static_cast<size_t>(ch) * n_cols + j] = e;
                  });

    // Per output tile, each chunk is one exact int32 -> int64 panel GEMM
    // (A's 4 x g chunk slice times B's g x 64 panel); its dots are scaled
    // and added into the FP32 tile in ascending chunk order — exactly the
    // per-element FP32 accumulation sequence of Mirage's dataflow step 9.
    // Output rows are independent and rng-free, so any row blocking or
    // thread count gives bit-identical results.
    runtime::parallelFor(
        m_rows,
        runtime::serialBelow(m_rows, kComputeGrain,
                             static_cast<int64_t>(m_rows) * k_depth * n_cols,
                             kMinComputeWork),
        [&](int64_t i0, int64_t i1) {
            Workspace &tws = threadWorkspace();
            Workspace::Scope tscope(tws);
            const size_t tile = static_cast<size_t>(kRowBlock) * kColTile;
            int64_t *isum = tws.alloc<int64_t>(tile).data();
            float *acc = tws.alloc<float>(tile).data();
            for (int64_t ib = i0; ib < i1; ib += kRowBlock) {
                const int rows =
                    static_cast<int>(std::min<int64_t>(kRowBlock, i1 - ib));
                for (int j0 = 0; j0 < n_cols; j0 += kColTile) {
                    const int jt = std::min(kColTile, n_cols - j0);
                    std::fill(acc, acc + static_cast<size_t>(rows) * jt,
                              0.0f);
                    for (int ch = 0; ch < chunks; ++ch) {
                        std::memset(isum, 0,
                                    static_cast<size_t>(rows) * jt *
                                        sizeof(int64_t));
                        const int32_t *a_chunk =
                            a_enc.chunk(static_cast<int>(ib), ch);
                        const int32_t *b_panel =
                            &b_mant[static_cast<size_t>(ch) * g * n_cols + j0];
                        if (rows == kRowBlock) {
                            simd::gemmPanel4I32I64(a_chunk, lda, b_panel,
                                                   n_cols, g, isum, jt);
                        } else {
                            // m % 4 row tail: per-row axpys, same exact sums.
                            for (int t = 0; t < g; ++t)
                                for (int r = 0; r < rows; ++r) {
                                    const int32_t a_rt = a_chunk[r * lda + t];
                                    if (a_rt != 0)
                                        simd::axpyI32I64(
                                            a_rt,
                                            b_panel +
                                                static_cast<size_t>(t) * n_cols,
                                            isum + static_cast<size_t>(r) * jt,
                                            jt);
                                }
                        }
                        const int32_t *eb =
                            &b_exp[static_cast<size_t>(ch) * n_cols + j0];
                        for (int r = 0; r < rows; ++r)
                            scaleAccumulate(
                                isum + static_cast<size_t>(r) * jt,
                                a_enc.exponent(static_cast<int>(ib) + r, ch) -
                                    2 * cfg.bm,
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

void
bfpGemm(std::span<const float> a, std::span<const float> b,
        std::span<float> c, int m_rows, int k_depth, int n_cols,
        const BfpGemmOptions &opts)
{
    bfpGemm(a, b, c, m_rows, k_depth, n_cols, opts.config,
            opts.moduli ? &rns::cachedCodec(*opts.moduli) : nullptr,
            opts.rng);
}

std::vector<float>
bfpGemm(const std::vector<float> &a, const std::vector<float> &b,
        int m_rows, int k_depth, int n_cols, const BfpGemmOptions &opts)
{
    std::vector<float> c(static_cast<size_t>(m_rows) * n_cols);
    bfpGemm(std::span<const float>(a), std::span<const float>(b),
            std::span<float>(c), m_rows, k_depth, n_cols, opts);
    return c;
}

} // namespace bfp
} // namespace mirage
