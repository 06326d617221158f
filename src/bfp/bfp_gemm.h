#ifndef MIRAGE_BFP_BFP_GEMM_H
#define MIRAGE_BFP_BFP_GEMM_H

/**
 * @file
 * BFP GEMM with the paper's grouping semantics (Sec. III): groups run along
 * the contraction (K) dimension — the input vector chunk and the matching
 * weight-row chunk each form one group — integer chunk dot products are
 * exact, and cross-chunk accumulation happens in FP32 (dataflow step 9).
 *
 * Given a moduli set, bfpGemm models Mirage's RNS datapath. When the set
 * satisfies Eq. (13) every chunk dot lies in the set's signed range, so
 * the RNS round trip (forward conversion, one modular dot per modulus, CRT
 * decode) returns exactly the integer dot — Mirage's transparency claim.
 * bfpGemm therefore computes the exact integer dot directly — int16
 * mantissa pairs through the fused simd::chunkTile4 kernel, or int64 panel
 * GEMMs when a dot can exceed int32 — and rejects sets that fail Eq. (13).
 * Residue arithmetic itself is exercised by PhotonicBackend over
 * photonic::RnsMmvmu and by the RNS reference in tests/test_bfp.cpp.
 */

#include <cstdint>
#include <optional>
#include <span>

#include "bfp/bfp.h"
#include "common/workspace.h"
#include "rns/conversion.h"
#include "rns/moduli_set.h"

namespace mirage {
namespace bfp {

/** Execution options for bfpGemm. */
struct BfpGemmOptions
{
    BfpConfig config;
    /// When set, the GEMM models the RNS datapath over this moduli set: it
    /// must satisfy Eq. (13) (else fatal), under which the RNS chunk dots
    /// equal the exact integer dots computed here.
    std::optional<rns::ModuliSet> moduli;
    /// RNG used only for stochastic rounding.
    Rng *rng = nullptr;
};

/**
 * C = A * B where A is MxK and B is KxN, all row-major FP32, into
 * caller-provided storage (size m*n). A's rows and B's columns are
 * BFP-grouped along K in chunks of cfg.g.
 *
 * Layout: A's rows are packed [row][chunk][g]. B is encoded
 * kColumnBlock (16) columns at a time straight into its own K-major
 * layout — mantissa (t, j) at t * n + j, so chunk c is the contiguous
 * g x n panel at row c * g — reading and writing whole row segments. Each
 * (4-row block, 64-column tile, chunk) is one integer panel GEMM over the
 * chunk's real length. Since |chunk dot| <= g * 2^(2 bm), the panels
 * accumulate in int32 when g * 2^(2 bm) <= INT32_MAX (every paper
 * configuration: bm=4, g=16 gives 4096) and in int64 otherwise.
 *
 * Every temporary — the encodings, the integer and FP32 output tiles —
 * is staged in Workspace arenas, so warm steady-state calls perform no
 * heap allocation.
 */
void bfpGemm(std::span<const float> a, std::span<const float> b,
             std::span<float> c, int m_rows, int k_depth, int n_cols,
             const BfpGemmOptions &opts);

/**
 * Core kernel behind the options overload: a non-null `codec` selects the RNS
 * datapath (Eq. (13) check and overflow-margin telemetry). Callers that
 * execute many GEMMs over one moduli set pass a cached codec
 * (rns::cachedCodec) so per-call setup allocates nothing.
 */
void bfpGemm(std::span<const float> a, std::span<const float> b,
             std::span<float> c, int m_rows, int k_depth, int n_cols,
             const BfpConfig &cfg, const rns::RnsCodec *codec,
             Rng *rng = nullptr);

/**
 * Flat, workspace-backed BFP encoding of matrix rows (or columns) cut into
 * K-chunks: mantissas stored [row][chunk][g] with zero-padded tails
 * (padding contributes nothing to integer dots) and one exponent per
 * (row, chunk). Each group encodes bit-identically to encodeBlock; with
 * stochastic rounding, row (column) r draws from Rng::stream(base, r).
 */
struct BfpPackedMatrix
{
    int rows = 0;
    int chunk_count = 0;
    int g = 0;
    std::span<int32_t> mantissas; ///< rows * chunk_count * g, zero-padded.
    std::span<int32_t> exponents; ///< rows * chunk_count.

    /** Mantissa group of (row, chunk): g elements. */
    const int32_t *
    chunk(int row, int c) const
    {
        return &mantissas[(static_cast<size_t>(row) * chunk_count + c) * g];
    }

    /** Shared exponent of (row, chunk). */
    int
    exponent(int row, int c) const
    {
        return exponents[static_cast<size_t>(row) * chunk_count + c];
    }
};

/** Packed encodeRows: scratch comes from (and stays valid inside) `ws`. */
BfpPackedMatrix encodeRowsPacked(std::span<const float> a, int m_rows,
                                 int k_depth, const BfpConfig &cfg,
                                 Workspace &ws, Rng *rng = nullptr);

/** Packed column encode: bfpGemm's column-blocked encoder, re-laid out as
 *  [column][chunk][g]. Scratch comes from (and stays valid inside) `ws`. */
BfpPackedMatrix encodeColsPacked(std::span<const float> b, int k_depth,
                                 int n_cols, const BfpConfig &cfg,
                                 Workspace &ws, Rng *rng = nullptr);

} // namespace bfp
} // namespace mirage

#endif // MIRAGE_BFP_BFP_GEMM_H
