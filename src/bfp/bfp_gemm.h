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
 * bfpGemm therefore computes the exact integer dot directly, as per-chunk
 * int32 panel GEMMs, and rejects sets that fail Eq. (13). Residue
 * arithmetic itself is exercised by rns::modularGemm, by PhotonicBackend
 * over photonic::RnsMmvmu, and by the RNS reference in tests/test_bfp.cpp.
 */

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

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
 * C = A * B where A is MxK and B is KxN, all row-major FP32.
 * A's rows and B's columns are BFP-grouped along K in chunks of cfg.g.
 *
 * The span overload writes into caller-provided storage (size m*n) and
 * stages every temporary — A's packed rows, B's K-major chunk panels, the
 * integer and FP32 output tiles — in Workspace arenas, so warm
 * steady-state calls perform no heap allocation. The vector overload is a
 * thin allocating wrapper; results are bit-identical between the two.
 */
void bfpGemm(std::span<const float> a, std::span<const float> b,
             std::span<float> c, int m_rows, int k_depth, int n_cols,
             const BfpGemmOptions &opts);

std::vector<float> bfpGemm(const std::vector<float> &a,
                           const std::vector<float> &b,
                           int m_rows, int k_depth, int n_cols,
                           const BfpGemmOptions &opts);

/**
 * Core kernel behind both overloads: a non-null `codec` selects the RNS
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

/** Packed encodeCols: scratch comes from (and stays valid inside) `ws`. */
BfpPackedMatrix encodeColsPacked(std::span<const float> b, int k_depth,
                                 int n_cols, const BfpConfig &cfg,
                                 Workspace &ws, Rng *rng = nullptr);

} // namespace bfp
} // namespace mirage

#endif // MIRAGE_BFP_BFP_GEMM_H
