#ifndef MIRAGE_COMMON_SIMD_H
#define MIRAGE_COMMON_SIMD_H

/**
 * @file
 * Portable data-level parallelism for the panel kernels: a small dispatch
 * layer over AVX2 (x86-64) and a scalar fallback.
 *
 * Every operation here is **bit-identical to its scalar reference**:
 *
 * - The integer axpy and panel are exact 64-bit arithmetic, so lane order
 *   cannot change the result.
 * - The FP32 axpy and panel perform one IEEE multiply followed by one
 *   IEEE add per element — the same two roundings, in the same
 *   per-element order, as the scalar loop. No FMA contraction is used
 *   (the AVX2 bodies are compiled with target("avx2") only, so the
 *   compiler cannot fuse), and
 *   each output element's accumulation chain is untouched: lanes map to
 *   distinct output columns, never to partial sums of one element.
 * - The BFP quantize core (quantizeRow/quantizeCols) rounds exact
 *   products. The AVX2 body multiplies in float only by a normal float
 *   power of two, where v * 2^shift is exact (or below 2^-126, which no
 *   rounding can tell from its double value), and rounds with exact
 *   trunc-and-compare steps; any other shift takes the double reference.
 * - The fused BFP chunk tile (chunkTile4) forms exact int32 chunk dots
 *   from int16 pairs, then scales each by a normal float power of two,
 *   which is exact, and adds it in the scalar twin's per-element chunk
 *   order; any other scale takes the same ldexp form as the twin.
 *
 * Bit-identity is what lets the vectorized kernels keep the determinism
 * contract of runtime::parallelFor (thread-count-invariant results) *and*
 * the committed golden values of every accuracy experiment; it is verified
 * against the scalar reference by tests/test_simd.cpp.
 *
 * Dispatch: on x86-64 the AVX2 bodies are compiled as target("avx2")
 * functions and selected at runtime via __builtin_cpu_supports, so the
 * build needs no -mavx2 and the binary stays safe on pre-AVX2 hosts. Other
 * hosts run the scalar reference. Set MIRAGE_SIMD=scalar (or off, 0) to
 * force the scalar reference — results are identical either way; the
 * switch exists for benchmarking the vector speedup and for debugging.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "common/math_util.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MIRAGE_SIMD_AVX2 1
#include <immintrin.h>
#endif

namespace mirage {
namespace simd {

/**
 * Operands of the fused BFP chunk-tile kernel (chunkTile4): up to four
 * rows of A against `cols` columns of B over the whole depth, chunk by
 * chunk. Output c[r * ldc + j] for r < rows, j < cols is the FP32 sum,
 * from +0 in ascending chunk order, of every chunk's exact integer dot
 * scaled by 2^(ea + eb) — Mirage's dataflow steps 7-9.
 *
 * Both operands hold their mantissas as int16 pairs: pair p of chunk ch
 * has depth ch * g + 2p in its low half and depth ch * g + 2p + 1 in its
 * high half, or 0 past the chunk's end (the last chunk may be shorter
 * than g). With P = ceil(g / 2) pairs and C = ceil(k_depth / g) chunks:
 *
 * - a_pairs[(ch * P + p) * 4 + r]: row r's pairs; rows >= `rows` are 0.
 *   ea[ch * 4 + r]: row r's chunk exponent minus 2 bm.
 * - B in panels of kPanel columns, the tile starting at a panel: column
 *   j's pair is b[(j / kPanel) * C * P * kPanel + (ch * P + p) * kPanel +
 *   j % kPanel] and its chunk exponent eb[(j / kPanel) * C * kPanel +
 *   ch * kPanel + j % kPanel]. Lanes past `cols` may be read and are
 *   ignored; they must be initialized.
 *
 * The caller guarantees g * 2^(2 bm) <= INT32_MAX (bm <= 15), so every
 * mantissa fits int16 and every pair sum and chunk dot fits int32
 * exactly.
 */
struct ChunkTile
{
    static constexpr int kPanel = 16;

    /** int32 words of `lanes` lanes of pairs over the whole depth. */
    static int64_t
    pairWords(int k_depth, int g, int lanes)
    {
        return ceilDiv(k_depth, g) * ((g + 1) / 2) * lanes;
    }

    const int32_t *a_pairs;
    const int32_t *ea;
    const int32_t *b;
    const int32_t *eb;
    int k_depth;
    int g;
    float *c;
    int64_t ldc;
    int rows;
    int cols;
};

/**
 * Packs int32 mantissas into ChunkTile pairs — A's 4-row blocks (a lane
 * per row) or one B panel (a lane per column): lane l's depth t is
 * src[l * ld_lane + t * ld_depth]; pair p of chunk ch goes to
 * out[(ch * ceil(g / 2) + p) * Lanes + l] and joins depths ch * g + 2p
 * (low half) and ch * g + 2p + 1 (high half, 0 past the chunk's end).
 */
template <int Lanes>
void
packChunkPairs(const int32_t *src, int64_t ld_lane, int64_t ld_depth,
               int k_depth, int g, int32_t *out)
{
    const int pairs = (g + 1) / 2;
    for (int ch = 0, k0 = 0; k0 < k_depth; ++ch, k0 += g) {
        const int kd = std::min(g, k_depth - k0);
        for (int p = 0; 2 * p < kd; ++p) {
            const int32_t *lo = src + (k0 + 2 * p) * ld_depth;
            int32_t *o = out + (static_cast<int64_t>(ch) * pairs + p) * Lanes;
            if (2 * p + 1 < kd)
                for (int l = 0; l < Lanes; ++l)
                    o[l] = static_cast<int32_t>(
                        (static_cast<uint32_t>(lo[l * ld_lane]) & 0xffffu) |
                        static_cast<uint32_t>(lo[l * ld_lane + ld_depth])
                            << 16);
            else
                for (int l = 0; l < Lanes; ++l)
                    o[l] = static_cast<int32_t>(
                        static_cast<uint32_t>(lo[l * ld_lane]) & 0xffffu);
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar reference implementations (always available; used as the fallback
// and as the golden reference in tests).
// ---------------------------------------------------------------------------

namespace scalar {

/** r[j] += a * b[j] (one multiply, one add per element). */
inline void
axpyF32(float a, const float *b, float *r, int n)
{
    for (int j = 0; j < n; ++j)
        r[j] += a * b[j];
}

/** r[j] += (int64)a * b[j] over int32 operands into an int64 panel. */
inline void
axpyI32I64(int32_t a, const int32_t *b, int64_t *r, int n)
{
    for (int j = 0; j < n; ++j)
        r[j] += static_cast<int64_t>(a) * b[j];
}

/**
 * 4 x jt GEMM panel: acc[r][j] += sum_k a[r*lda + k] * b[k*ldb + j] for
 * k in [0, kd), r in [0, 4), j in [0, jt). `acc` is row-major 4 x jt.
 * Rows whose a[r][k] is zero are skipped for that k — exactly the zero
 * skip of the blocked kernels this backs (and for FP32 it dodges 0 * inf).
 * Each element accumulates in ascending k with one multiply + one add per
 * step, so every backend — including the register-tiled vector ones — is
 * bit-identical to this reference.
 */
inline void
gemmPanel4F32(const float *a, int64_t lda, const float *b, int64_t ldb,
              int kd, float *acc, int jt)
{
    for (int k = 0; k < kd; ++k) {
        const float *b_row = b + static_cast<size_t>(k) * ldb;
        for (int r = 0; r < 4; ++r) {
            const float ar = a[static_cast<size_t>(r) * lda + k];
            if (ar == 0.0f)
                continue;
            float *row = acc + static_cast<size_t>(r) * jt;
            for (int j = 0; j < jt; ++j)
                row[j] += ar * b_row[j];
        }
    }
}

/** Integer panel twin of gemmPanel4F32 (int32 operands, int64 panel). */
inline void
gemmPanel4I32I64(const int32_t *a, int64_t lda, const int32_t *b, int64_t ldb,
                 int kd, int64_t *acc, int jt)
{
    for (int k = 0; k < kd; ++k) {
        const int32_t *b_row = b + static_cast<size_t>(k) * ldb;
        for (int r = 0; r < 4; ++r) {
            const int32_t ar = a[static_cast<size_t>(r) * lda + k];
            if (ar == 0)
                continue;
            int64_t *row = acc + static_cast<size_t>(r) * jt;
            for (int j = 0; j < jt; ++j)
                row[j] += static_cast<int64_t>(ar) * b_row[j];
        }
    }
}

/**
 * One chunk dot scaled back to real units: float(ldexp(double(dot), e)).
 * When 2^e is a normal float (e in [-126, 127]) the float product is the
 * same number for every int32 dot: float(dot) rounds dot to 24 bits, and
 * scaling by 2^e is exact (|dot| >= 1 keeps the product normal) and
 * commutes with that rounding, overflow to inf included.
 */
inline float
chunkTerm(int32_t dot, int e)
{
    if (e >= -126 && e <= 127)
        return static_cast<float>(dot) * pow2f(e);
    return static_cast<float>(std::ldexp(static_cast<double>(dot), e));
}

/** The two int16 halves of a mantissa pair; the low half is the even
 *  depth. */
inline int32_t
pairLow(int32_t pair)
{
    return static_cast<int16_t>(static_cast<uint32_t>(pair) & 0xffffu);
}

inline int32_t
pairHigh(int32_t pair)
{
    return static_cast<int16_t>(static_cast<uint32_t>(pair) >> 16);
}

/**
 * The fused BFP chunk tile (see ChunkTile), eight columns at a time:
 * exact int32 chunk dots from the int16 pairs, each scaled by chunkTerm
 * and added to an FP32 sum that starts at +0, in ascending chunk order.
 */
inline void
chunkTile4(const ChunkTile &t)
{
    constexpr int kPanel = ChunkTile::kPanel;
    const int pairs = (t.g + 1) / 2;
    const int64_t chunks = ceilDiv(t.k_depth, t.g);
    for (int j0 = 0; j0 < t.cols; j0 += 8) {
        const int cols = std::min(8, t.cols - j0);
        float acc[4][8] = {};
        const int32_t *ap = t.a_pairs;
        const int32_t *ea = t.ea;
        const int32_t *bp = t.b +
                            j0 / kPanel * ChunkTile::pairWords(
                                              t.k_depth, t.g, kPanel) +
                            j0 % kPanel;
        const int32_t *eb = t.eb + j0 / kPanel * chunks * kPanel + j0 % kPanel;
        for (int k0 = 0; k0 < t.k_depth; k0 += t.g, ap += 4 * pairs, ea += 4,
                 bp += pairs * kPanel, eb += kPanel) {
            const int kd = std::min(t.g, t.k_depth - k0);
            int32_t dot[4][8] = {};
            for (int p = 0; 2 * p < kd; ++p)
                for (int r = 0; r < t.rows; ++r)
                    for (int l = 0; l < cols; ++l) {
                        const int32_t a = ap[4 * p + r];
                        const int32_t b = bp[p * kPanel + l];
                        dot[r][l] += pairLow(a) * pairLow(b) +
                                     pairHigh(a) * pairHigh(b);
                    }
            for (int r = 0; r < t.rows; ++r)
                for (int l = 0; l < cols; ++l)
                    acc[r][l] += chunkTerm(dot[r][l], ea[r] + eb[l]);
        }
        for (int r = 0; r < t.rows; ++r)
            std::copy(acc[r], acc[r] + cols, t.c + r * t.ldc + j0);
    }
}

/** dst[j * ldd + i] = src[i * lds + j] for an 8 x 8 tile. */
inline void
transpose8x8F32(const float *src, int64_t lds, float *dst, int64_t ldd)
{
    for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 8; ++j)
            dst[j * ldd + i] = src[i * lds + j];
}

/**
 * One element of the BFP quantize core (bfp::encode*), in double:
 * q = clamp(round(v * scale)) into [-q_max - 1, q_max], counting a clamp
 * in `clipped`. scale = 2^shift is a normal double, so the product is
 * exact; the caller bounds |v * scale| < 2^31, so the casts are exact.
 * Nearest rounds half away from zero: round |x|, then restore the sign
 * (for every x, -0 and ties included, this is floor(x + 0.5) /
 * ceil(x - 0.5)). Otherwise it floors, which is how hardware truncation
 * of a two's-complement mantissa rounds — not toward zero. Both are
 * branch-free: gradient signs are random, so a sign branch mispredicts.
 */
template <bool Nearest>
inline int32_t
quantizeOne(float v, double scale, int32_t q_max, int32_t &clipped)
{
    const double x = static_cast<double>(v) * scale;
    int32_t q;
    if constexpr (Nearest) {
        const int32_t t = static_cast<int32_t>(std::fabs(x) + 0.5);
        q = x < 0.0 ? -t : t;
    } else {
        const int32_t t = static_cast<int32_t>(x); // toward zero
        q = t > x ? t - 1 : t;
    }
    clipped += (q > q_max) + (q < -q_max - 1);
    return std::clamp(q, -q_max - 1, q_max);
}

template <bool Nearest>
inline int32_t
quantizeRowT(const float *v, int n, double scale, int32_t q_max, int32_t *q)
{
    int32_t clipped = 0;
    for (int i = 0; i < n; ++i)
        q[i] = quantizeOne<Nearest>(v[i], scale, q_max, clipped);
    return clipped;
}

/**
 * The BFP quantize core over n values that share one exponent:
 * q[i] = quantizeOne(v[i], 2^shift) with shift in [-1022, 1023]. Returns
 * the number of clamped elements.
 */
inline int32_t
quantizeRow(const float *v, int n, int shift, int32_t q_max, bool nearest,
            int32_t *q)
{
    const double scale = pow2d(shift);
    return nearest ? quantizeRowT<true>(v, n, scale, q_max, q)
                   : quantizeRowT<false>(v, n, scale, q_max, q);
}

template <bool Nearest>
inline void
quantizeColsT(const float *v, int64_t ldv, int rows, int cols,
              const int32_t *shift, int32_t q_max, int32_t *q, int64_t ldq,
              int32_t *clipped)
{
    double scale[16] = {};
    for (int j = 0; j < cols; ++j)
        scale[j] = pow2d(shift[j]);
    for (int t = 0; t < rows; ++t)
        for (int j = 0; j < cols; ++j)
            q[t * ldq + j] = quantizeOne<Nearest>(v[t * ldv + j], scale[j],
                                                  q_max, clipped[j]);
}

/** The max pass of a row group: the largest |v| bit pattern (sign
 *  cleared) of v[0 .. n), 0 for n = 0. */
inline uint32_t
maxMagnitude(const float *v, int n)
{
    uint32_t m = 0;
    for (int i = 0; i < n; ++i) {
        uint32_t bits;
        std::memcpy(&bits, v + i, sizeof bits);
        m = std::max(m, bits & 0x7fffffffu);
    }
    return m;
}

/**
 * The max pass of a column block: max_bits[j] = the largest |v| bit
 * pattern (sign cleared) in column j of a rows x cols block (cols <= 16)
 * read at v[t * ldv + j].
 */
inline void
maxMagnitudeCols(const float *v, int64_t ldv, int rows, int cols,
                 uint32_t *max_bits)
{
    for (int j = 0; j < cols; ++j)
        max_bits[j] = 0;
    for (int t = 0; t < rows; ++t)
        for (int j = 0; j < cols; ++j) {
            uint32_t bits;
            std::memcpy(&bits, v + t * ldv + j, sizeof bits);
            max_bits[j] = std::max(max_bits[j], bits & 0x7fffffffu);
        }
}

/**
 * Column-lane form of quantizeRow: a rows x cols block (cols <= 16) read
 * at v[t * ldv + j], column j scaled by 2^shift[j], written to
 * q[t * ldq + j]; column j's clamps are added to clipped[j].
 */
inline void
quantizeCols(const float *v, int64_t ldv, int rows, int cols,
             const int32_t *shift, int32_t q_max, bool nearest, int32_t *q,
             int64_t ldq, int32_t *clipped)
{
    if (nearest)
        quantizeColsT<true>(v, ldv, rows, cols, shift, q_max, q, ldq,
                            clipped);
    else
        quantizeColsT<false>(v, ldv, rows, cols, shift, q_max, q, ldq,
                             clipped);
}

} // namespace scalar

// ---------------------------------------------------------------------------
// AVX2 bodies (x86-64). Compiled with a per-function target attribute, so
// no global -mavx2 is needed and non-AVX2 hosts never execute them.
// target("avx2") deliberately omits "fma": the FP32 bodies must stay
// mul-then-add to match the scalar reference bit for bit.
// ---------------------------------------------------------------------------

#if defined(MIRAGE_SIMD_AVX2)

namespace avx2 {

__attribute__((target("avx2"))) inline void
axpyF32(float a, const float *b, float *r, int n)
{
    const __m256 av = _mm256_set1_ps(a);
    int j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 bv = _mm256_loadu_ps(b + j);
        _mm256_storeu_ps(
            r + j, _mm256_add_ps(_mm256_loadu_ps(r + j),
                                 _mm256_mul_ps(av, bv)));
    }
    for (; j < n; ++j)
        r[j] += a * b[j];
}

__attribute__((target("avx2"))) inline void
axpyI32I64(int32_t a, const int32_t *b, int64_t *r, int n)
{
    const __m256i av = _mm256_set1_epi64x(a);
    int j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i bv = _mm256_cvtepi32_epi64(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(b + j)));
        const __m256i rv =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(r + j));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(r + j),
                            _mm256_add_epi64(rv, _mm256_mul_epi32(av, bv)));
    }
    for (; j < n; ++j)
        r[j] += static_cast<int64_t>(a) * b[j];
}

/**
 * Register-tiled FP32 panel: 16-column output tiles (4 rows x 2 ymm) stay
 * in registers across the whole k loop, so the accumulator panel is read
 * and written once instead of once per k step — that store traffic, not
 * the multiplies, bound the axpy formulation. Ops per element are the
 * same one multiply + one add in ascending k as the scalar reference
 * (no FMA: target("avx2") alone cannot contract), so results match it
 * bit for bit.
 */
__attribute__((target("avx2"))) inline void
gemmPanel4F32(const float *a, int64_t lda, const float *b, int64_t ldb,
              int kd, float *acc, int jt)
{
    const float *a0 = a;
    const float *a1 = a + lda;
    const float *a2 = a + 2 * lda;
    const float *a3 = a + 3 * lda;
    float *acc1 = acc + jt;
    float *acc2 = acc + 2 * jt;
    float *acc3 = acc + 3 * jt;
    int j = 0;
    for (; j + 16 <= jt; j += 16) {
        __m256 c00 = _mm256_loadu_ps(acc + j);
        __m256 c01 = _mm256_loadu_ps(acc + j + 8);
        __m256 c10 = _mm256_loadu_ps(acc1 + j);
        __m256 c11 = _mm256_loadu_ps(acc1 + j + 8);
        __m256 c20 = _mm256_loadu_ps(acc2 + j);
        __m256 c21 = _mm256_loadu_ps(acc2 + j + 8);
        __m256 c30 = _mm256_loadu_ps(acc3 + j);
        __m256 c31 = _mm256_loadu_ps(acc3 + j + 8);
        for (int k = 0; k < kd; ++k) {
            const float *b_row = b + static_cast<size_t>(k) * ldb + j;
            const __m256 b0 = _mm256_loadu_ps(b_row);
            const __m256 b1 = _mm256_loadu_ps(b_row + 8);
            if (a0[k] != 0.0f) {
                const __m256 av = _mm256_set1_ps(a0[k]);
                c00 = _mm256_add_ps(c00, _mm256_mul_ps(av, b0));
                c01 = _mm256_add_ps(c01, _mm256_mul_ps(av, b1));
            }
            if (a1[k] != 0.0f) {
                const __m256 av = _mm256_set1_ps(a1[k]);
                c10 = _mm256_add_ps(c10, _mm256_mul_ps(av, b0));
                c11 = _mm256_add_ps(c11, _mm256_mul_ps(av, b1));
            }
            if (a2[k] != 0.0f) {
                const __m256 av = _mm256_set1_ps(a2[k]);
                c20 = _mm256_add_ps(c20, _mm256_mul_ps(av, b0));
                c21 = _mm256_add_ps(c21, _mm256_mul_ps(av, b1));
            }
            if (a3[k] != 0.0f) {
                const __m256 av = _mm256_set1_ps(a3[k]);
                c30 = _mm256_add_ps(c30, _mm256_mul_ps(av, b0));
                c31 = _mm256_add_ps(c31, _mm256_mul_ps(av, b1));
            }
        }
        _mm256_storeu_ps(acc + j, c00);
        _mm256_storeu_ps(acc + j + 8, c01);
        _mm256_storeu_ps(acc1 + j, c10);
        _mm256_storeu_ps(acc1 + j + 8, c11);
        _mm256_storeu_ps(acc2 + j, c20);
        _mm256_storeu_ps(acc2 + j + 8, c21);
        _mm256_storeu_ps(acc3 + j, c30);
        _mm256_storeu_ps(acc3 + j + 8, c31);
    }
    if (j < jt) {
        // Column tail (< 16): per-k axpy over the remaining columns.
        for (int k = 0; k < kd; ++k) {
            const float *b_row = b + static_cast<size_t>(k) * ldb;
            for (int r = 0; r < 4; ++r) {
                const float ar = a[static_cast<size_t>(r) * lda + k];
                if (ar == 0.0f)
                    continue;
                float *row = acc + static_cast<size_t>(r) * jt;
                for (int jj = j; jj < jt; ++jj)
                    row[jj] += ar * b_row[jj];
            }
        }
    }
}

/** Register-tiled int32 -> int64 panel: 8-column tiles (4 rows x 2 ymm of
 *  four i64 lanes). Exact arithmetic — identical to the scalar twin. */
__attribute__((target("avx2"))) inline void
gemmPanel4I32I64(const int32_t *a, int64_t lda, const int32_t *b, int64_t ldb,
                 int kd, int64_t *acc, int jt)
{
    const int32_t *a0 = a;
    const int32_t *a1 = a + lda;
    const int32_t *a2 = a + 2 * lda;
    const int32_t *a3 = a + 3 * lda;
    int64_t *acc1 = acc + jt;
    int64_t *acc2 = acc + 2 * jt;
    int64_t *acc3 = acc + 3 * jt;
    int j = 0;
    for (; j + 8 <= jt; j += 8) {
        __m256i c00 = _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc + j));
        __m256i c01 =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc + j + 4));
        __m256i c10 =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc1 + j));
        __m256i c11 =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc1 + j + 4));
        __m256i c20 =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc2 + j));
        __m256i c21 =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc2 + j + 4));
        __m256i c30 =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc3 + j));
        __m256i c31 =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc3 + j + 4));
        for (int k = 0; k < kd; ++k) {
            const int32_t *b_row = b + static_cast<size_t>(k) * ldb + j;
            const __m256i b0 = _mm256_cvtepi32_epi64(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(b_row)));
            const __m256i b1 = _mm256_cvtepi32_epi64(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(b_row + 4)));
            if (a0[k] != 0) {
                const __m256i av = _mm256_set1_epi64x(a0[k]);
                c00 = _mm256_add_epi64(c00, _mm256_mul_epi32(av, b0));
                c01 = _mm256_add_epi64(c01, _mm256_mul_epi32(av, b1));
            }
            if (a1[k] != 0) {
                const __m256i av = _mm256_set1_epi64x(a1[k]);
                c10 = _mm256_add_epi64(c10, _mm256_mul_epi32(av, b0));
                c11 = _mm256_add_epi64(c11, _mm256_mul_epi32(av, b1));
            }
            if (a2[k] != 0) {
                const __m256i av = _mm256_set1_epi64x(a2[k]);
                c20 = _mm256_add_epi64(c20, _mm256_mul_epi32(av, b0));
                c21 = _mm256_add_epi64(c21, _mm256_mul_epi32(av, b1));
            }
            if (a3[k] != 0) {
                const __m256i av = _mm256_set1_epi64x(a3[k]);
                c30 = _mm256_add_epi64(c30, _mm256_mul_epi32(av, b0));
                c31 = _mm256_add_epi64(c31, _mm256_mul_epi32(av, b1));
            }
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + j), c00);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + j + 4), c01);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc1 + j), c10);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc1 + j + 4), c11);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc2 + j), c20);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc2 + j + 4), c21);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc3 + j), c30);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc3 + j + 4), c31);
    }
    if (j < jt) {
        for (int k = 0; k < kd; ++k) {
            const int32_t *b_row = b + static_cast<size_t>(k) * ldb;
            for (int r = 0; r < 4; ++r) {
                const int32_t ar = a[static_cast<size_t>(r) * lda + k];
                if (ar == 0)
                    continue;
                int64_t *row = acc + static_cast<size_t>(r) * jt;
                for (int jj = j; jj < jt; ++jj)
                    row[jj] += static_cast<int64_t>(ar) * b_row[jj];
            }
        }
    }
}

/** acc + float(d) * 2^(ea + eb): eb_field holds eb << 23, and ea + eb is
 *  in [-126, 127], so the sum of the fields is the normal float 2^e. */
__attribute__((target("avx2"), always_inline)) inline __m256
scaleAdd(__m256 acc, __m256i d, __m256i eb_field, int ea)
{
    const __m256 scale = _mm256_castsi256_ps(_mm256_add_epi32(
        eb_field, _mm256_set1_epi32(static_cast<int32_t>(
                      static_cast<uint32_t>(ea + 127) << 23))));
    return _mm256_add_ps(acc, _mm256_mul_ps(_mm256_cvtepi32_ps(d), scale));
}

/**
 * A chunk whose exponents leave the float-scale range: every lane
 * takes scalar::chunkTerm (an ldexp where needed) in the same per-element
 * order. Out of line; extreme exponents are rare.
 */
[[gnu::noinline]] inline void
chunkTermsSlow(const int32_t (*dots)[16], float (*sums)[16],
               const int32_t *ea, const int32_t *eb, int cols)
{
    for (int r = 0; r < 4; ++r)
        for (int l = 0; l < cols; ++l)
            sums[r][l] += scalar::chunkTerm(dots[r][l], ea[r] + eb[l]);
}

/**
 * Four rows x 8 * NV columns of chunkTile4 (columns j .. j + cols - 1,
 * j at a panel start). Per chunk, _mm256_madd_epi16 forms the exact dots
 * two depths at a time: NV B pair loads per step, each A row's pair
 * broadcast once. The dots then convert, scale by 2^(ea + eb) built in the
 * exponent field, and add into FP32 sums that never leave the strip — no
 * dot store, no separate scale pass. A chunk takes the float path when
 * every row's ea + eb lies in [-126, 127] (checked once per chunk from the
 * rows' min and max; see scalar::chunkTerm), otherwise chunkTermsSlow.
 */
template <int NV>
__attribute__((target("avx2"))) inline void
chunkStrip4(const ChunkTile &t, int j, int cols)
{
    constexpr int kPanel = ChunkTile::kPanel;
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    __m256i live[NV];
    for (int v = 0; v < NV; ++v)
        live[v] = _mm256_cmpgt_epi32(_mm256_set1_epi32(cols - 8 * v), lane);
    const int pairs = (t.g + 1) / 2;
    const int64_t chunks = ceilDiv(t.k_depth, t.g);
    __m256 acc[NV][4];
    for (int v = 0; v < NV; ++v)
        for (int r = 0; r < 4; ++r)
            acc[v][r] = _mm256_setzero_ps();
    const int32_t *ap = t.a_pairs;
    const int32_t *ea = t.ea;
    const int32_t *bp =
        t.b + j / kPanel * ChunkTile::pairWords(t.k_depth, t.g, kPanel);
    const int32_t *eb = t.eb + j / kPanel * chunks * kPanel;
    for (int k0 = 0; k0 < t.k_depth; k0 += t.g, ap += 4 * pairs, ea += 4,
             bp += pairs * kPanel, eb += kPanel) {
        const int np = (std::min(t.g, t.k_depth - k0) + 1) / 2;
        __m256i d[NV][4];
        for (int v = 0; v < NV; ++v)
            for (int r = 0; r < 4; ++r)
                d[v][r] = _mm256_setzero_si256();
        for (int p = 0; p < np; ++p) {
            __m256i b[NV];
            for (int v = 0; v < NV; ++v)
                b[v] = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(bp + p * kPanel + 8 * v));
            for (int r = 0; r < 4; ++r) {
                const __m256i a = _mm256_set1_epi32(ap[4 * p + r]);
                for (int v = 0; v < NV; ++v)
                    d[v][r] = _mm256_add_epi32(d[v][r],
                                               _mm256_madd_epi16(a, b[v]));
            }
        }

        const int e_lo =
            std::min(std::min(ea[0], ea[1]), std::min(ea[2], ea[3]));
        const int e_hi =
            std::max(std::max(ea[0], ea[1]), std::max(ea[2], ea[3]));
        // e_lo + eb + 126 and e_hi + eb + 128 both in [0, 256) for every
        // live lane: every row's ea + eb is in [-126, 127].
        const __m256i lo = _mm256_set1_epi32(e_lo + 126);
        const __m256i hi = _mm256_set1_epi32(e_hi + 128);
        const __m256i high_bits = _mm256_set1_epi32(~0xff);
        __m256i ebv[NV];
        __m256i off = _mm256_setzero_si256();
        for (int v = 0; v < NV; ++v) {
            ebv[v] = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(eb + 8 * v));
            off = _mm256_or_si256(
                off, _mm256_and_si256(
                         _mm256_and_si256(
                             _mm256_or_si256(_mm256_add_epi32(ebv[v], lo),
                                             _mm256_add_epi32(ebv[v], hi)),
                             high_bits),
                         live[v]));
        }
        if (_mm256_testz_si256(off, off)) {
            for (int v = 0; v < NV; ++v) {
                const __m256i eb_field = _mm256_slli_epi32(ebv[v], 23);
                for (int r = 0; r < 4; ++r)
                    acc[v][r] = scaleAdd(acc[v][r], d[v][r], eb_field, ea[r]);
            }
        } else {
            alignas(32) int32_t dots[4][16];
            alignas(32) float sums[4][16];
            for (int v = 0; v < NV; ++v)
                for (int r = 0; r < 4; ++r) {
                    _mm256_store_si256(
                        reinterpret_cast<__m256i *>(dots[r] + 8 * v), d[v][r]);
                    _mm256_store_ps(sums[r] + 8 * v, acc[v][r]);
                }
            chunkTermsSlow(dots, sums, ea, eb, cols);
            for (int v = 0; v < NV; ++v)
                for (int r = 0; r < 4; ++r)
                    acc[v][r] = _mm256_load_ps(sums[r] + 8 * v);
        }
    }
    for (int r = 0; r < t.rows; ++r)
        for (int v = 0; v < NV && 8 * v < cols; ++v) {
            float *out = t.c + r * t.ldc + j + 8 * v;
            if (cols >= 8 * (v + 1))
                _mm256_storeu_ps(out, acc[v][r]);
            else
                _mm256_maskstore_ps(out, live[v], acc[v][r]);
        }
}

/** Sixteen-column strips (one panel each); eight for a short remainder. */
__attribute__((target("avx2"))) inline void
chunkTile4(const ChunkTile &t)
{
    int j = 0;
    for (; t.cols - j > 8; j += 16)
        chunkStrip4<2>(t, j, std::min(16, t.cols - j));
    if (j < t.cols)
        chunkStrip4<1>(t, j, t.cols - j);
}

/** 8 x 8 tile transpose in registers: unpack, shuffle, lane swap. */
__attribute__((target("avx2"))) inline void
transpose8x8F32(const float *src, int64_t lds, float *dst, int64_t ldd)
{
    __m256 r[8];
    for (int i = 0; i < 8; ++i)
        r[i] = _mm256_loadu_ps(src + i * lds);
    __m256 t[8];
    for (int i = 0; i < 8; i += 2) {
        t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
        t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
    }
    __m256 u[8];
    for (int i = 0; i < 8; i += 4) {
        u[i] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(1, 0, 1, 0));
        u[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(3, 2, 3, 2));
        u[i + 2] =
            _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(1, 0, 1, 0));
        u[i + 3] =
            _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(3, 2, 3, 2));
    }
    for (int j = 0; j < 4; ++j) {
        _mm256_storeu_ps(dst + j * ldd,
                         _mm256_permute2f128_ps(u[j], u[j + 4], 0x20));
        _mm256_storeu_ps(dst + (j + 4) * ldd,
                         _mm256_permute2f128_ps(u[j], u[j + 4], 0x31));
    }
}

/**
 * Eight lanes of scalar::quantizeOne in float. With scale a normal float
 * power of two, x = v * scale is exact unless |x| < 2^-126, where Nearest
 * gives 0 either way. Nearest is trunc(|x|) plus (|x| - t >= 0.5), both
 * exact; |x| + 0.5f would round (0.5 - 2^-25 would reach 1). Floor is
 * trunc minus one below a negative non-integer, or where a negative v's
 * product underflowed to -0 (the double core sees a tiny negative x).
 * `clips` counts the clamped lanes.
 */
template <bool Nearest>
__attribute__((target("avx2"))) inline __m256i
quantize8(__m256 v, __m256 scale, __m256i lo, __m256i hi, __m256i &clips)
{
    const __m256 x = _mm256_mul_ps(v, scale);
    __m256i q;
    if constexpr (Nearest) {
        const __m256 ax = _mm256_andnot_ps(_mm256_set1_ps(-0.0f), x);
        const __m256i t = _mm256_cvttps_epi32(ax);
        const __m256 up =
            _mm256_cmp_ps(_mm256_sub_ps(ax, _mm256_cvtepi32_ps(t)),
                          _mm256_set1_ps(0.5f), _CMP_GE_OQ);
        const __m256i r = _mm256_sub_epi32(t, _mm256_castps_si256(up));
        const __m256i sign = _mm256_srai_epi32(_mm256_castps_si256(x), 31);
        q = _mm256_sub_epi32(_mm256_xor_si256(r, sign), sign);
    } else {
        const __m256 zero = _mm256_setzero_ps();
        const __m256i t = _mm256_cvttps_epi32(x);
        const __m256 below = _mm256_or_ps(
            _mm256_cmp_ps(x, _mm256_cvtepi32_ps(t), _CMP_LT_OQ),
            _mm256_and_ps(_mm256_cmp_ps(x, zero, _CMP_EQ_OQ),
                          _mm256_cmp_ps(v, zero, _CMP_LT_OQ)));
        q = _mm256_add_epi32(t, _mm256_castps_si256(below));
    }
    clips = _mm256_sub_epi32(clips, _mm256_cmpgt_epi32(q, hi));
    clips = _mm256_sub_epi32(clips, _mm256_cmpgt_epi32(lo, q));
    return _mm256_min_epi32(_mm256_max_epi32(q, lo), hi);
}

/** Float-lane scale 2^shift is a normal float. */
inline bool
floatScaleExact(int shift)
{
    return shift >= -126 && shift <= 127;
}

template <bool Nearest>
__attribute__((target("avx2"))) inline int32_t
quantizeRowT(const float *v, int n, int shift, int32_t q_max, int32_t *q)
{
    const __m256 scale = _mm256_set1_ps(pow2f(shift));
    const __m256i hi = _mm256_set1_epi32(q_max);
    const __m256i lo = _mm256_set1_epi32(-q_max - 1);
    __m256i clips = _mm256_setzero_si256();
    int i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(q + i),
            quantize8<Nearest>(_mm256_loadu_ps(v + i), scale, lo, hi, clips));
    alignas(32) int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), clips);
    int32_t clipped = 0;
    for (int32_t c : lanes)
        clipped += c;
    return clipped + scalar::quantizeRowT<Nearest>(v + i, n - i, pow2d(shift),
                                                   q_max, q + i);
}

/** Float-lane quantizeRow; a shift outside the normal float range takes
 *  the double core. */
__attribute__((target("avx2"))) inline int32_t
quantizeRow(const float *v, int n, int shift, int32_t q_max, bool nearest,
            int32_t *q)
{
    if (!floatScaleExact(shift))
        return scalar::quantizeRow(v, n, shift, q_max, nearest, q);
    return nearest ? quantizeRowT<true>(v, n, shift, q_max, q)
                   : quantizeRowT<false>(v, n, shift, q_max, q);
}

template <bool Nearest>
__attribute__((target("avx2"))) inline void
quantizeColsT(const float *v, int64_t ldv, int rows, int cols,
              const int32_t *shift, int32_t q_max, int32_t *q, int64_t ldq,
              int32_t *clipped)
{
    const __m256i hi = _mm256_set1_epi32(q_max);
    const __m256i lo = _mm256_set1_epi32(-q_max - 1);
    int j = 0;
    for (; j + 8 <= cols; j += 8) {
        // 2^shift per lane, built from the exponent field.
        const __m256 scale = _mm256_castsi256_ps(_mm256_slli_epi32(
            _mm256_add_epi32(_mm256_loadu_si256(
                                 reinterpret_cast<const __m256i *>(shift + j)),
                             _mm256_set1_epi32(127)),
            23));
        __m256i clips = _mm256_setzero_si256();
        for (int t = 0; t < rows; ++t)
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(q + t * ldq + j),
                quantize8<Nearest>(_mm256_loadu_ps(v + t * ldv + j), scale,
                                   lo, hi, clips));
        __m256i *acc = reinterpret_cast<__m256i *>(clipped + j);
        _mm256_storeu_si256(acc,
                            _mm256_add_epi32(_mm256_loadu_si256(acc), clips));
    }
    if (j < cols)
        scalar::quantizeColsT<Nearest>(v + j, ldv, rows, cols - j, shift + j,
                                       q_max, q + j, ldq, clipped + j);
}

__attribute__((target("avx2"))) inline uint32_t
maxMagnitude(const float *v, int n)
{
    const __m256i magnitude = _mm256_set1_epi32(0x7fffffff);
    __m256i m = _mm256_setzero_si256();
    int i = 0;
    for (; i + 8 <= n; i += 8)
        m = _mm256_max_epi32(
            m, _mm256_and_si256(_mm256_loadu_si256(
                                    reinterpret_cast<const __m256i *>(v + i)),
                                magnitude));
    __m128i h = _mm_max_epi32(_mm256_castsi256_si128(m),
                              _mm256_extracti128_si256(m, 1));
    h = _mm_max_epi32(h, _mm_shuffle_epi32(h, _MM_SHUFFLE(1, 0, 3, 2)));
    h = _mm_max_epi32(h, _mm_shuffle_epi32(h, _MM_SHUFFLE(2, 3, 0, 1)));
    return std::max(static_cast<uint32_t>(_mm_cvtsi128_si32(h)),
                    scalar::maxMagnitude(v + i, n - i));
}

/** Eight columns per ymm; magnitudes are below 2^31, so a signed max. */
__attribute__((target("avx2"))) inline void
maxMagnitudeCols(const float *v, int64_t ldv, int rows, int cols,
                 uint32_t *max_bits)
{
    const __m256i magnitude = _mm256_set1_epi32(0x7fffffff);
    int j = 0;
    for (; j + 8 <= cols; j += 8) {
        __m256i m = _mm256_setzero_si256();
        for (int t = 0; t < rows; ++t)
            m = _mm256_max_epi32(
                m, _mm256_and_si256(
                       _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                           v + t * ldv + j)),
                       magnitude));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(max_bits + j), m);
    }
    if (j < cols)
        scalar::maxMagnitudeCols(v + j, ldv, rows, cols - j, max_bits + j);
}

/** Float-lane quantizeCols; a block with any shift outside the normal
 *  float range takes the double core. */
__attribute__((target("avx2"))) inline void
quantizeCols(const float *v, int64_t ldv, int rows, int cols,
             const int32_t *shift, int32_t q_max, bool nearest, int32_t *q,
             int64_t ldq, int32_t *clipped)
{
    bool exact = true;
    for (int j = 0; j < cols; ++j)
        exact &= floatScaleExact(shift[j]);
    if (!exact)
        scalar::quantizeCols(v, ldv, rows, cols, shift, q_max, nearest, q,
                             ldq, clipped);
    else if (nearest)
        quantizeColsT<true>(v, ldv, rows, cols, shift, q_max, q, ldq,
                            clipped);
    else
        quantizeColsT<false>(v, ldv, rows, cols, shift, q_max, q, ldq,
                             clipped);
}

} // namespace avx2

#else

// Without AVX2, detail::vectorEnabled() is false, so the dispatch never
// takes its vector branch; the alias only lets that one form compile.
namespace avx2 = scalar;

#endif // MIRAGE_SIMD_AVX2

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/**
 * Parses a MIRAGE_SIMD value: "scalar", "off" or "0" force the scalar
 * reference (false); "auto", "on" or "1" use the vector backend where the
 * CPU has one (true). Surrounding blanks are ignored. Anything else
 * returns nullopt and fills *error (when non-null). Exposed for unit tests.
 */
inline std::optional<bool>
parseSimdEnv(const char *value, std::string *error = nullptr)
{
    std::string v = value != nullptr ? value : "";
    const size_t first = v.find_first_not_of(" \t");
    v = first == std::string::npos
            ? ""
            : v.substr(first, v.find_last_not_of(" \t") - first + 1);
    if (v == "scalar" || v == "off" || v == "0")
        return false;
    if (v == "auto" || v == "on" || v == "1")
        return true;
    if (error != nullptr)
        *error = v.empty() ? "empty value"
                           : "expected scalar/off/0 or auto/on/1";
    return std::nullopt;
}

namespace detail {

/** True when the vector backend should be used (CPU supports it and
 *  MIRAGE_SIMD does not force scalar). Decided once per process. */
inline bool
vectorEnabled()
{
    static const bool enabled = [] {
        if (const char *env = std::getenv("MIRAGE_SIMD")) {
            std::string error;
            const std::optional<bool> vector = parseSimdEnv(env, &error);
            // A typo such as MIRAGE_SIMD=scalr used to run the vector
            // backend without a word. Be loud about it.
            if (!vector)
                MIRAGE_WARN("ignoring MIRAGE_SIMD=\"", env, "\" (", error,
                            "); using the vector backend where the CPU "
                            "has one");
            else if (!*vector)
                return false;
        }
#if defined(MIRAGE_SIMD_AVX2)
        return static_cast<bool>(__builtin_cpu_supports("avx2"));
#else
        return false;
#endif
    }();
    return enabled;
}

} // namespace detail

/** Name of the active backend: "avx2" or "scalar". */
inline const char *
backendName()
{
    return detail::vectorEnabled() ? "avx2" : "scalar";
}

#define MIRAGE_SIMD_DISPATCH(fn, ...) \
    do { \
        if (detail::vectorEnabled()) \
            return avx2::fn(__VA_ARGS__); \
        return scalar::fn(__VA_ARGS__); \
    } while (false)

inline void
axpyF32(float a, const float *b, float *r, int n)
{
    MIRAGE_SIMD_DISPATCH(axpyF32, a, b, r, n);
}

inline void
axpyI32I64(int32_t a, const int32_t *b, int64_t *r, int n)
{
    MIRAGE_SIMD_DISPATCH(axpyI32I64, a, b, r, n);
}

inline void
gemmPanel4F32(const float *a, int64_t lda, const float *b, int64_t ldb,
              int kd, float *acc, int jt)
{
    MIRAGE_SIMD_DISPATCH(gemmPanel4F32, a, lda, b, ldb, kd, acc, jt);
}

inline void
gemmPanel4I32I64(const int32_t *a, int64_t lda, const int32_t *b, int64_t ldb,
                 int kd, int64_t *acc, int jt)
{
    MIRAGE_SIMD_DISPATCH(gemmPanel4I32I64, a, lda, b, ldb, kd, acc, jt);
}

inline void
chunkTile4(const ChunkTile &t)
{
    MIRAGE_SIMD_DISPATCH(chunkTile4, t);
}

inline void
transpose8x8F32(const float *src, int64_t lds, float *dst, int64_t ldd)
{
    MIRAGE_SIMD_DISPATCH(transpose8x8F32, src, lds, dst, ldd);
}

inline uint32_t
maxMagnitude(const float *v, int n)
{
    MIRAGE_SIMD_DISPATCH(maxMagnitude, v, n);
}

inline void
maxMagnitudeCols(const float *v, int64_t ldv, int rows, int cols,
                 uint32_t *max_bits)
{
    MIRAGE_SIMD_DISPATCH(maxMagnitudeCols, v, ldv, rows, cols, max_bits);
}

inline int32_t
quantizeRow(const float *v, int n, int shift, int32_t q_max, bool nearest,
            int32_t *q)
{
    MIRAGE_SIMD_DISPATCH(quantizeRow, v, n, shift, q_max, nearest, q);
}

inline void
quantizeCols(const float *v, int64_t ldv, int rows, int cols,
             const int32_t *shift, int32_t q_max, bool nearest, int32_t *q,
             int64_t ldq, int32_t *clipped)
{
    MIRAGE_SIMD_DISPATCH(quantizeCols, v, ldv, rows, cols, shift, q_max,
                         nearest, q, ldq, clipped);
}

#undef MIRAGE_SIMD_DISPATCH

} // namespace simd
} // namespace mirage

#endif // MIRAGE_COMMON_SIMD_H
