/**
 * @file
 * Compile-only check of common/simd.h as a host without AVX2 builds it:
 * the x86-64 target macro is undefined before the header is read, so no
 * AVX2 body is compiled and every dispatch wrapper binds to its scalar
 * twin. Built as an object library that nothing links, so these
 * scalar-only inline definitions never meet the AVX2 ones of the other
 * translation units.
 */

// simd.h's own dependencies, read first under the real target macros.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "common/math_util.h"

#undef __x86_64__
#include "common/simd.h"

#if defined(MIRAGE_SIMD_AVX2)
#error "simd_portable_check must compile the scalar-only dispatch"
#endif

namespace mirage::simd {

/** Calls every dispatch wrapper once; never executed. */
int64_t
scalarOnlyDispatch(const float *f, float *f_out, const int32_t *i,
                   int32_t *i_out, int64_t *acc, uint32_t *bits)
{
    axpyF32(1.0f, f, f_out, 8);
    axpyI32I64(1, i, acc, 8);
    gemmPanel4F32(f, 8, f, 8, 8, f_out, 8);
    gemmPanel4I32I64(i, 8, i, 8, 8, acc, 8);
    chunkTile4(ChunkTile{i, i, i, i, 8, 4, f_out, 8, 4, 8});
    transpose8x8F32(f, 8, f_out, 8);
    maxMagnitudeCols(f, 8, 8, 8, bits);
    quantizeCols(f, 8, 8, 8, i, 7, true, i_out, 8, i_out);
    return maxMagnitude(f, 8) + quantizeRow(f, 8, 0, 7, false, i_out) +
           std::strlen(backendName());
}

} // namespace mirage::simd
