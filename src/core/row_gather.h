/**
 * @file
 * The sweep's row gathers (internal to mps_core): the operand-row
 * prefetch and the register-row FMA chain that the share loop
 * (carry.cpp) inlines. Each output element is one FMA chain from +0
 * over the range's non-zeros in ascending k, so it is bit-identical to
 * zero() then one axpy per non-zero, the per-row fallback's loop.
 */
#ifndef MPS_CORE_ROW_GATHER_H
#define MPS_CORE_ROW_GATHER_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

#include "mps/core/locality.h"
#include "mps/core/microkernel.h"
#include "mps/core/simd_vec.h"
#include "mps/sparse/aligned_buffer.h"

namespace mps {

/**
 * Non-zeros [begin, end) of a CSR matrix as the gathers below read
 * them: weights vals[k], operand row cols[k], operand rows ld
 * elements apart. With prefetch > 0 the operand row prefetch non-zeros
 * ahead is prefetched whole while that non-zero is below nnz, the
 * matrix's count. The lookahead crosses row boundaries: the merge
 * traversal consumes the non-zeros in global order, and clamping to
 * the current row would silence the prefetch on every short row. The
 * operand's rows must start on cache lines, as DenseMatrix rows do:
 * the prefetch starts at the line holding the gathered element.
 */
struct NnzRange
{
    const value_t *vals;
    const index_t *cols;
    index_t begin;
    index_t end;
    index_t ld;
    index_t prefetch;
    index_t nnz;
};

/** The operand row of non-zero @p k of @p r. */
template <class T>
inline const T *
gather_row(const T *x, const NnzRange &r, index_t k)
{
    return x + static_cast<size_t>(r.cols[k]) * static_cast<size_t>(r.ld);
}

/**
 * Prefetches every cache line of row[0 : dim): one prefetch per line
 * from the row's start and, when the row may start off the line grid
 * (@p skewed), one at its last element, which then lies a line
 * further. Forced inline: GCC 12 deduces that an out-of-line function
 * whose only effect is a prefetch is side-effect free, and deletes its
 * calls.
 */
template <class T>
[[gnu::always_inline]] inline void
prefetch_row(const T *row, index_t dim, bool skewed)
{
    constexpr auto kLine = static_cast<index_t>(kRowAlignBytes / sizeof(T));
    for (index_t i = 0; i < dim; i += kLine)
        locality_prefetch(row + i);
    if (skewed)
        locality_prefetch(row + dim - 1);
}

/**
 * True when an operand row of @p r at @p x may start off the line
 * grid: the panel's first row does, or the row stride is not whole
 * lines.
 */
template <class T>
inline bool
rows_skewed(const T *x, const NnzRange &r)
{
    return (reinterpret_cast<uintptr_t>(x) |
            static_cast<uintptr_t>(r.ld) * sizeof(T)) %
               kRowAlignBytes !=
           0;
}

/**
 * The non-zeros of @p r whose operand row is prefetched: those with a
 * non-zero r.prefetch positions ahead, none without a lookahead.
 */
inline index_t
prefetch_end(const NnzRange &r)
{
    if (r.prefetch <= 0)
        return r.begin;
    return std::max(r.begin, std::min(r.end, r.nnz - r.prefetch));
}

/**
 * Prefetches the first @p dim elements of the operand row r.prefetch
 * non-zeros past @p k, if there is one.
 */
template <class T>
[[gnu::always_inline]] inline void
prefetch_ahead(const T *x, const NnzRange &r, index_t k, index_t dim)
{
    if (r.prefetch > 0 && k + r.prefetch < r.nnz)
        prefetch_row(gather_row(x, r, k + r.prefetch), dim, true);
}

#if MPS_SIMD_VEC
// ---------------------------------------------------------------------
// Register rows over SimdVec: zmm on AVX-512 builds, ymm on AVX2. Each
// chunk of columns keeps its accumulators in registers for the whole
// non-zero loop and stores them once.
// ---------------------------------------------------------------------

/** Widest chunk, in 8-column units: 8 vectors. */
constexpr int kMaxChunkEighths = SimdVec::kLanes;
constexpr index_t kChunkCols = 8 * kMaxChunkEighths;

/**
 * acc[0 : 8 * N8) = the gather of r over one chunk of 8 * N8 columns:
 * whole vectors, then on AVX-512 a half-full masked one when N8 is
 * odd. Each lane is fmadd(vals[k], x, sum) over k ascending from
 * zero, exactly the axpy chain.
 */
template <class T, int N8>
[[gnu::always_inline]] inline void
gather_chunk(value_t *acc, const NnzRange &r, const T *x)
{
    using V = SimdVec;
    constexpr int kCols = 8 * N8;
    constexpr int kFull = kCols / V::kLanes;
    constexpr int kPart = kCols % V::kLanes;
    constexpr int kRegs = kFull + (kPart != 0 ? 1 : 0);
    static_assert(kRegs <= 8, "a chunk is at most 8 vectors");
    [[maybe_unused]] const V::Mask part = V::prefix(kPart);
    V::Reg sum[kRegs];
#pragma GCC unroll 8
    for (int v = 0; v < kRegs; ++v)
        sum[v] = V::zero();
    const auto fma = [&](index_t k) {
        const T *row = gather_row(x, r, k);
        const V::Reg a = V::broadcast(r.vals[k]);
#pragma GCC unroll 8
        for (int v = 0; v < kFull; ++v)
            sum[v] = V::fmadd(a, V::load(row + v * V::kLanes), sum[v]);
        if constexpr (kPart != 0)
            sum[kFull] = V::fmadd(a, V::load(row + kFull * V::kLanes, part),
                                  sum[kFull]);
    };
    // The lookahead's bounds check is hoisted: the non-zeros with a
    // row to prefetch come first.
    const index_t ahead_end = prefetch_end(r);
    const bool skewed = rows_skewed(x, r);
    index_t k = r.begin;
    for (; k < ahead_end; ++k) {
        prefetch_row(gather_row(x, r, k + r.prefetch), kCols, skewed);
        fma(k);
    }
    for (; k < r.end; ++k)
        fma(k);
#pragma GCC unroll 8
    for (int v = 0; v < kFull; ++v)
        V::store(acc + v * V::kLanes, sum[v]);
    if constexpr (kPart != 0)
        V::store(acc + kFull * V::kLanes, sum[kFull], part);
}

/**
 * A width that is a multiple of 8, as the chunks gather it: @p full
 * whole chunks of kChunkCols columns, then one of 8 * last_eighths
 * (1 <= last_eighths <= kMaxChunkEighths).
 */
struct ChunkSplit
{
    index_t full;
    int last_eighths;
};

inline ChunkSplit
chunk_split(index_t width)
{
    const index_t full = (width - 1) / kChunkCols;
    return {full, static_cast<int>((width - full * kChunkCols) / 8)};
}

/** The gather of r at width split as {full, kLastEighths}. */
template <class T, int kLastEighths>
[[gnu::always_inline]] inline void
gather_chunks(value_t *acc, const NnzRange &r, const T *x, index_t full)
{
    for (index_t c = 0; c < full; ++c)
        gather_chunk<T, kMaxChunkEighths>(acc + c * kChunkCols, r,
                                          x + c * kChunkCols);
    gather_chunk<T, kLastEighths>(acc + full * kChunkCols, r,
                                  x + full * kChunkCols);
}

/**
 * {make(1), ..., make(kMaxChunkEighths)}, each argument a
 * std::integral_constant: a table of width-specialised functions,
 * indexed by ChunkSplit::last_eighths - 1.
 */
template <class Make>
constexpr auto
by_last_eighths(Make make)
{
    return [&]<int... N>(std::integer_sequence<int, N...>) {
        return std::array{make(std::integral_constant<int, N + 1>{})...};
    }(std::make_integer_sequence<int, kMaxChunkEighths>{});
}
#endif // MPS_SIMD_VEC

} // namespace mps

#endif // MPS_CORE_ROW_GATHER_H
