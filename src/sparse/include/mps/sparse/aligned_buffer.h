/**
 * @file
 * 64-byte-aligned allocation for dense rows and kernel scratch.
 *
 * The SIMD row microkernels (mps/core/microkernel.h) assume that every
 * dense row starts on a cache-line boundary; DenseMatrix and the
 * per-thread accumulator scratch both allocate through this allocator
 * so the fixed-dimension vector paths never straddle a line.
 */
#ifndef MPS_SPARSE_ALIGNED_BUFFER_H
#define MPS_SPARSE_ALIGNED_BUFFER_H

#include <cstddef>
#include <new>
#include <utility>
#include <vector>

#include "mps/sparse/types.h"

namespace mps {

/** Cache-line alignment (bytes) of dense-row storage. */
inline constexpr std::size_t kRowAlignBytes = 64;

/** Elements of value_t per cache line; rows are padded to this. */
inline constexpr index_t kRowAlignElems =
    static_cast<index_t>(kRowAlignBytes / sizeof(value_t));

/** Round @p n up to a multiple of kRowAlignElems (0 stays 0). */
constexpr index_t
padded_row_length(index_t n)
{
    return ((n + kRowAlignElems - 1) / kRowAlignElems) * kRowAlignElems;
}

/** Minimal std::allocator replacement with a fixed alignment. */
template <class T, std::size_t Align = kRowAlignBytes>
struct AlignedAllocator
{
    using value_type = T;

    AlignedAllocator() noexcept = default;
    template <class U>
    AlignedAllocator(const AlignedAllocator<U, Align> &) noexcept
    {
    }

    T *allocate(std::size_t n)
    {
        if (n == 0)
            return nullptr;
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t(Align)));
    }
    void deallocate(T *p, std::size_t n) noexcept
    {
        ::operator delete(p, n * sizeof(T), std::align_val_t(Align));
    }

    template <class U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    friend bool operator==(const AlignedAllocator &,
                           const AlignedAllocator &) noexcept
    {
        return true;
    }
};

/** Cache-line-aligned vector of matrix values. */
using AlignedVector = std::vector<value_t, AlignedAllocator<value_t>>;

/**
 * AlignedAllocator whose value-less construct() default-initializes,
 * so resize(n) of a vector of floats allocates without writing the new
 * elements. Constructing from a value is unchanged.
 */
template <class T>
struct OverwriteAllocator : AlignedAllocator<T>
{
    using value_type = T;

    OverwriteAllocator() noexcept = default;
    template <class U>
    OverwriteAllocator(const OverwriteAllocator<U> &) noexcept
    {
    }

    template <class U>
    void construct(U *p) noexcept
    {
        ::new (static_cast<void *>(p)) U;
    }
    template <class U, class... Args>
    void construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }

    template <class U>
    struct rebind
    {
        using other = OverwriteAllocator<U>;
    };
};

/**
 * The fp32 rows of a DenseMatrix: aligned like AlignedVector, and
 * resizable without a zero-fill (DenseMatrix::for_overwrite).
 */
using OverwritableVector = std::vector<value_t, OverwriteAllocator<value_t>>;

/** Cache-line-aligned vector of bf16 storage (see mps/sparse/quant.h). */
using AlignedVectorB16 = std::vector<bf16_t, AlignedAllocator<bf16_t>>;

/** Cache-line-aligned vector of int8 storage (see mps/sparse/quant.h). */
using AlignedVectorI8 = std::vector<int8_t, AlignedAllocator<int8_t>>;

} // namespace mps

#endif // MPS_SPARSE_ALIGNED_BUFFER_H
