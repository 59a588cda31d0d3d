/**
 * @file
 * 64-byte-aligned allocation for dense rows and kernel scratch.
 *
 * The SIMD row microkernels (mps/core/microkernel.h) assume that every
 * dense row starts on a cache-line boundary; DenseMatrix and the
 * per-thread accumulator scratch both allocate through this allocator
 * so the fixed-dimension vector paths never straddle a line.
 *
 * Large blocks also go on 2 MiB pages (DESIGN.md, "Huge pages"): a
 * block of at least kHugeBlockBytes is 2 MiB-aligned and advised
 * MADV_HUGEPAGE, so a sweep gathering rows of it at random takes one
 * TLB entry per 2 MiB instead of one per 4 KiB.
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

/** Bytes of a transparent huge page on x86-64. */
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/**
 * The size rule: blocks of at least 12 MiB go on 2 MiB pages. The
 * second-level TLB reaches about 8 MiB with 4 KiB pages (2048 entries
 * on the AMX-class cores this was measured on), so a gather over a
 * smaller block mostly hits it anyway. Blocks up to 12 MiB keep 4 KiB
 * pages on purpose: the server allocates its per-batch layer buffers
 * (up to about 10 MB on Pubmed at the default batch of 8) and frees
 * them after every batch, and on 2 MiB pages those raised the serving
 * benchmark's peak RSS by 10-20%, because glibc then recycles
 * huge-page-backed heap for small allocations.
 */
inline constexpr std::size_t kHugeBlockBytes = std::size_t{12} << 20;

/**
 * True unless the host's transparent huge pages are off ("[never]" in
 * /sys/kernel/mm/transparent_hugepage/enabled, read once per process):
 * then no block takes the huge-page path, exactly as before huge pages
 * were used.
 */
bool huge_pages_enabled();

/** True when a block of @p bytes goes on 2 MiB pages. */
inline bool
huge_block(std::size_t bytes)
{
    return bytes >= kHugeBlockBytes && huge_pages_enabled();
}

/**
 * A 2 MiB-aligned block of @p bytes, advised MADV_HUGEPAGE. It is carved
 * out of a plain operator new of bytes + 2 MiB, not an aligned new: glibc
 * serves a 2 MiB-aligned request with a fresh mmap every time, which
 * defeats its dynamic mmap threshold, so a block freed and allocated
 * again every forward (a model's result) would fault its pages in anew
 * each time.
 */
void *allocate_huge_block(std::size_t bytes);

/** Frees a block of @p bytes from allocate_huge_block(). */
void free_huge_block(void *p, std::size_t bytes) noexcept;

/**
 * Minimal std::allocator replacement with a fixed alignment, raised to
 * 2 MiB (and the block advised onto huge pages) under the size rule.
 */
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
        const std::size_t bytes = n * sizeof(T);
        if (huge_block(bytes))
            return static_cast<T *>(allocate_huge_block(bytes));
        return static_cast<T *>(
            ::operator new(bytes, std::align_val_t(Align)));
    }
    void deallocate(T *p, std::size_t n) noexcept
    {
        const std::size_t bytes = n * sizeof(T);
        if (huge_block(bytes))
            free_huge_block(p, bytes);
        else
            ::operator delete(p, bytes, std::align_val_t(Align));
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

/**
 * Cache-line-aligned vector of bf16 storage (see mps/sparse/quant.h).
 * Every user stores each element before reading it, so it is resizable
 * without a zero-fill (DenseMatrix::bf16_panel); constructing or
 * assigning from a value still writes it.
 */
using AlignedVectorB16 = std::vector<bf16_t, OverwriteAllocator<bf16_t>>;

} // namespace mps

#endif // MPS_SPARSE_ALIGNED_BUFFER_H
