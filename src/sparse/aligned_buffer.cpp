#include "mps/sparse/aligned_buffer.h"

#include <cstdint>
#include <fstream>
#include <new>
#include <string>

#include <sys/mman.h>

namespace mps {

bool
huge_pages_enabled()
{
    static const bool enabled = [] {
        std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
        std::string modes;
        // No file (another kernel or OS): advising is harmless there.
        return !std::getline(in, modes) ||
               modes.find("[never]") == std::string::npos;
    }();
    return enabled;
}

void *
allocate_huge_block(std::size_t bytes)
{
    // The block starts at the first 2 MiB boundary past room for the
    // raw pointer, which free_huge_block reads back from just before it.
    void *raw = ::operator new(bytes + kHugePageBytes);
    const auto at = reinterpret_cast<std::uintptr_t>(raw) + sizeof(void *);
    const std::uintptr_t begin =
        (at + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
    void *p = reinterpret_cast<void *>(begin);
    static_cast<void **>(p)[-1] = raw;
    // Whole huge pages of the block only; a refusal (an old kernel, THP
    // compiled out) leaves it on 4 KiB pages, which is still correct.
    const std::size_t advised = bytes / kHugePageBytes * kHugePageBytes;
    if (advised > 0)
        (void)madvise(p, advised, MADV_HUGEPAGE);
    return p;
}

void
free_huge_block(void *p, std::size_t bytes) noexcept
{
    ::operator delete(static_cast<void **>(p)[-1], bytes + kHugePageBytes);
}

} // namespace mps
