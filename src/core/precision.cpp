#include "mps/core/precision.h"

#include <algorithm>

#include "mps/core/microkernel.h"
#include "mps/util/work_steal_pool.h"

namespace mps {

namespace {

void
quantize_rows(DenseMatrix &m, index_t qcols, const RowKernels &rk,
              index_t r0, index_t r1)
{
    for (index_t r = r0; r < r1; ++r)
        rk.encode_bf16(m.row_bf16_mut(r), m.row(r), qcols);
}

} // namespace

void
quantize_dense(DenseMatrix &m, StorageMode mode, WorkStealPool *pool,
               index_t ncols)
{
    m.set_storage(mode);
    if (mode == StorageMode::kF32)
        return;
    const index_t qcols =
        ncols >= 0 ? std::min(ncols, m.cols()) : m.cols();
    const RowKernels &rk = select_row_kernels(qcols);
    if (pool == nullptr || m.rows() < 256) {
        quantize_rows(m, qcols, rk, 0, m.rows());
        return;
    }
    pool->parallel_for_ranges(
        static_cast<uint64_t>(m.rows()),
        [&](uint64_t begin, uint64_t end) {
            quantize_rows(m, qcols, rk, static_cast<index_t>(begin),
                          static_cast<index_t>(end));
        },
        /*grain=*/64);
}

} // namespace mps
