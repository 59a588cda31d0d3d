/**
 * @file
 * What the merge-path sweep and the hybrid tail share (internal to
 * mps_core): the non-zero gather, the epilogue batch and the split-row
 * carry fix-up.
 *
 * A row split across schedule threads gets one partial sum per
 * contributing thread. Instead of committing each with a float atomic,
 * the thread holding the row's first part plain-stores it into the
 * zero-filled output (nobody else writes that row during the sweep),
 * and each thread that continues a split row parks that head part in
 * its carry slot. After the sweep's barrier the fix-up adds each split
 * row's carries onto the stored first part in thread order and then
 * hands the row to the epilogue. The summation order is a property of
 * the schedule alone, so the output is bit-identical for a fixed
 * schedule on any pool size, and equal to the sequential sweep.
 */
#ifndef MPS_CORE_CARRY_H
#define MPS_CORE_CARRY_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

#include "mps/core/locality.h"
#include "mps/core/microkernel.h"
#include "mps/core/schedule.h"
#include "mps/core/spmm.h"
#include "mps/sparse/aligned_buffer.h"
#include "mps/sparse/dense_matrix.h"

namespace mps {

class MetricsRegistry;

/**
 * acc[0:width) = the sum over non-zeros [begin, end) of @p a of
 * vals[k] * B[cols[k]][b_col : b_col + width), read at B's storage
 * mode: f32 and bf16 rows accumulate in registers (rk.gather_axpy*),
 * int8 rows one axpy per non-zero. @p prefetch > 0 prefetches the B
 * row that many non-zeros ahead.
 */
inline void
gather_nonzeros(const CsrMatrix &a, const DenseMatrix &b, index_t b_col,
                index_t width, index_t prefetch, index_t begin,
                index_t end, value_t *acc, const RowKernels &rk)
{
    const NnzRange r{a.values().data(), a.col_idx().data(), begin, end,
                     b.padded_cols(), prefetch, a.nnz()};
    switch (b.storage()) {
    case StorageMode::kBf16:
        rk.gather_axpy_bf16(acc, r, b.row_bf16(0) + b_col, width);
        return;
    case StorageMode::kInt8:
        rk.zero(acc, width);
        for (index_t k = begin; k < end; ++k) {
            if (prefetch > 0 && k + prefetch < r.nnz)
                locality_prefetch(b.row_int8(r.cols[k + prefetch]) + b_col);
            const index_t src = r.cols[k];
            rk.axpy_int8(acc, r.vals[k], b.row_int8(src) + b_col,
                         b.quant_scale(src), b.quant_zero(src), width);
        }
        return;
    case StorageMode::kF32:
        rk.gather_axpy(acc, r, b.row(0) + b_col, width);
        return;
    }
}

/**
 * One carry slot per schedule thread, each padded to whole lines,
 * owned by the sweep that fills them. Left uninitialized: a sweep
 * writes every slot it later reads. Each run allocates its own, so two
 * concurrent runs never share one; freed with the sweep, the slots do
 * not outlive it in the allocator's heap either.
 */
class CarrySlots
{
  public:
    CarrySlots() = default;

    /** Thread @p t's carry slot. */
    value_t *slot(index_t t) const {
        return base_.get() +
               static_cast<size_t>(t) * static_cast<size_t>(stride_);
    }

  private:
    friend CarrySlots carry_slots(index_t threads, index_t width);

    struct Free
    {
        void operator()(value_t *p) const noexcept
        {
            ::operator delete(p, std::align_val_t(kRowAlignBytes));
        }
    };

    std::unique_ptr<value_t[], Free> base_;
    index_t stride_ = 0;
};

/**
 * Carry slots for a @p threads-thread schedule at panel width
 * @p width: threads * padded(width) floats.
 */
CarrySlots carry_slots(index_t threads, index_t width);

/**
 * Epilogue batch census of one executor (fusion.epilogue_rows /
 * fusion.epilogue_calls): rows handed over and the calls that carried
 * them. Lives inside the per-executor census slots, flushed once per
 * sweep.
 */
struct EpilogueCount
{
    int64_t rows = 0;
    int64_t calls = 0;
};

/** Add a sweep's summed batch census to fusion.epilogue_{rows,calls}. */
void flush_epilogue_count(MetricsRegistry &metrics,
                          const EpilogueCount &count);

/**
 * One executor's batch of finished rows waiting for the panel
 * epilogue: add() collects rows and calls the epilogue each time
 * kEpilogueBatchRows are in, flush() hands over the partial batch.
 * Every executor flushes before it returns, so each row's epilogue
 * runs exactly once, on the row's owner, before the panel barrier.
 * A null epilogue makes both no-ops.
 */
class EpilogueBatch
{
  public:
    /** @p count (may be null) receives the batch census. */
    EpilogueBatch(PanelEpilogue epi, const void *ctx, index_t c_col0,
                  index_t width, EpilogueCount *count)
        : epi_(epi), ctx_(ctx), c_col0_(c_col0), width_(width),
          count_(count)
    {
    }

    void add(value_t *crow, index_t row) {
        if (epi_ == nullptr)
            return;
        rows_[size_++] = {crow, row};
        if (size_ == kEpilogueBatchRows)
            flush();
    }

    void flush() {
        if (size_ == 0)
            return;
        epi_(rows_, size_, c_col0_, width_, ctx_);
        if (count_ != nullptr) {
            count_->rows += size_;
            ++count_->calls;
        }
        size_ = 0;
    }

  private:
    PanelEpilogue epi_;
    const void *ctx_;
    index_t c_col0_;
    index_t width_;
    EpilogueCount *count_;
    FinishedRow rows_[kEpilogueBatchRows];
    int size_ = 0;
};

/**
 * The fix-up pass: for every row of @p split, add its carries into
 * C[out, c_col : c_col + width) in slot order, where out is the row
 * routed through @p scatter, then hand the finished row to @p epi (if
 * any) with the unscattered row id, batched like the sweep's own rows
 * (census into @p count, may be null). Runs on the caller in one pass;
 * a CPU-sized schedule has at most one split row per thread boundary.
 */
void apply_carries(const SplitRowList &split, const CarrySlots &carries,
                   DenseMatrix &c, index_t c_col, index_t width,
                   const index_t *scatter, PanelEpilogue epi,
                   const void *epi_ctx, const RowKernels &rk,
                   EpilogueCount *count);

} // namespace mps

#endif // MPS_CORE_CARRY_H
