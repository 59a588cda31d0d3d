/**
 * @file
 * The merge-path sweep's share machinery (internal to mps_core): the
 * share loop, which runs the thread share of Algorithm 2, the epilogue
 * batch and the split-row carry fix-up.
 *
 * A row split across schedule threads gets one partial sum per
 * contributing thread. Instead of committing each with a float atomic,
 * the thread holding the row's first part stores it where the row is
 * finished (nobody else writes it during the sweep), and each thread
 * that continues a split row parks that head part in its carry slot.
 * After the sweep's barrier the fix-up adds each split row's carries
 * onto the first part in thread order and then hands the row to the
 * epilogue. The summation order is a property of the schedule alone,
 * so the output is bit-identical for a fixed schedule on any pool
 * size, and equal to the sequential sweep.
 *
 * A sweep either materializes its panel into an output matrix C or
 * streams it (no C): then every finished row goes from the gather
 * straight into its executor's staging tile and on to the epilogue,
 * and only the first parts of split rows, which must outlive the
 * barrier, are kept, in a compact |split| x width head panel.
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
 * The fix-up scratch of one sweep, padded to whole lines: one carry
 * slot per schedule thread and, for a streamed sweep, one head row per
 * split row (the row's first part, indexed by its position in the
 * SplitRowList). Left uninitialized: a sweep writes every row it later
 * reads. Each sweep allocates its own, so two concurrent runs never
 * share one; freed with the sweep, the scratch does not outlive it in
 * the allocator's heap either.
 */
class CarrySlots
{
  public:
    CarrySlots() = default;

    /** Thread @p t's carry slot. */
    value_t *slot(index_t t) const { return row(t); }

    /** The head row of split row @p i (streamed sweeps only). */
    value_t *head(index_t i) const { return row(threads_ + i); }

  private:
    friend CarrySlots carry_slots(index_t threads, index_t heads,
                                  index_t width);

    value_t *row(index_t i) const {
        return base_.get() +
               static_cast<size_t>(i) * static_cast<size_t>(stride_);
    }

    struct Free
    {
        void operator()(value_t *p) const noexcept
        {
            ::operator delete(p, std::align_val_t(kRowAlignBytes));
        }
    };

    std::unique_ptr<value_t[], Free> base_;
    index_t threads_ = 0;
    index_t stride_ = 0;
};

/**
 * Fix-up scratch for a @p threads-thread schedule with @p heads head
 * rows at panel width @p width: (threads + heads) * padded(width)
 * floats.
 */
CarrySlots carry_slots(index_t threads, index_t heads, index_t width);

struct PanelSweep;
struct SweepCount;

/**
 * A share loop: gathers @p w's head, complete rows [first_complete_row,
 * last_complete_row) and tail of @p m, puts each where the sweep says
 * and hands the finished rows to the epilogue (see run_share). On the
 * SIMD path, for f32 and bf16 operands at a width that is a multiple
 * of 8, it is specialised for the storage mode, the width and the sink
 * (stored or streamed), and every part's non-zero loop runs inline on
 * register rows (row_gather.h). The scalar table and other widths
 * take the per-row fallback: zero() and one RowKernels axpy per
 * non-zero, counted in SweepCount::fallback_rows.
 */
using ShareLoop = void (*)(const PanelSweep &p, const CsrMatrix &m,
                           const ResolvedWork &w, index_t t,
                           SweepCount *count);

/**
 * One panel sweep of the gather/commit datapath, shared by every
 * executor of it. The traversal reads B columns [b_col, b_col + width)
 * and finishes output columns [c_col, c_col + width); each output row
 * lands on its traversal row. @p prefetch > 0
 * prefetches the B row of the non-zero that many positions ahead.
 *
 * With an output @p c the sweep materializes: a row's first part is
 * gathered straight into C's row, which is stored, not added to — so
 * every row of C's panel columns is written and C needs no zero-fill. With
 * c == nullptr it streams: rows reach only @p epi (which is then
 * required), through the executors' staging tiles, and split rows'
 * first parts the head rows of @p carries. @p epi, when non-null,
 * runs on every finished row, batched per executor: rows finished by
 * a share as it goes, split rows by the carry fix-up.
 *
 * @p loop is the sweep's share loop, picked once per sweep for B's
 * storage mode, the width and the sink (see ShareLoop).
 */
struct PanelSweep
{
    const DenseMatrix *b = nullptr;
    index_t b_col = 0;
    index_t prefetch = 0;
    DenseMatrix *c = nullptr;
    index_t c_col = 0;
    index_t width = 0;
    const SplitRowList *split = nullptr;
    const RowKernels *rk = nullptr;
    PanelEpilogue epi = nullptr;
    const void *epi_ctx = nullptr;
    ShareLoop loop = nullptr;
    CarrySlots carries;

    bool streamed() const { return c == nullptr; }

    /** C's slice of row @p row (materialized sweeps only). */
    value_t *out_row(index_t row) const {
        return c->row(row) + c_col;
    }
};

/**
 * A sweep over @p b columns [b_col, b_col + width) into @p c (nullptr:
 * streamed, see PanelSweep) columns [c_col, ...), with fix-up scratch
 * for a @p threads-thread schedule whose split rows are @p split.
 */
PanelSweep make_panel_sweep(const DenseMatrix &b, index_t b_col,
                            DenseMatrix *c, index_t c_col, index_t width,
                            const SpmmLocality &loc,
                            const SplitRowList &split, index_t threads,
                            PanelEpilogue epi, const void *epi_ctx);

/**
 * Sweep census of one executor: rows handed to the epilogue and the
 * calls that carried them (fusion.epilogue_rows / fusion.epilogue_calls),
 * and complete rows gathered one call per row instead of in the share
 * loop's register rows (spmm.fallback_rows, see PanelSweep::loop).
 * Lives inside the per-executor census slots, flushed once per sweep.
 */
struct SweepCount
{
    int64_t epilogue_rows = 0;
    int64_t epilogue_calls = 0;
    int64_t fallback_rows = 0;

    void merge(const SweepCount &o) {
        epilogue_rows += o.epilogue_rows;
        epilogue_calls += o.epilogue_calls;
        fallback_rows += o.fallback_rows;
    }
};

/** Add a sweep's summed census to its counters (see SweepCount). */
void flush_sweep_count(MetricsRegistry &metrics, const SweepCount &count);

/**
 * Write census of one executor (the runtime counterpart of Figure 5's
 * atomic-vs-plain write distribution; "atomic" counts the parts of
 * split rows, which the carry fix-up finishes).
 */
struct WriteCensus
{
    int64_t atomics = 0;
    int64_t plains = 0;
    int64_t nnz = 0;

    void merge(const WriteCensus &o) {
        atomics += o.atomics;
        plains += o.plains;
        nnz += o.nnz;
    }
};

/**
 * Per-thread kEpilogueBatchRows x @p ld staging tile of streamed
 * sweeps, grown on demand and reused across batches and sweeps.
 */
value_t *staging_tile(index_t ld);

/**
 * One executor's batch of finished rows waiting for the panel
 * epilogue: add() collects rows and calls the epilogue each time
 * kEpilogueBatchRows are in, flush() hands over the partial batch.
 * Every executor flushes before it returns, so each row's epilogue
 * runs exactly once, on the row's owner, before the panel barrier.
 * A null epilogue makes both no-ops. A streamed sweep gathers each
 * finished row into stage(), the tile row the next add() takes.
 */
class EpilogueBatch
{
  public:
    /** @p count (may be null) receives the batch census. */
    EpilogueBatch(const PanelSweep &p, SweepCount *count)
        : epi_(p.epi), ctx_(p.epi_ctx), c_col0_(p.c_col), width_(p.width),
          ld_(padded_row_length(p.width)), count_(count)
    {
    }

    /** Staging row of the next add() (streamed sweeps only). */
    value_t *stage() {
        if (staging_ == nullptr)
            staging_ = staging_tile(ld_);
        return staging_ + static_cast<size_t>(size_) * ld_;
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
            count_->epilogue_rows += size_;
            ++count_->epilogue_calls;
        }
        size_ = 0;
    }

  private:
    PanelEpilogue epi_;
    const void *ctx_;
    index_t c_col0_;
    index_t width_;
    index_t ld_;
    SweepCount *count_;
    value_t *staging_ = nullptr;
    FinishedRow rows_[kEpilogueBatchRows];
    int size_ = 0;
};

/**
 * Execute share @p t of @p sched over @p m (Algorithm 2) with the
 * sweep's share loop: the share's head, complete rows and tail, each
 * part gathered in registers and put where @p p says (see PanelSweep),
 * its finished rows handed to the epilogue in batches, the last one
 * flushed before returning. A head that continues a split row goes to
 * carry slot t for the fix-up. @p census and @p count (each may be
 * null) receive the write and the sweep census.
 */
void run_share(const PanelSweep &p, const CsrMatrix &m,
               const MergePathSchedule &sched, index_t t,
               WriteCensus *census, SweepCount *count);

/**
 * The fix-up pass: for every split row of @p p, add its carries onto
 * the row's first part in slot order — C's row when materialized, its
 * head row when streamed — then hand the finished row to the epilogue
 * with its row id, batched like the sweep's own rows
 * (census into @p count, may be null). Runs on the caller in one
 * pass; a CPU-sized schedule has at most one split row per thread
 * boundary.
 */
void apply_carries(const PanelSweep &p, SweepCount *count);

} // namespace mps

#endif // MPS_CORE_CARRY_H
