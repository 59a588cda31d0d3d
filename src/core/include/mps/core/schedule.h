/**
 * @file
 * The MergePath-SpMM schedule: per-thread merge-path coordinates plus the
 * partial/complete row tracking that is the paper's core contribution
 * (Section III-B). Rows fully owned by a single thread are written
 * with plain stores. Rows split across threads take one partial sum
 * per contributing thread: the paper (and the SIMT model) commit each
 * with an atomic vector update, the CPU kernels park each in a
 * per-thread carry slot and sum them in thread order after the sweep
 * (SplitRowList).
 */
#ifndef MPS_CORE_SCHEDULE_H
#define MPS_CORE_SCHEDULE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mps/core/merge_path.h"
#include "mps/sparse/csr_matrix.h"

namespace mps {

/**
 * One thread's share of the merge path, [start, end) in merge items.
 * start.row / start.nz and end.row / end.nz correspond to Algorithm 2's
 * (start_row, start_nz) and (end_row, end_nz); partialness is derived
 * from the coordinates instead of the paper's 0-sentinel so that nnz
 * id 0 needs no special casing.
 */
struct ThreadWork
{
    MergeCoordinate start;
    MergeCoordinate end;

    /** Thread has no merge items at all. */
    bool empty() const {
        return start.row == end.row && start.nz == end.nz;
    }
};

/**
 * Per-thread classification of the work in a ThreadWork, resolved
 * against the matrix's row pointers. This is what both the portable
 * kernels and the GPU warp-program generators execute.
 */
struct ResolvedWork
{
    /** Head contribution: row @p head_row, nnz [head_begin, head_end). */
    index_t head_row = 0;
    index_t head_begin = 0;
    index_t head_end = 0;
    /**
     * True when the head contribution is a partial row: an atomic
     * commit in the paper's kernel, a carry slot on the CPU.
     */
    bool head_atomic = false;

    /** Fully-owned rows [first_complete_row, last_complete_row). */
    index_t first_complete_row = 0;
    index_t last_complete_row = 0;

    /** Tail contribution: row @p tail_row, nnz [tail_begin, tail_end). */
    index_t tail_row = 0;
    index_t tail_begin = 0;
    index_t tail_end = 0;
    bool tail_atomic = false;

    bool has_head() const { return head_end > head_begin; }
    bool has_tail() const { return tail_end > tail_begin; }
};

/** Aggregate write-type statistics for Figure 5. */
struct ScheduleCensus
{
    /** Threads with zero merge items. */
    int64_t empty_threads = 0;
    /** One-atomic-vector-commit events (partial row contributions). */
    int64_t atomic_commits = 0;
    /** Plain (non-atomic) full-row writes. */
    int64_t plain_row_writes = 0;
    /** Distinct rows written by more than one thread. */
    int64_t split_rows = 0;
    /** Non-zeros processed under an atomic commit. */
    int64_t atomic_nnz = 0;
    /** Non-zeros processed under plain row writes. */
    int64_t plain_nnz = 0;
    /** Largest number of non-zeros assigned to any single thread. */
    int64_t max_nnz_per_thread = 0;
    /** Largest number of merge items assigned to any single thread. */
    int64_t max_items_per_thread = 0;

    /** Fraction of output-write events that are atomic. */
    double atomic_write_fraction() const {
        int64_t total = atomic_commits + plain_row_writes;
        return total == 0 ? 0.0
                          : static_cast<double>(atomic_commits) / total;
    }
};

/**
 * Census of a contiguous thread range, mergeable with an adjacent
 * range's part. split_rows is the count of DISTINCT atomic rows inside
 * the range (atomic rows are non-decreasing in thread order, so the
 * range-local count needs no sorting); the first/last atomic rows let
 * merge_census() subtract the seam row counted by both sides. This is
 * what makes the census range-decomposable: after an incremental
 * schedule repair, only the dirty thread range is re-counted and merged
 * with the cached clean-prefix part.
 */
struct ScheduleCensusPart
{
    ScheduleCensus counts;
    index_t first_atomic_row = -1; ///< -1: no atomic commit in range
    index_t last_atomic_row = -1;

    /** Combine with the part of the thread range directly after. */
    ScheduleCensusPart merged(const ScheduleCensusPart &right) const;
};

/**
 * The split-row fix-up list of a schedule: every row more than one
 * thread contributes to, with the carries to add into it in thread
 * order. The first part of a split row (the one starting at the row's
 * first non-zero) is stored into the output row by its thread, since
 * no other thread writes that row during the sweep. Every later part
 * is the head of the thread that continues the row, and thread t parks
 * its head in carry slot t. The fix-up pass then adds
 * the listed carries onto the stored first part. That order is a
 * property of the schedule alone, so the sums are bit-identical on any
 * pool size.
 */
struct SplitRowList
{
    /** Distinct split rows, ascending (through the row map, if any). */
    std::vector<index_t> rows;
    /** rows.size() + 1 offsets into slots. */
    std::vector<index_t> offsets{0};
    /** Carry slot (= contributing thread) of each later part. */
    std::vector<index_t> slots;

    index_t size() const { return static_cast<index_t>(rows.size()); }
    bool empty() const { return rows.empty(); }
};

/**
 * Load-balanced assignment of a CSR matrix's rows + non-zeros to a fixed
 * number of threads via the merge-path decomposition. Building a
 * schedule costs one O(log) diagonal search per thread and nothing else:
 * no preprocessing, reordering, or CSR format extension.
 */
class MergePathSchedule
{
  public:
    /** Build for an explicit thread count (>= 1). */
    static MergePathSchedule build(const CsrMatrix &a, index_t num_threads);

    /**
     * Build from a target merge-path cost (items per thread). The thread
     * count is ceil((rows + nnz) / cost), raised to @p min_threads when
     * the computed count is lower (Section III-C's small-graph rule; the
     * cost is implicitly reduced). Pass min_threads = 0 to disable.
     */
    static MergePathSchedule build_with_cost(const CsrMatrix &a,
                                             index_t cost,
                                             index_t min_threads = 0);

    /**
     * Reassemble a schedule from stored parts (deserialization). The
     * caller should validate() against the matrix it was built for.
     */
    static MergePathSchedule from_parts(std::vector<ThreadWork> work,
                                        int64_t items_per_thread);

    index_t num_threads() const {
        return static_cast<index_t>(work_.size());
    }

    /** Merge items per thread the construction actually used. */
    int64_t items_per_thread() const { return items_per_thread_; }

    const std::vector<ThreadWork> &work() const { return work_; }

    const ThreadWork &work(index_t thread) const {
        return work_[static_cast<size_t>(thread)];
    }

    /**
     * Resolve thread @p t's coordinates into head/complete/tail ranges
     * with atomicity decisions, per Algorithm 2.
     */
    ResolvedWork resolve(index_t t, const CsrMatrix &a) const;

    /**
     * The split-row fix-up list of this schedule over @p a. Partial
     * rows are non-decreasing in thread order, so one walk over the
     * threads yields the list already grouped by row.
     */
    SplitRowList split_row_list(const CsrMatrix &a) const;

    /** Compute Figure-5-style write statistics for this schedule. */
    ScheduleCensus census(const CsrMatrix &a) const;

    /**
     * Census restricted to threads [t_begin, t_end). Parts of adjacent
     * ranges combine exactly via ScheduleCensusPart::merged(), so a
     * repair re-censuses only the dirty thread range.
     */
    ScheduleCensusPart census_part(const CsrMatrix &a, index_t t_begin,
                                   index_t t_end) const;

    /**
     * Panics unless the schedule is a partition: thread ranges are
     * contiguous, cover [0, rows + nnz) exactly, and every thread holds
     * at most items_per_thread() merge items.
     */
    void validate(const CsrMatrix &a) const;

  private:
    std::vector<ThreadWork> work_;
    int64_t items_per_thread_ = 0;
};

/**
 * Result of repair_schedule(): the repaired (or rebuilt) schedule plus
 * the thread range whose boundaries changed, so census and other
 * per-thread caches can be refreshed incrementally.
 */
struct ScheduleRepair
{
    MergePathSchedule schedule;
    /** Threads [dirty_begin, dirty_end) have new boundaries. */
    index_t dirty_begin = 0;
    index_t dirty_end = 0;
    /** True when imbalance (or a leading dirty row) forced a rebuild. */
    bool rebuilt = false;
};

/**
 * Incrementally repair a schedule after a structural edge delta.
 *
 * @p old_sched was built for @p old_a; @p new_a agrees with @p old_a on
 * every row before @p first_dirty_row (identical row_ptr prefix through
 * that index, same rows()). Boundaries at diagonals <= first_dirty_row
 * + row_ptr[first_dirty_row] lie on the unchanged merge-path prefix and
 * are kept verbatim; the remaining boundaries are re-placed evenly over
 * the dirty suffix with windowed diagonal searches — O(threads · log
 * nnz) instead of a full rebuild's O(threads · log nnz) over the whole
 * matrix PLUS the schedule-wide re-census, which is where the real
 * rebuild cost lives. Falls back to a full build (rebuilt = true) when
 * the delta starts at row 0 or the kept prefix would leave the suffix
 * threads more than 2x over the balanced cost.
 *
 * Emits schedule.repairs / schedule.repair_ns (and
 * schedule.repair_rebuilds on fallback).
 */
ScheduleRepair repair_schedule(const MergePathSchedule &old_sched,
                               const CsrMatrix &old_a,
                               const CsrMatrix &new_a,
                               index_t first_dirty_row);

} // namespace mps

#endif // MPS_CORE_SCHEDULE_H
