/**
 * @file
 * Hybrid per-row-class SpMM dispatch: dense-band row-GEMM + merge-path
 * tail in one two-phase schedule.
 *
 * The merge-path decomposition solves load balance, but it makes every
 * row pay the schedule's costs: a scratch accumulate + commit round
 * trip per row, and one carry (a partial row summed in the fix-up pass)
 * per contributing thread on every row long enough to span share
 * boundaries. HC-SpMM (PAPERS.md)
 * shows that real degree mixes are better served by routing row CLASSES
 * to different execution strategies; GE-SpMM makes the same argument
 * for dense row bands. The CPU transplant here classifies rows ONCE at
 * schedule-build time:
 *
 *  - dense class: rows the merge path serves poorly — long rows (deg >=
 *    the merge-path cost, i.e. rows the schedule would split across
 *    threads) and column-clustered rows (deg >= min_degree with a
 *    column span within span_ratio * deg; on banded Type II graphs
 *    these gather near-contiguously). Maximal runs of dense-class rows
 *    whose total nnz reaches min_band_nnz become dense BANDS, executed by a
 *    row_split-style per-row microkernel GEMM: direct accumulation into
 *    the output row (RowKernels axpy + gather prefetch), no scratch
 *    round trip, no carries — each band row is owned by exactly one
 *    executor.
 *  - tail class: everything else (the power-law tail, empty rows, short
 *    scattered rows), compacted into a tail CSR and executed by the
 *    existing merge-path schedule, split rows finished by the carry
 *    fix-up after the phases' barrier.
 *
 * Both phases are submitted to ONE WorkStealPool parallel_for as
 * sibling range jobs (tail shares first, dense chunks after), so a
 * straggler in either phase is stolen by executors that drained the
 * other. The row sets are disjoint, so the phases never write the same
 * output row and need no cross-phase synchronization.
 *
 * Bit-identity: for a fixed schedule the output is the same on any
 * pool size (the carry fix-up sums split rows in thread order). With a
 * 1-thread tail schedule it also equals plain merge-path bit for bit —
 * the dense path's direct accumulation computes 0 + sum(axpy) exactly
 * like commit_plain(0-filled dst, acc) does, in the same order with the
 * same microkernels.
 *
 * `MPS_HYBRID=0` turns classification off: every row lands in the tail
 * and the hybrid schedule degenerates to plain merge-path over the base
 * matrix (the check.sh build-nohybrid stage proves this opt-out is
 * behavior-neutral). The classification thresholds are the
 * HybridParams defaults; no environment variable overrides them.
 */
#ifndef MPS_CORE_HYBRID_H
#define MPS_CORE_HYBRID_H

#include <memory>
#include <vector>

#include "mps/core/locality.h"
#include "mps/core/schedule.h"
#include "mps/core/spmm.h"
#include "mps/sparse/csr_matrix.h"
#include "mps/sparse/dense_matrix.h"

namespace mps {

class WorkStealPool;

/**
 * The cached MPS_HYBRID parse: false for "0"/"off"/"false"/"no", true
 * otherwise (hybrid dispatch is on by default). When false,
 * classify_rows() returns an all-tail partition and HybridSchedule
 * degenerates to plain merge-path.
 */
bool hybrid_enabled();

/**
 * Minimum dense_fraction() at which executors prefer a hybrid schedule
 * over plain merge-path: below this the dense phase is too small to
 * amortize its dispatch units. AdaptiveSpmm and the serve batch
 * executor share this threshold (it lives here, not in kernels/, so
 * serve can consult it without linking the kernel registry).
 */
inline constexpr double kHybridDenseFractionMin = 0.25;

/** Row-classification thresholds (see the file comment). */
struct HybridParams
{
    /** Minimum degree for the clustered-row rule. */
    index_t min_degree = 4;
    /**
     * Column-span budget per clustered row: span <= max(span_ratio *
     * deg, min_span).
     */
    double span_ratio = 16.0;
    index_t min_span = 128;
    /**
     * Degree at which a row is dense-class regardless of span — the
     * merge path would split it across shares.
     * 0 = auto: the schedule's merge-path cost.
     */
    index_t long_degree = 0;
    /**
     * Minimum nnz for a run of dense-class rows to become a band;
     * smaller runs fall back to the tail.
     */
    int64_t min_band_nnz = 64;
};

/** A maximal run of dense-class rows [begin, end). */
struct RowBand
{
    index_t begin = 0;
    index_t end = 0;
};

/** Result of the one-shot row classification. */
struct RowClassPartition
{
    /** Sorted, disjoint dense bands. Empty = everything is tail. */
    std::vector<RowBand> bands;
    index_t dense_rows = 0;
    int64_t dense_nnz = 0;

    bool has_bands() const { return !bands.empty(); }
    /** True when the bands cover every row of an @p rows-row matrix. */
    bool all_dense(index_t rows) const {
        return dense_rows == rows && rows > 0;
    }
};

/**
 * Classify the rows of @p a. @p cost is the merge-path
 * cost the tail schedule will use; it anchors the auto long-row
 * threshold. O(rows) plus one column scan per clustered-rule candidate.
 */
RowClassPartition classify_rows(const CsrMatrix &a, const HybridParams &p,
                                index_t cost);

/**
 * The two-phase schedule: a row-class partition, per-band dense chunks
 * sized in merge items (so dense chunks and tail shares are comparable
 * work units for the steal path), and the tail's merge-path schedule
 * over a compacted tail CSR. Immutable after build; shared read-only
 * through the ScheduleCache like MergePathSchedule.
 */
class HybridSchedule
{
  public:
    /**
     * Build for @p a at merge-path cost @p cost (>= 1) with the
     * small-graph thread floor @p min_threads applied to the tail
     * schedule (0 disables), classifying rows by @p params.
     */
    static HybridSchedule build(const CsrMatrix &a, index_t cost,
                                index_t min_threads = 0,
                                const HybridParams &params = {});

    const RowClassPartition &partition() const { return partition_; }
    const HybridParams &params() const { return params_; }
    /** Band row sub-ranges of roughly cost-comparable merge items. */
    const std::vector<RowBand> &dense_chunks() const {
        return dense_chunks_;
    }

    /** True when at least one row is tail class. */
    bool has_tail() const { return tail_nnz_items_ > 0; }
    /**
     * True when NO row is dense class: the tail schedule was built on
     * the base matrix directly and tail() must not be used.
     */
    bool tail_is_base() const { return tail_is_base_; }
    /** Compacted tail matrix (only when has_tail() && !tail_is_base()). */
    const CsrMatrix &tail() const { return tail_; }
    /** tail() row -> base row (the tail's row_map). */
    const std::vector<index_t> &tail_rows() const { return tail_rows_; }
    /** Merge-path schedule of the tail (empty when !has_tail()). */
    const MergePathSchedule &tail_schedule() const { return tail_sched_; }

    /**
     * The tail schedule's split-row fix-up list with rows mapped to
     * @p a's (base) row ids; empty without a tail. @p a is the matrix
     * this schedule was built for.
     */
    SplitRowList split_row_list(const CsrMatrix &a) const;

    /** Shape of the matrix this schedule was built for. */
    index_t rows() const { return rows_; }
    index_t cols() const { return cols_; }
    index_t nnz() const { return nnz_; }

    index_t cost() const { return cost_; }
    index_t min_threads() const { return min_threads_; }

    /** Fraction of nnz routed to the dense row-GEMM phase. */
    double dense_fraction() const {
        return nnz_ == 0 ? 0.0
                         : static_cast<double>(partition_.dense_nnz) /
                               static_cast<double>(nnz_);
    }

  private:
    RowClassPartition partition_;
    HybridParams params_;
    std::vector<RowBand> dense_chunks_;
    CsrMatrix tail_;               ///< compacted tail (may be empty)
    std::vector<index_t> tail_rows_;
    MergePathSchedule tail_sched_;
    bool tail_is_base_ = true;
    int64_t tail_nnz_items_ = 0;   ///< tail rows + tail nnz
    index_t rows_ = 0;
    index_t cols_ = 0;
    index_t nnz_ = 0;
    index_t cost_ = 0;
    index_t min_threads_ = 0;

    friend HybridSchedule repair_hybrid_schedule(const HybridSchedule &,
                                                 const CsrMatrix &,
                                                 const CsrMatrix &,
                                                 index_t);
};

/**
 * Migrate a hybrid schedule across a DeltaCsr compaction: @p new_a
 * agrees with @p old_a on every row before @p first_dirty_row (the
 * repair_schedule() contract). The row-class partition is recomputed
 * with the schedule's own params — unchanged prefix rows classify
 * identically, so the partition prefix migrates verbatim — and the tail
 * schedule is repaired through repair_schedule() from the first dirty
 * TAIL row instead of rebuilt, whenever the tail row set's prefix is
 * unchanged. Falls back to a fresh build when the structure shifted
 * (e.g. the graph gained its first dense band). Emits hybrid.repairs /
 * hybrid.repair_rebuilds.
 */
HybridSchedule repair_hybrid_schedule(const HybridSchedule &old_hs,
                                      const CsrMatrix &old_a,
                                      const CsrMatrix &new_a,
                                      index_t first_dirty_row);

/**
 * One column panel of the two-phase execution (the fused pipeline's
 * entry point): C[:, c_col0:c_col0+width) = A * B[:, b_col0:+width),
 * tail shares + dense chunks submitted as sibling jobs of one
 * parallel_for, then the tail's carry fix-up over @p split
 * (hs.split_row_list(a), reused across panels). Every row of C's
 * target columns is stored (dense rows and the first parts of tail
 * rows; the fix-up adds carries onto split rows), so C needs no
 * zero-fill.
 * @p epi fires once per finished row with the BASE-matrix row id:
 * inline for dense rows and plain tail commits, in the fix-up for
 * split tail rows. With @p c == nullptr the panel streams, as
 * mergepath_spmm_panel does: rows reach only @p epi (then required).
 * @p count_census folds the tail sweep into the spmm.hybrid.* write
 * census on request.
 */
void hybrid_spmm_panel(const CsrMatrix &a, const HybridSchedule &hs,
                       const SplitRowList &split, const DenseMatrix &b,
                       index_t b_col0, DenseMatrix *c, index_t c_col0,
                       index_t width, WorkStealPool &pool,
                       const SpmmLocality &loc,
                       PanelEpilogue epi = nullptr,
                       const void *epi_ctx = nullptr,
                       bool count_census = false);

/**
 * Full C = A * B through the two-phase schedule, with the locality
 * panel loop (column tiling, prefetch) applied to both
 * phases. Records the kernel.hybrid.dense_ms / kernel.hybrid.tail_ms
 * phase histograms when metrics are enabled.
 */
void hybrid_spmm_parallel(const CsrMatrix &a, const HybridSchedule &hs,
                          const DenseMatrix &b, DenseMatrix &c,
                          WorkStealPool &pool, const SpmmLocality &loc);
void hybrid_spmm_parallel(const CsrMatrix &a, const HybridSchedule &hs,
                          const DenseMatrix &b, DenseMatrix &c,
                          WorkStealPool &pool);

/** Sequential full execution: the parallel result, on one thread. */
void hybrid_spmm_sequential(const CsrMatrix &a, const HybridSchedule &hs,
                            const DenseMatrix &b, DenseMatrix &c,
                            const SpmmLocality &loc = SpmmLocality{});

} // namespace mps

#endif // MPS_CORE_HYBRID_H
