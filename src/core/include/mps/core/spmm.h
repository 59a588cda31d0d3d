/**
 * @file
 * MergePath-SpMM kernels (Algorithm 2): C = A * B with A sparse (CSR)
 * and B, C dense row-major. Thread-local accumulation buffers hold the
 * row sums; complete rows are plain stores. A row split across threads
 * gets one partial sum per contributing thread, parked in that
 * thread's carry slot and added into C in thread order after the sweep
 * (the carry fix-up, see SplitRowList). No float atomics: for a fixed
 * schedule every entry point below produces bit-identical output,
 * sequential or parallel, on any pool size.
 */
#ifndef MPS_CORE_SPMM_H
#define MPS_CORE_SPMM_H

#include "mps/core/locality.h"
#include "mps/core/schedule.h"
#include "mps/sparse/csr_matrix.h"
#include "mps/sparse/dense_matrix.h"

namespace mps {

class WorkStealPool;
class DeltaCsr;

/**
 * Execute MergePath-SpMM single-threaded, processing the schedule's
 * thread shares one after another. Bit-identical to the parallel
 * version on the same schedule; used as the reference for the schedule
 * logic.
 *
 * @param a     sparse input, rows x cols CSR
 * @param b     dense input, a.cols() x d
 * @param c     dense output, a.rows() x d (overwritten)
 * @param sched merge-path schedule built for @p a
 */
void mergepath_spmm_sequential(const CsrMatrix &a, const DenseMatrix &b,
                               DenseMatrix &c,
                               const MergePathSchedule &sched);

/**
 * Sequential execution with explicit locality options (column tiling,
 * prefetch distance). Per output element the
 * accumulation order is independent of the tiling — the panel loop
 * partitions columns, never the non-zero stream — so tiling is
 * bit-identical to the untiled run on the same schedule whenever every
 * panel boundary lands on a SIMD block boundary (tile_d a multiple of
 * 16, which every auto-tuned width is). Arbitrary widths remain exact
 * up to the usual FMA-vs-mul/add rounding in sub-block tails.
 */
void mergepath_spmm_sequential(const CsrMatrix &a, const DenseMatrix &b,
                               DenseMatrix &c,
                               const MergePathSchedule &sched,
                               const SpmmLocality &loc);

/**
 * Execute MergePath-SpMM on @p pool, one task per schedule thread.
 * Complete rows use plain stores as in the paper; split rows go through
 * the carry fix-up instead of the paper's atomic adds. Locality
 * options resolve from
 * the process defaults (MPS_TILE_D / MPS_PREFETCH, auto-tuned from the
 * detected L2 size).
 */
void mergepath_spmm_parallel(const CsrMatrix &a, const DenseMatrix &b,
                             DenseMatrix &c,
                             const MergePathSchedule &sched,
                             WorkStealPool &pool);

/**
 * Parallel execution with explicit locality options. When loc.tile_d
 * tiles b.cols(), the merge-path traversal runs once per column panel
 * against the same schedule (one diagonal search, d/tile_d sweeps), each
 * panel finishing its split rows in its own fix-up pass.
 */
void mergepath_spmm_parallel(const CsrMatrix &a, const DenseMatrix &b,
                             DenseMatrix &c,
                             const MergePathSchedule &sched,
                             WorkStealPool &pool,
                             const SpmmLocality &loc);

/**
 * Convenience: build a schedule at the CPU cost for b.cols() and the
 * pool's width (cpu_merge_path_cost) and run in parallel.
 */
void mergepath_spmm(const CsrMatrix &a, const DenseMatrix &b,
                    DenseMatrix &c, WorkStealPool &pool);

/** Plain row-by-row sequential SpMM: the gold reference for tests. */
void reference_spmm(const CsrMatrix &a, const DenseMatrix &b,
                    DenseMatrix &c);

/**
 * One finished output row handed to a PanelEpilogue: @p crow =
 * &C(row, c_col0) (or its staging row when streamed), the start of the
 * row's width-wide slice, and @p row, the traversal row id, so
 * structural epilogues can index side inputs.
 */
struct FinishedRow
{
    value_t *crow;
    index_t row;
};

/**
 * Finished rows an executor collects before it calls the epilogue:
 * three 16-lane vectors of rows, so a combining epilogue's register
 * tile (gcn/gemm.cpp) uses each weight it broadcasts on 48 rows.
 */
constexpr int kEpilogueBatchRows = 48;

/**
 * Output epilogue of the fused pipeline, called on a batch of
 * @p count (1 <= count <= kEpilogueBatchRows) rows whose values are
 * final. Every executor of the sweep collects the rows it finishes —
 * plain commits, which own the whole row, and in the carry fix-up the
 * split rows once their carries are summed — and hands them over in
 * batches, flushing its partial batch before it returns. So each row's
 * epilogue runs exactly once, on the executor that owns the row, before
 * the panel barrier; the rows of one batch need not be adjacent in C
 * or in traversal order.
 */
using PanelEpilogue = void (*)(const FinishedRow *rows, int count,
                               index_t c_col0, index_t width,
                               const void *ctx);

/**
 * The "caller supplies the next B-panel" entry point: ONE merge-path
 * sweep of @p sched computing
 *   C[:, c_col0 : c_col0+width) = A * B[:, b_col0 : b_col0+width)
 * where @p b is typically a freshly written panel buffer (b_col0 = 0)
 * rather than a full-width operand. Every row of C's target columns
 * is stored, so C needs no zero-fill. The caller owns the panel loop
 * and reuses one schedule, and its @p split list
 * (sched.split_row_list(a)), across panels exactly like the tiled
 * kernels. @p epi, when non-null,
 * runs once on every finished row, in batches (see PanelEpilogue); with
 * metrics enabled the batches are counted into fusion.epilogue_rows and
 * fusion.epilogue_calls. With @p c == nullptr the sweep streams: no
 * output is written, @p epi (then required) sees each finished row in
 * a per-executor staging tile with c_col0 = 0, and only the first
 * parts of split rows are kept, in a |split| x width panel, until the
 * carry fix-up finishes them. @p count_census folds this sweep into
 * the spmm.mergepath.* write census — pass true on the first panel
 * only. Bit-identical per element to the unfused
 * full-width sweep whenever every panel boundary lands on a SIMD block
 * boundary (width a multiple of 16 for all but the last panel).
 */
void mergepath_spmm_panel(const CsrMatrix &a, const DenseMatrix &b,
                          index_t b_col0, DenseMatrix *c, index_t c_col0,
                          index_t width, const MergePathSchedule &sched,
                          const SplitRowList &split, WorkStealPool &pool,
                          const SpmmLocality &loc, PanelEpilogue epi,
                          const void *epi_ctx, bool count_census);

/**
 * Overlay correction pass of the dynamic-graph datapath: for every
 * dirty row r of @p dcsr, add sum_k corr_k * B[col_k] onto C's row r.
 * Run AFTER a base-matrix SpMM into @p c; base + correction equals SpMM
 * over the materialized base ∪ overlay. Plain (non-atomic) adds — each
 * dirty row is owned by exactly one executor. Cost is O(delta · d),
 * independent of the base nnz: the hot gather loop never sees the
 * overlay. Runs delta_correction_panel at full width; @p loc is
 * unused, kept while bench/e2e/probes.cpp passes it (ROADMAP 1(b)).
 */
void delta_correction_pass(const DeltaCsr &dcsr, const DenseMatrix &b,
                           DenseMatrix &c, WorkStealPool &pool,
                           const SpmmLocality &loc);

/** Sequential correction pass (deterministic reference). */
void delta_correction_pass(const DeltaCsr &dcsr, const DenseMatrix &b,
                           DenseMatrix &c);

/**
 * Panel-wise correction pass for the fused pipeline: like
 * delta_correction_pass but restricted to output columns
 * [c_col0, c_col0+width), gathering from @p b columns
 * [b_col0, b_col0+width) — so it can run against the fused panel
 * buffer right after each mergepath_spmm_panel sweep, before the
 * buffer is overwritten. Must run BEFORE any activation of the panel
 * (SpMM -> correction -> activation, same order as the unfused path).
 */
void delta_correction_panel(const DeltaCsr &dcsr, const DenseMatrix &b,
                            index_t b_col0, DenseMatrix &c, index_t c_col0,
                            index_t width, WorkStealPool &pool);

/**
 * C = (base ∪ overlay) * B: unmodified merge-path traversal of
 * dcsr.base() under @p sched (which was built for the BASE matrix and
 * stays valid across every DeltaCsr::apply()), then the correction
 * pass. Exact in real arithmetic; bitwise equal to the rebuilt-CSR
 * SpMM whenever row sums are order-independent.
 */
void dynamic_spmm_parallel(const DeltaCsr &dcsr, const DenseMatrix &b,
                           DenseMatrix &c, const MergePathSchedule &sched,
                           WorkStealPool &pool, const SpmmLocality &loc);

void dynamic_spmm_parallel(const DeltaCsr &dcsr, const DenseMatrix &b,
                           DenseMatrix &c, const MergePathSchedule &sched,
                           WorkStealPool &pool);

/** Sequential dynamic SpMM (deterministic reference for tests). */
void dynamic_spmm_sequential(const DeltaCsr &dcsr, const DenseMatrix &b,
                             DenseMatrix &c,
                             const MergePathSchedule &sched);

} // namespace mps

#endif // MPS_CORE_SPMM_H
