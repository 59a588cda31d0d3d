#include "mps/core/spmm.h"

#include <algorithm>
#include <vector>

#include "carry.h"
#include "mps/core/locality.h"
#include "mps/core/microkernel.h"
#include "mps/core/policy.h"
#include "mps/sparse/delta_csr.h"
#include "mps/sparse/spgemm.h"
#include "mps/util/log.h"
#include "mps/util/metrics.h"
#include "mps/util/work_steal_pool.h"
#include "mps/util/trace.h"

namespace mps {

namespace {

/**
 * One column panel of the gather/commit datapath: the traversal reads
 * B columns [b_col, b_col + dim) and writes C columns
 * [c_col, c_col + dim), with output rows indirected through @p scatter
 * (nullptr = identity; reorder-aware execution passes the inverse
 * permutation). The tiled kernels keep b_col == c_col; the fused
 * pipeline gathers from a freshly written panel buffer (b_col = 0)
 * while committing to the real output columns. @p prefetch > 0
 * prefetches every line of the B panel row of the non-zero that many
 * positions ahead of the read cursor. @p epi,
 * when non-null, runs on every finished row, batched per executor:
 * rows finished at plain commits (full row ownership, value final) by
 * the sweep, split rows by the carry fix-up.
 */
struct PanelContext
{
    index_t b_col = 0;
    index_t c_col = 0;
    index_t dim = 0; ///< panel width, b.cols() when untiled
    index_t prefetch = 0;
    const index_t *scatter = nullptr;
    PanelEpilogue epi = nullptr;
    const void *epi_ctx = nullptr;

    index_t out_row(index_t row) const {
        return scatter != nullptr ? scatter[row] : row;
    }
};

/**
 * Commit @p acc to output row @p row with plain stores: a row the
 * thread owns whole (@p final — the value is done, so the row joins
 * the executor's epilogue @p batch while its line is hot) or the first
 * part of a split row, which no other thread writes during the sweep.
 */
inline void
commit_plain(DenseMatrix &c, index_t row, const value_t *acc,
             const PanelContext &panel, const RowKernels &rk, bool final,
             EpilogueBatch &batch)
{
    value_t *crow = c.row(panel.out_row(row)) + panel.c_col;
    rk.commit_plain(crow, acc, panel.dim);
    if (final)
        batch.add(crow, row);
}

/**
 * Per-executor write census (the runtime counterpart of Figure 5's
 * atomic-vs-plain write distribution; "atomic" counts the parts of
 * split rows, which the carry fix-up finishes). Each executor of a
 * parallel_for owns one cacheline-aligned accumulator and bumps it with
 * plain stores; the sums reach the metrics registry in one flush per
 * SpMM instead of up to three contended counter_add calls per scheduled
 * task. The epilogue batch census rides in the same slot.
 */
struct alignas(64) CommitCensus
{
    int64_t atomics = 0;
    int64_t plains = 0;
    int64_t nnz = 0;
    EpilogueCount epilogue;
};

void
flush_census(MetricsRegistry &metrics, const CommitCensus *census,
             size_t count)
{
    CommitCensus total;
    for (size_t i = 0; i < count; ++i) {
        total.atomics += census[i].atomics;
        total.plains += census[i].plains;
        total.nnz += census[i].nnz;
        total.epilogue.rows += census[i].epilogue.rows;
        total.epilogue.calls += census[i].epilogue.calls;
    }
    if (total.atomics > 0)
        metrics.counter_add("spmm.mergepath.atomic_commits",
                            total.atomics);
    if (total.plains > 0)
        metrics.counter_add("spmm.mergepath.plain_commits", total.plains);
    if (total.nnz > 0)
        metrics.counter_add("spmm.mergepath.nnz_processed", total.nnz);
    flush_epilogue_count(metrics, total.epilogue);
}

/**
 * Execute one thread's share of Algorithm 2. @p acc is a caller-owned
 * scratch buffer of at least dim elements (the paper's T[0,:]/T[1,:]
 * thread-local storage; one buffer suffices because the commits are
 * sequential within a thread). A head that continues a split row
 * accumulates straight into the thread's carry slot instead; the
 * fix-up pass adds it. Finished rows reach the panel epilogue in
 * batches, the last one flushed before returning. @p census is the
 * executing worker's write-census accumulator, or nullptr when the
 * census is off; @p epi_count (may be null) receives the epilogue
 * batch census.
 */
void
run_thread_work(const CsrMatrix &a, const DenseMatrix &b, DenseMatrix &c,
                const MergePathSchedule &sched, index_t t, value_t *acc,
                const CarrySlots &carries, const PanelContext &panel,
                const RowKernels &rk, CommitCensus *census,
                EpilogueCount *epi_count)
{
    ResolvedWork w = sched.resolve(t, a);
    EpilogueBatch batch(panel.epi, panel.epi_ctx, panel.c_col, panel.dim,
                        epi_count);
    const auto share = [&](index_t row, index_t begin, index_t end,
                           bool partial) {
        const bool continues = begin > a.row_begin(row);
        gather_nonzeros(a, b, panel.b_col, panel.dim, panel.prefetch,
                        begin, end, continues ? carries.slot(t) : acc, rk);
        if (!continues)
            commit_plain(c, row, acc, panel, rk, !partial, batch);
    };

    if (w.has_head())
        share(w.head_row, w.head_begin, w.head_end, w.head_atomic);
    for (index_t row = w.first_complete_row; row < w.last_complete_row;
         ++row)
        share(row, a.row_begin(row), a.row_end(row), false);
    if (w.has_tail())
        share(w.tail_row, w.tail_begin, w.tail_end, w.tail_atomic);
    batch.flush();

    if (census != nullptr) {
        if (w.has_head()) {
            (w.head_atomic ? census->atomics : census->plains) += 1;
            census->nnz += w.head_end - w.head_begin;
        }
        if (w.last_complete_row > w.first_complete_row) {
            census->plains += w.last_complete_row - w.first_complete_row;
            census->nnz += a.row_begin(w.last_complete_row) -
                           a.row_begin(w.first_complete_row);
        }
        if (w.has_tail()) {
            (w.tail_atomic ? census->atomics : census->plains) += 1;
            census->nnz += w.tail_end - w.tail_begin;
        }
    }
}

void
check_shapes(const CsrMatrix &a, const DenseMatrix &b, const DenseMatrix &c)
{
    MPS_CHECK(b.rows() == a.cols(), "B rows (", b.rows(),
              ") must equal A cols (", a.cols(), ")");
    MPS_CHECK(c.rows() == a.rows() && c.cols() == b.cols(),
              "C must be A.rows x B.cols");
}

} // namespace

void
mergepath_spmm_sequential(const CsrMatrix &a, const DenseMatrix &b,
                          DenseMatrix &c, const MergePathSchedule &sched,
                          const SpmmLocality &loc)
{
    check_shapes(a, b, c);
    c.fill(0.0f);
    const index_t dim = b.cols();
    const index_t tile = loc.tiled(dim) ? loc.tile_d : dim;
    MetricsRegistry &metrics = MetricsRegistry::global();
    const bool instrumented = metrics.enabled();
    const SplitRowList split = sched.split_row_list(a);
    CommitCensus census;
    int64_t sweeps = 0;
    for (index_t col = 0; col < dim; col += tile) {
        PanelContext panel{col, col, std::min(tile, dim - col),
                           loc.prefetch, loc.row_scatter};
        const RowKernels &rk = select_row_kernels(panel.dim);
        value_t *acc = microkernel_scratch(panel.dim);
        const CarrySlots carries =
            carry_slots(sched.num_threads(), panel.dim);
        // The write census describes the schedule, not the sweep
        // count: count it on the first panel only.
        CommitCensus *cs =
            instrumented && col == 0 ? &census : nullptr;
        for (index_t t = 0; t < sched.num_threads(); ++t)
            run_thread_work(a, b, c, sched, t, acc, carries, panel, rk,
                            cs, nullptr);
        apply_carries(split, carries, c, panel.c_col, panel.dim,
                      panel.scatter, nullptr, nullptr, rk, nullptr);
        ++sweeps;
    }
    if (instrumented) {
        flush_census(metrics, &census, 1);
        metrics.counter_add("locality.tile_sweeps", sweeps);
    }
}

void
mergepath_spmm_sequential(const CsrMatrix &a, const DenseMatrix &b,
                          DenseMatrix &c, const MergePathSchedule &sched)
{
    mergepath_spmm_sequential(a, b, c, sched, SpmmLocality{});
}

void
mergepath_spmm_parallel(const CsrMatrix &a, const DenseMatrix &b,
                        DenseMatrix &c, const MergePathSchedule &sched,
                        WorkStealPool &pool, const SpmmLocality &loc)
{
    check_shapes(a, b, c);
    ScopedSpan span("spmm.mergepath", "kernel");
    MetricsRegistry &metrics = MetricsRegistry::global();
    if (metrics.enabled()) {
        // Derived load-imbalance gauge: the largest thread share over
        // the mean share. Merge-path guarantees this stays ~1.0; the
        // row-split baselines have no such bound.
        int64_t max_items = 0;
        for (const ThreadWork &w : sched.work()) {
            int64_t items =
                (w.end.row - w.start.row) + (w.end.nz - w.start.nz);
            max_items = std::max(max_items, items);
        }
        int64_t total = static_cast<int64_t>(a.rows()) + a.nnz();
        double mean = sched.num_threads() == 0
                          ? 0.0
                          : static_cast<double>(total) /
                                static_cast<double>(sched.num_threads());
        metrics.gauge_set("spmm.mergepath.load_imbalance",
                          mean == 0.0 ? 1.0
                                      : static_cast<double>(max_items) /
                                            mean);
        metrics.gauge_set("spmm.mergepath.threads",
                          static_cast<double>(sched.num_threads()));
        metrics.counter_add("spmm.mergepath.runs");
    }
    c.fill(0.0f);
    const index_t dim = b.cols();
    const index_t tile = loc.tiled(dim) ? loc.tile_d : dim;
    const bool instrumented = metrics.enabled();
    const SplitRowList split = sched.split_row_list(a);
    // One write-census accumulator per pool executor, merged into the
    // registry once per SpMM (first panel only — the census describes
    // the schedule's write structure, which every sweep repeats).
    // Entries are cacheline-aligned and each is written only by its
    // owning executor; the pool's completion acquire/release makes the
    // final read race-free.
    std::vector<CommitCensus> census;
    if (instrumented)
        census.resize(pool.max_concurrency());
    int64_t sweeps = 0;
    for (index_t col = 0; col < dim; col += tile) {
        PanelContext panel{col, col, std::min(tile, dim - col),
                           loc.prefetch, loc.row_scatter};
        const RowKernels &rk = select_row_kernels(panel.dim);
        const bool count = instrumented && col == 0;
        const CarrySlots carries =
            carry_slots(sched.num_threads(), panel.dim);
        // Grain is left to the pool: it derives the chunk size from
        // the schedule's thread count and the pool width, so a tiny
        // schedule still fans out while a huge one is not over-chunked
        // (the old fixed grain=8 serialized any schedule of <= 8
        // threads).
        pool.parallel_for(
            static_cast<uint64_t>(sched.num_threads()), [&](uint64_t t) {
                // Per-worker aligned scratch, reused across tasks —
                // the accumulator never hits the allocator on the hot
                // path.
                value_t *acc = microkernel_scratch(panel.dim);
                CommitCensus *cs =
                    count ? &census[pool.current_slot()] : nullptr;
                run_thread_work(a, b, c, sched, static_cast<index_t>(t),
                                acc, carries, panel, rk, cs, nullptr);
            });
        apply_carries(split, carries, c, panel.c_col, panel.dim,
                      panel.scatter, nullptr, nullptr, rk, nullptr);
        ++sweeps;
    }
    if (instrumented) {
        flush_census(metrics, census.data(), census.size());
        metrics.counter_add("locality.tile_sweeps", sweeps);
    }
}

void
mergepath_spmm_parallel(const CsrMatrix &a, const DenseMatrix &b,
                        DenseMatrix &c, const MergePathSchedule &sched,
                        WorkStealPool &pool)
{
    mergepath_spmm_parallel(
        a, b, c, sched, pool,
        default_spmm_locality(b.rows(), b.cols(),
                              storage_elem_bytes(b.storage())));
}

void
mergepath_spmm(const CsrMatrix &a, const DenseMatrix &b, DenseMatrix &c,
               WorkStealPool &pool)
{
    const MergePathSchedule sched = MergePathSchedule::build_with_cost(
        a, cpu_merge_path_cost(a.rows(), a.nnz(), b.cols(), pool.size()));
    mergepath_spmm_parallel(a, b, c, sched, pool);
}

namespace {

void
check_panel_shapes(const CsrMatrix &a, const DenseMatrix &b, index_t b_col0,
                   const DenseMatrix &c, index_t c_col0, index_t width)
{
    MPS_CHECK(b.rows() == a.cols(), "B rows (", b.rows(),
              ") must equal A cols (", a.cols(), ")");
    MPS_CHECK(c.rows() == a.rows(), "C rows (", c.rows(),
              ") must equal A rows (", a.rows(), ")");
    MPS_CHECK(width > 0 && b_col0 >= 0 && b_col0 + width <= b.cols(),
              "B panel [", b_col0, ", ", b_col0 + width,
              ") out of range for ", b.cols(), " cols");
    MPS_CHECK(c_col0 >= 0 && c_col0 + width <= c.cols(), "C panel [",
              c_col0, ", ", c_col0 + width, ") out of range for ",
              c.cols(), " cols");
}

} // namespace

void
mergepath_spmm_panel(const CsrMatrix &a, const DenseMatrix &b,
                     index_t b_col0, DenseMatrix &c, index_t c_col0,
                     index_t width, const MergePathSchedule &sched,
                     const SplitRowList &split, WorkStealPool &pool,
                     const SpmmLocality &loc, PanelEpilogue epi,
                     const void *epi_ctx, bool count_census)
{
    check_panel_shapes(a, b, b_col0, c, c_col0, width);
    MetricsRegistry &metrics = MetricsRegistry::global();
    const bool count = count_census && metrics.enabled();
    // The write census counts the first panel only; the epilogue batch
    // census counts every sweep that has an epilogue.
    std::vector<CommitCensus> census;
    if (metrics.enabled() && (count_census || epi != nullptr))
        census.resize(pool.max_concurrency());
    const auto slot = [&]() -> CommitCensus * {
        return census.empty() ? nullptr : &census[pool.current_slot()];
    };
    PanelContext panel{b_col0,       c_col0, width, loc.prefetch,
                       loc.row_scatter, epi,  epi_ctx};
    const RowKernels &rk = select_row_kernels(width);
    const CarrySlots carries = carry_slots(sched.num_threads(), width);
    pool.parallel_for(
        static_cast<uint64_t>(sched.num_threads()), [&](uint64_t t) {
            value_t *acc = microkernel_scratch(width);
            CommitCensus *cs = slot();
            run_thread_work(a, b, c, sched, static_cast<index_t>(t), acc,
                            carries, panel, rk, count ? cs : nullptr,
                            cs != nullptr ? &cs->epilogue : nullptr);
        });
    // After the barrier the caller's executor slot is free again.
    CommitCensus *cs = slot();
    apply_carries(split, carries, c, c_col0, width, loc.row_scatter, epi,
                  epi_ctx, rk, cs != nullptr ? &cs->epilogue : nullptr);
    if (!census.empty())
        flush_census(metrics, census.data(), census.size());
}

void
sparse_dense_matmul(const CsrMatrix &x, const DenseMatrix &w,
                    DenseMatrix &out, WorkStealPool &pool)
{
    MPS_CHECK(x.cols() == w.rows(), "inner dimensions differ: ", x.cols(),
              " vs ", w.rows());
    MPS_CHECK(out.rows() == x.rows() && out.cols() == w.cols(),
              "output must be ", x.rows(), "x", w.cols());
    const index_t dim = w.cols();
    const RowKernels &rk = select_row_kernels(dim);
    // Row blocks are sized by the pool from (rows, width) — a
    // ~100-row graph no longer collapses into one serial 128-row
    // chunk, and a million-row one no longer pays thousands of chunk
    // claims.
    pool.parallel_for_ranges(
        static_cast<uint64_t>(x.rows()), [&](uint64_t begin, uint64_t end) {
            for (index_t r = static_cast<index_t>(begin);
                 r < static_cast<index_t>(end); ++r) {
                value_t *orow = out.row(r);
                rk.zero(orow, dim);
                for (index_t k = x.row_begin(r); k < x.row_end(r); ++k)
                    rk.axpy(orow, x.values()[k], w.row(x.col_idx()[k]),
                            dim);
            }
        });
}

namespace {

/** Apply dirty row @p i's corrections onto C (full width, plain add). */
inline void
correct_dirty_row(const DeltaCsr &dcsr, index_t i, const DenseMatrix &b,
                  DenseMatrix &c, const index_t *scatter, value_t *acc,
                  const RowKernels &rk)
{
    const index_t dim = b.cols();
    rk.zero(acc, dim);
    dcsr.for_each_correction(
        i, [&](index_t col, value_t corr, value_t, bool) {
            rk.axpy(acc, corr, b.row(col), dim);
        });
    const index_t row = dcsr.dirty_row(i);
    value_t *crow = c.row(scatter != nullptr ? scatter[row] : row);
    rk.add(crow, acc, dim);
}

} // namespace

void
delta_correction_pass(const DeltaCsr &dcsr, const DenseMatrix &b,
                      DenseMatrix &c, WorkStealPool &pool,
                      const SpmmLocality &loc)
{
    const index_t dirty = dcsr.num_dirty_rows();
    if (dirty == 0)
        return;
    check_shapes(dcsr.base(), b, c);
    const RowKernels &rk = select_row_kernels(b.cols());
    const index_t *scatter = loc.row_scatter;
    pool.parallel_for_ranges(
        static_cast<uint64_t>(dirty), [&](uint64_t begin, uint64_t end) {
            value_t *acc = microkernel_scratch(b.cols());
            for (index_t i = static_cast<index_t>(begin);
                 i < static_cast<index_t>(end); ++i)
                correct_dirty_row(dcsr, i, b, c, scatter, acc, rk);
        });
    MetricsRegistry &metrics = MetricsRegistry::global();
    if (metrics.enabled()) {
        metrics.counter_add("spmm.delta.corrected_rows", dirty);
        metrics.counter_add("spmm.delta.correction_nnz",
                            dcsr.delta_edges());
    }
}

void
delta_correction_pass(const DeltaCsr &dcsr, const DenseMatrix &b,
                      DenseMatrix &c)
{
    const index_t dirty = dcsr.num_dirty_rows();
    if (dirty == 0)
        return;
    check_shapes(dcsr.base(), b, c);
    const RowKernels &rk = select_row_kernels(b.cols());
    value_t *acc = microkernel_scratch(b.cols());
    for (index_t i = 0; i < dirty; ++i)
        correct_dirty_row(dcsr, i, b, c, nullptr, acc, rk);
}

void
delta_correction_panel(const DeltaCsr &dcsr, const DenseMatrix &b,
                       index_t b_col0, DenseMatrix &c, index_t c_col0,
                       index_t width, WorkStealPool &pool,
                       const index_t *row_scatter)
{
    const index_t dirty = dcsr.num_dirty_rows();
    if (dirty == 0)
        return;
    check_panel_shapes(dcsr.base(), b, b_col0, c, c_col0, width);
    const RowKernels &rk = select_row_kernels(width);
    pool.parallel_for_ranges(
        static_cast<uint64_t>(dirty), [&](uint64_t begin, uint64_t end) {
            value_t *acc = microkernel_scratch(width);
            for (index_t i = static_cast<index_t>(begin);
                 i < static_cast<index_t>(end); ++i) {
                rk.zero(acc, width);
                dcsr.for_each_correction(
                    i, [&](index_t col, value_t corr, value_t, bool) {
                        rk.axpy(acc, corr, b.row(col) + b_col0, width);
                    });
                const index_t row = dcsr.dirty_row(i);
                value_t *crow = c.row(row_scatter != nullptr
                                          ? row_scatter[row]
                                          : row) +
                                c_col0;
                rk.add(crow, acc, width);
            }
        });
    MetricsRegistry &metrics = MetricsRegistry::global();
    if (metrics.enabled()) {
        metrics.counter_add("spmm.delta.corrected_rows", dirty);
        metrics.counter_add("spmm.delta.correction_nnz",
                            dcsr.delta_edges());
    }
}

void
dynamic_spmm_parallel(const DeltaCsr &dcsr, const DenseMatrix &b,
                      DenseMatrix &c, const MergePathSchedule &sched,
                      WorkStealPool &pool, const SpmmLocality &loc)
{
    mergepath_spmm_parallel(dcsr.base(), b, c, sched, pool, loc);
    delta_correction_pass(dcsr, b, c, pool, loc);
}

void
dynamic_spmm_parallel(const DeltaCsr &dcsr, const DenseMatrix &b,
                      DenseMatrix &c, const MergePathSchedule &sched,
                      WorkStealPool &pool)
{
    dynamic_spmm_parallel(
        dcsr, b, c, sched, pool,
        default_spmm_locality(b.rows(), b.cols(),
                              storage_elem_bytes(b.storage())));
}

void
dynamic_spmm_sequential(const DeltaCsr &dcsr, const DenseMatrix &b,
                        DenseMatrix &c, const MergePathSchedule &sched)
{
    mergepath_spmm_sequential(dcsr.base(), b, c, sched);
    delta_correction_pass(dcsr, b, c);
}

void
reference_spmm(const CsrMatrix &a, const DenseMatrix &b, DenseMatrix &c)
{
    check_shapes(a, b, c);
    // The gold kernel pins the scalar path so tests comparing a SIMD
    // kernel against it exercise two genuinely different datapaths.
    const RowKernels &rk =
        select_row_kernels(b.cols(), MicrokernelPath::kScalar);
    const index_t dim = b.cols();
    for (index_t r = 0; r < a.rows(); ++r) {
        value_t *crow = c.row(r);
        rk.zero(crow, dim);
        for (index_t k = a.row_begin(r); k < a.row_end(r); ++k)
            rk.axpy(crow, a.values()[k], b.row(a.col_idx()[k]), dim);
    }
}

} // namespace mps
