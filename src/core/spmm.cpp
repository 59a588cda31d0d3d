#include "mps/core/spmm.h"

#include <algorithm>
#include <vector>

#include "carry.h"
#include "mps/core/locality.h"
#include "mps/core/microkernel.h"
#include "mps/core/policy.h"
#include "mps/sparse/delta_csr.h"
#include "mps/util/log.h"
#include "mps/util/metrics.h"
#include "mps/util/work_steal_pool.h"
#include "mps/util/trace.h"

namespace mps {

namespace {

/**
 * Per-executor census slot: the write census and the sweep census
 * (see carry.h). Each executor of a parallel_for owns one
 * cacheline-aligned slot and bumps it with plain stores; the sums
 * reach the metrics registry in one flush per SpMM instead of up to
 * three contended counter_add calls per scheduled task.
 */
struct alignas(64) CommitCensus
{
    WriteCensus writes;
    SweepCount sweep;
};

void
flush_census(MetricsRegistry &metrics, const CommitCensus *census,
             size_t count)
{
    CommitCensus total;
    for (size_t i = 0; i < count; ++i) {
        total.writes.merge(census[i].writes);
        total.sweep.merge(census[i].sweep);
    }
    if (total.writes.atomics > 0)
        metrics.counter_add("spmm.mergepath.atomic_commits",
                            total.writes.atomics);
    if (total.writes.plains > 0)
        metrics.counter_add("spmm.mergepath.plain_commits",
                            total.writes.plains);
    if (total.writes.nnz > 0)
        metrics.counter_add("spmm.mergepath.nnz_processed",
                            total.writes.nnz);
    flush_sweep_count(metrics, total.sweep);
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
    const index_t dim = b.cols();
    const index_t tile = loc.tiled(dim) ? loc.tile_d : dim;
    MetricsRegistry &metrics = MetricsRegistry::global();
    const bool instrumented = metrics.enabled();
    const SplitRowList split = sched.split_row_list(a);
    CommitCensus census;
    int64_t sweeps = 0;
    for (index_t col = 0; col < dim; col += tile) {
        const PanelSweep p =
            make_panel_sweep(b, col, &c, col, std::min(tile, dim - col),
                             loc, split, sched.num_threads(), nullptr,
                             nullptr);
        // The write census describes the schedule, not the sweep
        // count: count it on the first panel only.
        WriteCensus *cs =
            instrumented && col == 0 ? &census.writes : nullptr;
        SweepCount *sc = instrumented ? &census.sweep : nullptr;
        for (index_t t = 0; t < sched.num_threads(); ++t)
            run_share(p, a, sched, t, cs, sc);
        apply_carries(p, sc);
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
    const index_t dim = b.cols();
    const index_t tile = loc.tiled(dim) ? loc.tile_d : dim;
    const bool instrumented = metrics.enabled();
    const SplitRowList split = sched.split_row_list(a);
    // One census slot per pool executor, merged into the registry once
    // per SpMM. The write census counts the first panel only (it
    // describes the schedule's write structure, which every sweep
    // repeats); the sweep census counts every panel. Entries are
    // cacheline-aligned and each is written only by its owning
    // executor; the pool's completion acquire/release makes the final
    // read race-free.
    std::vector<CommitCensus> census;
    if (instrumented)
        census.resize(pool.max_concurrency());
    int64_t sweeps = 0;
    for (index_t col = 0; col < dim; col += tile) {
        const PanelSweep p =
            make_panel_sweep(b, col, &c, col, std::min(tile, dim - col),
                             loc, split, sched.num_threads(), nullptr,
                             nullptr);
        const bool count = instrumented && col == 0;
        // Grain is left to the pool: it derives the chunk size from
        // the schedule's thread count and the pool width, so a tiny
        // schedule still fans out while a huge one is not over-chunked
        // (the old fixed grain=8 serialized any schedule of <= 8
        // threads).
        pool.parallel_for(
            static_cast<uint64_t>(sched.num_threads()), [&](uint64_t t) {
                CommitCensus *slot =
                    instrumented ? &census[pool.current_slot()] : nullptr;
                run_share(p, a, sched, static_cast<index_t>(t),
                          count ? &slot->writes : nullptr,
                          slot != nullptr ? &slot->sweep : nullptr);
            });
        apply_carries(p, instrumented ? &census[pool.current_slot()].sweep
                                      : nullptr);
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
                   const DenseMatrix *c, index_t c_col0, index_t width)
{
    MPS_CHECK(b.rows() == a.cols(), "B rows (", b.rows(),
              ") must equal A cols (", a.cols(), ")");
    MPS_CHECK(width > 0 && b_col0 >= 0 && b_col0 + width <= b.cols(),
              "B panel [", b_col0, ", ", b_col0 + width,
              ") out of range for ", b.cols(), " cols");
    if (c == nullptr)
        return;
    MPS_CHECK(c->rows() == a.rows(), "C rows (", c->rows(),
              ") must equal A rows (", a.rows(), ")");
    MPS_CHECK(c_col0 >= 0 && c_col0 + width <= c->cols(), "C panel [",
              c_col0, ", ", c_col0 + width, ") out of range for ",
              c->cols(), " cols");
}

} // namespace

void
mergepath_spmm_panel(const CsrMatrix &a, const DenseMatrix &b,
                     index_t b_col0, DenseMatrix *c, index_t c_col0,
                     index_t width, const MergePathSchedule &sched,
                     const SplitRowList &split, WorkStealPool &pool,
                     const SpmmLocality &loc, PanelEpilogue epi,
                     const void *epi_ctx, bool count_census)
{
    check_panel_shapes(a, b, b_col0, c, c_col0, width);
    MetricsRegistry &metrics = MetricsRegistry::global();
    const bool count = count_census && metrics.enabled();
    // The write census counts the first panel only; the sweep census
    // counts every sweep.
    std::vector<CommitCensus> census;
    if (metrics.enabled())
        census.resize(pool.max_concurrency());
    const auto slot = [&]() -> CommitCensus * {
        return census.empty() ? nullptr : &census[pool.current_slot()];
    };
    const PanelSweep p =
        make_panel_sweep(b, b_col0, c, c_col0, width, loc, split,
                         sched.num_threads(), epi, epi_ctx);
    pool.parallel_for(
        static_cast<uint64_t>(sched.num_threads()), [&](uint64_t t) {
            CommitCensus *cs = slot();
            run_share(p, a, sched, static_cast<index_t>(t),
                      count && cs != nullptr ? &cs->writes : nullptr,
                      cs != nullptr ? &cs->sweep : nullptr);
        });
    // After the barrier the caller's executor slot is free again.
    CommitCensus *cs = slot();
    apply_carries(p, cs != nullptr ? &cs->sweep : nullptr);
    if (!census.empty())
        flush_census(metrics, census.data(), census.size());
}

namespace {

/**
 * Add dirty row @p i's corrections, gathered from @p b columns
 * [b_col0, b_col0 + width), onto @p crow (plain add).
 */
inline void
correct_dirty_row(const DeltaCsr &dcsr, index_t i, const DenseMatrix &b,
                  index_t b_col0, index_t width, value_t *crow,
                  value_t *acc, const RowKernels &rk)
{
    rk.zero(acc, width);
    dcsr.for_each_correction(
        i, [&](index_t col, value_t corr, value_t, bool) {
            rk.axpy(acc, corr, b.row(col) + b_col0, width);
        });
    rk.add(crow, acc, width);
}

} // namespace

void
delta_correction_pass(const DeltaCsr &dcsr, const DenseMatrix &b,
                      DenseMatrix &c, WorkStealPool &pool,
                      const SpmmLocality &)
{
    if (dcsr.num_dirty_rows() == 0)
        return;
    check_shapes(dcsr.base(), b, c);
    delta_correction_panel(dcsr, b, 0, c, 0, b.cols(), pool);
}

void
delta_correction_pass(const DeltaCsr &dcsr, const DenseMatrix &b,
                      DenseMatrix &c)
{
    const index_t dirty = dcsr.num_dirty_rows();
    if (dirty == 0)
        return;
    check_shapes(dcsr.base(), b, c);
    const index_t dim = b.cols();
    const RowKernels &rk = select_row_kernels(dim);
    value_t *acc = microkernel_scratch(dim);
    for (index_t i = 0; i < dirty; ++i)
        correct_dirty_row(dcsr, i, b, 0, dim, c.row(dcsr.dirty_row(i)), acc,
                          rk);
}

void
delta_correction_panel(const DeltaCsr &dcsr, const DenseMatrix &b,
                       index_t b_col0, DenseMatrix &c, index_t c_col0,
                       index_t width, WorkStealPool &pool)
{
    const index_t dirty = dcsr.num_dirty_rows();
    if (dirty == 0)
        return;
    check_panel_shapes(dcsr.base(), b, b_col0, &c, c_col0, width);
    const RowKernels &rk = select_row_kernels(width);
    pool.parallel_for_ranges(
        static_cast<uint64_t>(dirty), [&](uint64_t begin, uint64_t end) {
            value_t *acc = microkernel_scratch(width);
            for (index_t i = static_cast<index_t>(begin);
                 i < static_cast<index_t>(end); ++i)
                correct_dirty_row(dcsr, i, b, b_col0, width,
                                  c.row(dcsr.dirty_row(i)) + c_col0, acc,
                                  rk);
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
