#include "mps/core/hybrid.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "carry.h"
#include "mps/core/microkernel.h"
#include "mps/util/log.h"
#include "mps/util/metrics.h"
#include "mps/util/timer.h"
#include "mps/util/trace.h"
#include "mps/util/work_steal_pool.h"

namespace mps {

namespace {

bool
parse_hybrid_env()
{
    const char *v = std::getenv("MPS_HYBRID");
    if (v == nullptr)
        return true;
    std::string s(v);
    if (s == "0" || s == "off" || s == "false" || s == "no")
        return false;
    if (s == "1" || s == "on" || s == "true" || s == "yes" || s.empty())
        return true;
    warn("unrecognized MPS_HYBRID value '" + s +
         "' (want 0/1/on/off); hybrid dispatch stays on");
    return true;
}

} // namespace

bool
hybrid_enabled()
{
    static const bool on = parse_hybrid_env();
    return on;
}

RowClassPartition
classify_rows(const CsrMatrix &a, const HybridParams &p, index_t cost)
{
    RowClassPartition part;
    if (!hybrid_enabled())
        return part; // everything stays on the merge path
    const index_t long_deg =
        p.long_degree > 0 ? p.long_degree
                          : std::max<index_t>(cost, 32);
    const index_t *cols = a.col_idx().data();
    const auto dense_class = [&](index_t r) {
        const index_t begin = a.row_begin(r);
        const index_t end = a.row_end(r);
        const index_t deg = end - begin;
        if (deg == 0)
            return false; // empty rows cost the tail nothing
        // Long rows would span merge-path shares and pay one carry
        // per contributing thread; the row-GEMM phase
        // processes them in one owned pass.
        if (deg >= long_deg)
            return true;
        if (deg < p.min_degree)
            return false;
        // Clustered rows: column span within the per-row budget. A
        // scan (not col[end-1] - col[begin]) because CSR inputs are not
        // required to keep rows sorted; the scan only runs on rows that
        // already passed the degree gates.
        index_t lo = cols[begin], hi = cols[begin];
        for (index_t k = begin + 1; k < end; ++k) {
            lo = std::min(lo, cols[k]);
            hi = std::max(hi, cols[k]);
        }
        const double span = static_cast<double>(hi - lo + 1);
        const double budget = std::max(p.span_ratio *
                                           static_cast<double>(deg),
                                       static_cast<double>(p.min_span));
        return span <= budget;
    };

    index_t r = 0;
    while (r < a.rows()) {
        if (!dense_class(r)) {
            ++r;
            continue;
        }
        index_t end = r + 1;
        while (end < a.rows() && dense_class(end))
            ++end;
        const int64_t run_nnz = static_cast<int64_t>(a.row_begin(end)) -
                                a.row_begin(r);
        // Runs too small to amortize a dispatch unit stay on the merge
        // path, which aggregates short rows into shares for free.
        if (run_nnz >= p.min_band_nnz) {
            part.bands.push_back({r, end});
            part.dense_rows += end - r;
            part.dense_nnz += run_nnz;
        }
        r = end;
    }
    return part;
}

namespace {

/**
 * Cut the dense bands into row chunks of roughly chunk-target merge
 * items so dense chunks and tail shares are comparable steal units. A
 * single long row always forms at least one chunk (rows are the
 * indivisible unit of the dense phase).
 */
std::vector<RowBand>
build_dense_chunks(const CsrMatrix &a, const RowClassPartition &part,
                   index_t cost)
{
    std::vector<RowBand> chunks;
    const int64_t target =
        std::max<int64_t>(static_cast<int64_t>(cost) * 4, 512);
    for (const RowBand &band : part.bands) {
        index_t begin = band.begin;
        int64_t items = 0;
        for (index_t r = band.begin; r < band.end; ++r) {
            items += 1 + (a.row_end(r) - a.row_begin(r));
            if (items >= target) {
                chunks.push_back({begin, r + 1});
                begin = r + 1;
                items = 0;
            }
        }
        if (begin < band.end)
            chunks.push_back({begin, band.end});
    }
    return chunks;
}

/** Rows of @p a outside every band, in row order. */
std::vector<index_t>
collect_tail_rows(const CsrMatrix &a, const RowClassPartition &part)
{
    std::vector<index_t> tail_rows;
    tail_rows.reserve(
        static_cast<size_t>(a.rows() - part.dense_rows));
    size_t band = 0;
    for (index_t r = 0; r < a.rows(); ++r) {
        while (band < part.bands.size() && part.bands[band].end <= r)
            ++band;
        if (band < part.bands.size() && part.bands[band].begin <= r &&
            r < part.bands[band].end)
            continue;
        tail_rows.push_back(r);
    }
    return tail_rows;
}

/** Compacted copy of @p a restricted to @p tail_rows. */
CsrMatrix
compact_tail(const CsrMatrix &a, const std::vector<index_t> &tail_rows)
{
    std::vector<index_t> row_ptr(tail_rows.size() + 1, 0);
    int64_t nnz = 0;
    for (size_t i = 0; i < tail_rows.size(); ++i) {
        nnz += a.row_end(tail_rows[i]) - a.row_begin(tail_rows[i]);
        row_ptr[i + 1] = static_cast<index_t>(nnz);
    }
    std::vector<index_t> col_idx(static_cast<size_t>(nnz));
    std::vector<value_t> values(static_cast<size_t>(nnz));
    index_t out = 0;
    for (index_t row : tail_rows) {
        for (index_t k = a.row_begin(row); k < a.row_end(row); ++k) {
            col_idx[static_cast<size_t>(out)] = a.col_idx()[k];
            values[static_cast<size_t>(out)] = a.values()[k];
            ++out;
        }
    }
    return CsrMatrix(static_cast<index_t>(tail_rows.size()), a.cols(),
                     std::move(row_ptr), std::move(col_idx),
                     std::move(values));
}

} // namespace

HybridSchedule
HybridSchedule::build(const CsrMatrix &a, index_t cost, index_t min_threads,
                      const HybridParams &params)
{
    MPS_CHECK(cost >= 1, "hybrid merge-path cost must be >= 1");
    HybridSchedule hs;
    hs.rows_ = a.rows();
    hs.cols_ = a.cols();
    hs.nnz_ = a.nnz();
    hs.cost_ = cost;
    hs.min_threads_ = min_threads;
    hs.params_ = params;
    hs.partition_ = classify_rows(a, params, cost);
    hs.dense_chunks_ = build_dense_chunks(a, hs.partition_, cost);

    if (!hs.partition_.has_bands()) {
        // All-tail: traverse the base matrix directly, no copy.
        hs.tail_is_base_ = true;
        hs.tail_nnz_items_ = static_cast<int64_t>(a.rows()) + a.nnz();
        hs.tail_sched_ =
            MergePathSchedule::build_with_cost(a, cost, min_threads);
    } else if (hs.partition_.all_dense(a.rows())) {
        hs.tail_is_base_ = false;
        hs.tail_nnz_items_ = 0;
    } else {
        hs.tail_rows_ = collect_tail_rows(a, hs.partition_);
        hs.tail_ = compact_tail(a, hs.tail_rows_);
        hs.tail_is_base_ = false;
        hs.tail_nnz_items_ =
            static_cast<int64_t>(hs.tail_.rows()) + hs.tail_.nnz();
        hs.tail_sched_ = MergePathSchedule::build_with_cost(
            hs.tail_, cost, min_threads);
    }
    return hs;
}

SplitRowList
HybridSchedule::split_row_list(const CsrMatrix &a) const
{
    if (!has_tail())
        return {};
    return tail_is_base_ ? tail_sched_.split_row_list(a)
                         : tail_sched_.split_row_list(tail_,
                                                      tail_rows_.data());
}

HybridSchedule
repair_hybrid_schedule(const HybridSchedule &old_hs, const CsrMatrix &old_a,
                       const CsrMatrix &new_a, index_t first_dirty_row)
{
    MPS_CHECK(new_a.rows() == old_hs.rows_,
              "hybrid repair requires an unchanged row count");
    MetricsRegistry &metrics = MetricsRegistry::global();

    HybridSchedule hs;
    hs.rows_ = new_a.rows();
    hs.cols_ = new_a.cols();
    hs.nnz_ = new_a.nnz();
    hs.cost_ = old_hs.cost_;
    hs.min_threads_ = old_hs.min_threads_;
    hs.params_ = old_hs.params_;
    // Reclassify with the schedule's own thresholds: rows before
    // first_dirty_row are structurally unchanged, so their class (and
    // thus the partition prefix) migrates verbatim; only the dirty
    // suffix can change bands.
    hs.partition_ = classify_rows(new_a, hs.params_, hs.cost_);
    hs.dense_chunks_ = build_dense_chunks(new_a, hs.partition_, hs.cost_);

    bool rebuilt_tail = false;
    if (!hs.partition_.has_bands()) {
        hs.tail_is_base_ = true;
        hs.tail_nnz_items_ =
            static_cast<int64_t>(new_a.rows()) + new_a.nnz();
        if (old_hs.tail_is_base_ && old_hs.has_tail()) {
            ScheduleRepair r = repair_schedule(old_hs.tail_sched_, old_a,
                                               new_a, first_dirty_row);
            rebuilt_tail = r.rebuilt;
            hs.tail_sched_ = std::move(r.schedule);
        } else {
            rebuilt_tail = true;
            hs.tail_sched_ = MergePathSchedule::build_with_cost(
                new_a, hs.cost_, hs.min_threads_);
        }
    } else if (hs.partition_.all_dense(new_a.rows())) {
        hs.tail_is_base_ = false;
        hs.tail_nnz_items_ = 0;
    } else {
        hs.tail_rows_ = collect_tail_rows(new_a, hs.partition_);
        hs.tail_ = compact_tail(new_a, hs.tail_rows_);
        hs.tail_is_base_ = false;
        hs.tail_nnz_items_ =
            static_cast<int64_t>(hs.tail_.rows()) + hs.tail_.nnz();
        // The tail schedule can be repaired instead of rebuilt exactly
        // when the old tail exists over the same row count and the tail
        // row SET is unchanged before the first dirty base row — then
        // the tail matrices share an identical prefix and the
        // repair_schedule() contract holds for the compacted pair.
        const auto dirty_it =
            std::lower_bound(hs.tail_rows_.begin(), hs.tail_rows_.end(),
                             first_dirty_row);
        const index_t dirty_tail = static_cast<index_t>(
            dirty_it - hs.tail_rows_.begin());
        const bool prefix_ok =
            !old_hs.tail_is_base_ && old_hs.has_tail() &&
            old_hs.tail_.rows() == hs.tail_.rows() &&
            static_cast<index_t>(old_hs.tail_rows_.size()) >=
                dirty_tail &&
            std::equal(hs.tail_rows_.begin(), dirty_it,
                       old_hs.tail_rows_.begin());
        if (prefix_ok) {
            ScheduleRepair r = repair_schedule(
                old_hs.tail_sched_, old_hs.tail_, hs.tail_, dirty_tail);
            rebuilt_tail = r.rebuilt;
            hs.tail_sched_ = std::move(r.schedule);
        } else {
            rebuilt_tail = true;
            hs.tail_sched_ = MergePathSchedule::build_with_cost(
                hs.tail_, hs.cost_, hs.min_threads_);
        }
    }

    if (metrics.enabled()) {
        metrics.counter_add("hybrid.repairs");
        if (rebuilt_tail)
            metrics.counter_add("hybrid.repair_rebuilds");
    }
    return hs;
}

namespace {

/**
 * Per-executor phase accumulator: tail write census + dense row
 * counts + per-phase wall time + sweep census.
 * Cacheline-aligned, written only by the owning executor; the pool's
 * completion barrier makes the final aggregation race-free.
 */
struct alignas(64) PhaseSlot
{
    int64_t tail_ns = 0;
    int64_t dense_ns = 0;
    WriteCensus writes;
    int64_t dense_rows = 0;
    int64_t dense_nnz = 0;
    SweepCount sweep;
};

/** One panel's immutable execution context for both phases. */
struct HybridPanel
{
    const CsrMatrix *a = nullptr;
    const HybridSchedule *hs = nullptr;
    /** Tail partial rows go to its carry scratch (see carry.h). */
    PanelSweep sweep;
};

/**
 * Execute tail share @p t: one merge-path thread over the tail matrix,
 * whose finished rows reach the epilogue with their BASE row ids, so
 * structural epilogues index side inputs of the executed matrix, not
 * the compacted tail. @p census and @p count (may be null) receive
 * the write and the sweep census.
 */
void
run_tail_share(const HybridPanel &p, index_t t, PhaseSlot *census,
               SweepCount *count)
{
    const HybridSchedule &hs = *p.hs;
    run_share(p.sweep, hs.tail_is_base() ? *p.a : hs.tail(),
              hs.tail_schedule(),
              hs.tail_is_base() ? nullptr : hs.tail_rows().data(), t,
              census != nullptr ? &census->writes : nullptr, count);
}

/**
 * Execute dense chunk @p idx with the sweep's share loop: each row
 * gathers in registers and is stored straight where it goes — its
 * output row, or when streamed the staging tile — no scratch round
 * trip, no atomics; every band row is owned by exactly one chunk, and
 * reaches the epilogue in the chunk's batches. @p census and @p count
 * (may be null) as for run_tail_share.
 */
void
run_dense_chunk(const HybridPanel &p, size_t idx, PhaseSlot *census,
                SweepCount *count)
{
    const CsrMatrix &a = *p.a;
    const RowBand chunk = p.hs->dense_chunks()[idx];
    run_rows(p.sweep, a, chunk.begin, chunk.end, count);
    if (census != nullptr) {
        census->dense_rows += chunk.end - chunk.begin;
        census->dense_nnz +=
            a.row_begin(chunk.end) - a.row_begin(chunk.begin);
    }
}

void
check_hybrid_shapes(const CsrMatrix &a, const HybridSchedule &hs,
                    const DenseMatrix &b, index_t b_col0,
                    const DenseMatrix *c, index_t c_col0, index_t width)
{
    MPS_CHECK(a.rows() == hs.rows() && a.nnz() == hs.nnz(),
              "matrix does not match the prepared hybrid schedule (",
              a.rows(), "x", a.nnz(), " vs ", hs.rows(), "x", hs.nnz(),
              ")");
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

void
flush_phase_counters(MetricsRegistry &metrics, const PhaseSlot *slots,
                     size_t count)
{
    PhaseSlot total;
    for (size_t i = 0; i < count; ++i) {
        total.writes.merge(slots[i].writes);
        total.dense_rows += slots[i].dense_rows;
        total.dense_nnz += slots[i].dense_nnz;
        total.sweep.merge(slots[i].sweep);
    }
    if (total.writes.atomics > 0)
        metrics.counter_add("spmm.hybrid.atomic_commits",
                            total.writes.atomics);
    if (total.writes.plains > 0)
        metrics.counter_add("spmm.hybrid.plain_commits",
                            total.writes.plains);
    if (total.writes.nnz > 0)
        metrics.counter_add("spmm.hybrid.tail_nnz_processed",
                            total.writes.nnz);
    if (total.dense_rows > 0)
        metrics.counter_add("spmm.hybrid.dense_rows_written",
                            total.dense_rows);
    if (total.dense_nnz > 0)
        metrics.counter_add("spmm.hybrid.dense_nnz_processed",
                            total.dense_nnz);
    flush_sweep_count(metrics, total.sweep);
}

/**
 * One two-phase panel sweep, then the tail's carry fix-up. Tail shares
 * and dense chunks are sibling indices of ONE parallel_for on @p pool
 * (nullptr: run them in index order on the caller), so the pool's
 * stealing rebalances stragglers across the phases. @p slots (when
 * non-null) receives the sweep census, the write census when
 * @p census is set, and with @p timed the per-item wall time of the
 * owning phase.
 */
void
run_hybrid_panel(const HybridPanel &p, WorkStealPool *pool,
                 PhaseSlot *slots, bool census, bool timed)
{
    const HybridSchedule &hs = *p.hs;
    const uint64_t tail_shares =
        hs.has_tail()
            ? static_cast<uint64_t>(hs.tail_schedule().num_threads())
            : 0;
    const uint64_t items =
        tail_shares + static_cast<uint64_t>(hs.dense_chunks().size());
    const auto slot_of = [&]() -> PhaseSlot * {
        if (slots == nullptr)
            return nullptr;
        return pool != nullptr ? &slots[pool->current_slot()] : slots;
    };
    const auto run_item = [&](uint64_t i, PhaseSlot *slot) {
        Timer wall;
        PhaseSlot *cs = census ? slot : nullptr;
        SweepCount *sc = slot != nullptr ? &slot->sweep : nullptr;
        if (i < tail_shares) {
            run_tail_share(p, static_cast<index_t>(i), cs, sc);
            if (timed && slot != nullptr)
                slot->tail_ns += static_cast<int64_t>(wall.elapsed_ns());
        } else {
            run_dense_chunk(p, static_cast<size_t>(i - tail_shares), cs,
                            sc);
            if (timed && slot != nullptr)
                slot->dense_ns +=
                    static_cast<int64_t>(wall.elapsed_ns());
        }
    };
    if (pool != nullptr) {
        pool->parallel_for(items,
                           [&](uint64_t i) { run_item(i, slot_of()); });
    } else {
        for (uint64_t i = 0; i < items; ++i)
            run_item(i, slots);
    }
    // After the barrier the caller's executor slot is free again.
    PhaseSlot *slot = slot_of();
    apply_carries(p.sweep, slot != nullptr ? &slot->sweep : nullptr);
}

HybridPanel
make_panel(const CsrMatrix &a, const HybridSchedule &hs,
           const SplitRowList &split, const DenseMatrix &b, index_t b_col0,
           DenseMatrix *c, index_t c_col0, index_t width,
           const SpmmLocality &loc, PanelEpilogue epi, const void *epi_ctx)
{
    HybridPanel p;
    p.a = &a;
    p.hs = &hs;
    p.sweep = make_panel_sweep(
        b, b_col0, c, c_col0, width, loc, split,
        hs.has_tail() ? hs.tail_schedule().num_threads() : 0, epi,
        epi_ctx);
    return p;
}

} // namespace

void
hybrid_spmm_panel(const CsrMatrix &a, const HybridSchedule &hs,
                  const SplitRowList &split, const DenseMatrix &b,
                  index_t b_col0, DenseMatrix *c, index_t c_col0,
                  index_t width, WorkStealPool &pool,
                  const SpmmLocality &loc, PanelEpilogue epi,
                  const void *epi_ctx, bool count_census)
{
    check_hybrid_shapes(a, hs, b, b_col0, c, c_col0, width);
    MetricsRegistry &metrics = MetricsRegistry::global();
    const bool count = count_census && metrics.enabled();
    // The write census counts the first panel only; the sweep census
    // counts every sweep.
    std::vector<PhaseSlot> slots;
    if (metrics.enabled())
        slots.resize(pool.max_concurrency());
    const HybridPanel p = make_panel(a, hs, split, b, b_col0, c, c_col0,
                                     width, loc, epi, epi_ctx);
    run_hybrid_panel(p, &pool,
                     slots.empty() ? nullptr : slots.data(), count,
                     /*timed=*/false);
    if (!slots.empty())
        flush_phase_counters(metrics, slots.data(), slots.size());
}

void
hybrid_spmm_parallel(const CsrMatrix &a, const HybridSchedule &hs,
                     const DenseMatrix &b, DenseMatrix &c,
                     WorkStealPool &pool, const SpmmLocality &loc)
{
    check_hybrid_shapes(a, hs, b, 0, &c, 0, b.cols());
    MPS_CHECK(c.cols() == b.cols(), "C must be A.rows x B.cols");
    ScopedSpan span("spmm.hybrid", "kernel");
    MetricsRegistry &metrics = MetricsRegistry::global();
    const bool instrumented = metrics.enabled();
    const index_t dim = b.cols();
    const index_t tile = loc.tiled(dim) ? loc.tile_d : dim;
    const SplitRowList split = hs.split_row_list(a);
    std::vector<PhaseSlot> slots;
    if (instrumented)
        slots.resize(pool.max_concurrency());
    int64_t sweeps = 0;
    for (index_t col = 0; col < dim; col += tile) {
        const index_t width = std::min(tile, dim - col);
        const HybridPanel p = make_panel(a, hs, split, b, col, &c, col,
                                         width, loc, nullptr, nullptr);
        // Census on the first panel only (it describes the schedule);
        // phase timing accumulates across all panels.
        PhaseSlot *s = instrumented ? slots.data() : nullptr;
        run_hybrid_panel(p, &pool, s, /*census=*/col == 0,
                         /*timed=*/instrumented);
        ++sweeps;
    }
    if (instrumented) {
        flush_phase_counters(metrics, slots.data(), slots.size());
        int64_t dense_ns = 0, tail_ns = 0;
        for (const PhaseSlot &slot : slots) {
            dense_ns += slot.dense_ns;
            tail_ns += slot.tail_ns;
        }
        metrics.counter_add("spmm.hybrid.runs");
        metrics.counter_add("locality.tile_sweeps", sweeps);
        metrics.histogram_record("kernel.hybrid.dense_ms",
                                 static_cast<double>(dense_ns) / 1e6);
        metrics.histogram_record("kernel.hybrid.tail_ms",
                                 static_cast<double>(tail_ns) / 1e6);
    }
}

void
hybrid_spmm_parallel(const CsrMatrix &a, const HybridSchedule &hs,
                     const DenseMatrix &b, DenseMatrix &c,
                     WorkStealPool &pool)
{
    hybrid_spmm_parallel(
        a, hs, b, c, pool,
        default_spmm_locality(b.rows(), b.cols(),
                              storage_elem_bytes(b.storage())));
}

void
hybrid_spmm_sequential(const CsrMatrix &a, const HybridSchedule &hs,
                       const DenseMatrix &b, DenseMatrix &c,
                       const SpmmLocality &loc)
{
    check_hybrid_shapes(a, hs, b, 0, &c, 0, b.cols());
    MPS_CHECK(c.cols() == b.cols(), "C must be A.rows x B.cols");
    const index_t dim = b.cols();
    const index_t tile = loc.tiled(dim) ? loc.tile_d : dim;
    const SplitRowList split = hs.split_row_list(a);
    for (index_t col = 0; col < dim; col += tile) {
        const index_t width = std::min(tile, dim - col);
        const HybridPanel p = make_panel(a, hs, split, b, col, &c, col,
                                         width, loc, nullptr, nullptr);
        run_hybrid_panel(p, nullptr, nullptr, /*census=*/false,
                         /*timed=*/false);
    }
}

} // namespace mps
