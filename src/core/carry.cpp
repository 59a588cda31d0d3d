#include "carry.h"

#include <algorithm>

#include "mps/core/microkernel.h"
#include "mps/util/log.h"
#include "mps/util/metrics.h"
#include "mps/util/trace.h"

namespace mps {

CarrySlots
carry_slots(index_t threads, index_t heads, index_t width)
{
    CarrySlots slots;
    slots.threads_ = threads;
    slots.stride_ = padded_row_length(width);
    const size_t bytes = static_cast<size_t>(threads + heads) *
                         static_cast<size_t>(slots.stride_) *
                         sizeof(value_t);
    if (bytes > 0)
        slots.base_.reset(static_cast<value_t *>(::operator new(
            bytes, std::align_val_t(kRowAlignBytes))));
    return slots;
}

PanelSweep
make_panel_sweep(const DenseMatrix &b, index_t b_col, DenseMatrix *c,
                 index_t c_col, index_t width, const SpmmLocality &loc,
                 const SplitRowList &split, index_t threads,
                 PanelEpilogue epi, const void *epi_ctx)
{
    MPS_CHECK(c != nullptr || epi != nullptr,
              "a streamed sweep needs an epilogue to hand its rows to");
    PanelSweep p;
    p.b = &b;
    p.b_col = b_col;
    p.prefetch = loc.prefetch;
    p.c = c;
    p.c_col = c_col;
    p.width = width;
    p.scatter = loc.row_scatter;
    p.split = &split;
    p.rk = &select_row_kernels(width);
    p.epi = epi;
    p.epi_ctx = epi_ctx;
    p.carries =
        carry_slots(threads, c == nullptr ? split.size() : 0, width);
    return p;
}

void
flush_epilogue_count(MetricsRegistry &metrics, const EpilogueCount &count)
{
    if (count.calls == 0)
        return;
    metrics.counter_add("fusion.epilogue_rows", count.rows);
    metrics.counter_add("fusion.epilogue_calls", count.calls);
}

value_t *
staging_tile(index_t ld)
{
    thread_local AlignedVector tile;
    const auto need = static_cast<size_t>(kEpilogueBatchRows) *
                      static_cast<size_t>(ld);
    if (tile.size() < need)
        tile.resize(need);
    return tile.data();
}

namespace {

/** Position of split row @p row in @p split (its rows ascend). */
index_t
split_index(const SplitRowList &split, index_t row)
{
    return static_cast<index_t>(
        std::lower_bound(split.rows.begin(), split.rows.end(), row) -
        split.rows.begin());
}

/**
 * run_share's part loop, with the sink decided once per share rather
 * than per row. A row's first part is gathered straight where it goes
 * next: its row of C (stored, so C needs no zero-fill), or when
 * streamed the staging tile or its split-row head.
 */
template <bool kStreamed>
inline void
run_parts(const PanelSweep &p, const CsrMatrix &m, const ResolvedWork &w,
          const index_t *row_map, index_t t, EpilogueCount *epi_count)
{
    EpilogueBatch batch(p, epi_count);
    const auto part = [&](index_t row, index_t begin, index_t end,
                          bool partial) {
        const auto gather = [&](value_t *dst) {
            gather_nonzeros(m, *p.b, p.b_col, p.width, p.prefetch, begin,
                            end, dst, *p.rk);
        };
        if (begin > m.row_begin(row)) {
            gather(p.carries.slot(t));
            return;
        }
        const index_t id = row_map != nullptr ? row_map[row] : row;
        if constexpr (kStreamed) {
            value_t *dst = partial
                               ? p.carries.head(split_index(*p.split, id))
                               : batch.stage();
            gather(dst);
            if (!partial)
                batch.add(dst, id);
        } else {
            value_t *crow = p.out_row(id);
            gather(crow);
            if (!partial)
                batch.add(crow, id);
        }
    };

    if (w.has_head())
        part(w.head_row, w.head_begin, w.head_end, w.head_atomic);
    for (index_t row = w.first_complete_row; row < w.last_complete_row;
         ++row)
        part(row, m.row_begin(row), m.row_end(row), false);
    if (w.has_tail())
        part(w.tail_row, w.tail_begin, w.tail_end, w.tail_atomic);
    batch.flush();
}

} // namespace

void
run_share(const PanelSweep &p, const CsrMatrix &m,
          const MergePathSchedule &sched, const index_t *row_map,
          index_t t, WriteCensus *census, EpilogueCount *epi_count)
{
    const ResolvedWork w = sched.resolve(t, m);
    if (p.streamed())
        run_parts<true>(p, m, w, row_map, t, epi_count);
    else
        run_parts<false>(p, m, w, row_map, t, epi_count);

    if (census == nullptr)
        return;
    if (w.has_head()) {
        (w.head_atomic ? census->atomics : census->plains) += 1;
        census->nnz += w.head_end - w.head_begin;
    }
    if (w.last_complete_row > w.first_complete_row) {
        census->plains += w.last_complete_row - w.first_complete_row;
        census->nnz += m.row_begin(w.last_complete_row) -
                       m.row_begin(w.first_complete_row);
    }
    if (w.has_tail()) {
        (w.tail_atomic ? census->atomics : census->plains) += 1;
        census->nnz += w.tail_end - w.tail_begin;
    }
}

void
apply_carries(const PanelSweep &p, EpilogueCount *count)
{
    const SplitRowList &split = *p.split;
    if (split.empty())
        return;
    ScopedSpan span("spmm.carry_fixup", "kernel");
    EpilogueBatch batch(p, count);
    for (index_t i = 0; i < split.size(); ++i) {
        const index_t row = split.rows[static_cast<size_t>(i)];
        value_t *crow = p.streamed() ? p.carries.head(i) : p.out_row(row);
        for (index_t k = split.offsets[static_cast<size_t>(i)];
             k < split.offsets[static_cast<size_t>(i) + 1]; ++k)
            p.rk->add(crow,
                      p.carries.slot(split.slots[static_cast<size_t>(k)]),
                      p.width);
        batch.add(crow, row);
    }
    batch.flush();
}

} // namespace mps
