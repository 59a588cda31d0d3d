#include "carry.h"

#include <algorithm>
#include <type_traits>

#include "mps/core/microkernel.h"
#include "mps/util/log.h"
#include "mps/util/metrics.h"
#include "mps/util/trace.h"
#include "row_gather.h"

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

void
flush_sweep_count(MetricsRegistry &metrics, const SweepCount &count)
{
    if (count.epilogue_calls > 0) {
        metrics.counter_add("fusion.epilogue_rows", count.epilogue_rows);
        metrics.counter_add("fusion.epilogue_calls", count.epilogue_calls);
    }
    if (count.fallback_rows > 0)
        metrics.counter_add("spmm.fallback_rows", count.fallback_rows);
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

/** The non-zeros of @p m as the gathers read them (empty range). */
NnzRange
nnz_range(const PanelSweep &p, const CsrMatrix &m)
{
    return {m.values().data(), m.col_idx().data(), 0, 0,
            p.b->padded_cols(), p.prefetch, m.nnz()};
}

/** B's panel columns at storage type @p T, row 0. */
template <class T>
const T *
operand(const PanelSweep &p)
{
    if constexpr (std::is_same_v<T, bf16_t>)
        return p.b->row_bf16(0) + p.b_col;
    else
        return p.b->row(0) + p.b_col;
}

/**
 * The per-row fallback gather (the scalar table, widths off the
 * 8-column grid, builds without SimdVec): zero(), then one RowKernels
 * axpy per non-zero.
 */
template <class T>
struct RowByRow
{
    static constexpr bool kPerRow = true;

    const PanelSweep &p;
    NnzRange r;

    RowByRow(const PanelSweep &sweep, const CsrMatrix &m)
        : p(sweep), r(nnz_range(sweep, m))
    {
    }

    void operator()(value_t *acc, index_t begin, index_t end) const
    {
        const T *x = operand<T>(p);
        p.rk->zero(acc, p.width);
        for (index_t k = begin; k < end; ++k) {
            prefetch_ahead(x, r, k, p.width);
            if constexpr (std::is_same_v<T, bf16_t>)
                p.rk->axpy_bf16(acc, r.vals[k], gather_row(x, r, k),
                                p.width);
            else
                p.rk->axpy(acc, r.vals[k], gather_row(x, r, k), p.width);
        }
    }
};

#if MPS_SIMD_VEC
/**
 * The share loop's gather: register rows at a width of full whole
 * chunks plus one of 8 * kLastEighths columns, inlined into the loop.
 */
template <class T, int kLastEighths>
struct RegisterRows
{
    static constexpr bool kPerRow = false;

    NnzRange r;
    const T *x;
    index_t full;

    RegisterRows(const PanelSweep &p, const CsrMatrix &m)
        : r(nnz_range(p, m)), x(operand<T>(p)),
          full(chunk_split(p.width).full)
    {
    }

    [[gnu::always_inline]] void operator()(value_t *acc, index_t begin,
                                           index_t end) const
    {
        NnzRange part = r;
        part.begin = begin;
        part.end = end;
        gather_chunks<T, kLastEighths>(acc, part, x, full);
    }
};
#endif // MPS_SIMD_VEC

/**
 * The share loop (see ShareLoop), with the gather and the sink fixed
 * at compile time. A row's first part is gathered straight where it
 * goes next: its row of C (stored, so C needs no zero-fill), or when
 * streamed the staging tile or its split-row head.
 */
template <class Gather, bool kStreamed>
void
share_loop(const PanelSweep &p, const CsrMatrix &m, const ResolvedWork &w,
           const index_t *row_map, index_t t, SweepCount *count)
{
    const Gather gather(p, m);
    EpilogueBatch batch(p, count);
    const auto part = [&](index_t row, index_t begin, index_t end,
                          bool partial) {
        if (begin > m.row_begin(row)) {
            gather(p.carries.slot(t), begin, end);
            return;
        }
        const index_t id = row_map != nullptr ? row_map[row] : row;
        value_t *dst;
        if constexpr (kStreamed)
            dst = partial ? p.carries.head(split_index(*p.split, id))
                          : batch.stage();
        else
            dst = p.out_row(id);
        gather(dst, begin, end);
        if (!partial)
            batch.add(dst, id);
    };

    if (w.has_head())
        part(w.head_row, w.head_begin, w.head_end, w.head_atomic);
    // The complete rows, the bulk of a share, run here rather than
    // through part, which the compiler keeps out of line.
    for (index_t row = w.first_complete_row; row < w.last_complete_row;
         ++row) {
        const index_t id = row_map != nullptr ? row_map[row] : row;
        value_t *dst;
        if constexpr (kStreamed)
            dst = batch.stage();
        else
            dst = p.out_row(id);
        gather(dst, m.row_begin(row), m.row_end(row));
        batch.add(dst, id);
    }
    if (w.has_tail())
        part(w.tail_row, w.tail_begin, w.tail_end, w.tail_atomic);
    batch.flush();
    if (Gather::kPerRow && count != nullptr &&
        w.last_complete_row > w.first_complete_row)
        count->fallback_rows += w.last_complete_row - w.first_complete_row;
}

template <class Gather>
ShareLoop
share_loop_for(const PanelSweep &p)
{
    return p.streamed() ? &share_loop<Gather, true>
                        : &share_loop<Gather, false>;
}

/** The share loop of an f32 or bf16 sweep (element type @p T). */
template <class T>
ShareLoop
select_share_loop(const PanelSweep &p)
{
#if MPS_SIMD_VEC
    if (p.rk->path == MicrokernelPath::kSimd && p.width % 8 == 0) {
        static constexpr auto kStreamed = by_last_eighths([](auto last) {
            return &share_loop<RegisterRows<T, decltype(last)::value>,
                               true>;
        });
        static constexpr auto kStored = by_last_eighths([](auto last) {
            return &share_loop<RegisterRows<T, decltype(last)::value>,
                               false>;
        });
        const auto i =
            static_cast<size_t>(chunk_split(p.width).last_eighths - 1);
        return p.streamed() ? kStreamed[i] : kStored[i];
    }
#endif
    return share_loop_for<RowByRow<T>>(p);
}

ShareLoop
select_share_loop(const PanelSweep &p)
{
    return p.b->storage() == StorageMode::kBf16
               ? select_share_loop<bf16_t>(p)
               : select_share_loop<value_t>(p);
}

} // namespace

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
    p.split = &split;
    p.rk = &select_row_kernels(width);
    p.epi = epi;
    p.epi_ctx = epi_ctx;
    p.loop = select_share_loop(p);
    p.carries =
        carry_slots(threads, c == nullptr ? split.size() : 0, width);
    return p;
}

void
run_share(const PanelSweep &p, const CsrMatrix &m,
          const MergePathSchedule &sched, const index_t *row_map,
          index_t t, WriteCensus *census, SweepCount *count)
{
    const ResolvedWork w = sched.resolve(t, m);
    p.loop(p, m, w, row_map, t, count);

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
run_rows(const PanelSweep &p, const CsrMatrix &m, index_t first,
         index_t last, SweepCount *count)
{
    ResolvedWork w;
    w.first_complete_row = first;
    w.last_complete_row = last;
    p.loop(p, m, w, nullptr, 0, count);
}

void
apply_carries(const PanelSweep &p, SweepCount *count)
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
