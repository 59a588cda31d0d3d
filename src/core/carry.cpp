#include "carry.h"

#include "mps/core/microkernel.h"
#include "mps/util/metrics.h"
#include "mps/util/trace.h"

namespace mps {

CarrySlots
carry_slots(index_t threads, index_t width)
{
    CarrySlots slots;
    slots.stride_ = padded_row_length(width);
    const size_t bytes = static_cast<size_t>(threads) *
                         static_cast<size_t>(slots.stride_) *
                         sizeof(value_t);
    if (bytes > 0)
        slots.base_.reset(static_cast<value_t *>(::operator new(
            bytes, std::align_val_t(kRowAlignBytes))));
    return slots;
}

void
flush_epilogue_count(MetricsRegistry &metrics, const EpilogueCount &count)
{
    if (count.calls == 0)
        return;
    metrics.counter_add("fusion.epilogue_rows", count.rows);
    metrics.counter_add("fusion.epilogue_calls", count.calls);
}

void
apply_carries(const SplitRowList &split, const CarrySlots &carries,
              DenseMatrix &c, index_t c_col, index_t width,
              const index_t *scatter, PanelEpilogue epi,
              const void *epi_ctx, const RowKernels &rk,
              EpilogueCount *count)
{
    if (split.empty())
        return;
    ScopedSpan span("spmm.carry_fixup", "kernel");
    EpilogueBatch batch(epi, epi_ctx, c_col, width, count);
    for (size_t i = 0; i < split.rows.size(); ++i) {
        const index_t row = split.rows[i];
        value_t *crow =
            c.row(scatter != nullptr ? scatter[row] : row) + c_col;
        for (index_t k = split.offsets[i]; k < split.offsets[i + 1]; ++k)
            rk.add(crow, carries.slot(split.slots[static_cast<size_t>(k)]),
                   width);
        batch.add(crow, row);
    }
    batch.flush();
}

} // namespace mps
