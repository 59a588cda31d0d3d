#include "mps/core/fusion.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "mps/core/hybrid.h"
#include "mps/core/precision.h"
#include "mps/util/log.h"
#include "mps/util/metrics.h"
#include "mps/util/timer.h"
#include "mps/util/trace.h"
#include "mps/util/work_steal_pool.h"

namespace mps {

namespace {

bool
parse_fusion_env()
{
    const char *v = std::getenv("MPS_FUSE");
    if (v == nullptr)
        return true;
    std::string s(v);
    if (s == "0" || s == "off" || s == "false" || s == "no")
        return false;
    if (s == "1" || s == "on" || s == "true" || s == "yes" || s.empty())
        return true;
    warn("unrecognized MPS_FUSE value '" + s +
         "' (want 0/1/on/off); fusion stays on");
    return true;
}

} // namespace

bool
fusion_enabled()
{
    static const bool on = parse_fusion_env();
    return on;
}

void
FusedLayerPlan::derive_tiles()
{
    // An auto width is sized at the bytes the sweeps gather: a bf16
    // panel stores half the bytes of an f32 one, so where the f32
    // operand needs two panels the bf16 one may fit in one. The
    // lookahead follows the width unless MPS_PREFETCH pins it.
    // Explicit widths are honored in both modes.
    const index_t eb = storage_elem_bytes(precision_);
    const bool auto_prefetch = locality_env().prefetch_auto;
    if (loc_.auto_width) {
        loc_.tile_d = auto_fused_tile_d(a_->cols(), dim_, eb);
        if (auto_prefetch)
            loc_.prefetch = auto_prefetch_distance(
                loc_.tiled(dim_) ? loc_.tile_d : dim_, eb);
    }
    tile_ = loc_.tiled(dim_) ? loc_.tile_d : dim_;
    // run() materializes into a full-width C. When the auto tuner
    // picked the width and the whole n x dim operand is LLC-resident,
    // narrow panels cannot cut traffic there — each one only re-pays
    // the merge traversal and commits through strided column stores —
    // so run() widens to a single full-width panel. Streaming keeps
    // the narrow width: its panels are the residency the pipeline is
    // built on.
    run_tile_ = tile_;
    run_loc_ = loc_;
    if (loc_.auto_width && tile_ < dim_) {
        const int64_t padded = (dim_ + 15) / 16 * 16;
        const int64_t operand_bytes = static_cast<int64_t>(a_->cols()) *
                                      padded * static_cast<int64_t>(eb);
        if (operand_bytes <= detected_llc_bytes()) {
            run_tile_ = dim_;
            run_loc_.tile_d = 0;
            if (auto_prefetch)
                run_loc_.prefetch = auto_prefetch_distance(dim_, eb);
        }
    }
}

FusedLayerPlan::FusedLayerPlan(const CsrMatrix &a, index_t dim,
                               std::shared_ptr<const MergePathSchedule> sched,
                               SpmmLocality loc)
    : a_(&a), dim_(dim), sched_(std::move(sched)), loc_(loc)
{
    MPS_CHECK(sched_ != nullptr, "fused plan needs a schedule");
    MPS_CHECK(dim_ > 0, "fused plan needs a positive dimension");
    derive_tiles();
    split_ = sched_->split_row_list(a);
}

FusedLayerPlan::FusedLayerPlan(const CsrMatrix &a, index_t dim,
                               std::shared_ptr<const HybridSchedule> hybrid,
                               SpmmLocality loc)
    : a_(&a), dim_(dim), hybrid_(std::move(hybrid)), loc_(loc)
{
    MPS_CHECK(hybrid_ != nullptr, "fused plan needs a schedule");
    MPS_CHECK(dim_ > 0, "fused plan needs a positive dimension");
    derive_tiles();
    // Only tail rows can be split across executors; dense-band rows
    // are owned by exactly one dense chunk and epilogue inline.
    split_ = hybrid_->split_row_list(a);
}

void
FusedLayerPlan::quantize_source(const PanelSource &src, index_t col,
                                index_t width, WorkStealPool &pool)
{
    DenseMatrix *q = src.quantizable;
    if (q == nullptr)
        return;
    // A rewritten operand's shadow is stale whatever the plan's
    // precision: an f32 plan drops it (quantize_dense to kF32) rather
    // than gather last run's values. Encode passes count as
    // fusion.encodes.
    const auto encode = [&](index_t ncols) {
        quantize_dense(*q, precision_, &pool, ncols);
        MetricsRegistry &metrics = MetricsRegistry::global();
        if (precision_ != StorageMode::kF32 && metrics.enabled())
            metrics.counter_add("fusion.encodes");
    };
    switch (src.fresh) {
    case Freshness::kPanel:
        encode(width);
        return;
    case Freshness::kRun:
        if (col == 0)
            encode(-1);
        return;
    case Freshness::kStable:
        if (precision_ != StorageMode::kF32 && q->storage() != precision_)
            encode(-1);
        return;
    }
}

void
FusedLayerPlan::sweep_panel(const PanelSource &src, DenseMatrix *c,
                            index_t c_col0, index_t width,
                            WorkStealPool &pool, const SpmmLocality &loc,
                            PanelEpilogue epi, const void *epi_ctx,
                            bool count_census)
{
    if (hybrid_ != nullptr) {
        hybrid_spmm_panel(*a_, *hybrid_, split_, *src.b, src.col_begin,
                          c, c_col0, width, pool, loc, epi, epi_ctx,
                          count_census);
    } else {
        mergepath_spmm_panel(*a_, *src.b, src.col_begin, c, c_col0,
                             width, *sched_, split_, pool, loc, epi,
                             epi_ctx, count_census);
    }
}

void
FusedLayerPlan::run(const PanelSourceFn &source, DenseMatrix &c,
                    WorkStealPool &pool, PanelEpilogue epi,
                    const void *epi_ctx, const PanelPostSweepFn &post_sweep)
{
    MPS_CHECK(c.rows() == a_->rows() && c.cols() == dim_,
              "fused output must be ", a_->rows(), "x", dim_);
    ScopedSpan span("spmm.fused", "kernel");
    Timer wall;
    int64_t panels = 0;
    for (index_t col = 0; col < dim_; col += run_tile_) {
        const index_t width = std::min(run_tile_, dim_ - col);
        const PanelSource src = source(col, width);
        MPS_CHECK(src.b != nullptr, "panel source returned no operand");
        quantize_source(src, col, width, pool);
        sweep_panel(src, &c, col, width, pool, run_loc_, epi, epi_ctx,
                    /*count_census=*/col == 0);
        if (post_sweep)
            post_sweep(col, width, src);
        ++panels;
    }
    MetricsRegistry &metrics = MetricsRegistry::global();
    if (metrics.enabled()) {
        metrics.counter_add("fusion.runs");
        metrics.counter_add("fusion.panels", panels);
        metrics.histogram_record("kernel.fused.exec_ms",
                                 wall.elapsed_ms());
    }
}

void
FusedLayerPlan::run_streaming(const PanelSourceFn &source,
                              const PanelConsumerFn &consume,
                              WorkStealPool &pool, PanelEpilogue epi,
                              const void *epi_ctx)
{
    MPS_CHECK(epi != nullptr,
              "a streamed run hands its rows to an epilogue");
    ScopedSpan span("spmm.fused.stream", "kernel");
    Timer wall;
    int64_t panels = 0;
    for (index_t col = 0; col < dim_; col += tile_) {
        const index_t width = std::min(tile_, dim_ - col);
        const PanelSource src = source(col, width);
        MPS_CHECK(src.b != nullptr, "panel source returned no operand");
        quantize_source(src, col, width, pool);
        sweep_panel(src, /*c=*/nullptr, /*c_col0=*/0, width, pool, loc_,
                    epi, epi_ctx, /*count_census=*/col == 0);
        if (consume)
            consume(col, width);
        ++panels;
    }
    MetricsRegistry &metrics = MetricsRegistry::global();
    if (metrics.enabled()) {
        metrics.counter_add("fusion.runs");
        metrics.counter_add("fusion.stream_runs");
        metrics.counter_add("fusion.panels", panels);
        metrics.histogram_record("kernel.fused.exec_ms",
                                 wall.elapsed_ms());
    }
}

} // namespace mps
