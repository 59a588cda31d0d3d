#include "mps/gcn/model.h"

#include <utility>
#include <vector>

#include "mps/core/fusion.h"
#include "mps/core/microkernel.h"
#include "mps/core/precision.h"
#include "mps/core/schedule_cache.h"
#include "mps/gcn/gemm.h"
#include "mps/kernels/registry.h"
#include "mps/util/log.h"
#include "mps/util/metrics.h"
#include "mps/util/timer.h"
#include "mps/util/trace.h"

namespace mps {

namespace {

/**
 * Whether layer 0, planned as @p plan, computes its XW on the AMX
 * tiles: gemm_panel_source runs them for a bf16 plan on kernels with a
 * fused plan (the ones that gather at the operand's storage), fused or
 * unfused in one full-width panel, for every panel amx_gemm_fits().
 */
bool
gemm_runs_on_amx(const CsrMatrix &a, const GcnLayer &layer,
                 const SpmmKernel &kernel, const LayerPlanInfo &plan)
{
    if (plan.aggregate_first || plan.precision != StorageMode::kBf16 ||
        !amx_gemm_enabled())
        return false;
    const index_t depth = layer.in_features();
    const index_t dim = plan.sparse_width;
    FusedLayerPlan *fused = kernel.fused_plan(a, dim);
    if (fused == nullptr || !amx_gemm_fits(depth, dim))
        return false;
    if (!fusion_enabled())
        return true;
    // Panels are the tile wide, the last one the remainder of dim: a
    // tile of whole 16-column groups keeps every one of them on AMX.
    fused->set_precision(plan.precision); // as fused_infer will
    return amx_gemm_fits(depth, fused->tile()) &&
           amx_gemm_fits(depth, fused->run_tile());
}

/**
 * Whether a layer planned as @p plan (swept by @p fused) rank-updates
 * the next layer's XW on the AMX tiles and hands it a bf16_panel():
 * both layers combine first at bf16 under fusion, the tiles are
 * enabled, @p next's weights fit them, and the layer sweeps its width
 * in one panel — the tile product needs whole rows, so a narrower
 * panel keeps the vector tile.
 */
bool
rank_update_runs_on_amx(const GcnLayer &next, const LayerPlanInfo &plan,
                        const LayerPlanInfo &next_plan,
                        FusedLayerPlan *fused)
{
    if (!fusion_enabled() || fused == nullptr || plan.aggregate_first ||
        next_plan.aggregate_first || plan.precision != StorageMode::kBf16 ||
        next_plan.precision != StorageMode::kBf16 ||
        !amx_rank_update_enabled() ||
        !amx_rank_update_fits(next.weights().rows(), next.weights().cols()))
        return false;
    fused->set_precision(plan.precision); // as fused_infer will
    return fused->tile() >= plan.sparse_width;
}

} // namespace

GcnModel::GcnModel(const std::string &kernel_name, ScheduleMode mode)
    : kernel_name_(kernel_name), mode_(mode),
      schedule_cache_(&ScheduleCache::global())
{
}

void
GcnModel::add_layer(GcnLayer layer)
{
    if (!layers_.empty()) {
        MPS_CHECK(layers_.back().out_features() == layer.in_features(),
                  "layer widths must chain: previous out ",
                  layers_.back().out_features(), ", next in ",
                  layer.in_features());
    }
    layers_.push_back(std::move(layer));
    kernels_.push_back(make_spmm_kernel(kernel_name_));
    kernels_.back()->set_schedule_cache(schedule_cache_);
    prepared_rows_ = -1; // invalidate the offline cache
    prepared_nnz_ = -1;
}

void
GcnModel::set_schedule_cache(ScheduleCache *cache)
{
    schedule_cache_ = cache;
    for (auto &kernel : kernels_)
        kernel->set_schedule_cache(cache);
    prepared_rows_ = -1; // schedules must be re-resolved from the cache
    prepared_nnz_ = -1;
}

GcnModel
GcnModel::two_layer(index_t in_features, index_t hidden, index_t classes,
                    uint64_t seed, const std::string &kernel_name,
                    ScheduleMode mode)
{
    GcnModel model(kernel_name, mode);
    model.add_layer(GcnLayer(random_layer_weights(in_features, hidden,
                                                  seed),
                             Activation::kRelu));
    model.add_layer(GcnLayer(random_layer_weights(hidden, classes,
                                                  seed + 1),
                             Activation::kNone));
    return model;
}

std::vector<LayerPlanInfo>
GcnModel::layer_plans(const CsrMatrix &a) const
{
    std::vector<LayerPlanInfo> plans;
    plans.reserve(layers_.size());
    for (size_t i = 0; i < layers_.size(); ++i) {
        LayerPlanInfo p;
        p.aggregate_first = layers_[i].aggregates_first(a);
        p.sparse_width = p.aggregate_first ? layers_[i].in_features()
                                           : layers_[i].out_features();
        // An aggregate-first layer 0 gathers the caller's const X,
        // which the model cannot quantize; every other sparse operand
        // is model-owned (XW panels and accumulators, handed-off H).
        p.precision = p.aggregate_first && i == 0 ? StorageMode::kF32
                                                  : precision_;
        plans.push_back(p);
    }
    return plans;
}

void
GcnModel::prepare_all(const CsrMatrix &a)
{
    const std::vector<LayerPlanInfo> plans = layer_plans(a);
    MetricsRegistry &metrics = MetricsRegistry::global();
    publish_microkernel_gauges();
    for (size_t i = 0; i < layers_.size(); ++i) {
        kernels_[i]->prepare(a, plans[i].sparse_width);
        if (metrics.enabled()) {
            const std::string layer = "gcn.layer" + std::to_string(i);
            metrics.gauge_set(layer + ".aggregate_first",
                              plans[i].aggregate_first ? 1.0 : 0.0);
            metrics.gauge_set(layer + ".sparse_width",
                              static_cast<double>(plans[i].sparse_width));
            metrics.gauge_set(layer + ".gemm_amx",
                              i == 0 && gemm_runs_on_amx(a, layers_[0],
                                                         *kernels_[0],
                                                         plans[0])
                                  ? 1.0
                                  : 0.0);
            FusedLayerPlan *fused =
                fusion_enabled()
                    ? kernels_[i]->fused_plan(a, plans[i].sparse_width)
                    : nullptr;
            const bool feeds_xw =
                i + 1 < layers_.size() && !plans[i + 1].aggregate_first;
            const bool rank_amx =
                feeds_xw && rank_update_runs_on_amx(layers_[i + 1],
                                                    plans[i], plans[i + 1],
                                                    fused);
            metrics.gauge_set(layer + ".rank_amx", rank_amx ? 1.0 : 0.0);
            if (fused != nullptr) {
                // The panels fused_infer sweeps: streamed (tile()) into
                // an epilogue that hands rows on, else materialized by
                // run() (run_tile()), at the model's precision.
                fused->set_precision(precision_); // as fused_infer will
                const bool streamed = plans[i].aggregate_first || feeds_xw;
                const index_t width =
                    streamed ? fused->tile() : fused->run_tile();
                const index_t prefetch =
                    streamed ? fused->locality().prefetch
                             : fused->run_locality().prefetch;
                metrics.gauge_set(layer + ".tile_d",
                                  static_cast<double>(width));
                metrics.gauge_set(layer + ".prefetch_distance",
                                  static_cast<double>(prefetch));
            }
        }
    }
    prepared_rows_ = a.rows();
    prepared_nnz_ = a.nnz();
}

bool
GcnModel::fused_infer(const CsrMatrix &a, const DenseMatrix &x,
                      WorkStealPool &pool, DenseMatrix &result)
{
    if (!fusion_enabled())
        return false;
    // Every layer must offer a fused plan, or the whole inference
    // falls back — mixing fused and unfused layers would still
    // materialize the intermediates the pipeline exists to avoid.
    const size_t n_layers = layers_.size();
    const std::vector<LayerPlanInfo> order = layer_plans(a);
    std::vector<FusedLayerPlan *> plans;
    for (size_t i = 0; i < n_layers; ++i) {
        FusedLayerPlan *plan =
            kernels_[i]->fused_plan(a, order[i].sparse_width);
        if (plan == nullptr)
            return false;
        MPS_CHECK(!order[i].aggregate_first ||
                      plan->tile() >= order[i].sparse_width,
                  "aggregate-first layer ", i,
                  " needs a one-panel plan over its input");
        plan->set_precision(precision_);
        plans.push_back(plan);
    }

    // Multi-layer pipelining: each layer hands the next one whichever
    // operand is narrower, straight from its commit epilogue while the
    // row is in L1 — the next layer's input H when that layer
    // aggregates first, else rank updates of its XW accumulator. Only
    // those handoffs and the model output are materialized.
    ScopedSpan span("gcn.infer.fused", "gcn");
    const size_t last = n_layers - 1;
    handoff_.resize(last);
    for (size_t i = 0; i < n_layers; ++i) {
        ScopedSpan layer_span("gcn.layer" + std::to_string(i) + ".fused",
                              "gcn");
        const GcnLayer &layer = layers_[i];
        // The sparse operand: the previous handoff (bf16 rows written
        // by the tile rank update, gathered as they are; or f32 rows
        // rewritten by the previous layer, so re-encoded in place at
        // reduced precision), the caller's const X (gathered at its own
        // f32 storage), or X * W0 panels.
        const PanelSourceFn src =
            i > 0 ? (handoff_[i - 1].has_f32()
                         ? handoff_panel_source(handoff_[i - 1])
                         : slice_panel_source(std::as_const(handoff_[i - 1])))
            : order[0].aggregate_first
                ? slice_panel_source(x)
                : gemm_panel_source(x, layer.weights(), pool,
                                    plans[0]->gemm_scratch(),
                                    order[0].precision);
        const bool feeds_xw = i < last && !order[i + 1].aggregate_first;
        // The tile rank update writes the next layer's operand as bf16
        // rows; every other handoff has f32 rows.
        const bool bf16_dst =
            feeds_xw && rank_update_runs_on_amx(layers_[i + 1], order[i],
                                                order[i + 1], plans[i]);
        DenseMatrix &dst = i < last ? handoff_[i] : result;
        const index_t dst_cols = feeds_xw ? layers_[i + 1].out_features()
                                          : layer.out_features();
        // Every row of dst is written below: the combine stores, the
        // rank update's first panel stores before later ones add, and
        // the last sweep stores every row. So it is not zero-filled.
        if (dst.rows() != a.rows() || dst.cols() != dst_cols ||
            dst.has_f32() == bf16_dst)
            dst = bf16_dst ? DenseMatrix::bf16_panel(a.rows(), dst_cols)
                           : DenseMatrix::for_overwrite(a.rows(), dst_cols);
        if (order[i].aggregate_first) {
            const CombineEpilogue combine = make_combine_epilogue(
                layer.activation(), layer.weights(), dst,
                feeds_xw ? &layers_[i + 1].weights() : nullptr);
            plans[i]->run_streaming(src, {}, pool, &CombineEpilogue::apply,
                                    &combine);
        } else if (feeds_xw) {
            RankUpdateEpilogue rank = make_rank_update_epilogue(
                layer.activation(), layers_[i + 1].weights(), dst);
            plans[i]->run_streaming(
                src,
                [&rank](index_t col0, index_t width) {
                    rank.w_row0 = col0 + width;
                },
                pool, &RankUpdateEpilogue::apply, &rank);
        } else {
            plans[i]->run(src, dst, pool,
                          activation_epilogue(layer.activation()));
        }
    }
    MetricsRegistry &metrics = MetricsRegistry::global();
    if (metrics.enabled() && n_layers > 1)
        metrics.counter_add("fusion.pipelined_layers",
                            static_cast<int64_t>(last));
    return true;
}

DenseMatrix
GcnModel::infer(const CsrMatrix &a, const DenseMatrix &x, WorkStealPool &pool,
                InferenceStats *stats)
{
    MPS_CHECK(!layers_.empty(), "model has no layers");
    MPS_CHECK(x.cols() == layers_.front().in_features(),
              "input feature width mismatch");

    ScopedSpan span("gcn.infer", "gcn");
    MetricsRegistry &metrics = MetricsRegistry::global();

    InferenceStats local;
    bool need_prepare =
        mode_ == ScheduleMode::kOnline ||
        prepared_rows_ != a.rows() || prepared_nnz_ != a.nnz();
    if (need_prepare) {
        ScopedSpan prepare_span("gcn.prepare", "gcn");
        Timer timer;
        prepare_all(a);
        local.schedule_seconds = timer.elapsed_seconds();
        if (metrics.enabled()) {
            metrics.timer_record_ms("gcn.prepare_ms",
                                    local.schedule_seconds * 1e3);
        }
    }

    Timer timer;
    DenseMatrix current;
    if (!fused_infer(a, x, pool, current)) {
        current = x;
        for (size_t i = 0; i < layers_.size(); ++i) {
            ScopedSpan layer_span("gcn.layer" + std::to_string(i), "gcn");
            // An aggregate-first layer gathers its input as given; a
            // model-owned H quantizes like the fused handoff does.
            if (i > 0 && precision_ != StorageMode::kF32 &&
                layers_[i].aggregates_first(a))
                quantize_dense(current, precision_, &pool);
            DenseMatrix next(a.rows(), layers_[i].out_features());
            layers_[i].forward(a, current, *kernels_[i], next, pool,
                               precision_);
            current = std::move(next);
        }
    }
    local.compute_seconds = timer.elapsed_seconds();
    if (metrics.enabled()) {
        metrics.counter_add("gcn.inferences");
        metrics.timer_record_ms("gcn.infer_ms",
                                local.compute_seconds * 1e3);
    }

    if (stats != nullptr)
        *stats = local;
    return current;
}

} // namespace mps
