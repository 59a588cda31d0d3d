#include "mps/gcn/model.h"

#include <utility>
#include <vector>

#include "mps/core/fusion.h"
#include "mps/core/schedule_cache.h"
#include "mps/gcn/gemm.h"
#include "mps/kernels/registry.h"
#include "mps/util/log.h"
#include "mps/util/metrics.h"
#include "mps/util/timer.h"
#include "mps/util/trace.h"

namespace mps {

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
    kernels_.back()->set_reorder(reorder_);
    prepared_rows_ = -1; // invalidate the offline cache
    prepared_nnz_ = -1;
}

void
GcnModel::set_reorder(ReorderKind kind)
{
    reorder_ = kind;
    for (auto &kernel : kernels_)
        kernel->set_reorder(kind);
    prepared_rows_ = -1; // plans must be re-resolved at next prepare
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

void
GcnModel::prepare_all(const CsrMatrix &a)
{
    for (size_t i = 0; i < layers_.size(); ++i)
        kernels_[i]->prepare(a, layers_[i].out_features());
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
    std::vector<FusedLayerPlan *> plans;
    plans.reserve(layers_.size());
    for (size_t i = 0; i < layers_.size(); ++i) {
        FusedLayerPlan *plan =
            kernels_[i]->fused_plan(a, layers_[i].out_features());
        if (plan == nullptr)
            return false;
        plan->set_precision(precision_);
        plans.push_back(plan);
    }

    // Multi-layer pipelining: layer i streams its finalized output
    // panels (activation already applied in the commit epilogue)
    // straight into rank updates of layer i+1's combination — the
    // hidden matrix H_i is never materialized, only the next layer's
    // narrow XW accumulator is. The final layer materializes the
    // model output.
    ScopedSpan span("gcn.infer.fused", "gcn");
    const size_t last = layers_.size() - 1;
    xw_scratch_.resize(last);
    DenseMatrix *xw_cur = nullptr;
    for (size_t i = 0; i < layers_.size(); ++i) {
        ScopedSpan layer_span("gcn.layer" + std::to_string(i) + ".fused",
                              "gcn");
        const PanelSourceFn src =
            i == 0 ? gemm_panel_source(x, layers_[0].weights(), pool,
                                       plans[0]->gemm_scratch())
                   : slice_panel_source(*xw_cur);
        const PanelEpilogue epi =
            activation_epilogue(layers_[i].activation());
        if (i < last) {
            // Row-granular handoff: the commit epilogue applies the
            // activation AND rank-updates the next layer's XW while
            // the row is in L1 — the output panel itself is never
            // re-read (see RankUpdateEpilogue).
            const DenseMatrix &w_next = layers_[i + 1].weights();
            DenseMatrix &xw_next = xw_scratch_[i];
            if (xw_next.rows() != a.rows() ||
                xw_next.cols() != layers_[i + 1].out_features())
                xw_next = DenseMatrix(a.rows(),
                                      layers_[i + 1].out_features());
            // Back to f32 before the refill: a reduced-precision plan
            // then re-encodes the shadow rows from this forward's
            // values instead of reading the last forward's.
            xw_next.set_storage(StorageMode::kF32);
            xw_next.fill(0.0f);
            RankUpdateEpilogue rank = make_rank_update_epilogue(
                layers_[i].activation(), w_next, xw_next,
                plans[i]->locality().row_scatter);
            plans[i]->run_streaming(
                src,
                [&rank](index_t col0, index_t width, const DenseMatrix &) {
                    rank.w_row0 = col0 + width;
                },
                pool, &RankUpdateEpilogue::apply, &rank);
            xw_cur = &xw_next;
        } else {
            result = DenseMatrix(a.rows(), layers_[i].out_features());
            plans[i]->run(src, result, pool, epi);
        }
    }
    MetricsRegistry &metrics = MetricsRegistry::global();
    if (metrics.enabled() && layers_.size() > 1)
        metrics.counter_add("fusion.pipelined_layers",
                            static_cast<int64_t>(layers_.size() - 1));
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
