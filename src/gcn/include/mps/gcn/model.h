/**
 * @file
 * Multi-layer GCN inference with online vs. offline scheduling.
 *
 * Offline: the aggregation kernel's schedule is computed once per graph
 * and reused across inferences (the default; GNNAdvisor pre-processes
 * its neighbor partitions the same way). Online: the schedule is
 * recomputed on every inference, modelling an evolving graph — the
 * setting of the paper's Figure 8, which shows the merge-path schedule
 * costs only ~2% of a 2-layer inference.
 */
#ifndef MPS_GCN_MODEL_H
#define MPS_GCN_MODEL_H

#include <memory>
#include <string>
#include <vector>

#include "mps/gcn/layer.h"

namespace mps {

class ScheduleCache;

/** When the aggregation schedule is (re)built. */
enum class ScheduleMode {
    kOffline, ///< prepare once per graph, reuse across inferences
    kOnline,  ///< prepare on every inference
};

/** Host-side timing breakdown of one inference. */
struct InferenceStats
{
    double schedule_seconds = 0.0; ///< kernel prepare() time
    double compute_seconds = 0.0;  ///< GEMM + SpMM + activation time
    double total_seconds() const {
        return schedule_seconds + compute_seconds;
    }
    double overhead_fraction() const {
        double t = total_seconds();
        return t == 0.0 ? 0.0 : schedule_seconds / t;
    }
};

/** One layer's plan decision on a graph (GcnModel::layer_plans). */
struct LayerPlanInfo
{
    /** (A * H) * W rather than A * (H * W) (see aggregate_first()). */
    bool aggregate_first = false;
    /** Width of the layer's sparse traversal (in or out features). */
    index_t sparse_width = 0;
    /**
     * Storage the traversal gathers at: the model's precision, except
     * kF32 for an aggregate-first layer 0, which gathers the caller's
     * const features. (Only the merge-path kernel honors a reduced
     * precision; the others always read f32.)
     */
    StorageMode precision = StorageMode::kF32;
};

/** A stack of GCN layers sharing one aggregation kernel. */
class GcnModel
{
  public:
    /**
     * @param kernel_name aggregation SpMM kernel (registry name)
     * @param mode        schedule construction policy
     */
    explicit GcnModel(const std::string &kernel_name = "mergepath",
                      ScheduleMode mode = ScheduleMode::kOffline);

    /** Append a layer; widths must chain (checked at inference). */
    void add_layer(GcnLayer layer);

    /**
     * Build a standard 2-layer GCN: f -> hidden (ReLU) -> classes
     * (identity), with deterministic random weights.
     */
    static GcnModel two_layer(index_t in_features, index_t hidden,
                              index_t classes, uint64_t seed,
                              const std::string &kernel_name = "mergepath",
                              ScheduleMode mode = ScheduleMode::kOffline);

    size_t num_layers() const { return layers_.size(); }
    const GcnLayer &layer(size_t i) const { return layers_[i]; }
    ScheduleMode mode() const { return mode_; }

    /**
     * Aggregation operand precision for inference (training always
     * runs f32). Defaults to default_precision() — the cached
     * MPS_PRECISION parse — so deployments opt whole processes in via
     * the environment; call this to pin a model programmatically.
     * Accumulation stays fp32 in every mode (see DESIGN.md §12).
     */
    void set_precision(StorageMode p) { precision_ = p; }
    StorageMode precision() const { return precision_; }

    /**
     * Share merge-path schedules through @p cache (default: the
     * process-wide ScheduleCache). Layers with the same tuned cost then
     * reuse one schedule, and online-mode re-preparation stops paying
     * for rebuilds. Pass nullptr for private per-kernel schedules.
     */
    void set_schedule_cache(ScheduleCache *cache);

    /**
     * Run inference on graph @p a with input features @p x; returns the
     * final layer's output. In offline mode the first call against a
     * graph prepares the kernel and later calls reuse the schedule; a
     * different graph (detected by shape/nnz) triggers re-preparation.
     *
     * @param stats optional out-param receiving the timing breakdown
     */
    DenseMatrix infer(const CsrMatrix &a, const DenseMatrix &x,
                      WorkStealPool &pool, InferenceStats *stats = nullptr);

    /**
     * Each layer's association order, sparse width and effective
     * gather precision on graph @p a — what infer() will run. The
     * same decisions are published as gauges gcn.layer<i>.
     * {aggregate_first, sparse_width} when the graph is prepared with
     * metrics enabled, beside gcn.layer<i>.gemm_amx: 1 when the layer's
     * XW product runs on the AMX tiles (a bf16 layer 0 that combines
     * first, see gemm_panel_source), and gcn.layer<i>.rank_amx: 1 when
     * its rank update into layer i + 1's XW does (a bf16 layer swept
     * in one panel, see RankUpdateEpilogue). When the layer runs a
     * fused plan, gcn.layer<i>.{tile_d, prefetch_distance} give the
     * panel width and lookahead its sweeps use at the model's
     * precision.
     */
    std::vector<LayerPlanInfo> layer_plans(const CsrMatrix &a) const;

    /**
     * The fused pipeline's handoff from layer @p i to layer i + 1 as
     * the last forward left it: layer i + 1's input H or its XW. Its
     * rows are f32, or bf16 only (has_f32() false) when the tile rank
     * update wrote them.
     */
    const DenseMatrix &handoff(size_t i) const { return handoff_[i]; }

  private:
    void prepare_all(const CsrMatrix &a);

    /**
     * Fused multi-layer pipeline (MPS_FUSE, mps/core/fusion.h): each
     * layer's commit epilogue hands layer i+1 its input H (when that
     * layer aggregates first) or rank-updates its combination XW,
     * while the row is cache-resident. Returns false (leaving
     * @p result untouched) when fusion is disabled or any layer's
     * kernel lacks a fused plan; the caller then runs the classic
     * layer-by-layer loop.
     */
    bool fused_infer(const CsrMatrix &a, const DenseMatrix &x,
                     WorkStealPool &pool, DenseMatrix &result);

    std::vector<GcnLayer> layers_;
    // One kernel instance per layer (each layer has its own dimension,
    // hence its own schedule).
    std::vector<std::unique_ptr<SpmmKernel>> kernels_;
    std::string kernel_name_;
    ScheduleMode mode_;
    ScheduleCache *schedule_cache_; // nullptr = private per-kernel schedules
    StorageMode precision_ = default_precision();
    // fused_infer()'s inter-layer handoffs (entry i feeds layer i + 1:
    // its input H or its XW accumulator), kept across forwards so a
    // steady-state inference allocates no n x d temporaries.
    std::vector<DenseMatrix> handoff_;
    // Offline-cache identity of the last prepared graph.
    index_t prepared_rows_ = -1;
    index_t prepared_nnz_ = -1;
};

} // namespace mps

#endif // MPS_GCN_MODEL_H
