/**
 * @file
 * Fused panel-streaming layer execution: C = act(A * (X * W)) without
 * ever materializing the full `XW` temporary.
 *
 * The unfused GCN layer pays a complete n x d round trip to DRAM per
 * layer: a tall GEMM writes XW, then the SpMM gathers it all back
 * through CSR column indices (fig_locality shows that gather is the
 * bandwidth ceiling). The fused pipeline instead produces XW
 * panel-by-panel (TILE_D-wide, auto_fused_tile_d) into a shared
 * hot-in-cache panel buffer and feeds each panel straight into the
 * merge-path traversal, reusing ONE MergePathSchedule across panels
 * exactly like the locality layer's sweep loop. The activation (and
 * any bias) folds into the commit microkernel sweep: plain commits own
 * their whole row, so the epilogue fires the moment the row is final;
 * split rows get it in the carry fix-up, the pass over the precomputed
 * split-row list that sums their carries after each panel's barrier.
 *
 * Two execution modes:
 *  - run():            materialize the layer output C (the common case);
 *  - run_streaming():  hand each finalized OUTPUT panel to a consumer
 *                      while still cache-resident. The multi-layer
 *                      pipeline goes one granularity finer: its
 *                      commit epilogue (RankUpdateEpilogue in the gcn
 *                      library) rank-updates layer L+1's XW from each
 *                      ROW the moment the sweep finalizes it — H_L is
 *                      never materialized and the output panel is
 *                      never even re-read; the consumer callback only
 *                      advances the panel's weight-row origin. An
 *                      aggregate-first layer sweeps its narrow input
 *                      instead and combines each finished row in the
 *                      epilogue (CombineEpilogue).
 *
 * `MPS_FUSE=0` disables the fused routing at every call site in the
 * gcn library and restores the exact pre-fusion execution (see
 * fusion_enabled()). It does not affect serving: the server runs
 * every batch as the fused sweep.
 * For a fixed schedule the fused output is the same on any pool size:
 * split rows sum their carries in thread order, never in completion
 * order. With panel widths that are multiples of 16, run() is also
 * bit-identical to the unfused GEMM -> SpMM -> activation on the same
 * schedule, at any thread count (tests/determinism_test.cpp).
 */
#ifndef MPS_CORE_FUSION_H
#define MPS_CORE_FUSION_H

#include <functional>
#include <memory>
#include <vector>

#include "mps/core/locality.h"
#include "mps/core/schedule.h"
#include "mps/core/spmm.h"
#include "mps/sparse/csr_matrix.h"
#include "mps/sparse/dense_matrix.h"

namespace mps {

class HybridSchedule;
class WorkStealPool;

/**
 * The cached MPS_FUSE parse: false for "0"/"off"/"false"/"no", true
 * otherwise (fusion is on by default). Call sites that grew a fused
 * branch keep the unfused one selectable through this gate.
 */
bool fusion_enabled();

/**
 * Where a panel's B operand actually lives: a source callback either
 * fills the plan's panel buffer (and points b at it with col_begin 0)
 * or returns a zero-copy view into an existing matrix (b = &xw,
 * col_begin = col0). The sweep gathers b->row(k) + col_begin.
 */
struct PanelSource
{
    const DenseMatrix *b = nullptr;
    index_t col_begin = 0;
    /**
     * Non-const alias of the operand when the source permits the plan
     * to quantize it in place (see FusedLayerPlan::set_precision).
     * nullptr = read-only source, the sweep gathers f32 regardless of
     * the plan's precision. The f32 master rows stay valid either way
     * — quantization fills shadow buffers, it never destroys the f32
     * data (delta-correction and epilogues keep reading them).
     */
    DenseMatrix *quantizable = nullptr;
    /**
     * True when the operand buffer was freshly (re)written for THIS
     * panel (a GEMM-backed source). The plan then re-encodes the shadow
     * buffers every panel, restricted to the panel's columns so stale
     * trailing columns cannot pollute int8 per-row ranges. False for
     * slice sources, which are encoded once, full-width.
     */
    bool fresh = false;
};

/**
 * Produce the B operand for output columns [col0, col0 + width).
 * A GEMM-backed source fills its own reusable buffer (allocated once,
 * at the width of the first — widest — panel) and returns {&buf, 0};
 * a slice source returns a zero-copy view {&xw, col0} into an
 * already-materialized matrix. The source owning the buffer keeps the
 * plan from allocating an n x tile buffer that a slice source would
 * never touch.
 */
using PanelSourceFn =
    std::function<PanelSource(index_t col0, index_t width)>;

/**
 * Streaming-mode consumer: receives the finalized output panel for
 * columns [col0, col0 + width) (epilogue already applied) while it is
 * still cache-resident. The panel's data lives in columns [0, width)
 * of @p out_panel and is overwritten by the next panel.
 */
using PanelConsumerFn = std::function<void(
    index_t col0, index_t width, const DenseMatrix &out_panel)>;

/**
 * Post-sweep hook of run(): called after each panel's sweep and
 * carry fix-up, with the panel's B source still valid. The
 * serve path uses it for the dynamic-graph correction pass (which must
 * see the panel operand before the buffer is rewritten) followed by
 * the panel's activation.
 */
using PanelPostSweepFn = std::function<void(
    index_t col0, index_t width, const PanelSource &src)>;

/**
 * One prepared fused execution: sparse matrix + output dimension +
 * shared schedule + locality (fused tile width, prefetch, optional
 * reorder scatter) + the precomputed split-row list the carry fix-up
 * walks after every panel. Build once per (matrix, dim), run per
 * layer call; panel buffers are lazily allocated and reused across
 * runs. The plan borrows @p a, the schedule and any scatter array —
 * it must not outlive them.
 */
class FusedLayerPlan
{
  public:
    FusedLayerPlan(const CsrMatrix &a, index_t dim,
                   std::shared_ptr<const MergePathSchedule> sched,
                   SpmmLocality loc);

    /**
     * Hybrid-dispatch plan: every panel sweep routes through
     * hybrid_spmm_panel() (dense-band row-GEMM + merge-path tail, see
     * mps/core/hybrid.h) instead of the plain merge path. The split
     * rows are the tail schedule's, mapped back to base row ids;
     * dense-band rows are always epilogued inline since exactly one
     * executor owns them.
     */
    FusedLayerPlan(const CsrMatrix &a, index_t dim,
                   std::shared_ptr<const HybridSchedule> hybrid,
                   SpmmLocality loc);

    index_t dim() const { return dim_; }
    /**
     * Resolved STREAMING panel width (== dim when running one
     * full-width panel): the width run_streaming() hands to its
     * consumer, sized so source and output panels stay cache-hot.
     */
    index_t tile() const { return tile_; }
    /**
     * Resolved run() panel width. Equal to tile() except when the
     * width was auto-derived and the whole n x dim operand fits the
     * LLC: a resident temporary leaves nothing for narrow panels to
     * save, and each extra panel re-pays the merge traversal plus
     * strided column stores into the wide output — run() then executes
     * one full-width panel. Explicit (MPS_TILE_D or caller-pinned)
     * widths are honored in both modes.
     */
    index_t run_tile() const { return run_tile_; }
    const CsrMatrix &matrix() const { return *a_; }
    /** Merge-path schedule; only valid when !uses_hybrid(). */
    const MergePathSchedule &schedule() const { return *sched_; }
    /** True when panels route through hybrid_spmm_panel(). */
    bool uses_hybrid() const { return hybrid_ != nullptr; }
    /** Hybrid schedule (nullptr unless uses_hybrid()). */
    const HybridSchedule *hybrid() const { return hybrid_.get(); }
    const SpmmLocality &locality() const { return loc_; }

    /**
     * Operand storage precision of the panel sweeps. kF32 (the default)
     * is the exact pre-existing execution. kBf16/kInt8 make the plan
     * encode each panel operand's shadow buffer (when the source marks
     * it quantizable) before the sweep, so the gather loop reads 2 or 1
     * bytes per element instead of 4; accumulation and the commit
     * protocol stay fp32. Re-derives the panel widths: quantized
     * operands fit more columns per cache level.
     */
    void set_precision(StorageMode p) {
        if (p == precision_)
            return;
        precision_ = p;
        derive_tiles();
    }
    StorageMode precision() const { return precision_; }
    /** Traversal rows split across threads (finished by the fix-up). */
    const std::vector<index_t> &shared_rows() const {
        return split_.rows;
    }

    /**
     * Plan-owned scratch for a GEMM-backed panel source (see the
     * gemm_panel_source overload taking a buffer). Sized by the source
     * on first use and reused across panels AND across run() calls, so
     * a kernel that caches its plan (MergePathSpmm::fused_plan) pays
     * the n x tile allocation once per prepared layer, not per
     * forward.
     */
    DenseMatrix &gemm_scratch() { return gemm_scratch_; }

    /**
     * Materialize C = epi(A * B) where B arrives panel-by-panel from
     * @p source. C is zero-filled first (commits add). @p epi (if any)
     * is applied exactly once to every output row of every panel: at
     * plain commits inline, to split rows in the carry fix-up after
     * the panel barrier. @p post_sweep (if any) runs after that, per
     * panel.
     */
    void run(const PanelSourceFn &source, DenseMatrix &c,
             WorkStealPool &pool, PanelEpilogue epi = nullptr,
             const void *epi_ctx = nullptr,
             const PanelPostSweepFn &post_sweep = {});

    /**
     * Streaming mode: compute each output panel into an internal
     * buffer and hand it to @p consume while hot (an empty @p consume
     * is allowed: epilogues that hand rows off themselves need none). The epilogue sees
     * panel-local column 0 (the buffer's origin), not the global col0;
     * epilogues that need the global column take it via @p consume or
     * their ctx. No full-size output is ever allocated.
     */
    void run_streaming(const PanelSourceFn &source,
                       const PanelConsumerFn &consume, WorkStealPool &pool,
                       PanelEpilogue epi = nullptr,
                       const void *epi_ctx = nullptr);

  private:
    void derive_tiles();
    void quantize_source(const PanelSource &src, index_t width,
                         WorkStealPool &pool);
    void sweep_panel(const PanelSource &src, DenseMatrix &c,
                     index_t c_col0, index_t width, WorkStealPool &pool,
                     const SpmmLocality &loc, PanelEpilogue epi,
                     const void *epi_ctx, bool count_census);

    const CsrMatrix *a_;
    index_t dim_;
    index_t tile_;     ///< streaming panel width
    index_t run_tile_; ///< run() panel width (see run_tile())
    std::shared_ptr<const MergePathSchedule> sched_;
    std::shared_ptr<const HybridSchedule> hybrid_;
    SpmmLocality loc_;     ///< streaming-mode locality
    SpmmLocality run_loc_; ///< run()-mode locality (re-derived prefetch)
    StorageMode precision_ = StorageMode::kF32;
    SplitRowList split_;
    DenseMatrix out_panel_; ///< streaming output buffer (a.rows() x tile)
    DenseMatrix gemm_scratch_; ///< panel-source buffer (see gemm_scratch())
};

/**
 * Wrap a schedule the caller owns (a kernel member, a cache entry kept
 * alive elsewhere) in the shared_ptr the plan wants, without taking
 * ownership. The caller guarantees the schedule outlives the plan.
 */
inline std::shared_ptr<const MergePathSchedule>
borrow_schedule(const MergePathSchedule &sched)
{
    return std::shared_ptr<const MergePathSchedule>(&sched,
                                                    [](const auto *) {});
}

/** borrow_schedule() analog for a caller-owned hybrid schedule. */
inline std::shared_ptr<const HybridSchedule>
borrow_hybrid_schedule(const HybridSchedule &hs)
{
    return std::shared_ptr<const HybridSchedule>(&hs,
                                                 [](const auto *) {});
}

} // namespace mps

#endif // MPS_CORE_FUSION_H
