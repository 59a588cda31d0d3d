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
 *  - run_streaming():  materialize nothing: every finished row goes
 *                      from the sweep's register row into its
 *                      executor's 48-row staging tile and on to the
 *                      epilogue, which hands it off itself. The
 *                      multi-layer pipeline's epilogues do: the rank
 *                      update (RankUpdateEpilogue in the gcn library)
 *                      folds each finished row of layer L into layer
 *                      L+1's XW, so H_L never exists; an
 *                      aggregate-first layer sweeps its narrow input
 *                      and combines each finished row
 *                      (CombineEpilogue). The consumer callback only
 *                      marks the end of each panel.
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
#include <type_traits>
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
 * When a reduced-precision plan (re-)encodes a quantizable operand's
 * shadow rows (see FusedLayerPlan::set_precision). A rewritten
 * operand's (kPanel, kRun) shadow is stale at any precision, so an f32
 * plan drops it rather than gather last run's values.
 */
enum class Freshness
{
    /**
     * Unchanged between runs (a slice of a stable matrix): encoded
     * once, full-width, while its shadow is missing or of another
     * precision.
     */
    kStable,
    /**
     * Rewritten for THIS panel (a GEMM-backed buffer): every panel
     * re-encodes the panel's columns only.
     */
    kPanel,
    /**
     * Rewritten before this run (a model-owned layer handoff):
     * re-encoded full-width on the run's first panel, into the
     * shadow's existing allocation.
     */
    kRun,
};

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
    /** When the plan re-encodes a quantizable operand. */
    Freshness fresh = Freshness::kStable;
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
 * Streaming-mode consumer: called once panel [col0, col0 + width) is
 * finished — after every row's epilogue, before the next panel's sweep
 * (epilogues that accumulate across panels advance their column
 * origin here).
 */
using PanelConsumerFn = std::function<void(index_t col0, index_t width)>;

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
 * shared schedule + locality (fused tile width, prefetch) + the
 * precomputed split-row list the carry fix-up walks after every
 * panel. Build once per (matrix, dim), run per layer call; panel buffers are lazily allocated and reused across
 * runs. The plan borrows @p a and the schedule — it must not outlive
 * them.
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
     * full-width panel): the width of each run_streaming() panel,
     * sized so the source panel stays cache-hot. An auto width
     * (SpmmLocality::auto_width) is sized at the plan's precision
     * and follows set_precision().
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
    /** Streaming-mode locality (width tile(), its lookahead). */
    const SpmmLocality &locality() const { return loc_; }
    /** run()-mode locality (width run_tile(), its lookahead). */
    const SpmmLocality &run_locality() const { return run_loc_; }

    /**
     * Operand storage precision of the panel sweeps. kF32 (the default)
     * is the exact pre-existing execution. kBf16 makes the plan
     * encode each panel operand's shadow buffer (when the source marks
     * it quantizable) before the sweep, so the gather loop reads 2
     * bytes per element instead of 4; accumulation and the commit
     * protocol stay fp32. Re-derives the panel widths (when auto) and
     * the lookahead at storage_elem_bytes(p): quantized operands fit
     * more columns per cache level.
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
     * @p source. Every element of C is stored, so C needs no
     * zero-fill and its old contents never matter. @p epi (if any)
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
     * Streaming mode: sweep every panel into @p epi (required) and
     * nothing else, then call @p consume (may be empty). The epilogue
     * sees panel-local column 0, not the global col0; epilogues that
     * need the global column take it via @p consume or their ctx. No
     * output the size of the graph is ever allocated: each executor
     * gathers its finished rows straight into a 48-row staging tile and
     * hands them over from there, and only the first parts of split
     * rows (a few hundred on a CPU-sized schedule) wait in a
     * |split| x width panel for the carry fix-up.
     */
    void run_streaming(const PanelSourceFn &source,
                       const PanelConsumerFn &consume, WorkStealPool &pool,
                       PanelEpilogue epi, const void *epi_ctx);

    /**
     * The consumer shape of earlier versions, (col0, width, out_panel):
     * a streamed run has no output panel, so @p consume receives an
     * empty matrix. Kept for callers that still take the argument
     * (the benchmark's probes, bench/e2e/probes.cpp).
     */
    template <class Consume>
        requires std::is_invocable_v<Consume &, index_t, index_t,
                                     const DenseMatrix &>
    void run_streaming(const PanelSourceFn &source, Consume &&consume,
                       WorkStealPool &pool, PanelEpilogue epi,
                       const void *epi_ctx)
    {
        const DenseMatrix no_panel;
        run_streaming(
            source,
            [&consume, &no_panel](index_t col0, index_t width) {
                consume(col0, width, no_panel);
            },
            pool, epi, epi_ctx);
    }

  private:
    void derive_tiles();
    void quantize_source(const PanelSource &src, index_t col,
                         index_t width, WorkStealPool &pool);
    void sweep_panel(const PanelSource &src, DenseMatrix *c,
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
