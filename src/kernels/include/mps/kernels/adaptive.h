/**
 * @file
 * Adaptive SpMM: the cuSPARSE stand-in.
 *
 * NVidia's closed-source cuSPARSE picks among a slew of kernels based
 * on the shapes of the inputs (the paper, Section V). This kernel
 * reproduces that selection behaviour with a transparent heuristic over
 * the row-degree distribution:
 *
 *  - near-uniform degrees (low CV)  -> static row-splitting with wide
 *    chunks: minimal scheduling overhead and good locality, the regime
 *    where cuSPARSE beats the load-balancing kernels (Type II graphs);
 *  - skewed degrees (high CV)       -> merge-path decomposition, the
 *    load-balanced fallback (where cuSPARSE merely stays competitive);
 *  - skewed with a substantial dense-band nnz share -> the two-phase
 *    hybrid dispatch (mps/core/hybrid.h), which routes the long rows
 *    that dominate nnz to the atomics-free row-GEMM phase.
 *
 * A graph is skewed when its degree CV passes the constructor's
 * threshold or its max/avg degree ratio passes kEvilFactor (15). The
 * merge-path and hybrid schedules
 * use the CPU granularity rule (cpu_merge_path_cost) like the other
 * kernels.
 */
#ifndef MPS_KERNELS_ADAPTIVE_H
#define MPS_KERNELS_ADAPTIVE_H

#include "mps/core/hybrid.h"
#include "mps/core/schedule.h"
#include "mps/kernels/spmm_kernel.h"

namespace mps {

/** Strategy chosen by AdaptiveSpmm::prepare(). */
enum class AdaptiveStrategy {
    kRowSplit,        ///< uniform inputs: static contiguous rows
    kMergePath,       ///< skewed inputs: merge-path decomposition
    kMergePathTiled,  ///< wide d: column-tiled merge-path (L2 panels)
    kHybrid,          ///< skewed + dense bands: two-phase dispatch
};

/** Shape-driven kernel selection (cuSPARSE-like). */
class AdaptiveSpmm final : public SpmmKernel
{
  public:
    /**
     * @param cv_threshold row-degree coefficient-of-variation above
     *        which the input is treated as skewed.
     * @param enable_hybrid let prepare() pick the hybrid dispatch for
     *        skewed inputs with enough dense-band nnz; false restores
     *        the pre-hybrid selection (bench baselines use this). The
     *        MPS_HYBRID=0 opt-out disables it regardless.
     */
    explicit AdaptiveSpmm(double cv_threshold = 0.7,
                          bool enable_hybrid = true);

    std::string name() const override { return "adaptive"; }
    void prepare(const CsrMatrix &a, index_t dim) override;
    void run(const CsrMatrix &a, const DenseMatrix &b, DenseMatrix &c,
             WorkStealPool &pool) const override;

    /** Strategy selected by the last prepare(). */
    AdaptiveStrategy strategy() const { return strategy_; }

    /** Max/avg degree ratio above which the input counts as skewed. */
    static constexpr double kEvilFactor = 15.0;

    /**
     * Dense-band nnz fraction below which a skewed input stays on the
     * plain merge path instead of the hybrid dispatch. Aliases the
     * shared executor threshold in mps/core/hybrid.h so serve and the
     * adaptive kernel can never disagree.
     */
    static constexpr double kHybridDenseFractionMin =
        mps::kHybridDenseFractionMin;

  private:
    double cv_threshold_;
    bool enable_hybrid_;
    AdaptiveStrategy strategy_ = AdaptiveStrategy::kRowSplit;
    MergePathSchedule schedule_;  // kMergePath / kMergePathTiled
    HybridSchedule hybrid_;       // kHybrid only
};

} // namespace mps

#endif // MPS_KERNELS_ADAPTIVE_H
