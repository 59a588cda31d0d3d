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
 *    load-balanced fallback (where cuSPARSE merely stays competitive).
 *
 * A graph is skewed when its degree CV passes the constructor's
 * threshold or its max/avg degree ratio passes kEvilFactor (15). The
 * merge-path schedule uses the CPU granularity rule
 * (cpu_merge_path_cost) like the other kernels.
 */
#ifndef MPS_KERNELS_ADAPTIVE_H
#define MPS_KERNELS_ADAPTIVE_H

#include "mps/core/schedule.h"
#include "mps/kernels/spmm_kernel.h"

namespace mps {

/** Strategy chosen by AdaptiveSpmm::prepare(). */
enum class AdaptiveStrategy {
    kRowSplit,        ///< uniform inputs: static contiguous rows
    kMergePath,       ///< skewed inputs: merge-path decomposition
    kMergePathTiled,  ///< wide d: column-tiled merge-path (L2 panels)
};

/** Shape-driven kernel selection (cuSPARSE-like). */
class AdaptiveSpmm final : public SpmmKernel
{
  public:
    /**
     * @param cv_threshold row-degree coefficient-of-variation above
     *        which the input is treated as skewed.
     */
    explicit AdaptiveSpmm(double cv_threshold = 0.7);

    std::string name() const override { return "adaptive"; }
    void prepare(const CsrMatrix &a, index_t dim) override;
    void run(const CsrMatrix &a, const DenseMatrix &b, DenseMatrix &c,
             WorkStealPool &pool) const override;

    /** Strategy selected by the last prepare(). */
    AdaptiveStrategy strategy() const { return strategy_; }

    /** Max/avg degree ratio above which the input counts as skewed. */
    static constexpr double kEvilFactor = 15.0;

  private:
    double cv_threshold_;
    AdaptiveStrategy strategy_ = AdaptiveStrategy::kRowSplit;
    MergePathSchedule schedule_;  // kMergePath / kMergePathTiled
};

} // namespace mps

#endif // MPS_KERNELS_ADAPTIVE_H
