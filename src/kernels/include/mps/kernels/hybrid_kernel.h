/**
 * @file
 * SpmmKernel adapter for the hybrid per-row-class dispatch (see
 * mps/core/hybrid.h): dense-band row-GEMM + merge-path tail in one
 * two-phase schedule on the shared WorkStealPool.
 */
#ifndef MPS_KERNELS_HYBRID_KERNEL_H
#define MPS_KERNELS_HYBRID_KERNEL_H

#include <memory>

#include "mps/core/hybrid.h"
#include "mps/core/policy.h"
#include "mps/core/schedule_cache.h"
#include "mps/kernels/spmm_kernel.h"

namespace mps {

/**
 * Two-phase hybrid kernel. prepare() classifies rows once and builds
 * the HybridSchedule; run() submits dense chunks and tail shares as sibling
 * jobs of one parallel_for. With MPS_HYBRID=0 the schedule degenerates
 * to plain merge-path over the base matrix.
 */
class HybridSpmm final : public SpmmKernel
{
  public:
    /**
     * @param cost merge-path cost for the tail schedule; 0 = the CPU
     *        granularity rule for the prepared matrix and dimension
     *        (cpu_merge_path_cost), as for MergePathSpmm.
     * @param min_threads tail-schedule thread floor; 0 (default) =
     *        none. The floor exists to keep GPU-style occupancy up on
     *        small graphs; here the dense chunks supply the extra
     *        parallelism and a deep tail split only multiplies carries.
     */
    explicit HybridSpmm(index_t cost = 0, index_t min_threads = 0)
        : cost_(cost), min_threads_(min_threads)
    {
    }

    std::string name() const override { return "hybrid"; }
    void prepare(const CsrMatrix &a, index_t dim) override;
    void run(const CsrMatrix &a, const DenseMatrix &b, DenseMatrix &c,
             WorkStealPool &pool) const override;

    /**
     * Fused panel-streaming plan routing every panel through
     * hybrid_spmm_panel(). Returns nullptr before prepare(). Cached
     * per (matrix, dim) like MergePathSpmm::fused_plan().
     */
    FusedLayerPlan *fused_plan(const CsrMatrix &a,
                               index_t dim) const override;

    void set_schedule_cache(ScheduleCache *cache) override
    {
        cache_ = cache;
    }

    /** Two-phase schedule built by prepare(). */
    const HybridSchedule &schedule() const
    {
        return shared_schedule_ ? *shared_schedule_ : schedule_;
    }

    /** Tail merge-path cost resolved by prepare(). */
    index_t cost() const { return prepared_cost_; }

  private:
    index_t cost_;
    index_t min_threads_;
    index_t prepared_cost_ = 0;
    HybridSchedule schedule_;
    // When a cache is attached, prepare() stores its shared immutable
    // schedule here and leaves schedule_ empty.
    std::shared_ptr<const HybridSchedule> shared_schedule_;
    ScheduleCache *cache_ = nullptr;
    mutable std::unique_ptr<FusedLayerPlan> fused_cache_;
    mutable const CsrMatrix *fused_cache_key_ = nullptr;
    mutable index_t fused_cache_dim_ = 0;
};

} // namespace mps

#endif // MPS_KERNELS_HYBRID_KERNEL_H
