/**
 * @file
 * SpmmKernel adapter for the paper's MergePath-SpMM (Algorithm 2),
 * wiring the core schedule + kernel into the common registry interface.
 */
#ifndef MPS_KERNELS_MERGEPATH_KERNEL_H
#define MPS_KERNELS_MERGEPATH_KERNEL_H

#include <memory>

#include "mps/core/policy.h"
#include "mps/core/schedule.h"
#include "mps/core/schedule_cache.h"
#include "mps/kernels/spmm_kernel.h"

namespace mps {

/** The proposed kernel: merge-path schedule + split-row carry fix-up. */
class MergePathSpmm final : public SpmmKernel
{
  public:
    /**
     * @param cost merge-path cost; 0 = the CPU granularity rule for the
     *        prepared matrix and dimension at the default pool width
     *        (cpu_merge_path_cost), which never goes below the paper's
     *        tuned cost (Figure 6 table).
     * @param min_threads small-graph thread floor (Sec. III-C); 0
     *        (default) = none. The paper's 1024 keeps GPU warps
     *        occupied; on a CPU it only adds split rows.
     */
    explicit MergePathSpmm(index_t cost = 0, index_t min_threads = 0)
        : cost_(cost), min_threads_(min_threads)
    {
    }

    std::string name() const override { return "mergepath"; }
    void prepare(const CsrMatrix &a, index_t dim) override;
    void run(const CsrMatrix &a, const DenseMatrix &b, DenseMatrix &c,
             WorkStealPool &pool) const override;

    /**
     * Fused panel-streaming plan over the prepared schedule: same
     * traversal, locality resolved through
     * default_fused_locality(). Returns nullptr before prepare().
     * Cached per (matrix, dim) — repeat calls for the same prepared
     * layer return the same plan with its panel buffers intact;
     * prepare() invalidates the cache.
     */
    FusedLayerPlan *fused_plan(const CsrMatrix &a,
                               index_t dim) const override;

    /**
     * Reuse schedules through @p cache instead of building privately;
     * nullptr reverts to a private schedule on the next prepare().
     */
    void set_schedule_cache(ScheduleCache *cache) override
    {
        cache_ = cache;
    }

    /** Schedule built by prepare() (consumed by the SIMT codegen). */
    const MergePathSchedule &schedule() const
    {
        return shared_schedule_ ? *shared_schedule_ : schedule_;
    }

    /** Cost resolved by prepare(). */
    index_t cost() const { return prepared_cost_; }

  private:
    index_t cost_;
    index_t min_threads_;
    index_t prepared_cost_ = 0;
    MergePathSchedule schedule_;
    // When a cache is attached, prepare() stores its shared immutable
    // schedule here and leaves schedule_ empty.
    std::shared_ptr<const MergePathSchedule> shared_schedule_;
    ScheduleCache *cache_ = nullptr;
    // fused_plan() cache: one plan per prepared layer, keyed by the
    // matrix's address + dim, dropped by prepare(). Keeping
    // it here (not rebuilt per call) is what lets the plan's panel
    // buffers survive across forwards.
    mutable std::unique_ptr<FusedLayerPlan> fused_cache_;
    mutable const CsrMatrix *fused_cache_key_ = nullptr;
    mutable index_t fused_cache_dim_ = 0;
};

} // namespace mps

#endif // MPS_KERNELS_MERGEPATH_KERNEL_H
