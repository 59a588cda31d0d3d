#include "mps/kernels/mergepath_kernel.h"

#include <memory>

#include "mps/core/locality.h"
#include "mps/core/spmm.h"
#include "mps/util/log.h"
#include "mps/util/metrics.h"

namespace mps {

void
MergePathSpmm::prepare(const CsrMatrix &a, index_t dim)
{
    // A new schedule invalidates any cached fused plan (it borrows
    // the schedule).
    fused_cache_.reset();
    fused_cache_key_ = nullptr;
    fused_cache_dim_ = 0;
    prepared_cost_ = cost_ > 0 ? cost_
                               : cpu_merge_path_cost(a.rows(), a.nnz(), dim);
    if (cache_ != nullptr) {
        shared_schedule_ = cache_->get_or_build_with_cost(
            a, prepared_cost_, min_threads_);
        schedule_ = MergePathSchedule();
    } else {
        shared_schedule_.reset();
        schedule_ = MergePathSchedule::build_with_cost(
            a, prepared_cost_, min_threads_);
    }

    // Static schedule properties (Figure 5's write-distribution study),
    // published as gauges: they describe the prepared schedule, not an
    // accumulation over runs — the runtime counters in
    // mergepath_spmm_parallel() cover the latter.
    MetricsRegistry &metrics = MetricsRegistry::global();
    if (metrics.enabled()) {
        ScheduleCensus census = schedule().census(a);
        metrics.gauge_set("spmm.mergepath.split_rows",
                          static_cast<double>(census.split_rows));
        metrics.gauge_set("spmm.mergepath.atomic_write_fraction",
                          census.atomic_write_fraction());
        metrics.gauge_set("spmm.mergepath.cost",
                          static_cast<double>(prepared_cost_));
    }
}

void
MergePathSpmm::run(const CsrMatrix &a, const DenseMatrix &b,
                   DenseMatrix &c, WorkStealPool &pool) const
{
    const MergePathSchedule &sched = schedule();
    MPS_CHECK(sched.num_threads() >= 1, "prepare() was not called");
    mergepath_spmm_parallel(a, b, c, sched, pool);
}

FusedLayerPlan *
MergePathSpmm::fused_plan(const CsrMatrix &a, index_t dim) const
{
    const MergePathSchedule &sched = schedule();
    if (sched.num_threads() < 1)
        return nullptr; // prepare() was not called
    if (fused_cache_ != nullptr && fused_cache_key_ == &a &&
        fused_cache_dim_ == dim)
        return fused_cache_.get();
    // The plan starts at kF32; set_precision re-sizes an auto width
    // at the bytes the plan's panels then store.
    const SpmmLocality loc = default_fused_locality(
        a.cols(), dim, storage_elem_bytes(StorageMode::kF32));
    // The plan borrows the schedule (shared when a cache is attached,
    // the private member otherwise), which lives as long as this
    // kernel; callers already keep it alive for run().
    auto schedp = shared_schedule_ ? shared_schedule_
                                   : borrow_schedule(schedule_);
    fused_cache_ = std::make_unique<FusedLayerPlan>(
        a, dim, std::move(schedp), loc);
    fused_cache_key_ = &a;
    fused_cache_dim_ = dim;
    return fused_cache_.get();
}

} // namespace mps
