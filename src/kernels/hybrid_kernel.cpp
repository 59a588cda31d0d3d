#include "mps/kernels/hybrid_kernel.h"

#include <memory>

#include "mps/core/locality.h"
#include "mps/util/log.h"
#include "mps/util/metrics.h"

namespace mps {

void
HybridSpmm::prepare(const CsrMatrix &a, index_t dim)
{
    // A new schedule invalidates any cached fused plan (it borrows
    // the schedule).
    fused_cache_.reset();
    fused_cache_key_ = nullptr;
    fused_cache_dim_ = 0;
    prepared_cost_ = cost_ > 0 ? cost_
                               : cpu_merge_path_cost(a.rows(), a.nnz(), dim);
    if (cache_ != nullptr) {
        shared_schedule_ =
            cache_->get_or_build_hybrid(a, prepared_cost_, min_threads_);
        schedule_ = HybridSchedule();
    } else {
        shared_schedule_.reset();
        schedule_ = HybridSchedule::build(a, prepared_cost_, min_threads_);
    }

    MetricsRegistry &metrics = MetricsRegistry::global();
    if (metrics.enabled()) {
        const HybridSchedule &hs = schedule();
        const RowClassPartition &part = hs.partition();
        metrics.gauge_set("dispatch.dense_rows",
                          static_cast<double>(part.dense_rows));
        metrics.gauge_set("dispatch.tail_rows",
                          static_cast<double>(a.rows() -
                                              part.dense_rows));
        metrics.gauge_set("dispatch.dense_nnz",
                          static_cast<double>(part.dense_nnz));
        metrics.gauge_set("dispatch.bands",
                          static_cast<double>(part.bands.size()));
        metrics.gauge_set("dispatch.dense_fraction",
                          hs.dense_fraction());
        metrics.gauge_set("spmm.hybrid.cost",
                          static_cast<double>(prepared_cost_));
        metrics.gauge_set(
            "spmm.hybrid.tail_threads",
            static_cast<double>(
                hs.has_tail() ? hs.tail_schedule().num_threads() : 0));
    }
}

void
HybridSpmm::run(const CsrMatrix &a, const DenseMatrix &b, DenseMatrix &c,
                WorkStealPool &pool) const
{
    const HybridSchedule &hs = schedule();
    MPS_CHECK(hs.cost() >= 1, "prepare() was not called");
    hybrid_spmm_parallel(a, hs, b, c, pool);
}

FusedLayerPlan *
HybridSpmm::fused_plan(const CsrMatrix &a, index_t dim) const
{
    const HybridSchedule &hs = schedule();
    if (hs.cost() < 1)
        return nullptr; // prepare() was not called
    if (fused_cache_ != nullptr && fused_cache_key_ == &a &&
        fused_cache_dim_ == dim)
        return fused_cache_.get();
    // The plan starts at kF32; set_precision re-sizes an auto width
    // at the bytes the plan's panels then store.
    const SpmmLocality loc = default_fused_locality(
        a.cols(), dim, storage_elem_bytes(StorageMode::kF32));
    auto schedp = shared_schedule_ ? shared_schedule_
                                   : borrow_hybrid_schedule(schedule_);
    fused_cache_ = std::make_unique<FusedLayerPlan>(
        a, dim, std::move(schedp), loc);
    fused_cache_key_ = &a;
    fused_cache_dim_ = dim;
    return fused_cache_.get();
}

} // namespace mps
