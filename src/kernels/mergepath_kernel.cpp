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
    // A new schedule/reorder invalidates any cached fused plan (it
    // borrows both).
    fused_cache_.reset();
    fused_cache_key_ = nullptr;
    fused_cache_dim_ = 0;
    // Resolve the reorder plan first: the schedule must describe the
    // matrix the traversal will actually walk. Rectangular inputs run
    // in identity order — a graph relabeling needs a square matrix.
    if (reorder_ != ReorderKind::kNone && a.rows() == a.cols()) {
        plan_ = cache_ != nullptr
                    ? cache_->get_or_build_reorder(a, reorder_)
                    : std::make_shared<const ReorderPlan>(
                          build_reorder_plan(a, reorder_));
    } else {
        plan_.reset();
    }
    const CsrMatrix &exec = plan_ ? plan_->matrix : a;

    prepared_cost_ = cost_ > 0
                         ? cost_
                         : cpu_merge_path_cost(exec.rows(), exec.nnz(), dim);
    if (cache_ != nullptr) {
        shared_schedule_ = cache_->get_or_build_with_cost(
            exec, prepared_cost_, min_threads_);
        schedule_ = MergePathSchedule();
    } else {
        shared_schedule_.reset();
        schedule_ = MergePathSchedule::build_with_cost(
            exec, prepared_cost_, min_threads_);
    }

    // Static schedule properties (Figure 5's write-distribution study),
    // published as gauges: they describe the prepared schedule, not an
    // accumulation over runs — the runtime counters in
    // mergepath_spmm_parallel() cover the latter.
    MetricsRegistry &metrics = MetricsRegistry::global();
    if (metrics.enabled()) {
        ScheduleCensus census = schedule().census(exec);
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
    if (plan_ == nullptr) {
        mergepath_spmm_parallel(a, b, c, sched, pool);
        return;
    }
    // Reorder-aware execution: traverse the row-permuted matrix, gather
    // from B with the original column ids it retained, and scatter each
    // output row through the inverse permutation at commit time — no
    // post-pass copy of C, no permuted copy of B.
    MPS_CHECK(a.rows() == plan_->matrix.rows() &&
                  a.nnz() == plan_->matrix.nnz(),
              "run() input does not match the prepared reorder plan");
    SpmmLocality loc = default_spmm_locality(
        b.rows(), b.cols(), storage_elem_bytes(b.storage()));
    loc.row_scatter = plan_->inverse.data();
    mergepath_spmm_parallel(plan_->matrix, b, c, sched, pool, loc);
}

FusedLayerPlan *
MergePathSpmm::fused_plan(const CsrMatrix &a, index_t dim) const
{
    const MergePathSchedule &sched = schedule();
    if (sched.num_threads() < 1)
        return nullptr; // prepare() was not called
    const CsrMatrix &exec = plan_ ? plan_->matrix : a;
    if (plan_ != nullptr)
        MPS_CHECK(a.rows() == plan_->matrix.rows() &&
                      a.nnz() == plan_->matrix.nnz(),
                  "fused_plan() input does not match the prepared "
                  "reorder plan");
    if (fused_cache_ != nullptr && fused_cache_key_ == &exec &&
        fused_cache_dim_ == dim)
        return fused_cache_.get();
    // The plan starts at kF32; set_precision re-sizes an auto width
    // at the bytes the plan's panels then store.
    SpmmLocality loc = default_fused_locality(
        exec.cols(), dim, storage_elem_bytes(StorageMode::kF32));
    if (plan_ != nullptr)
        loc.row_scatter = plan_->inverse.data();
    // The plan borrows the schedule (shared when a cache is attached,
    // the private member otherwise) and the reorder scatter; both live
    // as long as this kernel, which callers already keep alive for
    // run().
    auto schedp = shared_schedule_ ? shared_schedule_
                                   : borrow_schedule(schedule_);
    fused_cache_ = std::make_unique<FusedLayerPlan>(
        exec, dim, std::move(schedp), loc);
    fused_cache_key_ = &exec;
    fused_cache_dim_ = dim;
    return fused_cache_.get();
}

} // namespace mps
