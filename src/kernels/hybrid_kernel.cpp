#include "mps/kernels/hybrid_kernel.h"

#include <memory>

#include "mps/core/locality.h"
#include "mps/util/log.h"
#include "mps/util/metrics.h"

namespace mps {

void
HybridSpmm::prepare(const CsrMatrix &a, index_t dim)
{
    // A new schedule/reorder invalidates any cached fused plan (it
    // borrows both).
    fused_cache_.reset();
    fused_cache_key_ = nullptr;
    fused_cache_dim_ = 0;
    // Resolve the reorder plan first: classification must see the
    // matrix the traversal will actually walk — that is what makes the
    // column-span rule reorder-aware (RCM/BFS clusters columns, so the
    // permuted matrix classifies more rows dense). Rectangular inputs
    // run in identity order.
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
        shared_schedule_ = cache_->get_or_build_hybrid(
            exec, prepared_cost_, min_threads_);
        schedule_ = HybridSchedule();
    } else {
        shared_schedule_.reset();
        schedule_ = HybridSchedule::build(exec, prepared_cost_,
                                          min_threads_);
    }

    MetricsRegistry &metrics = MetricsRegistry::global();
    if (metrics.enabled()) {
        const HybridSchedule &hs = schedule();
        const RowClassPartition &part = hs.partition();
        metrics.gauge_set("dispatch.dense_rows",
                          static_cast<double>(part.dense_rows));
        metrics.gauge_set("dispatch.tail_rows",
                          static_cast<double>(exec.rows() -
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
    if (plan_ == nullptr) {
        hybrid_spmm_parallel(a, hs, b, c, pool);
        return;
    }
    // Reorder-aware execution: traverse the row-permuted matrix and
    // scatter output rows through the inverse permutation at commit
    // time, same as MergePathSpmm.
    MPS_CHECK(a.rows() == plan_->matrix.rows() &&
                  a.nnz() == plan_->matrix.nnz(),
              "run() input does not match the prepared reorder plan");
    SpmmLocality loc = default_spmm_locality(
        b.rows(), b.cols(), storage_elem_bytes(b.storage()));
    loc.row_scatter = plan_->inverse.data();
    hybrid_spmm_parallel(plan_->matrix, hs, b, c, pool, loc);
}

FusedLayerPlan *
HybridSpmm::fused_plan(const CsrMatrix &a, index_t dim) const
{
    const HybridSchedule &hs = schedule();
    if (hs.cost() < 1)
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
    auto schedp = shared_schedule_ ? shared_schedule_
                                   : borrow_hybrid_schedule(schedule_);
    fused_cache_ = std::make_unique<FusedLayerPlan>(
        exec, dim, std::move(schedp), loc);
    fused_cache_key_ = &exec;
    fused_cache_dim_ = dim;
    return fused_cache_.get();
}

} // namespace mps
