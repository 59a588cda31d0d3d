/**
 * @file
 * Common interface for all SpMM kernels (C = A * B, A sparse CSR,
 * B/C dense). Each implementation mirrors one of the parallelization
 * strategies the paper compares:
 *
 *   - row_split:        contiguous equal row chunks, no atomics
 *   - gnnadvisor:       nnz-splitting neighbor groups, all writes atomic
 *   - mergepath_serial: merge-path with the SpMV-style serial fix-up
 *   - mergepath:        the paper's MergePath-SpMM (Algorithm 2)
 *   - adaptive:         shape-driven kernel selection (cuSPARSE stand-in)
 *   - reference:        sequential gold kernel
 *
 * prepare() performs any input-dependent scheduling (neighbor-group
 * construction, merge-path searches); its cost is what the paper's
 * online-vs-offline experiment (Figure 8) charges to online execution.
 */
#ifndef MPS_KERNELS_SPMM_KERNEL_H
#define MPS_KERNELS_SPMM_KERNEL_H

#include <memory>
#include <string>

#include "mps/core/fusion.h"
#include "mps/sparse/csr_matrix.h"
#include "mps/sparse/dense_matrix.h"

namespace mps {

class WorkStealPool;
class ScheduleCache;

/** Abstract SpMM kernel with a separate scheduling step. */
class SpmmKernel
{
  public:
    virtual ~SpmmKernel() = default;

    /** Stable kernel identifier (used by the registry and benches). */
    virtual std::string name() const = 0;

    /**
     * Offer a schedule cache for prepare() to reuse schedules across
     * kernel instances (layers, epochs, serving requests). Kernels
     * without cacheable schedule state ignore the offer; pass nullptr
     * to revert to private schedules. Decorators must forward.
     */
    virtual void set_schedule_cache(ScheduleCache *cache) { (void)cache; }

    /**
     * Build input-dependent schedule state for matrix @p a at dense
     * dimension @p dim. Must be called before run() whenever @p a or
     * @p dim changes; may be skipped between runs on the same input
     * (the paper's offline setting).
     */
    virtual void prepare(const CsrMatrix &a, index_t dim) = 0;

    /**
     * Execute C = A * B using @p pool. Requires a prior prepare() with
     * a matrix of identical structure and b.cols() == prepared dim.
     * @p c is fully overwritten.
     */
    virtual void run(const CsrMatrix &a, const DenseMatrix &b,
                     DenseMatrix &c, WorkStealPool &pool) const = 0;

    /**
     * Fused panel-streaming execution plan for this kernel on matrix
     * @p a at dense dimension @p dim (see mps/core/fusion.h), or
     * nullptr when the kernel has no fused path — callers then fall
     * back to the classic GEMM-into-temporary + run() pipeline.
     * Requires a prior prepare(a, dim). The plan is owned and CACHED
     * by the kernel (so its panel buffers are reused across forwards);
     * it stays valid until the next prepare() or fused_plan() call on
     * this kernel and borrows the kernel's schedule.
     * Like prepare(), not safe to call concurrently with itself or
     * run(). Decorators must forward.
     */
    virtual FusedLayerPlan *
    fused_plan(const CsrMatrix &a, index_t dim) const
    {
        (void)a;
        (void)dim;
        return nullptr;
    }
};

} // namespace mps

#endif // MPS_KERNELS_SPMM_KERNEL_H
