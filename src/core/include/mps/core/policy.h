/**
 * @file
 * Thread-count and SIMD-mapping policy (Section III-C of the paper).
 *
 * The merge-path cost trades parallelism (more threads) against
 * synchronization (more partial rows -> more atomic commits). The best
 * cost depends on the dense dimension size d because d determines how
 * threads map onto SIMD units:
 *   - d == lanes: one thread per warp;
 *   - d >  lanes: each thread is replicated across ceil(d/lanes) warps;
 *   - d <  lanes: floor(lanes/d) threads are packed into one warp.
 * The default costs below are the paper's empirically tuned values
 * (Figure 6), re-validated by bench/fig06_cost_sweep on our model.
 * They size GPU launches; the CPU kernels size their schedules with
 * cpu_merge_path_cost() instead (DESIGN.md §14).
 */
#ifndef MPS_CORE_POLICY_H
#define MPS_CORE_POLICY_H

#include "mps/sparse/types.h"

namespace mps {

/** SIMD/warp shape of the execution substrate. */
struct SimdPolicy
{
    /** SIMD lanes per warp (32 on the paper's NVidia GPU). */
    int lanes = 32;
    /** Minimum thread count for small graphs (Sec. III-C threshold). */
    index_t min_threads = 1024;
};

/** Result of the launch-configuration policy. */
struct LaunchConfig
{
    /** Merge-path cost (merge items per logical thread). */
    index_t cost = 1;
    /** Logical merge-path threads. */
    index_t num_threads = 1;
    /** Logical threads packed into one warp (d < lanes), else 1. */
    int threads_per_warp = 1;
    /** Warps a logical thread is replicated over (d > lanes), else 1. */
    int warps_per_thread = 1;
    /** Total warps launched on the SIMT substrate. */
    int64_t num_warps = 1;
};

/**
 * The paper's tuned default merge-path cost for dense dimension @p dim
 * (Figure 6): {2:50, 4:15, 8:15, 16:20, 32:30, 64:35, 128:50}. Other
 * dimensions use the nearest tuned size below (minimum 15).
 */
index_t default_merge_path_cost(index_t dim);

/**
 * The CPU merge-path cost for a (rows, nnz) matrix at dense dimension
 * @p dim executed by @p executors pool workers: the paper's tuned cost,
 * raised so the schedule asks for at most 64 logical threads per
 * executor, i.e. max(default_merge_path_cost(dim),
 * bit_ceil(ceil((rows + nnz) / (64 * executors)))). No minimum-thread
 * floor applies. A CPU core gains nothing from the GPU table's warp
 * occupancy, while every extra thread boundary can split a row and add
 * a carry to the fix-up pass. Rounding up to a power of two keeps the
 * cost, and every schedule-cache key derived from it, stable while
 * edge churn drifts nnz. @p executors of 0 counts as 1.
 */
index_t cpu_merge_path_cost(index_t rows, int64_t nnz, index_t dim,
                            unsigned executors);

/**
 * cpu_merge_path_cost() for the default pool width,
 * std::thread::hardware_concurrency() — what a kernel uses when no
 * explicit cost was given.
 */
index_t cpu_merge_path_cost(index_t rows, int64_t nnz, index_t dim);

/**
 * Compute the launch configuration for a (rows, nnz) matrix at dense
 * dimension @p dim with merge-path cost @p cost, applying the SIMD
 * mapping rules and the minimum-thread floor of @p policy.
 */
LaunchConfig make_launch_config(index_t rows, index_t nnz, index_t dim,
                                index_t cost, const SimdPolicy &policy);

/** make_launch_config with the tuned default cost for @p dim. */
LaunchConfig make_default_launch_config(index_t rows, index_t nnz,
                                        index_t dim,
                                        const SimdPolicy &policy);

} // namespace mps

#endif // MPS_CORE_POLICY_H
