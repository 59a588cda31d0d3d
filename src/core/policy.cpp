#include "mps/core/policy.h"

#include <algorithm>
#include <bit>
#include <thread>

#include "mps/util/log.h"

namespace mps {

index_t
default_merge_path_cost(index_t dim)
{
    // Paper Figure 6: best-performing cost per dimension size.
    if (dim >= 128)
        return 50;
    if (dim >= 64)
        return 35;
    if (dim >= 32)
        return 30;
    if (dim >= 16)
        return 20;
    if (dim >= 4)
        return 15;
    return 50; // dim == 2: favor fewer warps over parallelism
}

index_t
cpu_merge_path_cost(index_t rows, int64_t nnz, index_t dim,
                    unsigned executors)
{
    const int64_t total = static_cast<int64_t>(rows) + nnz;
    const int64_t max_threads =
        static_cast<int64_t>(std::max(executors, 1u)) * 64;
    const int64_t floor_cost = (total + max_threads - 1) / max_threads;
    const uint64_t quantized = std::bit_ceil(
        static_cast<uint64_t>(std::max<int64_t>(floor_cost, 1)));
    return static_cast<index_t>(std::max<int64_t>(
        default_merge_path_cost(dim), static_cast<int64_t>(quantized)));
}

index_t
cpu_merge_path_cost(index_t rows, int64_t nnz, index_t dim)
{
    return cpu_merge_path_cost(rows, nnz, dim,
                               std::thread::hardware_concurrency());
}

LaunchConfig
make_launch_config(index_t rows, index_t nnz, index_t dim, index_t cost,
                   const SimdPolicy &policy)
{
    MPS_CHECK(dim >= 1, "dimension must be >= 1");
    MPS_CHECK(cost >= 1, "merge-path cost must be >= 1");
    MPS_CHECK(policy.lanes >= 1, "SIMD lanes must be >= 1");

    LaunchConfig cfg;
    cfg.cost = cost;
    int64_t total = static_cast<int64_t>(rows) + nnz;
    int64_t threads = (total + cost - 1) / cost;
    threads = std::max<int64_t>(threads, 1);
    if (policy.min_threads > 0 && threads < policy.min_threads)
        threads = policy.min_threads;
    cfg.num_threads = static_cast<index_t>(threads);

    if (dim >= policy.lanes) {
        cfg.threads_per_warp = 1;
        cfg.warps_per_thread = static_cast<int>(
            (dim + policy.lanes - 1) / policy.lanes);
    } else {
        cfg.threads_per_warp = std::max(1, policy.lanes / static_cast<int>(dim));
        cfg.warps_per_thread = 1;
    }
    int64_t warps = (threads + cfg.threads_per_warp - 1) /
                    cfg.threads_per_warp;
    cfg.num_warps = warps * cfg.warps_per_thread;
    return cfg;
}

LaunchConfig
make_default_launch_config(index_t rows, index_t nnz, index_t dim,
                           const SimdPolicy &policy)
{
    return make_launch_config(rows, nnz, dim,
                              default_merge_path_cost(dim), policy);
}

} // namespace mps
