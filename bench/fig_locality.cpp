/**
 * @file
 * Cache-locality study: the auto-resolved locality layer (column
 * tiling + software prefetch) and an explicitly tiled configuration
 * against the untiled pre-locality kernel, on a power-law graph whose
 * dense operand exceeds the detected caches.
 *
 * For each d in {32, 128, 256, 512} the same merge-path schedule is
 * executed three ways and the best-of-reps wall time reported:
 *
 *  - untiled: one full-width sweep, no prefetch (the pre-locality
 *    kernel — the baseline every speedup is against);
 *  - locality: what the shipped auto-tuner resolves for this operand
 *    (panel width from the cache hierarchy, prefetch distance from d).
 *    On hosts where panel residency cannot beat DRAM the tuner keeps
 *    one sweep and lets the prefetcher carry the win;
 *  - tiled: an explicit MPS_TILE_D-style panel (the auto width when
 *    the tuner tiles, 64 otherwise), isolating what forced tiling
 *    costs or saves on this host.
 *
 * Alongside wall time the effective gather bandwidth nnz * d * 4 B /
 * time is reported — the B-row traffic the traversal pulls through the
 * memory hierarchy per second. Before timing, tiled and untiled
 * sequential runs are bit-compared on the same schedule (the panel
 * loop partitions columns, never the non-zero stream) and the result
 * is part of the JSON document.
 *
 * Usage: fig_locality [nodes] [nnz] [max_degree] [threads] [reps]
 *        (defaults: 500000, 5000000, 50000, hw threads, 3)
 */
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "mps/core/locality.h"
#include "mps/core/schedule.h"
#include "mps/core/spmm.h"
#include "mps/sparse/generate.h"
#include "mps/util/json.h"
#include "mps/util/rng.h"
#include "mps/util/timer.h"
#include "mps/util/work_steal_pool.h"

namespace {

using namespace mps;

template <class Fn>
double
best_of_reps(int reps, const Fn &run)
{
    run(); // warm the pool, the pages and the schedule
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        Timer timer;
        run();
        best = std::min(best, timer.elapsed_seconds());
    }
    return best;
}

bool
bit_identical(const DenseMatrix &x, const DenseMatrix &y)
{
    for (index_t r = 0; r < x.rows(); ++r) {
        for (index_t d = 0; d < x.cols(); ++d) {
            if (x(r, d) != y(r, d))
                return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const index_t nodes =
        argc > 1 ? static_cast<index_t>(std::atol(argv[1])) : 500000;
    const index_t nnz =
        argc > 2 ? static_cast<index_t>(std::atol(argv[2])) : 5000000;
    const index_t max_degree =
        argc > 3 ? static_cast<index_t>(std::atol(argv[3])) : 50000;
    const unsigned threads =
        argc > 4 ? static_cast<unsigned>(std::atoi(argv[4]))
                 : std::max(1u, std::thread::hardware_concurrency());
    const int reps = argc > 5 ? std::atoi(argv[5]) : 3;

    PowerLawParams params;
    params.nodes = nodes;
    params.target_nnz = nnz;
    params.max_degree = max_degree;
    params.seed = 20;
    CsrMatrix a = power_law_graph(params);
    WorkStealPool pool(threads);

    JsonWriter w;
    w.begin_object();
    w.key("bench").value("fig_locality");
    w.key("nodes").value(static_cast<int64_t>(a.rows()));
    w.key("nnz").value(static_cast<int64_t>(a.nnz()));
    w.key("max_degree").value(static_cast<int64_t>(max_degree));
    w.key("threads").value(static_cast<int64_t>(threads));
    w.key("reps").value(static_cast<int64_t>(reps));
    w.key("l2_bytes").value(detected_l2_bytes());
    w.key("llc_bytes").value(detected_llc_bytes());

    bool all_bit_identical = true;
    w.key("sweep").begin_array();
    for (index_t dim : {32, 128, 256, 512}) {
        DenseMatrix b(a.cols(), dim);
        Pcg32 rng(7 + static_cast<uint64_t>(dim));
        b.fill_random(rng);
        DenseMatrix c(a.rows(), dim);

        MergePathSchedule sched = MergePathSchedule::build(
            a, static_cast<index_t>(threads) * 16);

        SpmmLocality untiled; // one sweep, no prefetch
        SpmmLocality locality;
        locality.tile_d = auto_tile_d(a.cols(), dim);
        locality.prefetch = auto_prefetch_distance(dim);
        SpmmLocality tiled = locality;
        if (!tiled.tiled(dim))
            tiled.tile_d = std::min<index_t>(64, dim);

        // Bit-identity gate (sequential: commit order fixed).
        {
            DenseMatrix cu(a.rows(), dim), ct(a.rows(), dim);
            mergepath_spmm_sequential(a, b, cu, sched, untiled);
            mergepath_spmm_sequential(a, b, ct, sched, tiled);
            all_bit_identical = all_bit_identical && bit_identical(cu, ct);
        }

        const double untiled_s = best_of_reps(reps, [&] {
            mergepath_spmm_parallel(a, b, c, sched, pool, untiled);
        });
        const double locality_s = best_of_reps(reps, [&] {
            mergepath_spmm_parallel(a, b, c, sched, pool, locality);
        });
        const double tiled_s = best_of_reps(reps, [&] {
            mergepath_spmm_parallel(a, b, c, sched, pool, tiled);
        });

        const double gathered_gb = static_cast<double>(a.nnz()) * dim *
                                   sizeof(value_t) / 1e9;
        w.begin_object();
        w.key("dim").value(static_cast<int64_t>(dim));
        w.key("auto_tile_d").value(static_cast<int64_t>(
            locality.tiled(dim) ? locality.tile_d : dim));
        w.key("explicit_tile_d")
            .value(static_cast<int64_t>(tiled.tile_d));
        w.key("prefetch").value(static_cast<int64_t>(locality.prefetch));
        w.key("untiled_ms").value(untiled_s * 1e3);
        w.key("locality_ms").value(locality_s * 1e3);
        w.key("tiled_ms").value(tiled_s * 1e3);
        w.key("untiled_gather_gbps").value(gathered_gb / untiled_s);
        w.key("locality_gather_gbps").value(gathered_gb / locality_s);
        w.key("locality_speedup").value(untiled_s / locality_s);
        w.key("tiled_speedup").value(untiled_s / tiled_s);
        w.end_object();
    }
    w.end_array();
    w.key("bit_identical").value(all_bit_identical);
    w.end_object();
    std::cout << w.str() << "\n";
    return all_bit_identical ? 0 : 1;
}
