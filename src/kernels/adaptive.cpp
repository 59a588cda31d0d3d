#include "mps/kernels/adaptive.h"

#include <algorithm>

#include "mps/core/locality.h"
#include "mps/core/microkernel.h"
#include "mps/core/policy.h"
#include "mps/core/spmm.h"
#include "mps/sparse/degree_stats.h"
#include "mps/util/log.h"
#include "mps/util/metrics.h"
#include "mps/util/work_steal_pool.h"

namespace mps {

AdaptiveSpmm::AdaptiveSpmm(double cv_threshold)
    : cv_threshold_(cv_threshold)
{
}

void
AdaptiveSpmm::prepare(const CsrMatrix &a, index_t dim)
{
    DegreeStats stats = compute_degree_stats(a);
    // Skew shows up either as degree variance or as an extreme maximum
    // relative to the average (evil rows in an otherwise flat graph).
    bool skewed = stats.degree_cv > cv_threshold_ ||
                  (stats.avg_degree > 0.0 &&
                   stats.max_degree > kEvilFactor * stats.avg_degree);
    // Once the dense operand spills out of L2 (d wide, many columns),
    // locality beats scheduling: the column-tiled merge-path variant
    // keeps the gather working set panel-resident, which contiguous
    // row-splitting cannot, so it wins even on uniform inputs. Below
    // the tile width the untiled selection stands (and tiling would be
    // a no-op anyway).
    if (default_spmm_locality(a.cols(), dim).tiled(dim))
        strategy_ = AdaptiveStrategy::kMergePathTiled;
    else
        strategy_ = skewed ? AdaptiveStrategy::kMergePath
                           : AdaptiveStrategy::kRowSplit;
    if (strategy_ != AdaptiveStrategy::kRowSplit)
        schedule_ = MergePathSchedule::build_with_cost(
            a, cpu_merge_path_cost(a.rows(), a.nnz(), dim));

    MetricsRegistry &metrics = MetricsRegistry::global();
    if (metrics.enabled()) {
        metrics.gauge_set("adaptive.strategy",
                          static_cast<double>(strategy_));
        metrics.gauge_set("adaptive.cv_threshold", cv_threshold_);
        metrics.gauge_set("adaptive.degree_cv", stats.degree_cv);
    }
}

void
AdaptiveSpmm::run(const CsrMatrix &a, const DenseMatrix &b, DenseMatrix &c,
                  WorkStealPool &pool) const
{
    MPS_CHECK(b.rows() == a.cols() && c.rows() == a.rows() &&
                  c.cols() == b.cols(),
              "shape mismatch in adaptive SpMM");
    if (strategy_ != AdaptiveStrategy::kRowSplit) {
        // The parallel entry point resolves the process locality
        // defaults itself, so kMergePath and kMergePathTiled share one
        // call — the strategy split exists for observability and tests.
        mergepath_spmm_parallel(a, b, c, schedule_, pool);
        return;
    }

    // Static row-splitting, vectorized inner loops, coarse chunks.
    const index_t dim = b.cols();
    const RowKernels &rk = select_row_kernels(dim);
    index_t chunks = std::min<index_t>(
        std::max<index_t>(a.rows(), 1),
        static_cast<index_t>(pool.size()) * 4);
    const index_t rows_per_chunk = (a.rows() + chunks - 1) / chunks;
    pool.parallel_for(static_cast<uint64_t>(chunks), [&](uint64_t chunk) {
        index_t begin = static_cast<index_t>(chunk) * rows_per_chunk;
        index_t end = std::min<index_t>(begin + rows_per_chunk, a.rows());
        for (index_t r = begin; r < end; ++r) {
            value_t *crow = c.row(r);
            rk.zero(crow, dim);
            for (index_t k = a.row_begin(r); k < a.row_end(r); ++k)
                rk.axpy(crow, a.values()[k], b.row(a.col_idx()[k]), dim);
        }
    });
}

} // namespace mps
