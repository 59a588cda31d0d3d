/**
 * Hybrid per-row-class dispatch tests: bit-identity against plain
 * merge-path on 1-thread tail schedules (and on an all-tail
 * multi-thread one), multi-thread parity across the
 * microkernel dims, band-classification edge cases, cache integration
 * and schedule-repair migration after DeltaCsr updates.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mps/core/fusion.h"
#include "mps/core/hybrid.h"
#include "mps/core/schedule_cache.h"
#include "mps/core/spmm.h"
#include "mps/kernels/adaptive.h"
#include "mps/kernels/hybrid_kernel.h"
#include "mps/kernels/registry.h"
#include "mps/sparse/delta_csr.h"
#include "mps/sparse/generate.h"
#include "mps/util/metrics.h"
#include "mps/util/rng.h"
#include "mps/util/work_steal_pool.h"

namespace mps {
namespace {

DenseMatrix
random_dense(index_t rows, index_t cols, uint64_t seed)
{
    DenseMatrix m(rows, cols);
    Pcg32 rng(seed);
    m.fill_random(rng);
    return m;
}

void
expect_bitwise(const DenseMatrix &got, const DenseMatrix &want,
               const char *what)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (index_t r = 0; r < got.rows(); ++r)
        for (index_t c = 0; c < got.cols(); ++c)
            ASSERT_EQ(got(r, c), want(r, c))
                << what << " differs at (" << r << ", " << c << ")";
}

/**
 * A degree mix with a guaranteed dense band and a guaranteed tail:
 * rows [0, dense_rows) each have @p dense_deg contiguous columns
 * (column-clustered AND long), the rest have 2 scattered columns.
 */
CsrMatrix
banded_mix_graph(index_t rows, index_t cols, index_t dense_rows,
                 index_t dense_deg, uint64_t seed,
                 bool integer_values = false)
{
    Pcg32 rng(seed);
    const auto next_value = [&]() {
        // Small integers make every summation order exact in float,
        // so bitwise comparisons survive schedule-shape changes.
        return integer_values
                   ? static_cast<value_t>(1 + rng.next_below(3))
                   : rng.next_float(-1.0f, 1.0f);
    };
    std::vector<index_t> row_ptr(static_cast<size_t>(rows) + 1, 0);
    std::vector<index_t> col_idx;
    std::vector<value_t> values;
    for (index_t r = 0; r < rows; ++r) {
        if (r < dense_rows) {
            const index_t base = static_cast<index_t>(rng.next_below(
                static_cast<uint32_t>(cols - dense_deg)));
            for (index_t k = 0; k < dense_deg; ++k) {
                col_idx.push_back(base + k);
                values.push_back(next_value());
            }
        } else {
            // Two sorted, distinct columns (DeltaCsr needs strict CSR).
            const index_t c0 = static_cast<index_t>(
                rng.next_below(static_cast<uint32_t>(cols - 1)));
            const index_t c1 =
                c0 + 1 +
                static_cast<index_t>(rng.next_below(
                    static_cast<uint32_t>(cols - c0 - 1)));
            for (index_t c : {c0, c1}) {
                col_idx.push_back(c);
                values.push_back(next_value());
            }
        }
        row_ptr[static_cast<size_t>(r) + 1] =
            static_cast<index_t>(col_idx.size());
    }
    return CsrMatrix(rows, cols, std::move(row_ptr),
                     std::move(col_idx), std::move(values));
}

/**
 * With a 1-thread tail schedule the hybrid output must equal plain
 * 1-thread merge-path BIT FOR BIT: the dense phase's direct
 * accumulation is the same zero-init + axpy sequence as the scratch
 * round trip, and the tail commit sequence is literally the same code.
 * Covers: a 1-thread tail schedule, sequential and on a 4-worker pool.
 */
TEST(HybridDispatch, BitIdenticalToMergePathOnOneThreadSchedules)
{
    PowerLawParams p;
    p.nodes = 400;
    p.target_nnz = 4000;
    p.max_degree = 200;
    p.seed = 11;
    CsrMatrix a = power_law_graph(p);
    WorkStealPool pool(4);
    // cost >= rows + nnz resolves to exactly one tail share.
    const index_t cost = a.rows() + static_cast<index_t>(a.nnz());
    HybridSchedule hs = HybridSchedule::build(a, cost);
    MergePathSchedule one = MergePathSchedule::build(a, 1);
    if (hs.has_tail()) {
        ASSERT_EQ(hs.tail_schedule().num_threads(), 1);
    }

    for (index_t dim : {16, 17, 33, 128}) {
        DenseMatrix b = random_dense(a.cols(), dim,
                                     1000 + static_cast<uint64_t>(dim));
        DenseMatrix want(a.rows(), dim);
        mergepath_spmm_sequential(a, b, want, one);
        DenseMatrix seq(a.rows(), dim), par(a.rows(), dim);
        hybrid_spmm_sequential(a, hs, b, seq);
        expect_bitwise(seq, want, "hybrid sequential");
        // Parallel execution of a 1-thread-tail schedule: dense chunks
        // run concurrently but each owns its rows, so the output stays
        // deterministic and bit-identical.
        hybrid_spmm_parallel(a, hs, b, par, pool);
        expect_bitwise(par, want, "hybrid parallel");
    }
}

TEST(HybridDispatch, MultiThreadMatchesReferenceAcrossDims)
{
    PowerLawParams p;
    p.nodes = 300;
    p.target_nnz = 3600;
    p.max_degree = 120;
    p.seed = 3;
    CsrMatrix a = power_law_graph(p);
    WorkStealPool pool(4);
    auto kernel = make_spmm_kernel("hybrid");
    for (index_t dim : {16, 17, 33, 128}) {
        DenseMatrix b = random_dense(a.cols(), dim,
                                     77 + static_cast<uint64_t>(dim));
        DenseMatrix expect(a.rows(), dim), got(a.rows(), dim);
        reference_spmm(a, b, expect);
        kernel->prepare(a, dim);
        kernel->run(a, b, got, pool);
        EXPECT_TRUE(got.approx_equal(expect, 1e-3, 1e-3))
            << "dim " << dim;
    }
}

TEST(HybridDispatch, AllDenseGraphHasNoTail)
{
    if (!hybrid_enabled())
        GTEST_SKIP() << "MPS_HYBRID=0";
    // Every row long and contiguous: one band, no tail.
    const index_t n = 64;
    std::vector<index_t> row_ptr(static_cast<size_t>(n) + 1, 0);
    std::vector<index_t> col_idx;
    std::vector<value_t> values;
    Pcg32 rng(5);
    for (index_t r = 0; r < n; ++r) {
        for (index_t c = 0; c < n; ++c) {
            col_idx.push_back(c);
            values.push_back(rng.next_float(-1.0f, 1.0f));
        }
        row_ptr[static_cast<size_t>(r) + 1] =
            static_cast<index_t>(col_idx.size());
    }
    CsrMatrix a(n, n, std::move(row_ptr), std::move(col_idx),
                std::move(values));
    HybridSchedule hs = HybridSchedule::build(a, /*cost=*/4);
    EXPECT_TRUE(hs.partition().all_dense(a.rows()));
    EXPECT_FALSE(hs.has_tail());
    ASSERT_EQ(hs.partition().bands.size(), 1u);
    EXPECT_FALSE(hs.dense_chunks().empty());

    WorkStealPool pool(4);
    DenseMatrix b = random_dense(n, 17, 9);
    DenseMatrix expect(n, 17), got(n, 17);
    reference_spmm(a, b, expect);
    hybrid_spmm_parallel(a, hs, b, got, pool);
    EXPECT_TRUE(got.approx_equal(expect, 1e-3, 1e-3));
}

TEST(HybridDispatch, AllTailDegeneratesToPlainMergePath)
{
    CsrMatrix a = erdos_renyi_graph(200, 800, 7);
    // Thresholds nothing can pass: classification yields no bands and
    // the tail schedule is built on the base matrix directly.
    HybridParams params;
    params.min_degree = 1 << 20;
    params.long_degree = 1 << 20;
    const index_t cost = 37;
    HybridSchedule hs =
        HybridSchedule::build(a, cost, /*min_threads=*/0, params);
    EXPECT_FALSE(hs.partition().has_bands());
    EXPECT_TRUE(hs.tail_is_base());
    EXPECT_TRUE(hs.has_tail());
    EXPECT_TRUE(hs.dense_chunks().empty());
    EXPECT_EQ(hs.dense_fraction(), 0.0);

    // Same cost, same matrix: the degenerate hybrid execution IS the
    // merge-path execution, bit for bit, at any thread count. Covers:
    // one cost-37 (multi-thread) schedule, sequential and on a
    // 4-worker pool.
    WorkStealPool pool(4);
    MergePathSchedule sched =
        MergePathSchedule::build_with_cost(a, cost, 0);
    ASSERT_EQ(hs.tail_schedule().num_threads(), sched.num_threads());
    DenseMatrix b = random_dense(a.cols(), 33, 21);
    DenseMatrix want(a.rows(), 33), got(a.rows(), 33);
    mergepath_spmm_sequential(a, b, want, sched);
    hybrid_spmm_sequential(a, hs, b, got);
    expect_bitwise(got, want, "all-tail hybrid");
    DenseMatrix par(a.rows(), 33);
    hybrid_spmm_parallel(a, hs, b, par, pool);
    expect_bitwise(par, want, "all-tail hybrid parallel");
}

TEST(HybridDispatch, EmptyRowsStayOutOfBands)
{
    if (!hybrid_enabled())
        GTEST_SKIP() << "MPS_HYBRID=0";
    // Dense runs separated by empty rows: bands must break at every
    // empty row and empty rows must produce zero output rows.
    const index_t n = 90;
    std::vector<index_t> row_ptr(static_cast<size_t>(n) + 1, 0);
    std::vector<index_t> col_idx;
    std::vector<value_t> values;
    for (index_t r = 0; r < n; ++r) {
        if (r % 3 != 2) {
            for (index_t c = 0; c < 40; ++c) {
                col_idx.push_back(c);
                values.push_back(1.0f + static_cast<value_t>(r));
            }
        }
        row_ptr[static_cast<size_t>(r) + 1] =
            static_cast<index_t>(col_idx.size());
    }
    CsrMatrix a(n, n, std::move(row_ptr), std::move(col_idx),
                std::move(values));
    HybridSchedule hs = HybridSchedule::build(a, /*cost=*/8);
    for (const RowBand &band : hs.partition().bands)
        for (index_t r = band.begin; r < band.end; ++r)
            ASSERT_NE(r % 3, 2) << "empty row classified dense";
    EXPECT_EQ(hs.partition().dense_rows, n - n / 3);

    WorkStealPool pool(3);
    DenseMatrix b = random_dense(n, 16, 13);
    DenseMatrix expect(n, 16), got(n, 16);
    reference_spmm(a, b, expect);
    hybrid_spmm_parallel(a, hs, b, got, pool);
    EXPECT_TRUE(got.approx_equal(expect, 1e-3, 1e-3));
    for (index_t c = 0; c < 16; ++c)
        EXPECT_EQ(got(2, c), 0.0f);
}

TEST(HybridDispatch, DispatchGaugesPublishedByPrepare)
{
    if (!hybrid_enabled())
        GTEST_SKIP() << "MPS_HYBRID=0";
    CsrMatrix a = banded_mix_graph(200, 400, 50, 64, 17);
    MetricsRegistry &metrics = MetricsRegistry::global();
    metrics.reset();
    metrics.set_enabled(true);
    HybridSpmm kernel;
    kernel.prepare(a, 16);
    EXPECT_EQ(metrics.gauge_value("dispatch.dense_rows"), 50.0);
    EXPECT_EQ(metrics.gauge_value("dispatch.tail_rows"), 150.0);
    EXPECT_EQ(metrics.gauge_value("dispatch.dense_nnz"), 50.0 * 64.0);
    EXPECT_GE(metrics.gauge_value("dispatch.bands"), 1.0);
    EXPECT_GT(metrics.gauge_value("dispatch.dense_fraction"), 0.5);

    // Phase histograms + commit census come from the run.
    WorkStealPool pool(4);
    DenseMatrix b = random_dense(a.cols(), 16, 23);
    DenseMatrix c(a.rows(), 16);
    kernel.run(a, b, c, pool);
    EXPECT_EQ(metrics.histogram_value("kernel.hybrid.dense_ms").count,
              1);
    EXPECT_EQ(metrics.histogram_value("kernel.hybrid.tail_ms").count,
              1);
    EXPECT_EQ(
        metrics.counter_value("spmm.hybrid.dense_rows_written"), 50);
    EXPECT_EQ(
        metrics.counter_value("spmm.hybrid.dense_nnz_processed"),
        50 * 64);
    EXPECT_EQ(metrics.counter_value("spmm.hybrid.tail_nnz_processed"),
              static_cast<int64_t>(a.nnz()) - 50 * 64);
    metrics.set_enabled(false);
    metrics.reset();
}

TEST(HybridDispatch, OneThreadTailPaysNoAtomicCommits)
{
    CsrMatrix a = banded_mix_graph(150, 300, 40, 48, 31);
    MetricsRegistry &metrics = MetricsRegistry::global();
    metrics.reset();
    metrics.set_enabled(true);
    WorkStealPool pool(4);
    const index_t cost = a.rows() + static_cast<index_t>(a.nnz());
    HybridSchedule hs = HybridSchedule::build(a, cost);
    DenseMatrix b = random_dense(a.cols(), 32, 3);
    DenseMatrix c(a.rows(), 32);
    hybrid_spmm_parallel(a, hs, b, c, pool);
    EXPECT_EQ(metrics.counter_value("spmm.hybrid.atomic_commits"), 0);
    metrics.set_enabled(false);
    metrics.reset();
}

TEST(HybridScheduleCacheTest, SharesOneBuildPerKey)
{
    ScheduleCache cache;
    CsrMatrix a = banded_mix_graph(120, 240, 30, 40, 41);
    auto s1 = cache.get_or_build_hybrid(a, 50);
    auto s2 = cache.get_or_build_hybrid(a, 50);
    EXPECT_EQ(s1.get(), s2.get());
    EXPECT_EQ(cache.hybrid_size(), 1u);
    EXPECT_EQ(cache.hits(), 1);
    EXPECT_EQ(cache.misses(), 1);
    EXPECT_EQ(cache.hybrid_version_with_cost(a, 50), 1u);
    // Different cost is a different entry.
    auto s3 = cache.get_or_build_hybrid(a, 80);
    EXPECT_NE(s1.get(), s3.get());
    EXPECT_EQ(cache.hybrid_size(), 2u);
    // Merge-path and hybrid entries share the LRU budget.
    cache.set_max_entries(1);
    EXPECT_EQ(cache.hybrid_size() + cache.size(), 1u);
}

/**
 * Repair migration: after a DeltaCsr compaction the repaired hybrid
 * schedule must execute exactly like a fresh build on the new base —
 * partition included — and the cache must migrate its hybrid entries.
 */
TEST(HybridScheduleRepair, MigratesAcrossDeltaCompaction)
{
    // Integer values: the repaired tail schedule may carve different
    // shares than a fresh build (repair keeps old thread counts), so
    // only order-insensitive exact sums can be compared bitwise.
    // Covers: the repaired and a fresh cost-40 schedule, sequential
    // and on a 4-worker pool.
    CsrMatrix base =
        banded_mix_graph(160, 320, 40, 48, 53, /*integer_values=*/true);
    const index_t cost = 40;
    HybridSchedule old_hs = HybridSchedule::build(base, cost);

    ScheduleCache cache;
    auto cached = cache.get_or_build_hybrid(base, cost);
    ASSERT_EQ(cache.hybrid_version_with_cost(base, cost), 1u);

    // Edits in the tail region only (rows past the dense band).
    DeltaCsr dcsr(base);
    GraphDelta delta;
    for (index_t r = 100; r < 140; ++r) {
        EdgeUpdate e;
        e.row = r;
        e.col = (r * 7) % base.cols();
        e.value = 2.0f;
        delta.upserts.push_back(e);
    }
    dcsr.apply(delta);
    DeltaCsr::CompactResult cr = dcsr.compact();

    HybridSchedule repaired = repair_hybrid_schedule(
        old_hs, *cr.old_base, *cr.new_base, cr.first_dirty_row);
    HybridSchedule fresh = HybridSchedule::build(*cr.new_base, cost);

    // The partition migrates exactly: same bands, same counts.
    ASSERT_EQ(repaired.partition().bands.size(),
              fresh.partition().bands.size());
    for (size_t i = 0; i < fresh.partition().bands.size(); ++i) {
        EXPECT_EQ(repaired.partition().bands[i].begin,
                  fresh.partition().bands[i].begin);
        EXPECT_EQ(repaired.partition().bands[i].end,
                  fresh.partition().bands[i].end);
    }
    EXPECT_EQ(repaired.partition().dense_rows,
              fresh.partition().dense_rows);
    EXPECT_EQ(repaired.partition().dense_nnz,
              fresh.partition().dense_nnz);
    EXPECT_EQ(repaired.nnz(), cr.new_base->nnz());

    // And executes identically to the fresh build.
    WorkStealPool pool(4);
    DenseMatrix b(cr.new_base->cols(), 33);
    Pcg32 brng(61);
    for (index_t r = 0; r < b.rows(); ++r)
        for (index_t c = 0; c < b.cols(); ++c)
            b(r, c) = static_cast<value_t>(brng.next_below(7)) - 3.0f;
    DenseMatrix want(cr.new_base->rows(), 33);
    DenseMatrix got(cr.new_base->rows(), 33);
    hybrid_spmm_sequential(*cr.new_base, fresh, b, want);
    hybrid_spmm_sequential(*cr.new_base, repaired, b, got);
    expect_bitwise(got, want, "repaired hybrid");
    DenseMatrix expect(cr.new_base->rows(), 33);
    reference_spmm(*cr.new_base, b, expect);
    DenseMatrix par(cr.new_base->rows(), 33);
    hybrid_spmm_parallel(*cr.new_base, repaired, b, par, pool);
    EXPECT_TRUE(par.approx_equal(expect, 1e-3, 1e-3));

    // Cache migration: the entry moved to the new fingerprint with a
    // bumped version, and a lookup on the new base is a hit.
    const size_t migrated =
        cache.repair_for_update(*cr.old_base, *cr.new_base,
                                cr.first_dirty_row);
    EXPECT_GE(migrated, 1u);
    EXPECT_EQ(cache.hybrid_version_with_cost(*cr.new_base, cost), 2u);
    EXPECT_EQ(cache.hybrid_version_with_cost(base, cost), 0u);
    const int64_t hits_before = cache.hits();
    auto moved = cache.get_or_build_hybrid(*cr.new_base, cost);
    EXPECT_EQ(cache.hits(), hits_before + 1);
    EXPECT_EQ(moved->nnz(), cr.new_base->nnz());
    (void)cached;
}

TEST(HybridAdaptive, SelectsHybridOnSkewedDenseBandMix)
{
    if (!hybrid_enabled())
        GTEST_SKIP() << "MPS_HYBRID=0";
    CsrMatrix a = banded_mix_graph(200, 400, 50, 96, 67);
    WorkStealPool pool(4);

    AdaptiveSpmm adaptive;
    adaptive.prepare(a, 16);
    EXPECT_EQ(adaptive.strategy(), AdaptiveStrategy::kHybrid);
    DenseMatrix b = random_dense(a.cols(), 16, 71);
    DenseMatrix expect(a.rows(), 16), got(a.rows(), 16);
    reference_spmm(a, b, expect);
    adaptive.run(a, b, got, pool);
    EXPECT_TRUE(got.approx_equal(expect, 1e-3, 1e-3));

    // The pre-hybrid baseline selection is still reachable.
    AdaptiveSpmm baseline(0.7, /*enable_hybrid=*/false);
    baseline.prepare(a, 16);
    EXPECT_EQ(baseline.strategy(), AdaptiveStrategy::kMergePath);
    DenseMatrix got2(a.rows(), 16);
    baseline.run(a, b, got2, pool);
    EXPECT_TRUE(got2.approx_equal(expect, 1e-3, 1e-3));
}

TEST(HybridFusion, FusedPlanRoutesThroughHybridPanels)
{
    CsrMatrix a = banded_mix_graph(180, 360, 45, 64, 83);
    WorkStealPool pool(4);
    const index_t dim = 32;
    HybridSpmm kernel;
    kernel.prepare(a, dim);
    FusedLayerPlan *plan = kernel.fused_plan(a, dim);
    ASSERT_NE(plan, nullptr);
    EXPECT_TRUE(plan->uses_hybrid());
    EXPECT_EQ(plan, kernel.fused_plan(a, dim)); // cached

    // run(): panel source slices a prematerialized XW; output must
    // match the classic SpMM.
    DenseMatrix xw = random_dense(a.cols(), dim, 97);
    DenseMatrix expect(a.rows(), dim), got(a.rows(), dim);
    reference_spmm(a, xw, expect);
    plan->run(
        [&](index_t col0, index_t) {
            PanelSource src;
            src.b = &xw;
            src.col_begin = col0;
            return src;
        },
        got, pool);
    EXPECT_TRUE(got.approx_equal(expect, 1e-3, 1e-3));
}

} // namespace
} // namespace mps
