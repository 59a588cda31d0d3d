/**
 * Tests for the dynamic-graph subsystem: DeltaCsr overlay semantics
 * (apply / materialize / compact), strict CSR validation, incremental
 * schedule repair against fresh builds, range-decomposable censuses,
 * ScheduleCache migration + LRU capping, and Server::update_graph()
 * snapshot behaviour including concurrent update/serve traffic (the
 * TSan target of check.sh's churn stage).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "mps/core/schedule_cache.h"
#include "mps/core/spmm.h"
#include "mps/gcn/activation.h"
#include "mps/gcn/gemm.h"
#include "mps/gcn/layer.h"
#include "mps/serve/server.h"
#include "mps/sparse/delta_csr.h"
#include "mps/sparse/generate.h"
#include "mps/util/metrics.h"
#include "mps/util/rng.h"
#include "mps/util/work_steal_pool.h"

namespace mps {
namespace {

/**
 * Random strictly-valid CSR whose columns are all EVEN, with small
 * integer values. Leaves every odd column free for guaranteed
 * structural inserts, and keeps row sums exactly representable so
 * parallel SpMM is bit-identical to the sequential reference.
 */
CsrMatrix
even_col_csr(Pcg32 &rng, index_t rows, index_t half_cols,
             index_t max_degree)
{
    std::vector<index_t> row_ptr(static_cast<size_t>(rows) + 1, 0);
    std::vector<index_t> cols;
    std::vector<value_t> vals;
    std::vector<uint8_t> used(static_cast<size_t>(half_cols));
    for (index_t r = 0; r < rows; ++r) {
        std::fill(used.begin(), used.end(), 0);
        index_t degree = static_cast<index_t>(
            rng.next_below(static_cast<uint32_t>(max_degree) + 1));
        for (index_t k = 0; k < degree; ++k)
            used[rng.next_below(static_cast<uint32_t>(half_cols))] = 1;
        for (index_t h = 0; h < half_cols; ++h) {
            if (used[static_cast<size_t>(h)] == 0)
                continue;
            cols.push_back(2 * h);
            vals.push_back(
                static_cast<value_t>(1 + rng.next_below(4)));
        }
        row_ptr[static_cast<size_t>(r) + 1] =
            static_cast<index_t>(cols.size());
    }
    return CsrMatrix(rows, 2 * half_cols, std::move(row_ptr),
                     std::move(cols), std::move(vals));
}

void
fill_integers(DenseMatrix &m, Pcg32 &rng)
{
    for (index_t r = 0; r < m.rows(); ++r)
        for (index_t c = 0; c < m.cols(); ++c)
            m(r, c) = static_cast<value_t>(
                static_cast<int32_t>(rng.next_below(7)) - 3);
}

void
expect_bits_equal(const DenseMatrix &got, const DenseMatrix &want,
                  const char *what)
{
    ASSERT_EQ(got.rows(), want.rows()) << what;
    ASSERT_EQ(got.cols(), want.cols()) << what;
    for (index_t r = 0; r < got.rows(); ++r)
        for (index_t c = 0; c < got.cols(); ++c)
            ASSERT_EQ(got(r, c), want(r, c))
                << what << " at (" << r << ", " << c << ")";
}

void
expect_census_equal(const ScheduleCensus &a, const ScheduleCensus &b)
{
    EXPECT_EQ(a.empty_threads, b.empty_threads);
    EXPECT_EQ(a.atomic_commits, b.atomic_commits);
    EXPECT_EQ(a.plain_row_writes, b.plain_row_writes);
    EXPECT_EQ(a.split_rows, b.split_rows);
    EXPECT_EQ(a.atomic_nnz, b.atomic_nnz);
    EXPECT_EQ(a.plain_nnz, b.plain_nnz);
    EXPECT_EQ(a.max_nnz_per_thread, b.max_nnz_per_thread);
    EXPECT_EQ(a.max_items_per_thread, b.max_items_per_thread);
}

// --- DeltaCsr overlay semantics -----------------------------------

TEST(DeltaCsr, InsertTracksLogicalStateAndMaterializes)
{
    // r0: {0:1, 2:2}, r1: {}, r2: {1:3}
    DeltaCsr d(CsrMatrix(3, 4, {0, 2, 2, 3}, {0, 2, 1}, {1, 2, 3}));
    GraphDelta delta;
    delta.upserts = {{1, 3, 5.0f}, {0, 1, 7.0f}};
    d.apply(delta);
    d.validate();

    EXPECT_EQ(d.rows(), 3);
    EXPECT_EQ(d.base().nnz(), 3); // base untouched
    EXPECT_EQ(d.nnz(), 5);
    EXPECT_EQ(d.delta_edges(), 2);
    EXPECT_NEAR(d.delta_fraction(), 2.0 / 3.0, 1e-12);
    ASSERT_EQ(d.num_dirty_rows(), 2);
    EXPECT_EQ(d.dirty_row(0), 0);
    EXPECT_EQ(d.dirty_row(1), 1);

    std::vector<std::pair<index_t, value_t>> row0;
    d.for_each_in_row(0, [&](index_t c, value_t v) {
        row0.emplace_back(c, v);
    });
    std::vector<std::pair<index_t, value_t>> want0 = {
        {0, 1.0f}, {1, 7.0f}, {2, 2.0f}};
    EXPECT_EQ(row0, want0);

    CsrMatrix m = d.materialize();
    m.validate(CsrValidate::kStrict);
    EXPECT_EQ(m.row_ptr(), (std::vector<index_t>{0, 3, 4, 5}));
    EXPECT_EQ(m.col_idx(), (std::vector<index_t>{0, 1, 2, 3, 1}));
    EXPECT_EQ(m.values(),
              (std::vector<value_t>{1.0f, 7.0f, 2.0f, 5.0f, 3.0f}));
}

TEST(DeltaCsr, ValueChangeRemoveAndRevert)
{
    DeltaCsr d(CsrMatrix(3, 4, {0, 2, 2, 3}, {0, 2, 1}, {1, 2, 3}));

    GraphDelta change;
    change.upserts = {{0, 0, 9.0f}}; // value change: corr = 9 - 1
    change.removes = {{0, 2, 0.0f}, {2, 0, 0.0f}}; // (2,0) is absent
    d.apply(change);
    d.validate();
    EXPECT_EQ(d.nnz(), 2); // one removal, no inserts
    EXPECT_EQ(d.delta_edges(), 2);
    ASSERT_EQ(d.num_dirty_rows(), 1);

    bool saw_change = false, saw_remove = false;
    d.for_each_correction(0, [&](index_t c, value_t corr, value_t v,
                                 bool present) {
        if (c == 0) {
            saw_change = true;
            EXPECT_TRUE(present);
            EXPECT_EQ(v, 9.0f);
            EXPECT_EQ(corr, 8.0f);
        } else if (c == 2) {
            saw_remove = true;
            EXPECT_FALSE(present);
            EXPECT_EQ(corr, -2.0f);
        }
    });
    EXPECT_TRUE(saw_change);
    EXPECT_TRUE(saw_remove);

    // Reverting both edges to the base state empties the overlay.
    GraphDelta revert;
    revert.upserts = {{0, 0, 1.0f}, {0, 2, 2.0f}};
    d.apply(revert);
    d.validate();
    EXPECT_EQ(d.delta_edges(), 0);
    EXPECT_EQ(d.num_dirty_rows(), 0);
    EXPECT_EQ(d.nnz(), d.base().nnz());
}

TEST(DeltaCsr, RemovesWinOverUpsertsWithinOneBatch)
{
    DeltaCsr d(CsrMatrix(2, 4, {0, 1, 1}, {0}, {1}));
    GraphDelta delta;
    delta.upserts = {{0, 1, 5.0f}, {0, 1, 6.0f}};
    delta.removes = {{0, 1, 0.0f}};
    d.apply(delta);
    d.validate();
    // Insert-then-remove of an absent edge cancels entirely.
    EXPECT_EQ(d.delta_edges(), 0);
    EXPECT_EQ(d.nnz(), 1);

    // A later batch lands the edge with the last upsert's value.
    GraphDelta again;
    again.upserts = {{0, 1, 4.0f}};
    d.apply(again);
    std::vector<value_t> vals;
    d.for_each_in_row(0, [&](index_t, value_t v) { vals.push_back(v); });
    EXPECT_EQ(vals, (std::vector<value_t>{1.0f, 4.0f}));
}

TEST(DeltaCsr, CompactReportsFirstStructuralDirtyRow)
{
    CsrMatrix base(4, 4, {0, 1, 2, 3, 4}, {0, 1, 2, 3}, {1, 1, 1, 1});
    {
        // Value-only churn never dirties the merge path.
        DeltaCsr d(base);
        GraphDelta delta;
        delta.upserts = {{0, 0, 5.0f}, {3, 3, 7.0f}};
        d.apply(delta);
        DeltaCsr::CompactResult cr = d.compact();
        EXPECT_EQ(cr.first_dirty_row, 4);
        EXPECT_EQ(cr.old_base->row_ptr(), cr.new_base->row_ptr());
        EXPECT_EQ(cr.new_base->values()[0], 5.0f);
        EXPECT_EQ(d.delta_edges(), 0);
        EXPECT_EQ(&d.base(), cr.new_base.get());
    }
    {
        // Value change at row 0 plus an insert at row 2: the first
        // STRUCTURALLY dirty row is 2.
        DeltaCsr d(base);
        GraphDelta delta;
        delta.upserts = {{0, 0, 5.0f}, {2, 0, 1.0f}};
        d.apply(delta);
        CsrMatrix expect = d.materialize();
        DeltaCsr::CompactResult cr = d.compact();
        EXPECT_EQ(cr.first_dirty_row, 2);
        EXPECT_EQ(cr.new_base->row_ptr(), expect.row_ptr());
        EXPECT_EQ(cr.new_base->col_idx(), expect.col_idx());
        EXPECT_EQ(cr.new_base->values(), expect.values());
        cr.new_base->validate(CsrValidate::kStrict);
    }
}

TEST(DeltaCsr, CompactionThresholdFollowsRatio)
{
    Pcg32 rng(11);
    DeltaCsr d(even_col_csr(rng, 10, 10, 4));
    const index_t base_nnz = d.base().nnz();
    ASSERT_GT(base_nnz, 4);
    d.set_compact_ratio(2.0 / static_cast<double>(base_nnz));

    GraphDelta one;
    one.upserts = {{0, 1, 1.0f}};
    d.apply(one);
    EXPECT_FALSE(d.needs_compaction()); // 1/nnz < 2/nnz

    GraphDelta two;
    two.upserts = {{1, 1, 1.0f}, {2, 1, 1.0f}};
    d.apply(two);
    EXPECT_TRUE(d.needs_compaction()); // 3/nnz > 2/nnz
}

TEST(DeltaCsrDeathTest, StrictValidationRejectsMalformedColumns)
{
    // Both pass the structural level (construction) but fail kStrict.
    CsrMatrix unsorted(1, 3, {0, 2}, {2, 1}, {1.0f, 1.0f});
    unsorted.validate(); // structural: fine
    EXPECT_DEATH(unsorted.validate(CsrValidate::kStrict),
                 "unsorted or duplicate");

    CsrMatrix dup(1, 3, {0, 2}, {1, 1}, {1.0f, 1.0f});
    EXPECT_DEATH(dup.validate(CsrValidate::kStrict),
                 "unsorted or duplicate");

    // The delta overlay's merge needs sorted bases: the ctor enforces.
    EXPECT_DEATH(DeltaCsr(CsrMatrix(1, 3, {0, 2}, {2, 1}, {1.0f, 1.0f})),
                 "unsorted or duplicate");
}

// --- Incremental schedule repair ----------------------------------

TEST(ScheduleRepair, SuffixDeltaMatchesFreshBuild)
{
    Pcg32 rng(42);
    CsrMatrix base = even_col_csr(rng, 200, 100, 6);
    const index_t threads = 16;
    MergePathSchedule old_sched = MergePathSchedule::build(base, threads);

    // Structural churn confined to rows >= 120: odd-column inserts
    // (guaranteed absent) and removals of existing edges.
    DeltaCsr d(base);
    GraphDelta delta;
    for (index_t r = 120; r < 200; r += 3)
        delta.upserts.push_back(
            {r, 2 * static_cast<index_t>(rng.next_below(100)) + 1,
             static_cast<value_t>(1 + rng.next_below(3))});
    for (index_t r = 121; r < 200; r += 5)
        if (base.degree(r) > 0)
            delta.removes.push_back(
                {r, base.col_idx()[base.row_begin(r)], 0.0f});
    d.apply(delta);
    DeltaCsr::CompactResult cr = d.compact();
    ASSERT_GE(cr.first_dirty_row, 120);
    ASSERT_LT(cr.first_dirty_row, 200);

    ScheduleRepair rep = repair_schedule(old_sched, *cr.old_base,
                                         *cr.new_base,
                                         cr.first_dirty_row);
    const CsrMatrix &fresh_a = *cr.new_base;
    rep.schedule.validate(fresh_a);
    EXPECT_FALSE(rep.rebuilt); // small suffix delta: no fallback
    EXPECT_GT(rep.dirty_begin, 0);
    EXPECT_EQ(rep.dirty_end, threads);
    for (index_t t = 0; t < rep.dirty_begin; ++t) {
        EXPECT_EQ(rep.schedule.work(t).start.row,
                  old_sched.work(t).start.row);
        EXPECT_EQ(rep.schedule.work(t).start.nz,
                  old_sched.work(t).start.nz);
    }

    // The repaired schedule and a fresh build produce bit-identical
    // SpMM results (integer data makes row sums order-independent).
    // Covers: the repaired and the freshly built schedule (same thread
    // count, different boundaries) on a 4-worker pool, both against
    // reference_spmm's row order.
    WorkStealPool pool(4);
    DenseMatrix b(fresh_a.cols(), 17);
    fill_integers(b, rng);
    DenseMatrix expect(fresh_a.rows(), 17);
    reference_spmm(fresh_a, b, expect);
    DenseMatrix repaired_out(fresh_a.rows(), 17);
    mergepath_spmm_parallel(fresh_a, b, repaired_out, rep.schedule,
                            pool);
    expect_bits_equal(repaired_out, expect, "repaired schedule");
    MergePathSchedule fresh =
        MergePathSchedule::build(fresh_a, threads);
    DenseMatrix fresh_out(fresh_a.rows(), 17);
    mergepath_spmm_parallel(fresh_a, b, fresh_out, fresh, pool);
    expect_bits_equal(fresh_out, repaired_out, "fresh vs repaired");

    // Re-censusing only the dirty range reproduces the full census.
    ScheduleCensusPart clean =
        rep.schedule.census_part(fresh_a, 0, rep.dirty_begin);
    ScheduleCensusPart dirty =
        rep.schedule.census_part(fresh_a, rep.dirty_begin, threads);
    expect_census_equal(clean.merged(dirty).counts,
                        rep.schedule.census(fresh_a));
}

TEST(ScheduleRepair, ValueOnlyDeltaKeepsScheduleVerbatim)
{
    Pcg32 rng(7);
    CsrMatrix base = even_col_csr(rng, 64, 32, 5);
    MergePathSchedule old_sched = MergePathSchedule::build(base, 8);

    CsrMatrix scaled = base;
    for (value_t &v : scaled.values())
        v *= 2.0f;
    ScheduleRepair rep =
        repair_schedule(old_sched, base, scaled, base.rows());
    EXPECT_FALSE(rep.rebuilt);
    EXPECT_EQ(rep.dirty_begin, rep.dirty_end); // nothing to re-census
    ASSERT_EQ(rep.schedule.num_threads(), old_sched.num_threads());
    for (index_t t = 0; t < old_sched.num_threads(); ++t) {
        EXPECT_EQ(rep.schedule.work(t).start.row,
                  old_sched.work(t).start.row);
        EXPECT_EQ(rep.schedule.work(t).start.nz,
                  old_sched.work(t).start.nz);
    }
}

TEST(ScheduleRepair, LeadingDirtyRowFallsBackToRebuild)
{
    Pcg32 rng(13);
    CsrMatrix base = even_col_csr(rng, 64, 32, 5);
    MergePathSchedule old_sched = MergePathSchedule::build(base, 8);

    DeltaCsr d(base);
    GraphDelta delta;
    delta.upserts = {{0, 1, 2.0f}};
    d.apply(delta);
    DeltaCsr::CompactResult cr = d.compact();
    ASSERT_EQ(cr.first_dirty_row, 0);
    ScheduleRepair rep =
        repair_schedule(old_sched, *cr.old_base, *cr.new_base, 0);
    EXPECT_TRUE(rep.rebuilt);
    EXPECT_EQ(rep.dirty_begin, 0);
    EXPECT_EQ(rep.dirty_end, old_sched.num_threads());
    rep.schedule.validate(*cr.new_base);
}

TEST(ScheduleCensus, AdjacentPartsMergeToFullCensus)
{
    Pcg32 rng(99);
    CsrMatrix a = even_col_csr(rng, 120, 60, 7);
    const index_t threads = 37;
    MergePathSchedule sched = MergePathSchedule::build(a, threads);
    ScheduleCensus full = sched.census(a);
    for (index_t split : {index_t{0}, index_t{1}, index_t{17},
                          index_t{36}, threads}) {
        ScheduleCensusPart left = sched.census_part(a, 0, split);
        ScheduleCensusPart right = sched.census_part(a, split, threads);
        expect_census_equal(left.merged(right).counts, full);
    }
}

// --- ScheduleCache migration + LRU cap ----------------------------

TEST(ScheduleCacheDynamic, LruCapEvictsOldestEntries)
{
    Pcg32 rng(3);
    CsrMatrix a = even_col_csr(rng, 80, 40, 5);
    ScheduleCache cache;
    cache.set_max_entries(3);
    for (index_t t = 1; t <= 6; ++t)
        cache.get_or_build(a, t);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.evictions(), 3);

    // The most recent entries survived: re-fetching them hits.
    const int64_t hits_before = cache.hits();
    cache.get_or_build(a, 6);
    cache.get_or_build(a, 5);
    EXPECT_EQ(cache.hits(), hits_before + 2);
    EXPECT_EQ(cache.size(), 3u);
}

TEST(ScheduleCacheDynamic, RepairMigratesEntriesAndBumpsVersion)
{
    Pcg32 rng(21);
    CsrMatrix base = even_col_csr(rng, 150, 75, 6);
    ScheduleCache cache;
    const index_t cost = 64;
    auto sched = cache.get_or_build_with_cost(base, cost);
    ScheduleCensus census_before = cache.census_with_cost(base, cost);
    expect_census_equal(census_before, sched->census(base));
    EXPECT_EQ(cache.version_with_cost(base, cost), 1u);

    // Structural delta away from row 0, then compact + migrate.
    DeltaCsr d(base);
    GraphDelta delta;
    for (index_t r = 100; r < 150; r += 4)
        delta.upserts.push_back({r, 1, 1.0f});
    d.apply(delta);
    DeltaCsr::CompactResult cr = d.compact();
    ASSERT_GE(cr.first_dirty_row, 100);
    EXPECT_EQ(cache.repair_for_update(*cr.old_base, *cr.new_base,
                                      cr.first_dirty_row),
              1u);

    const CsrMatrix &fresh_a = *cr.new_base;
    EXPECT_EQ(cache.version_with_cost(base, cost), 0u); // old key gone
    EXPECT_EQ(cache.version_with_cost(fresh_a, cost), 2u);

    // A lookup on the new matrix hits the migrated entry...
    const int64_t hits_before = cache.hits();
    auto migrated = cache.get_or_build_with_cost(fresh_a, cost);
    EXPECT_EQ(cache.hits(), hits_before + 1);
    EXPECT_EQ(cache.size(), 1u);
    migrated->validate(fresh_a);
    // ...and its chunk-cached census matches a from-scratch count.
    expect_census_equal(cache.census_with_cost(fresh_a, cost),
                        migrated->census(fresh_a));
}

} // namespace

// --- Server integration -------------------------------------------

namespace serve {
namespace {

/** Serving fixture with a shadow DeltaCsr mirroring every update. */
class DynamicServeFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        PowerLawParams p;
        p.nodes = 64;
        p.target_nnz = 512;
        p.max_degree = 16;
        p.seed = 5;
        p.value_mode = ValueMode::kGcnNormalized;
        graph_ = power_law_graph(p);
        layers_.emplace_back(random_layer_weights(8, 6, 21),
                             Activation::kRelu);
        layers_.emplace_back(random_layer_weights(6, 4, 22),
                             Activation::kNone);
        Pcg32 rng(77);
        features_ = DenseMatrix(graph_.rows(), 8);
        features_.fill_random(rng);
    }

    /** out = act(A * (x * W)) per layer against @p adjacency. */
    DenseMatrix
    reference_forward(const CsrMatrix &adjacency,
                      const DenseMatrix &x) const
    {
        DenseMatrix cur = x;
        for (const GcnLayer &layer : layers_) {
            DenseMatrix xw(adjacency.rows(), layer.out_features());
            reference_gemm(cur, layer.weights(), xw);
            DenseMatrix out(adjacency.rows(), layer.out_features());
            reference_spmm(adjacency, xw, out);
            apply_activation(out, layer.activation());
            cur = std::move(out);
        }
        return cur;
    }

    GraphDelta
    mixed_delta(uint64_t seed, int edges) const
    {
        Pcg32 rng(seed);
        GraphDelta delta;
        const auto n = static_cast<uint32_t>(graph_.rows());
        for (int i = 0; i < edges; ++i) {
            EdgeUpdate e;
            e.row = static_cast<index_t>(rng.next_below(n));
            e.col = static_cast<index_t>(rng.next_below(n));
            e.value = 0.25f * static_cast<value_t>(1 + rng.next_below(3));
            delta.upserts.push_back(e);
        }
        for (index_t r = 0; r < graph_.rows(); r += 11)
            if (graph_.degree(r) > 0)
                delta.removes.push_back(
                    {r, graph_.col_idx()[graph_.row_begin(r)], 0.0f});
        return delta;
    }

    CsrMatrix graph_;
    std::vector<GcnLayer> layers_;
    DenseMatrix features_;
};

TEST_F(DynamicServeFixture, UpdateGraphChangesInferenceResults)
{
    Server server;
    uint64_t gid = server.register_graph(graph_, layers_);
    EXPECT_TRUE(server.infer(gid, features_)
                    .output.approx_equal(
                        reference_forward(graph_, features_)));

    DeltaCsr shadow(graph_);
    GraphDelta delta = mixed_delta(31, 12);
    shadow.apply(delta);
    ASSERT_TRUE(server.update_graph(gid, delta));
    EXPECT_EQ(server.graph_nnz(gid), shadow.nnz());
    EXPECT_GT(server.graph_delta_fraction(gid), 0.0);

    InferenceResult r = server.infer(gid, features_);
    ASSERT_EQ(r.status, RequestStatus::kOk);
    EXPECT_TRUE(r.output.approx_equal(
        reference_forward(shadow.materialize(), features_)));

    ServerStats stats = server.stats();
    EXPECT_EQ(stats.graph_updates, 1);
    EXPECT_EQ(stats.graph_compactions, 0); // small delta, lazy policy
}

TEST_F(DynamicServeFixture, UpdateGraphRejectsUnknownAndShutdown)
{
    Server server;
    uint64_t gid = server.register_graph(graph_, layers_);
    EXPECT_FALSE(server.update_graph(gid + 99, mixed_delta(1, 2)));
    server.shutdown();
    EXPECT_FALSE(server.update_graph(gid, mixed_delta(1, 2)));
}

TEST_F(DynamicServeFixture, RebuildPolicyCompactsEveryUpdate)
{
    ServeConfig cfg;
    cfg.update_policy = GraphUpdatePolicy::kRebuildEveryUpdate;
    Server server(cfg);
    uint64_t gid = server.register_graph(graph_, layers_);
    DeltaCsr shadow(graph_);
    for (uint64_t i = 0; i < 3; ++i) {
        GraphDelta delta = mixed_delta(40 + i, 6);
        shadow.apply(delta);
        ASSERT_TRUE(server.update_graph(gid, delta));
        EXPECT_EQ(server.graph_delta_fraction(gid), 0.0);
    }
    EXPECT_EQ(server.stats().graph_compactions, 3);
    EXPECT_TRUE(server.infer(gid, features_)
                    .output.approx_equal(reference_forward(
                        shadow.materialize(), features_)));
}

TEST_F(DynamicServeFixture, IncrementalPolicyCompactsPastThreshold)
{
    ServeConfig cfg;
    cfg.delta_compact_ratio = 0.005; // ~3 edges on 512 nnz
    Server server(cfg);
    uint64_t gid = server.register_graph(graph_, layers_);
    DeltaCsr shadow(graph_);
    shadow.set_compact_ratio(cfg.delta_compact_ratio);
    GraphDelta delta = mixed_delta(50, 20);
    shadow.apply(delta);
    shadow.compact();
    ASSERT_TRUE(server.update_graph(gid, delta));
    EXPECT_EQ(server.stats().graph_compactions, 1);
    EXPECT_EQ(server.graph_delta_fraction(gid), 0.0);
    EXPECT_EQ(server.graph_nnz(gid), shadow.nnz());
    EXPECT_TRUE(server.infer(gid, features_)
                    .output.approx_equal(reference_forward(
                        shadow.base(), features_)));
}

TEST_F(DynamicServeFixture, CacheCapHoldsUnderRepeatedUpdates)
{
    ServeConfig cfg;
    cfg.delta_compact_ratio = 1e-6; // compact (and migrate) every time
    Server server(cfg);
    server.schedule_cache().set_max_entries(4);
    uint64_t gid = server.register_graph(graph_, layers_);
    for (uint64_t i = 0; i < 12; ++i) {
        ASSERT_TRUE(server.update_graph(gid, mixed_delta(70 + i, 5)));
        ASSERT_EQ(server.infer(gid, features_).status,
                  RequestStatus::kOk);
        EXPECT_LE(server.schedule_cache().size(), 4u);
    }
    // Force churn past the cap with direct builds as well.
    for (index_t t = 1; t <= 8; ++t)
        server.schedule_cache().get_or_build(graph_, t);
    EXPECT_LE(server.schedule_cache().size(), 4u);
    EXPECT_GT(server.schedule_cache().evictions(), 0);
}

/**
 * Concurrent update/serve: clients infer while an updater thread lands
 * zero-valued edge inserts (structure changes, results don't), with a
 * compaction threshold low enough that bases and schedules churn mid-
 * flight. Every result must match the static reference — this is the
 * TSan target of check.sh's churn stage.
 */
TEST_F(DynamicServeFixture, ConcurrentUpdatesAndInference)
{
    // Diagonal adjacency: A = I, so act(XW) is the invariant reference
    // no matter how many zero-valued edges the updater inserts.
    const index_t n = 64;
    std::vector<index_t> row_ptr(static_cast<size_t>(n) + 1);
    std::vector<index_t> cols(static_cast<size_t>(n));
    std::vector<value_t> vals(static_cast<size_t>(n), 1.0f);
    for (index_t r = 0; r <= n; ++r)
        row_ptr[static_cast<size_t>(r)] = r;
    for (index_t r = 0; r < n; ++r)
        cols[static_cast<size_t>(r)] = r;
    CsrMatrix diag(n, n, std::move(row_ptr), std::move(cols),
                   std::move(vals));

    ServeConfig cfg;
    cfg.batch.max_batch = 4;
    cfg.batch.max_delay_us = 200;
    cfg.delta_compact_ratio = 0.02; // compact roughly every other batch
    Server server(cfg);
    uint64_t gid = server.register_graph(diag, layers_);
    DenseMatrix expect = reference_forward(diag, features_);

    std::atomic<int> ok{0};
    constexpr int kClients = 3;
    constexpr int kPerClient = 10;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&] {
            for (int i = 0; i < kPerClient; ++i) {
                InferenceResult r = server.infer(gid, features_);
                if (r.status == RequestStatus::kOk &&
                    r.output.approx_equal(expect))
                    ok.fetch_add(1);
            }
        });
    }
    std::thread updater([&] {
        Pcg32 rng(404);
        for (int u = 0; u < 20; ++u) {
            GraphDelta delta;
            for (int e = 0; e < 4; ++e) {
                index_t r = static_cast<index_t>(
                    rng.next_below(static_cast<uint32_t>(n)));
                index_t c = static_cast<index_t>(
                    1 + rng.next_below(static_cast<uint32_t>(n) - 1));
                delta.upserts.push_back(
                    {r, static_cast<index_t>((r + c) % n), 0.0f});
            }
            ASSERT_TRUE(server.update_graph(gid, delta));
            std::this_thread::yield();
        }
    });
    for (auto &t : clients)
        t.join();
    updater.join();
    server.shutdown();

    EXPECT_EQ(ok.load(), kClients * kPerClient);
    ServerStats stats = server.stats();
    EXPECT_EQ(stats.graph_updates, 20);
    EXPECT_GE(stats.graph_compactions, 1);
}

} // namespace
} // namespace serve
} // namespace mps
