/**
 * @file
 * Bit-determinism of the multi-thread merge-path paths. Split rows
 * are finished by the carry fix-up, which sums each row's partial sums
 * in thread order. The output therefore depends on the schedule alone:
 * one schedule run on pools of 1, 3 and 8 workers, and on one thread,
 * must give bitwise-equal results. Each case uses a schedule with many
 * split rows (power-law hubs cut across dozens of threads). The pool
 * cases also run under ThreadSanitizer in tools/check.sh, as does the
 * check that the batched commit epilogue sees every row exactly once.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "mps/core/fusion.h"
#include "mps/core/hybrid.h"
#include "mps/core/spmm.h"
#include "mps/gcn/activation.h"
#include "mps/gcn/gemm.h"
#include "mps/gcn/model.h"
#include "mps/sparse/generate.h"
#include "mps/util/rng.h"
#include "mps/util/work_steal_pool.h"

namespace mps {
namespace {

constexpr unsigned kPoolSizes[] = {1, 3, 8};

DenseMatrix
random_dense(index_t rows, index_t cols, uint64_t seed)
{
    DenseMatrix m(rows, cols);
    Pcg32 rng(seed);
    m.fill_random(rng);
    return m;
}

/** Hub rows several times the merge-path cost: many split rows. */
CsrMatrix
hub_graph()
{
    PowerLawParams p;
    p.nodes = 3000;
    p.target_nnz = 30000;
    p.max_degree = 1500;
    p.seed = 41;
    CsrMatrix a = power_law_graph(p);
    a.normalize_gcn();
    return a;
}

void
expect_bitwise(const DenseMatrix &got, const DenseMatrix &want,
               const std::string &what)
{
    ASSERT_EQ(got.rows(), want.rows()) << what;
    ASSERT_EQ(got.cols(), want.cols()) << what;
    for (index_t r = 0; r < got.rows(); ++r)
        for (index_t c = 0; c < got.cols(); ++c)
            ASSERT_EQ(got(r, c), want(r, c))
                << what << " differs at (" << r << ", " << c << ")";
}

/**
 * Run @p fn(pool, out) once per pool size and require every output
 * to equal @p want bit for bit.
 */
template <class F>
void
expect_same_on_every_pool(const DenseMatrix &want, const std::string &what,
                          const F &fn)
{
    for (unsigned workers : kPoolSizes) {
        WorkStealPool pool(workers);
        DenseMatrix got(want.rows(), want.cols());
        fn(pool, got);
        expect_bitwise(got, want,
                       what + " on " + std::to_string(workers) +
                           " workers");
    }
}

TEST(Determinism, ScheduleHasManySplitRows)
{
    CsrMatrix a = hub_graph();
    MergePathSchedule sched = MergePathSchedule::build(a, 97);
    const SplitRowList split = sched.split_row_list(a);
    EXPECT_GE(split.size(), 20);
    EXPECT_EQ(split.size(), sched.census(a).split_rows);
}

/** mergepath_spmm_parallel, untiled and column-tiled, at d=16 and 33. */
TEST(Determinism, MergePathParallelAcrossPoolSizes)
{
    CsrMatrix a = hub_graph();
    MergePathSchedule sched = MergePathSchedule::build(a, 97);
    for (index_t dim : {16, 33}) {
        DenseMatrix b = random_dense(a.cols(), dim, 7);
        for (index_t tile : {0, 16}) {
            SpmmLocality loc;
            loc.tile_d = tile;
            DenseMatrix want(a.rows(), dim);
            mergepath_spmm_sequential(a, b, want, sched, loc);
            expect_same_on_every_pool(
                want,
                "mergepath d=" + std::to_string(dim) +
                    " tile=" + std::to_string(tile),
                [&](WorkStealPool &pool, DenseMatrix &out) {
                    mergepath_spmm_parallel(a, b, out, sched, pool, loc);
                });
        }
    }
}

/** bf16 operands go through the same carry fix-up. */
TEST(Determinism, QuantizedOperandsAcrossPoolSizes)
{
    CsrMatrix a = hub_graph();
    MergePathSchedule sched = MergePathSchedule::build(a, 97);
    HybridSchedule hs = HybridSchedule::build(a, 40);
    DenseMatrix b = random_dense(a.cols(), 32, 9);
    b.quantize(StorageMode::kBf16);
    DenseMatrix want(a.rows(), 32);
    mergepath_spmm_sequential(a, b, want, sched);
    expect_same_on_every_pool(
        want, "mergepath bf16", [&](WorkStealPool &pool, DenseMatrix &out) {
            mergepath_spmm_parallel(a, b, out, sched, pool,
                                    SpmmLocality{});
        });
    DenseMatrix hwant(a.rows(), 32);
    hybrid_spmm_sequential(a, hs, b, hwant);
    expect_same_on_every_pool(
        hwant, "hybrid bf16", [&](WorkStealPool &pool, DenseMatrix &out) {
            hybrid_spmm_parallel(a, hs, b, out, pool, SpmmLocality{});
        });
}

/** The two-phase hybrid: dense bands plus a split merge-path tail. */
TEST(Determinism, HybridAcrossPoolSizes)
{
    CsrMatrix a = hub_graph();
    HybridSchedule hs = HybridSchedule::build(a, 40);
    ASSERT_TRUE(hs.has_tail());
    ASSERT_FALSE(hs.split_row_list(a).empty());
    DenseMatrix b = random_dense(a.cols(), 16, 11);
    DenseMatrix want(a.rows(), 16);
    hybrid_spmm_sequential(a, hs, b, want);
    expect_same_on_every_pool(
        want, "hybrid", [&](WorkStealPool &pool, DenseMatrix &out) {
            hybrid_spmm_parallel(a, hs, b, out, pool, SpmmLocality{});
        });

    // The fused hybrid panel path, activation fired in the fix-up.
    SpmmLocality loc;
    loc.tile_d = 16;
    DenseMatrix fwant(a.rows(), 32);
    DenseMatrix xw = random_dense(a.cols(), 32, 12);
    {
        WorkStealPool pool(2);
        FusedLayerPlan plan(a, 32, borrow_hybrid_schedule(hs), loc);
        plan.run(slice_panel_source(xw), fwant, pool,
                 activation_epilogue(Activation::kRelu));
    }
    expect_same_on_every_pool(
        fwant, "fused hybrid", [&](WorkStealPool &pool, DenseMatrix &out) {
            FusedLayerPlan plan(a, 32, borrow_hybrid_schedule(hs), loc);
            plan.run(slice_panel_source(xw), out, pool,
                     activation_epilogue(Activation::kRelu));
        });
}

/**
 * FusedLayerPlan::run with a GEMM panel source and the activation
 * epilogue, and run_streaming with the rank-update epilogue that
 * builds the next layer's XW: both across pool sizes, and run()
 * equal to the unfused GEMM -> SpMM -> activation on the same
 * multi-thread schedule.
 */
TEST(Determinism, FusedPlansAcrossPoolSizes)
{
    CsrMatrix a = hub_graph();
    MergePathSchedule sched = MergePathSchedule::build(a, 97);
    const index_t f = 16, hidden = 64, classes = 16;
    DenseMatrix x = random_dense(a.rows(), f, 21);
    DenseMatrix w1 = random_dense(f, hidden, 22);
    DenseMatrix w2 = random_dense(hidden, classes, 23);
    SpmmLocality loc;
    loc.tile_d = 16;

    // Unfused reference: GEMM, then the sequential sweep.
    DenseMatrix want(a.rows(), hidden);
    {
        WorkStealPool pool(2);
        DenseMatrix xw(a.rows(), hidden);
        dense_gemm(x, w1, xw, pool);
        mergepath_spmm_sequential(a, xw, want, sched, loc);
        apply_activation(want, Activation::kRelu);
    }
    expect_same_on_every_pool(
        want, "fused run", [&](WorkStealPool &pool, DenseMatrix &out) {
            FusedLayerPlan plan(a, hidden, borrow_schedule(sched), loc);
            plan.run(gemm_panel_source(x, w1, pool), out, pool,
                     activation_epilogue(Activation::kRelu));
        });

    const auto stream = [&](WorkStealPool &pool, DenseMatrix &xw2) {
        FusedLayerPlan plan(a, hidden, borrow_schedule(sched), loc);
        xw2.fill(0.0f);
        RankUpdateEpilogue rank = make_rank_update_epilogue(
            Activation::kRelu, w2, xw2);
        plan.run_streaming(
            gemm_panel_source(x, w1, pool),
            [&rank](index_t col0, index_t width) {
                rank.w_row0 = col0 + width;
            },
            pool, &RankUpdateEpilogue::apply, &rank);
    };
    DenseMatrix xw2_want(a.rows(), classes);
    {
        WorkStealPool pool(2);
        stream(pool, xw2_want);
    }
    expect_same_on_every_pool(xw2_want, "fused rank-update stream",
                              stream);
}

/**
 * The tile rank update (a bf16_panel destination): the streamed
 * rank-update run on one full-width panel writes the same bf16 rows on
 * every pool size, whichever executor finishes a row and whatever
 * batch carries it; and a whole bf16 128-128-16 model, whose layer 0
 * combines first and hands layer 1 that handoff, gives the same output
 * bits on every pool.
 */
TEST(Determinism, TileRankUpdateAcrossPoolSizes)
{
    if (!amx_rank_update_enabled())
        GTEST_SKIP() << "this host grants no AMX tiles";
    CsrMatrix a = hub_graph();
    MergePathSchedule sched = MergePathSchedule::build(a, 97);
    const index_t f = 128, hidden = 128, classes = 16;
    DenseMatrix x = random_dense(a.rows(), f, 41);
    DenseMatrix w1 = random_dense(f, hidden, 42);
    DenseMatrix w2 = random_dense(hidden, classes, 43);
    SpmmLocality loc; // tile_d 0: one full-width panel

    const auto stream = [&](WorkStealPool &pool) {
        FusedLayerPlan plan(a, hidden, borrow_schedule(sched), loc);
        plan.set_precision(StorageMode::kBf16);
        DenseMatrix xw2 = DenseMatrix::bf16_panel(a.rows(), classes);
        const RankUpdateEpilogue rank = make_rank_update_epilogue(
            Activation::kRelu, w2, xw2);
        plan.run_streaming(gemm_panel_source(x, w1, pool), {}, pool,
                           &RankUpdateEpilogue::apply, &rank);
        return xw2;
    };
    DenseMatrix want;
    {
        WorkStealPool pool(2);
        want = stream(pool);
    }
    for (unsigned workers : kPoolSizes) {
        WorkStealPool pool(workers);
        const DenseMatrix got = stream(pool);
        for (index_t r = 0; r < a.rows(); ++r)
            ASSERT_EQ(std::memcmp(got.row_bf16(r), want.row_bf16(r),
                                  static_cast<size_t>(classes) *
                                      sizeof(bf16_t)),
                      0)
                << "tile rank update on " << workers
                << " workers differs in row " << r;
    }

    DenseMatrix model_want;
    {
        WorkStealPool pool(2);
        GcnModel model = GcnModel::two_layer(f, hidden, classes, 44);
        model.set_precision(StorageMode::kBf16);
        model_want = model.infer(a, x, pool);
    }
    expect_same_on_every_pool(
        model_want, "bf16 model with the tile rank update",
        [&](WorkStealPool &pool, DenseMatrix &out) {
            GcnModel model = GcnModel::two_layer(f, hidden, classes, 44);
            model.set_precision(StorageMode::kBf16);
            out = model.infer(a, x, pool);
        });
}

/**
 * Aggregate-first layers: the sweep runs at the narrow input width and
 * the combine epilogue finishes each row, storing act(t * W) as the
 * next layer's input or folding it into the next layer's XW. Both
 * handoffs on one many-split-row schedule, then a whole widening model
 * (16 -> 64 -> 16, layer 0 aggregating first) whose schedule depends
 * on the graph and the host, not the pool: all bitwise across pools.
 */
TEST(Determinism, AggregateFirstAcrossPoolSizes)
{
    CsrMatrix a = hub_graph();
    MergePathSchedule sched = MergePathSchedule::build(a, 97);
    const index_t f = 16, hidden = 64, classes = 16;
    DenseMatrix x = random_dense(a.rows(), f, 31);
    DenseMatrix w1 = random_dense(f, hidden, 32);
    DenseMatrix w2 = random_dense(hidden, classes, 33);

    const auto combine = [&](const DenseMatrix *w_next) {
        return [&a, &sched, &x, &w1, w_next](WorkStealPool &pool,
                                             DenseMatrix &out) {
            FusedLayerPlan plan(a, f, borrow_schedule(sched),
                                SpmmLocality{});
            out.fill(0.0f);
            const CombineEpilogue epi = make_combine_epilogue(
                Activation::kRelu, w1, out, w_next);
            plan.run_streaming(slice_panel_source(x), {}, pool,
                               &CombineEpilogue::apply, &epi);
        };
    };
    const DenseMatrix *const handoffs[] = {nullptr, &w2};
    for (const DenseMatrix *w_next : handoffs) {
        const std::string what =
            w_next == nullptr ? "combine store" : "combine fold";
        DenseMatrix want(a.rows(), w_next == nullptr ? hidden : classes);
        {
            WorkStealPool pool(2);
            combine(w_next)(pool, want);
        }
        expect_same_on_every_pool(want, what, combine(w_next));
    }

    GcnModel proto = GcnModel::two_layer(f, hidden, classes, 34);
    ASSERT_TRUE(proto.layer_plans(a)[0].aggregate_first);
    DenseMatrix want;
    {
        WorkStealPool pool(2);
        want = proto.infer(a, x, pool);
    }
    expect_same_on_every_pool(
        want, "aggregate-first model",
        [&](WorkStealPool &pool, DenseMatrix &out) {
            GcnModel model = GcnModel::two_layer(f, hidden, classes, 34);
            out = model.infer(a, x, pool);
        });
}

/**
 * Epilogue census of one fused run: how often each (panel, row) was
 * handed over, and how many calls broke the batch contract or passed
 * a row pointer that is not the row's committed slice. A streamed run
 * (c == nullptr) commits nothing, so only its rows' ids are checked;
 * its epilogue sees panel-local columns, and the consumer advances
 * @p panel instead.
 */
struct RowCensus
{
    const DenseMatrix *c = nullptr;
    index_t n = 0;
    index_t tile = 0;
    index_t panel = 0;
    mutable std::vector<std::atomic<int>> seen;
    mutable std::atomic<int> bad_counts{0};
    mutable std::atomic<int> bad_rows{0};

    static void count(const FinishedRow *rows, int count, index_t c_col0,
                      index_t width, const void *ctx)
    {
        const auto &e = *static_cast<const RowCensus *>(ctx);
        if (count < 1 || count > kEpilogueBatchRows)
            e.bad_counts.fetch_add(1);
        const index_t panel = e.c != nullptr ? c_col0 / e.tile : e.panel;
        for (int i = 0; i < count; ++i) {
            const index_t row = rows[i].row;
            if (row < 0 || row >= e.n || width <= 0) {
                e.bad_rows.fetch_add(1);
                continue;
            }
            if (e.c != nullptr && rows[i].crow != e.c->row(row) + c_col0) {
                e.bad_rows.fetch_add(1);
                continue;
            }
            e.seen[static_cast<size_t>(panel * e.n + row)].fetch_add(1);
        }
    }
};

/**
 * Every finished row reaches the epilogue exactly once per panel, in
 * calls of 1..kEpilogueBatchRows rows, whatever the batch fill: the
 * merge-path and hybrid plans, materialized and streamed, on every
 * pool size, over a schedule with many split rows.
 */
TEST(Determinism, EpilogueSeesEveryRowOnce)
{
    CsrMatrix a = hub_graph();
    MergePathSchedule sched = MergePathSchedule::build(a, 97);
    HybridSchedule hs = HybridSchedule::build(a, 40);
    ASSERT_FALSE(sched.split_row_list(a).empty());
    ASSERT_FALSE(hs.split_row_list(a).empty());
    const index_t n = a.rows(), dim = 32;
    DenseMatrix xw = random_dense(a.cols(), dim, 51);
    for (const bool hybrid : {false, true})
        for (const bool streamed : {false, true})
            for (unsigned workers : kPoolSizes) {
                SCOPED_TRACE(std::string(hybrid ? "hybrid" : "mergepath") +
                             (streamed ? " streamed" : "") + " on " +
                             std::to_string(workers) + " workers");
                WorkStealPool pool(workers);
                SpmmLocality loc;
                loc.tile_d = 16;
                FusedLayerPlan plan =
                    hybrid ? FusedLayerPlan(a, dim,
                                            borrow_hybrid_schedule(hs), loc)
                           : FusedLayerPlan(a, dim, borrow_schedule(sched),
                                            loc);
                DenseMatrix out(n, dim);
                RowCensus census;
                census.c = streamed ? nullptr : &out;
                census.n = n;
                census.tile = streamed ? plan.tile() : plan.run_tile();
                const index_t panels = (dim + census.tile - 1) / census.tile;
                census.seen = std::vector<std::atomic<int>>(
                    static_cast<size_t>(panels * n));
                if (streamed)
                    plan.run_streaming(
                        slice_panel_source(xw),
                        [&census](index_t col0, index_t width) {
                            census.panel = (col0 + width) / census.tile;
                        },
                        pool, &RowCensus::count, &census);
                else
                    plan.run(slice_panel_source(xw), out, pool,
                             &RowCensus::count, &census);
                EXPECT_EQ(census.bad_counts.load(), 0);
                EXPECT_EQ(census.bad_rows.load(), 0);
                int wrong = 0;
                for (const std::atomic<int> &s : census.seen)
                    wrong += s.load() != 1;
                EXPECT_EQ(wrong, 0) << "of " << census.seen.size()
                                    << " (panel, row) pairs";
            }
}

/**
 * A materialized run stores every element of C rather than adding onto
 * it: run() into a C pre-filled with NaN gives the same bits as into a
 * zeroed C. Covers the merge-path and hybrid plans, 16-wide panels
 * (the last one 8 wide) and one full-width panel, on pools of 1, 2 and
 * 4 workers, over a graph with many split rows and one with empty rows.
 */
TEST(Determinism, RunStoresEveryElement)
{
    const index_t dim = 40;
    CsrMatrix sparse = erdos_renyi_graph(400, 300, 61);
    sparse.normalize_gcn();
    bool has_empty_row = false;
    for (index_t r = 0; r < sparse.rows(); ++r)
        has_empty_row |= sparse.row_begin(r) == sparse.row_end(r);
    ASSERT_TRUE(has_empty_row);
    const CsrMatrix graphs[] = {hub_graph(), std::move(sparse)};
    for (const CsrMatrix &a : graphs) {
        const MergePathSchedule sched = MergePathSchedule::build(a, 97);
        const HybridSchedule hs = HybridSchedule::build(a, 40);
        const DenseMatrix xw = random_dense(a.cols(), dim, 71);
        for (const bool hybrid : {false, true})
            for (const index_t tile_d : {16, 0})
                for (unsigned workers : {1u, 2u, 4u}) {
                    SCOPED_TRACE(std::string(hybrid ? "hybrid" : "mergepath") +
                                 " tile_d=" + std::to_string(tile_d) + " on " +
                                 std::to_string(workers) + " workers, n=" +
                                 std::to_string(a.rows()));
                    WorkStealPool pool(workers);
                    SpmmLocality loc;
                    loc.tile_d = tile_d;
                    FusedLayerPlan plan =
                        hybrid ? FusedLayerPlan(a, dim,
                                                borrow_hybrid_schedule(hs), loc)
                               : FusedLayerPlan(a, dim, borrow_schedule(sched),
                                                loc);
                    DenseMatrix zeroed(a.rows(), dim);
                    DenseMatrix poisoned(a.rows(), dim);
                    poisoned.fill(std::numeric_limits<value_t>::quiet_NaN());
                    plan.run(slice_panel_source(xw), zeroed, pool);
                    plan.run(slice_panel_source(xw), poisoned, pool);
                    for (index_t r = 0; r < a.rows(); ++r)
                        ASSERT_EQ(std::memcmp(poisoned.row(r), zeroed.row(r),
                                              static_cast<size_t>(dim) *
                                                  sizeof(value_t)),
                                  0)
                            << "row " << r;
                }
    }
}

} // namespace
} // namespace mps
