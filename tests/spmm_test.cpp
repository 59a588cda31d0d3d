/** Correctness tests for the MergePath-SpMM and -SpMV kernels. */
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "mps/core/spmm.h"
#include "mps/core/spmv.h"
#include "mps/sparse/datasets.h"
#include "mps/sparse/generate.h"
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

TEST(ReferenceSpmm, HandComputedExample)
{
    // A = [ 2 0 ]   B = [ 1 10 ]
    //     [ 1 3 ]       [ 2 20 ]
    CsrMatrix a(2, 2, {0, 1, 3}, {0, 0, 1}, {2.0f, 1.0f, 3.0f});
    DenseMatrix b(2, 2);
    b(0, 0) = 1;
    b(0, 1) = 10;
    b(1, 0) = 2;
    b(1, 1) = 20;
    DenseMatrix c(2, 2);
    reference_spmm(a, b, c);
    EXPECT_FLOAT_EQ(c(0, 0), 2.0f);
    EXPECT_FLOAT_EQ(c(0, 1), 20.0f);
    EXPECT_FLOAT_EQ(c(1, 0), 7.0f);
    EXPECT_FLOAT_EQ(c(1, 1), 70.0f);
}

TEST(MergePathSpmm, SequentialMatchesReferenceOnEvilRows)
{
    PowerLawParams p;
    p.nodes = 400;
    p.target_nnz = 3000;
    p.max_degree = 350;
    p.seed = 5;
    CsrMatrix a = power_law_graph(p);
    DenseMatrix b = random_dense(a.cols(), 16, 11);
    DenseMatrix expect(a.rows(), 16), got(a.rows(), 16);
    reference_spmm(a, b, expect);

    for (index_t threads : {1, 2, 5, 37, 400, 3000}) {
        MergePathSchedule s = MergePathSchedule::build(a, threads);
        mergepath_spmm_sequential(a, b, got, s);
        EXPECT_TRUE(got.approx_equal(expect, 1e-3, 1e-4))
            << "threads=" << threads
            << " diff=" << got.max_abs_diff(expect);
    }
}

TEST(MergePathSpmm, ParallelMatchesReference)
{
    CsrMatrix a = make_scaled_dataset(find_dataset_spec("Nell"), 64);
    DenseMatrix b = random_dense(a.cols(), 16, 3);
    DenseMatrix expect(a.rows(), 16), got(a.rows(), 16);
    reference_spmm(a, b, expect);

    WorkStealPool pool(4);
    MergePathSchedule s = MergePathSchedule::build(a, 512);
    mergepath_spmm_parallel(a, b, got, s, pool);
    EXPECT_TRUE(got.approx_equal(expect, 1e-3, 1e-4))
        << "diff=" << got.max_abs_diff(expect);
}

TEST(MergePathSpmm, ParallelRepeatable)
{
    CsrMatrix a = erdos_renyi_graph(500, 5000, 8);
    DenseMatrix b = random_dense(a.cols(), 8, 9);
    WorkStealPool pool(4);
    MergePathSchedule s = MergePathSchedule::build(a, 333);

    DenseMatrix first(a.rows(), 8);
    mergepath_spmm_parallel(a, b, first, s, pool);
    for (int run = 0; run < 5; ++run) {
        DenseMatrix again(a.rows(), 8);
        mergepath_spmm_parallel(a, b, again, s, pool);
        // Split rows sum their carries in thread order, never in
        // completion order. Covers: one 333-thread schedule, six runs
        // on a 4-worker pool.
        EXPECT_DOUBLE_EQ(again.max_abs_diff(first), 0.0);
    }
}

TEST(MergePathSpmm, ConvenienceEntryPoint)
{
    CsrMatrix a = erdos_renyi_graph(200, 1000, 4);
    DenseMatrix b = random_dense(a.cols(), 32, 5);
    DenseMatrix expect(a.rows(), 32), got(a.rows(), 32);
    reference_spmm(a, b, expect);
    WorkStealPool pool(3);
    mergepath_spmm(a, b, got, pool);
    EXPECT_TRUE(got.approx_equal(expect, 1e-3, 1e-4));
}

TEST(MergePathSpmm, EmptyMatrixProducesZeros)
{
    CsrMatrix a(3, 3, {0, 0, 0, 0}, {}, {});
    DenseMatrix b = random_dense(3, 4, 6);
    DenseMatrix c(3, 4);
    c.fill(42.0f);
    MergePathSchedule s = MergePathSchedule::build(a, 2);
    mergepath_spmm_sequential(a, b, c, s);
    for (index_t r = 0; r < 3; ++r) {
        for (index_t d = 0; d < 4; ++d)
            ASSERT_FLOAT_EQ(c(r, d), 0.0f);
    }
}

TEST(MergePathSpmm, SingleEvilRowHammeredByAllThreads)
{
    // One row holds every non-zero: all threads do atomic commits into
    // the same output row.
    const index_t n = 64, nnz = 4096;
    std::vector<index_t> row_ptr(static_cast<size_t>(n) + 1, nnz);
    row_ptr[0] = 0;
    std::vector<index_t> cols(static_cast<size_t>(nnz));
    std::vector<value_t> vals(static_cast<size_t>(nnz));
    Pcg32 rng(77);
    for (index_t k = 0; k < nnz; ++k) {
        cols[static_cast<size_t>(k)] =
            static_cast<index_t>(rng.next_below(n));
        vals[static_cast<size_t>(k)] = rng.next_float(0.1f, 1.0f);
    }
    std::sort(cols.begin(), cols.end()); // keep CSR canonical-ish
    CsrMatrix a(n, n, std::move(row_ptr), std::move(cols),
                std::move(vals));
    DenseMatrix b = random_dense(n, 16, 10);
    DenseMatrix expect(n, 16), got(n, 16);
    reference_spmm(a, b, expect);

    WorkStealPool pool(8);
    MergePathSchedule s = MergePathSchedule::build(a, 128);
    ScheduleCensus census = s.census(a);
    EXPECT_GE(census.atomic_commits, 64); // genuinely hammered
    mergepath_spmm_parallel(a, b, got, s, pool);
    EXPECT_TRUE(got.approx_equal(expect, 2e-3, 1e-3))
        << "diff=" << got.max_abs_diff(expect);
}

/**
 * Property sweep: sequential and parallel MergePath-SpMM must agree
 * with the reference for every (graph family, dimension, thread count)
 * combination, including dimensions that do not divide or exceed the
 * SIMD width and thread counts around the row/nnz counts.
 */
class SpmmPropertyTest
    : public testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(SpmmPropertyTest, MatchesReference)
{
    auto [family, dim, threads] = GetParam();
    CsrMatrix a;
    switch (family) {
      case 0:
        a = erdos_renyi_graph(257, 2000, 13);
        break;
      case 1: {
        PowerLawParams p;
        p.nodes = 257;
        p.target_nnz = 2000;
        p.max_degree = 200;
        p.seed = 13;
        a = power_law_graph(p);
        break;
      }
      default: {
        StructuredParams p;
        p.nodes = 257;
        p.target_nnz = 1028;
        p.max_degree = 8;
        p.seed = 13;
        a = structured_graph(p);
        break;
      }
    }
    DenseMatrix b = random_dense(a.cols(), static_cast<index_t>(dim), 21);
    DenseMatrix expect(a.rows(), static_cast<index_t>(dim));
    reference_spmm(a, b, expect);

    MergePathSchedule s =
        MergePathSchedule::build(a, static_cast<index_t>(threads));
    s.validate(a);

    DenseMatrix seq(a.rows(), static_cast<index_t>(dim));
    mergepath_spmm_sequential(a, b, seq, s);
    ASSERT_TRUE(seq.approx_equal(expect, 1e-3, 1e-4))
        << "sequential diff=" << seq.max_abs_diff(expect);

    WorkStealPool pool(4);
    DenseMatrix par(a.rows(), static_cast<index_t>(dim));
    mergepath_spmm_parallel(a, b, par, s, pool);
    ASSERT_TRUE(par.approx_equal(expect, 1e-3, 1e-4))
        << "parallel diff=" << par.max_abs_diff(expect);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpmmPropertyTest,
    testing::Combine(testing::Values(0, 1, 2),
                     testing::Values(1, 2, 3, 16, 33),
                     testing::Values(1, 7, 64, 1024)));

TEST(Spmv, MergePathMatchesReference)
{
    PowerLawParams p;
    p.nodes = 400;
    p.target_nnz = 2500;
    p.max_degree = 350;
    p.seed = 9;
    CsrMatrix a = power_law_graph(p);
    std::vector<value_t> x(static_cast<size_t>(a.cols()));
    Pcg32 rng(4);
    for (auto &v : x)
        v = rng.next_float(-1.0f, 1.0f);

    std::vector<value_t> expect;
    reference_spmv(a, x, expect);

    WorkStealPool pool(4);
    for (index_t threads : {1, 13, 200, 1500}) {
        MergePathSchedule sched = MergePathSchedule::build(a, threads);
        std::vector<value_t> got;
        mergepath_spmv(a, x, got, sched, pool);
        ASSERT_EQ(got.size(), expect.size());
        for (size_t i = 0; i < got.size(); ++i)
            ASSERT_NEAR(got[i], expect[i], 1e-3) << "threads " << threads;
    }
}

TEST(Spmv, EmptyRowsYieldZero)
{
    CsrMatrix a(4, 4, {0, 0, 2, 2, 2}, {0, 3}, {2.0f, 3.0f});
    std::vector<value_t> x{1.0f, 1.0f, 1.0f, 1.0f};
    std::vector<value_t> y;
    WorkStealPool pool(2);
    MergePathSchedule sched = MergePathSchedule::build(a, 3);
    mergepath_spmv(a, x, y, sched, pool);
    EXPECT_FLOAT_EQ(y[0], 0.0f);
    EXPECT_FLOAT_EQ(y[1], 5.0f);
    EXPECT_FLOAT_EQ(y[2], 0.0f);
    EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(MergePathSpmmDeathTest, ShapeMismatchIsFatal)
{
    CsrMatrix a = erdos_renyi_graph(10, 20, 1);
    DenseMatrix b(11, 4); // wrong rows
    DenseMatrix c(10, 4);
    MergePathSchedule s = MergePathSchedule::build(a, 2);
    EXPECT_DEATH(mergepath_spmm_sequential(a, b, c, s), "B rows");
}

} // namespace
} // namespace mps
