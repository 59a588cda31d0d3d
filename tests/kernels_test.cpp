/** Correctness and behaviour tests for the baseline SpMM kernels. */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <tuple>

#include "mps/core/policy.h"
#include "mps/core/schedule.h"
#include "mps/core/spmm.h"
#include "mps/kernels/adaptive.h"
#include "mps/kernels/mergepath_kernel.h"
#include "mps/kernels/mergepath_serial.h"
#include "mps/kernels/nnz_split.h"
#include "mps/kernels/registry.h"
#include "mps/kernels/row_split.h"
#include "mps/sparse/datasets.h"
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

TEST(NeighborGroups, PartitionEveryRow)
{
    CsrMatrix a = erdos_renyi_graph(100, 700, 3);
    auto groups = build_neighbor_groups(a, 4);
    // Each group belongs to one row, is non-empty and at most 4 wide.
    std::vector<int> covered(static_cast<size_t>(a.nnz()), 0);
    for (const auto &g : groups) {
        EXPECT_GT(g.end, g.begin);
        EXPECT_LE(g.end - g.begin, 4);
        EXPECT_GE(g.begin, a.row_begin(g.row));
        EXPECT_LE(g.end, a.row_end(g.row));
        for (index_t k = g.begin; k < g.end; ++k)
            ++covered[static_cast<size_t>(k)];
    }
    for (int c : covered)
        ASSERT_EQ(c, 1);
}

TEST(NeighborGroups, EvilRowSpansManyGroups)
{
    PowerLawParams p;
    p.nodes = 200;
    p.target_nnz = 1000;
    p.max_degree = 150;
    p.seed = 2;
    CsrMatrix a = power_law_graph(p);
    auto groups = build_neighbor_groups(a, 5);
    // The max-degree row must be split into ceil(150/5) = 30 groups.
    index_t evil = 0;
    for (index_t r = 1; r < a.rows(); ++r) {
        if (a.degree(r) > a.degree(evil))
            evil = r;
    }
    int evil_groups = 0;
    for (const auto &g : groups)
        evil_groups += g.row == evil;
    EXPECT_EQ(evil_groups, 30);
}

TEST(NeighborGroups, DefaultSizeIsAverageDegree)
{
    CsrMatrix a = erdos_renyi_graph(100, 1000, 4); // avg degree 10
    EXPECT_EQ(default_neighbor_group_size(a), 10);
    CsrMatrix empty(5, 5, {0, 0, 0, 0, 0, 0}, {}, {});
    EXPECT_EQ(default_neighbor_group_size(empty), 1);
}

TEST(Registry, ListsAllKernels)
{
    auto names = spmm_kernel_names();
    EXPECT_EQ(names.size(), 8u);
    for (const auto &n : names) {
        auto k = make_spmm_kernel(n);
        ASSERT_NE(k, nullptr);
        EXPECT_EQ(k->name(), n);
    }
}

TEST(RegistryDeathTest, UnknownKernelIsFatal)
{
    EXPECT_EXIT(make_spmm_kernel("nope"), testing::ExitedWithCode(1),
                "unknown SpMM kernel");
}

TEST(MergePathSerial, CountsCarries)
{
    PowerLawParams p;
    p.nodes = 100;
    p.target_nnz = 2000;
    p.max_degree = 90;
    p.seed = 6;
    CsrMatrix a = power_law_graph(p);
    DenseMatrix b = random_dense(a.cols(), 8, 1);
    DenseMatrix c(a.rows(), 8);
    WorkStealPool pool(4);

    MergePathSerialFixupSpmm kernel(64);
    kernel.prepare(a, 8);
    kernel.run(a, b, c, pool);
    // With 64 threads over 100 rows + 2000 nnz, rows are split and
    // carries must occur; never more than 2 per thread.
    EXPECT_GT(kernel.serial_carries(), 0);
    EXPECT_LE(kernel.serial_carries(), 128);
}

TEST(Adaptive, PicksRowSplitForStructured)
{
    StructuredParams p;
    p.nodes = 2000;
    p.target_nnz = 4200;
    p.max_degree = 6;
    p.seed = 4;
    CsrMatrix a = structured_graph(p);
    AdaptiveSpmm kernel;
    kernel.prepare(a, 16);
    EXPECT_EQ(kernel.strategy(), AdaptiveStrategy::kRowSplit);
}

TEST(Adaptive, PicksMergePathForPowerLaw)
{
    PowerLawParams p;
    p.nodes = 2000;
    p.target_nnz = 8000;
    p.max_degree = 700;
    p.seed = 4;
    CsrMatrix a = power_law_graph(p);
    // With the hybrid path disabled, skew still routes to merge-path.
    AdaptiveSpmm baseline(0.7, /*enable_hybrid=*/false);
    baseline.prepare(a, 16);
    EXPECT_EQ(baseline.strategy(), AdaptiveStrategy::kMergePath);
    // The default kernel upgrades to hybrid when the evil rows carry
    // enough of the nnz to be worth an atomics-free dense phase.
    AdaptiveSpmm kernel;
    kernel.prepare(a, 16);
    if (hybrid_enabled()) {
        EXPECT_EQ(kernel.strategy(), AdaptiveStrategy::kHybrid);
    } else {
        EXPECT_EQ(kernel.strategy(), AdaptiveStrategy::kMergePath);
    }
}

/**
 * A default MergePathSpmm sizes its schedule with the CPU granularity
 * rule: at most 64 merge-path threads per hardware thread, whatever
 * the dimension, and no 1024-thread floor on small graphs.
 */
TEST(MergePathKernel, DefaultScheduleIsCpuSized)
{
    PowerLawParams p;
    p.nodes = 60000;
    p.target_nnz = 600000;
    p.max_degree = 6000;
    p.seed = 12;
    CsrMatrix a = power_law_graph(p);
    const int64_t hw = std::max(1u, std::thread::hardware_concurrency());
    for (index_t dim : {16, 128}) {
        MergePathSpmm kernel;
        kernel.prepare(a, dim);
        EXPECT_EQ(kernel.cost(),
                  cpu_merge_path_cost(a.rows(), a.nnz(), dim));
        EXPECT_LE(kernel.schedule().num_threads(), 64 * hw) << "d=" << dim;
    }
    CsrMatrix small = erdos_renyi_graph(100, 400, 3);
    MergePathSpmm kernel;
    kernel.prepare(small, 16);
    EXPECT_LT(kernel.schedule().num_threads(), 1024);
}

TEST(MergePathKernel, ExplicitCostAndFloorAreHonoured)
{
    CsrMatrix a = erdos_renyi_graph(3000, 30000, 5);
    const int64_t total = static_cast<int64_t>(a.rows()) + a.nnz();
    MergePathSpmm paper(20);
    paper.prepare(a, 16);
    EXPECT_EQ(paper.cost(), 20);
    EXPECT_EQ(paper.schedule().num_threads(), (total + 19) / 20);

    CsrMatrix small = erdos_renyi_graph(100, 400, 3);
    MergePathSpmm floored(0, 1024);
    floored.prepare(small, 16);
    EXPECT_EQ(floored.schedule().num_threads(), 1024);
}

TEST(RowSplit, ChunkCountClampedToRows)
{
    CsrMatrix a = erdos_renyi_graph(5, 10, 8);
    RowSplitSpmm kernel(64);
    kernel.prepare(a, 4);
    EXPECT_EQ(kernel.chunks(), 5);
}

/**
 * Every registered kernel must agree with the reference on every graph
 * family and dimension.
 */
class KernelCorrectnessTest
    : public testing::TestWithParam<std::tuple<std::string, int, int>>
{
};

TEST_P(KernelCorrectnessTest, MatchesReference)
{
    auto [name, family, dim] = GetParam();
    CsrMatrix a;
    switch (family) {
      case 0:
        a = erdos_renyi_graph(301, 2400, 31);
        break;
      case 1: {
        PowerLawParams p;
        p.nodes = 301;
        p.target_nnz = 2400;
        p.max_degree = 250;
        p.seed = 31;
        a = power_law_graph(p);
        break;
      }
      default: {
        StructuredParams p;
        p.nodes = 301;
        p.target_nnz = 903;
        p.max_degree = 7;
        p.seed = 31;
        a = structured_graph(p);
        break;
      }
    }
    DenseMatrix b = random_dense(a.cols(), static_cast<index_t>(dim), 7);
    DenseMatrix expect(a.rows(), static_cast<index_t>(dim));
    reference_spmm(a, b, expect);

    WorkStealPool pool(4);
    auto kernel = make_spmm_kernel(name);
    kernel->prepare(a, static_cast<index_t>(dim));
    DenseMatrix got(a.rows(), static_cast<index_t>(dim));
    got.fill(123.0f); // must be fully overwritten
    kernel->run(a, b, got, pool);
    EXPECT_TRUE(got.approx_equal(expect, 1e-3, 1e-4))
        << name << " family=" << family << " dim=" << dim
        << " diff=" << got.max_abs_diff(expect);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelCorrectnessTest,
    testing::Combine(testing::Values("mergepath", "hybrid",
                                     "gnnadvisor", "row_split",
                                     "column_split", "adaptive",
                                     "mergepath_serial", "reference"),
                     testing::Values(0, 1, 2),
                     testing::Values(1, 16, 33)),
    [](const testing::TestParamInfo<std::tuple<std::string, int, int>>
           &p) {
        return std::get<0>(p.param) + "_f" +
               std::to_string(std::get<1>(p.param)) + "_d" +
               std::to_string(std::get<2>(p.param));
    });

/** Kernels must be re-preparable for new inputs. */
TEST(Kernels, RepreparedForNewMatrix)
{
    WorkStealPool pool(3);
    CsrMatrix a1 = erdos_renyi_graph(50, 200, 1);
    CsrMatrix a2 = erdos_renyi_graph(90, 500, 2);
    for (const auto &name : spmm_kernel_names()) {
        auto kernel = make_spmm_kernel(name);
        DenseMatrix b1 = random_dense(50, 8, 3), c1(50, 8), e1(50, 8);
        kernel->prepare(a1, 8);
        kernel->run(a1, b1, c1, pool);
        reference_spmm(a1, b1, e1);
        ASSERT_TRUE(c1.approx_equal(e1, 1e-3, 1e-4)) << name;

        DenseMatrix b2 = random_dense(90, 4, 4), c2(90, 4), e2(90, 4);
        kernel->prepare(a2, 4);
        kernel->run(a2, b2, c2, pool);
        reference_spmm(a2, b2, e2);
        ASSERT_TRUE(c2.approx_equal(e2, 1e-3, 1e-4)) << name;
    }
}

/**
 * The paper's selective-atomics claim, checked through the metrics
 * counters: a schedule that splits no row must commit every row with a
 * plain store; only split rows may pay for a carry (the CPU stand-in
 * for the paper's atomic commit, still counted as atomic_commits;
 * Figure 5).
 */
TEST(Kernels, MergePathAtomicCounterZeroWithoutSplitRows)
{
    CsrMatrix a = erdos_renyi_graph(120, 600, 9);
    DenseMatrix b = random_dense(a.cols(), 8, 2);
    DenseMatrix c(a.rows(), 8);
    WorkStealPool pool(4);

    MetricsRegistry &metrics = MetricsRegistry::global();
    metrics.reset();
    metrics.set_enabled(true);

    // One merge-path share covers everything: no row can be split.
    MergePathSchedule whole = MergePathSchedule::build(a, 1);
    mergepath_spmm_parallel(a, b, c, whole, pool);
    EXPECT_EQ(metrics.counter_value("spmm.mergepath.atomic_commits"), 0);
    EXPECT_EQ(metrics.counter_value("spmm.mergepath.plain_commits"),
              static_cast<int64_t>(a.rows()));
    EXPECT_EQ(metrics.counter_value("spmm.mergepath.nnz_processed"),
              static_cast<int64_t>(a.nnz()));

    // Far more shares than rows forces split rows -> carried commits.
    metrics.reset();
    MergePathSchedule sliced = MergePathSchedule::build(a, 256);
    mergepath_spmm_parallel(a, b, c, sliced, pool);
    EXPECT_GT(metrics.counter_value("spmm.mergepath.atomic_commits"), 0);

    metrics.set_enabled(false);
    metrics.reset();
}

/** The Nell-like evil-row scenario stresses all-atomic updates. */
TEST(Kernels, EvilRowGraphAllKernelsAgree)
{
    CsrMatrix a = make_scaled_dataset(find_dataset_spec("Nell"), 128);
    DenseMatrix b = random_dense(a.cols(), 16, 5);
    DenseMatrix expect(a.rows(), 16);
    reference_spmm(a, b, expect);
    WorkStealPool pool(4);
    for (const auto &name : spmm_kernel_names()) {
        auto kernel = make_spmm_kernel(name);
        kernel->prepare(a, 16);
        DenseMatrix got(a.rows(), 16);
        kernel->run(a, b, got, pool);
        ASSERT_TRUE(got.approx_equal(expect, 1e-3, 1e-4))
            << name << " diff=" << got.max_abs_diff(expect);
    }
}

} // namespace
} // namespace mps
