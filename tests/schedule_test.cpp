/** Tests for the MergePath-SpMM schedule and its census. */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "mps/core/policy.h"
#include "mps/core/schedule.h"
#include "mps/sparse/datasets.h"
#include "mps/sparse/generate.h"

namespace mps {
namespace {

/** One evil row holding almost every non-zero, plus singleton rows. */
CsrMatrix
evil_row_matrix(index_t rows, index_t evil_nnz)
{
    std::vector<index_t> row_ptr(static_cast<size_t>(rows) + 1);
    std::vector<index_t> cols;
    row_ptr[0] = 0;
    for (index_t r = 0; r < rows; ++r) {
        index_t d = (r == 0) ? evil_nnz : 1;
        row_ptr[static_cast<size_t>(r) + 1] =
            row_ptr[static_cast<size_t>(r)] + d;
        for (index_t k = 0; k < d; ++k)
            cols.push_back((r + k) % rows);
    }
    std::vector<value_t> vals(cols.size(), 1.0f);
    return CsrMatrix(rows, rows, std::move(row_ptr), std::move(cols),
                     std::move(vals));
}

TEST(Schedule, SingleThreadOwnsEverything)
{
    CsrMatrix m = erdos_renyi_graph(40, 200, 1);
    MergePathSchedule s = MergePathSchedule::build(m, 1);
    s.validate(m);
    ScheduleCensus c = s.census(m);
    EXPECT_EQ(c.atomic_commits, 0);
    EXPECT_EQ(c.split_rows, 0);
    EXPECT_EQ(c.plain_row_writes, 40);
    EXPECT_EQ(c.plain_nnz, 200);
}

TEST(Schedule, EvilRowIsSplitAcrossThreads)
{
    CsrMatrix m = evil_row_matrix(16, 1000);
    MergePathSchedule s = MergePathSchedule::build(m, 8);
    s.validate(m);
    ScheduleCensus c = s.census(m);
    // The evil row must be shared by several threads...
    EXPECT_GE(c.split_rows, 1);
    EXPECT_GE(c.atomic_commits, 2);
    // ...and no thread may hold more than the merge-path cost.
    EXPECT_LE(c.max_items_per_thread, s.items_per_thread());
}

TEST(Schedule, LoadBalanceBoundHolds)
{
    CsrMatrix m = make_dataset("Cora");
    for (index_t threads : {2, 16, 128, 1024}) {
        MergePathSchedule s = MergePathSchedule::build(m, threads);
        s.validate(m);
        ScheduleCensus c = s.census(m);
        EXPECT_LE(c.max_items_per_thread, s.items_per_thread())
            << "threads=" << threads;
    }
}

TEST(Schedule, CensusPartitionsNnz)
{
    CsrMatrix m = make_dataset("Citeseer");
    for (index_t threads : {1, 3, 64, 999}) {
        MergePathSchedule s = MergePathSchedule::build(m, threads);
        ScheduleCensus c = s.census(m);
        EXPECT_EQ(c.atomic_nnz + c.plain_nnz, m.nnz())
            << "threads=" << threads;
    }
}

TEST(Schedule, BuildWithCostAppliesMinThreadFloor)
{
    CsrMatrix m = erdos_renyi_graph(100, 400, 3); // 500 merge items
    MergePathSchedule without =
        MergePathSchedule::build_with_cost(m, 50, /*min_threads=*/0);
    EXPECT_EQ(without.num_threads(), 10);
    MergePathSchedule with =
        MergePathSchedule::build_with_cost(m, 50, /*min_threads=*/1024);
    EXPECT_EQ(with.num_threads(), 1024);
    with.validate(m);
}

TEST(Schedule, EmptyMatrix)
{
    CsrMatrix m(0, 0, {0}, {}, {});
    MergePathSchedule s = MergePathSchedule::build(m, 4);
    s.validate(m);
    ScheduleCensus c = s.census(m);
    EXPECT_EQ(c.empty_threads, 4);
    EXPECT_EQ(c.atomic_commits + c.plain_row_writes, 0);
}

TEST(Schedule, MatrixWithOnlyEmptyRows)
{
    CsrMatrix m(64, 64, std::vector<index_t>(65, 0), {}, {});
    MergePathSchedule s = MergePathSchedule::build(m, 8);
    s.validate(m);
    ScheduleCensus c = s.census(m);
    EXPECT_EQ(c.atomic_commits, 0);
    EXPECT_EQ(c.plain_row_writes, 64);
    EXPECT_EQ(c.plain_nnz, 0);
}

TEST(Schedule, MoreThreadsThanItems)
{
    CsrMatrix m = erdos_renyi_graph(4, 6, 9); // 10 merge items
    MergePathSchedule s = MergePathSchedule::build(m, 100);
    s.validate(m);
    ScheduleCensus c = s.census(m);
    EXPECT_GT(c.empty_threads, 0);
    EXPECT_EQ(c.atomic_nnz + c.plain_nnz, m.nnz());
}

/**
 * Cross-thread exclusivity: replaying every thread's resolved ranges
 * must touch each non-zero exactly once, and atomic/plain decisions
 * must be consistent per row (a row written plainly is written by no
 * other thread).
 */
class ScheduleCoverageTest
    : public testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(ScheduleCoverageTest, NnzCoveredExactlyOnceAndWritesExclusive)
{
    auto [seed, threads] = GetParam();
    PowerLawParams p;
    p.nodes = 300;
    p.target_nnz = 1500;
    p.max_degree = 120;
    p.seed = static_cast<uint64_t>(seed);
    CsrMatrix m = power_law_graph(p);

    MergePathSchedule s =
        MergePathSchedule::build(m, static_cast<index_t>(threads));
    s.validate(m);

    std::vector<int> nnz_hits(static_cast<size_t>(m.nnz()), 0);
    std::vector<int> plain_writers(static_cast<size_t>(m.rows()), 0);
    std::vector<int> atomic_writers(static_cast<size_t>(m.rows()), 0);

    for (index_t t = 0; t < s.num_threads(); ++t) {
        ResolvedWork w = s.resolve(t, m);
        if (w.has_head()) {
            for (index_t k = w.head_begin; k < w.head_end; ++k)
                ++nnz_hits[static_cast<size_t>(k)];
            ++(w.head_atomic
                   ? atomic_writers[static_cast<size_t>(w.head_row)]
                   : plain_writers[static_cast<size_t>(w.head_row)]);
        }
        for (index_t r = w.first_complete_row; r < w.last_complete_row;
             ++r) {
            for (index_t k = m.row_begin(r); k < m.row_end(r); ++k)
                ++nnz_hits[static_cast<size_t>(k)];
            ++plain_writers[static_cast<size_t>(r)];
        }
        if (w.has_tail()) {
            for (index_t k = w.tail_begin; k < w.tail_end; ++k)
                ++nnz_hits[static_cast<size_t>(k)];
            ++atomic_writers[static_cast<size_t>(w.tail_row)];
        }
    }

    for (size_t k = 0; k < nnz_hits.size(); ++k)
        ASSERT_EQ(nnz_hits[k], 1) << "nnz " << k;
    for (index_t r = 0; r < m.rows(); ++r) {
        int plain = plain_writers[static_cast<size_t>(r)];
        int atomic = atomic_writers[static_cast<size_t>(r)];
        // Exclusive plain ownership, or >= 2 atomic contributors, or
        // nothing (empty row handled by the plain owner of its range).
        ASSERT_LE(plain, 1) << "row " << r;
        if (plain == 1) {
            ASSERT_EQ(atomic, 0) << "row " << r;
        }
        if (atomic > 0) {
            ASSERT_GE(atomic, 2) << "row " << r;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScheduleCoverageTest,
    testing::Combine(testing::Values(1, 2, 3),
                     testing::Values(1, 2, 3, 7, 16, 61, 256, 1800)));

TEST(Policy, DefaultCostsMatchPaperFigure6)
{
    EXPECT_EQ(default_merge_path_cost(2), 50);
    EXPECT_EQ(default_merge_path_cost(4), 15);
    EXPECT_EQ(default_merge_path_cost(8), 15);
    EXPECT_EQ(default_merge_path_cost(16), 20);
    EXPECT_EQ(default_merge_path_cost(32), 30);
    EXPECT_EQ(default_merge_path_cost(64), 35);
    EXPECT_EQ(default_merge_path_cost(128), 50);
}

TEST(Policy, SimdMappingRules)
{
    SimdPolicy simd; // 32 lanes, min 1024 threads
    // d == lanes: one thread per warp.
    LaunchConfig at32 = make_launch_config(10000, 50000, 32, 30, simd);
    EXPECT_EQ(at32.threads_per_warp, 1);
    EXPECT_EQ(at32.warps_per_thread, 1);
    // d = 64: two warps per thread.
    LaunchConfig at64 = make_launch_config(10000, 50000, 64, 35, simd);
    EXPECT_EQ(at64.warps_per_thread, 2);
    EXPECT_EQ(at64.num_warps, 2LL * at64.num_threads);
    // d = 16: two threads per warp.
    LaunchConfig at16 = make_launch_config(10000, 50000, 16, 20, simd);
    EXPECT_EQ(at16.threads_per_warp, 2);
    EXPECT_EQ(at16.num_warps, (at16.num_threads + 1) / 2);
    // d = 2: sixteen threads per warp.
    LaunchConfig at2 = make_launch_config(10000, 50000, 2, 50, simd);
    EXPECT_EQ(at2.threads_per_warp, 16);
}

TEST(Policy, MinThreadFloorForSmallGraphs)
{
    SimdPolicy simd;
    LaunchConfig cfg = make_launch_config(100, 400, 16, 50, simd);
    EXPECT_EQ(cfg.num_threads, 1024);
}

TEST(Policy, ThreadCountFollowsCost)
{
    SimdPolicy simd;
    simd.min_threads = 0;
    LaunchConfig cfg = make_launch_config(10000, 90000, 16, 20, simd);
    EXPECT_EQ(cfg.num_threads, (10000 + 90000 + 19) / 20);
}

/**
 * The CPU granularity rule. The serve batch executor keys its schedule
 * cache on this cost (serve_cost calls it with the pool's worker
 * count), so these values pin the keys a running server looks up.
 */
TEST(Policy, CpuCostPinnedValues)
{
    struct Case
    {
        index_t rows;
        int64_t nnz;
        index_t dim;
        unsigned executors;
        index_t cost;
    };
    const Case cases[] = {
        {2708, 13264, 16, 8, 32},       // Cora + self loops, k = 1
        {2708, 13264, 128, 8, 50},      // Cora, a k = 8 batch
        {19717, 88648, 16, 3, 1024},    // Pubmed-sized on 3 workers
        {10, 20, 2, 4, 50},             // tiny: the paper table wins
        {250000, 2750000, 128, 4, 16384},
        {1000, 9000, 32, 0, 256},       // 0 executors count as 1
    };
    for (const Case &c : cases)
        EXPECT_EQ(cpu_merge_path_cost(c.rows, c.nnz, c.dim, c.executors),
                  c.cost)
            << c.rows << "+" << c.nnz << " d=" << c.dim
            << " executors=" << c.executors;
}

TEST(Policy, CpuCostMatchesTheServeFormulaItReplaced)
{
    // The expression serve_cost evaluated before the rule moved into
    // core/policy; every (size, dim, pool) on the grid keeps its value.
    const auto old_serve_cost = [](index_t total, index_t dim,
                                   index_t pool) {
        const index_t max_threads = pool * 64;
        const index_t floor_cost = (total + max_threads - 1) / max_threads;
        const index_t quantized = static_cast<index_t>(std::bit_ceil(
            static_cast<uint64_t>(std::max<index_t>(floor_cost, 1))));
        return std::max(default_merge_path_cost(dim), quantized);
    };
    for (index_t rows : {1, 100, 2708, 19717, 334863})
        for (index_t nnz : {0, 999, 13264, 88648, 1851744})
            for (index_t dim : {1, 8, 16, 33, 128, 1024})
                for (index_t pool : {1, 2, 3, 4, 8, 16})
                    ASSERT_EQ(cpu_merge_path_cost(
                                  rows, nnz, dim,
                                  static_cast<unsigned>(pool)),
                              old_serve_cost(rows + nnz, dim, pool))
                        << rows << "+" << nnz << " d=" << dim
                        << " pool=" << pool;
}

TEST(Policy, CpuCostCapsThreadsPerExecutor)
{
    for (unsigned executors : {1u, 3u, 4u, 16u}) {
        const index_t rows = 500000;
        const int64_t nnz = 5000000;
        const index_t cost = cpu_merge_path_cost(rows, nnz, 16, executors);
        const int64_t threads = (rows + nnz + cost - 1) / cost;
        EXPECT_LE(threads, 64 * static_cast<int64_t>(executors));
        EXPECT_GE(cost, default_merge_path_cost(16));
    }
}

} // namespace
} // namespace mps
