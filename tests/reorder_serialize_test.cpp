/** Tests for graph reordering and binary serialization. */
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "mps/core/serialize.h"
#include "mps/core/spmm.h"
#include "mps/sparse/coo_matrix.h"
#include "mps/sparse/datasets.h"
#include "mps/sparse/degree_stats.h"
#include "mps/sparse/generate.h"
#include "mps/sparse/reorder.h"
#include "mps/util/rng.h"
#include "mps/util/work_steal_pool.h"

namespace mps {
namespace {

TEST(Permutation, ValidateAcceptsAndRejects)
{
    validate_permutation({2, 0, 1}, 3);
    EXPECT_DEATH(validate_permutation({0, 0, 1}, 3), "duplicate");
    EXPECT_DEATH(validate_permutation({0, 1, 5}, 3), "out of range");
    EXPECT_DEATH(validate_permutation({0, 1}, 3), "length");
}

TEST(Permutation, IdentityIsNoop)
{
    CsrMatrix m = erdos_renyi_graph(50, 300, 1);
    std::vector<index_t> id(50);
    std::iota(id.begin(), id.end(), 0);
    CsrMatrix p = permute_symmetric(m, id);
    EXPECT_EQ(p.row_ptr(), m.row_ptr());
    EXPECT_EQ(p.col_idx(), m.col_idx());
}

TEST(Permutation, PreservesDegreesAndSpectrumOfSpmm)
{
    // SpMM on the permuted graph with permuted inputs equals the
    // permuted SpMM output: P A P^T (P B) = P (A B).
    PowerLawParams params;
    params.nodes = 120;
    params.target_nnz = 700;
    params.max_degree = 90;
    params.seed = 5;
    CsrMatrix a = power_law_graph(params);
    std::vector<index_t> perm = degree_sort_permutation(a);
    CsrMatrix pa = permute_symmetric(a, perm);

    Pcg32 rng(3);
    DenseMatrix b(a.cols(), 8);
    b.fill_random(rng);
    DenseMatrix pb(a.cols(), 8);
    for (index_t r = 0; r < a.rows(); ++r) {
        for (index_t d = 0; d < 8; ++d)
            pb(perm[static_cast<size_t>(r)], d) = b(r, d);
    }

    DenseMatrix c(a.rows(), 8), pc(a.rows(), 8);
    reference_spmm(a, b, c);
    reference_spmm(pa, pb, pc);
    for (index_t r = 0; r < a.rows(); ++r) {
        for (index_t d = 0; d < 8; ++d)
            ASSERT_NEAR(pc(perm[static_cast<size_t>(r)], d), c(r, d),
                        1e-4);
    }
}

TEST(DegreeSort, OrdersRowsByDegree)
{
    CsrMatrix a = make_scaled_dataset(find_dataset_spec("Nell"), 64);
    CsrMatrix sorted =
        permute_symmetric(a, degree_sort_permutation(a, true));
    for (index_t r = 1; r < sorted.rows(); ++r)
        ASSERT_GE(sorted.degree(r - 1), sorted.degree(r));
    // Same degree multiset overall.
    EXPECT_EQ(compute_degree_stats(sorted).max_degree,
              compute_degree_stats(a).max_degree);
    EXPECT_EQ(sorted.nnz(), a.nnz());
}

TEST(BfsPermutation, CoversAllNodesIncludingIsolated)
{
    // Two components + an isolated node.
    CooMatrix coo(7, 7);
    coo.add(0, 1, 1);
    coo.add(1, 0, 1);
    coo.add(2, 3, 1);
    coo.add(3, 4, 1);
    coo.add(4, 2, 1);
    CsrMatrix m = CsrMatrix::from_coo(std::move(coo));
    std::vector<index_t> perm = bfs_permutation(m);
    validate_permutation(perm, 7);
}

TEST(BfsPermutation, ImprovesBandwidthOfScrambledBandedGraph)
{
    // A banded graph scrambled by a random permutation: BFS relabeling
    // must substantially reduce the average column distance again.
    StructuredParams p;
    p.nodes = 2000;
    p.target_nnz = 6000;
    p.max_degree = 8;
    p.seed = 11;
    CsrMatrix banded = structured_graph(p);

    // Scramble.
    Pcg32 rng(13);
    std::vector<index_t> scramble(2000);
    std::iota(scramble.begin(), scramble.end(), 0);
    for (size_t i = scramble.size(); i > 1; --i)
        std::swap(scramble[i - 1],
                  scramble[rng.next_below(static_cast<uint32_t>(i))]);
    CsrMatrix scrambled = permute_symmetric(banded, scramble);

    auto avg_band = [](const CsrMatrix &m) {
        double total = 0.0;
        for (index_t r = 0; r < m.rows(); ++r) {
            for (index_t k = m.row_begin(r); k < m.row_end(r); ++k)
                total += std::abs(
                    static_cast<double>(m.col_idx()[k]) - r);
        }
        return total / std::max<index_t>(m.nnz(), 1);
    };
    double scrambled_band = avg_band(scrambled);
    CsrMatrix relabeled =
        permute_symmetric(scrambled, bfs_permutation(scrambled));
    EXPECT_LT(avg_band(relabeled), scrambled_band * 0.35);
}

TEST(BinaryCsr, RoundTrip)
{
    CsrMatrix m = erdos_renyi_graph(80, 500, 21,
                                    ValueMode::kRandom);
    std::stringstream buf;
    write_csr_binary(buf, m);
    CsrMatrix back = read_csr_binary(buf);
    EXPECT_EQ(back.rows(), m.rows());
    EXPECT_EQ(back.cols(), m.cols());
    EXPECT_EQ(back.row_ptr(), m.row_ptr());
    EXPECT_EQ(back.col_idx(), m.col_idx());
    EXPECT_EQ(back.values(), m.values());
}

TEST(BinaryCsr, RejectsBadMagic)
{
    std::stringstream buf;
    buf << "NOTMAGIC garbage";
    EXPECT_EXIT(read_csr_binary(buf), testing::ExitedWithCode(1),
                "bad magic");
}

TEST(BinaryCsr, RejectsTruncation)
{
    CsrMatrix m = erdos_renyi_graph(30, 100, 2);
    std::stringstream buf;
    write_csr_binary(buf, m);
    std::string whole = buf.str();
    std::stringstream cut(whole.substr(0, whole.size() / 2));
    EXPECT_EXIT(read_csr_binary(cut), testing::ExitedWithCode(1),
                "read failed");
}

TEST(BinarySchedule, RoundTripAndValidate)
{
    CsrMatrix a = make_scaled_dataset(find_dataset_spec("Pubmed"), 32);
    MergePathSchedule sched = MergePathSchedule::build(a, 200);
    std::stringstream buf;
    write_schedule_binary(buf, sched);
    MergePathSchedule back = read_schedule_binary(buf);
    EXPECT_EQ(back.num_threads(), sched.num_threads());
    EXPECT_EQ(back.items_per_thread(), sched.items_per_thread());
    back.validate(a); // belongs to the same matrix

    // And it runs: result identical to the freshly built schedule.
    Pcg32 rng(2);
    DenseMatrix b(a.cols(), 8);
    b.fill_random(rng);
    DenseMatrix c1(a.rows(), 8), c2(a.rows(), 8);
    WorkStealPool pool(3);
    mergepath_spmm_parallel(a, b, c1, sched, pool);
    mergepath_spmm_parallel(a, b, c2, back, pool);
    EXPECT_TRUE(c1.approx_equal(c2, 1e-4, 1e-4));
}

TEST(BinarySchedule, ValidateCatchesWrongMatrix)
{
    CsrMatrix a = erdos_renyi_graph(100, 600, 3);
    CsrMatrix other = erdos_renyi_graph(100, 700, 4);
    MergePathSchedule sched = MergePathSchedule::build(a, 16);
    std::stringstream buf;
    write_schedule_binary(buf, sched);
    MergePathSchedule back = read_schedule_binary(buf);
    EXPECT_DEATH(back.validate(other), "schedule");
}

TEST(BinaryCsr, FileRoundTrip)
{
    CsrMatrix m = erdos_renyi_graph(40, 150, 8);
    std::string path = testing::TempDir() + "/mps_csr_roundtrip.bin";
    write_csr_binary_file(path, m);
    CsrMatrix back = read_csr_binary_file(path);
    EXPECT_EQ(back.col_idx(), m.col_idx());
}

} // namespace
} // namespace mps
