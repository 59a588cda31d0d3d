/** Tests for edge softmax and the GAT layer. */
#include <gtest/gtest.h>

#include <cmath>

#include "mps/gcn/gat.h"
#include "mps/gcn/gemm.h"
#include "mps/sparse/generate.h"
#include "mps/util/rng.h"
#include "mps/util/work_steal_pool.h"

namespace mps {
namespace {

TEST(EdgeSoftmax, RowsSumToOne)
{
    CsrMatrix a = erdos_renyi_graph(80, 500, 1);
    std::vector<value_t> scores(static_cast<size_t>(a.nnz()));
    Pcg32 rng(2);
    for (auto &s : scores)
        s = rng.next_float(-3.0f, 3.0f);
    WorkStealPool pool(3);
    CsrMatrix att = edge_softmax(a, scores, pool);

    EXPECT_EQ(att.row_ptr(), a.row_ptr());
    EXPECT_EQ(att.col_idx(), a.col_idx());
    for (index_t r = 0; r < att.rows(); ++r) {
        if (att.degree(r) == 0)
            continue;
        double sum = 0.0;
        for (index_t k = att.row_begin(r); k < att.row_end(r); ++k) {
            ASSERT_GT(att.values()[k], 0.0f);
            sum += att.values()[k];
        }
        ASSERT_NEAR(sum, 1.0, 1e-4) << "row " << r;
    }
}

TEST(EdgeSoftmax, UniformScoresGiveUniformWeights)
{
    CsrMatrix a = erdos_renyi_graph(40, 200, 4);
    std::vector<value_t> scores(static_cast<size_t>(a.nnz()), 0.7f);
    WorkStealPool pool(2);
    CsrMatrix att = edge_softmax(a, scores, pool);
    for (index_t r = 0; r < att.rows(); ++r) {
        index_t d = att.degree(r);
        for (index_t k = att.row_begin(r); k < att.row_end(r); ++k)
            ASSERT_NEAR(att.values()[k], 1.0f / d, 1e-5);
    }
}

TEST(EdgeSoftmax, LargeScoresAreStable)
{
    CsrMatrix a(1, 1, {0, 1}, {0}, {1.0f});
    std::vector<value_t> scores{500.0f}; // would overflow naive exp
    WorkStealPool pool(2);
    CsrMatrix att = edge_softmax(a, scores, pool);
    EXPECT_FLOAT_EQ(att.values()[0], 1.0f);
}

TEST(GatLayer, MatchesNaiveDenseComputation)
{
    PowerLawParams p;
    p.nodes = 60;
    p.target_nnz = 300;
    p.max_degree = 40;
    p.seed = 5;
    CsrMatrix a = power_law_graph(p);
    const index_t f = 6, d = 4;

    Pcg32 rng(9);
    DenseMatrix h(a.rows(), f), w(f, d);
    h.fill_random(rng);
    w.fill_random(rng);
    std::vector<value_t> a_src(static_cast<size_t>(d)),
        a_dst(static_cast<size_t>(d));
    for (auto &v : a_src)
        v = rng.next_float(-1.0f, 1.0f);
    for (auto &v : a_dst)
        v = rng.next_float(-1.0f, 1.0f);
    const float slope = 0.2f;

    GatLayer layer(w, a_src, a_dst, slope, Activation::kNone);
    WorkStealPool pool(4);
    MergePathSchedule sched = MergePathSchedule::build(a, 37);
    DenseMatrix out(a.rows(), d);
    layer.forward(a, h, sched, out, pool);

    // Naive dense reference.
    DenseMatrix hw(a.rows(), d);
    reference_gemm(h, w, hw);
    DenseMatrix expect(a.rows(), d);
    for (index_t i = 0; i < a.rows(); ++i) {
        index_t begin = a.row_begin(i), end = a.row_end(i);
        if (begin == end)
            continue;
        std::vector<double> e(static_cast<size_t>(end - begin));
        double peak = -1e300;
        for (index_t k = begin; k < end; ++k) {
            index_t j = a.col_idx()[k];
            double s_src = 0.0, s_dst = 0.0;
            for (index_t dd = 0; dd < d; ++dd) {
                s_src += hw(i, dd) * a_src[static_cast<size_t>(dd)];
                s_dst += hw(j, dd) * a_dst[static_cast<size_t>(dd)];
            }
            double score = s_src + s_dst;
            if (score < 0)
                score *= slope;
            e[static_cast<size_t>(k - begin)] = score;
            peak = std::max(peak, score);
        }
        double denom = 0.0;
        for (double &s : e) {
            s = std::exp(s - peak);
            denom += s;
        }
        for (index_t k = begin; k < end; ++k) {
            double alpha = e[static_cast<size_t>(k - begin)] / denom;
            index_t j = a.col_idx()[k];
            for (index_t dd = 0; dd < d; ++dd) {
                expect(i, dd) += static_cast<value_t>(alpha) * hw(j, dd);
            }
        }
    }
    EXPECT_TRUE(out.approx_equal(expect, 2e-3, 2e-3))
        << "diff=" << out.max_abs_diff(expect);
}

TEST(GatLayer, AttentionMatrixExposedAndStochastic)
{
    CsrMatrix a = erdos_renyi_graph(50, 250, 7);
    Pcg32 rng(11);
    DenseMatrix h(a.rows(), 5);
    h.fill_random(rng);
    DenseMatrix w(5, 3);
    w.fill_random(rng);
    GatLayer layer(w, {0.5f, -0.2f, 0.1f}, {0.3f, 0.3f, -0.4f}, 0.2f,
                   Activation::kRelu);
    WorkStealPool pool(2);
    MergePathSchedule sched = MergePathSchedule::build(a, 16);
    DenseMatrix out(a.rows(), 3);
    layer.forward(a, h, sched, out, pool);
    const CsrMatrix &att = layer.last_attention();
    EXPECT_EQ(att.nnz(), a.nnz());
    for (index_t r = 0; r < att.rows(); ++r) {
        if (att.degree(r) == 0)
            continue;
        double sum = 0.0;
        for (index_t k = att.row_begin(r); k < att.row_end(r); ++k)
            sum += att.values()[k];
        ASSERT_NEAR(sum, 1.0, 1e-4);
    }
}

TEST(GatLayer, AttentionRetentionOptOut)
{
    CsrMatrix a = erdos_renyi_graph(40, 200, 9);
    Pcg32 rng(13);
    DenseMatrix h(a.rows(), 5);
    h.fill_random(rng);
    DenseMatrix w(5, 3);
    w.fill_random(rng);
    GatLayer layer(w, {0.5f, -0.2f, 0.1f}, {0.3f, 0.3f, -0.4f}, 0.2f,
                   Activation::kRelu);
    WorkStealPool pool(2);
    MergePathSchedule sched = MergePathSchedule::build(a, 8);
    DenseMatrix retained(a.rows(), 3);

    // Default: retained for inspection, releasable on demand.
    EXPECT_TRUE(layer.retain_attention());
    layer.forward(a, h, sched, retained, pool);
    EXPECT_EQ(layer.last_attention().nnz(), a.nnz());
    layer.release_attention();
    EXPECT_EQ(layer.last_attention().nnz(), 0);
    layer.release_attention(); // idempotent
    EXPECT_EQ(layer.last_attention().nnz(), 0);

    // Opted out (the serving setting): forward keeps nothing, and the
    // output is unchanged.
    layer.set_retain_attention(false);
    DenseMatrix unretained(a.rows(), 3);
    layer.forward(a, h, sched, unretained, pool);
    EXPECT_EQ(layer.last_attention().nnz(), 0);
    // Exact: the aggregation's split rows sum in a fixed order. Covers:
    // one 8-thread schedule, two runs on a 2-worker pool.
    EXPECT_DOUBLE_EQ(unretained.max_abs_diff(retained), 0.0);
}

TEST(GatLayerDeathTest, BadAttentionVectorLength)
{
    DenseMatrix w(4, 3);
    EXPECT_DEATH(GatLayer(w, {1.0f}, {1.0f, 1.0f, 1.0f}, 0.2f,
                          Activation::kNone),
                 "length");
}

} // namespace
} // namespace mps
