/**
 * Tests for the fused panel-streaming pipeline (mps/core/fusion.h):
 * bit-identity against the unfused path on 1-thread schedules (the
 * multi-thread and pool-size cases live in determinism_test.cpp),
 * approximate equality against the row-order reference kernels for
 * GCN forwards across the microkernel boundary dims, multi-layer
 * streaming chains, and training-loss parity of the fused GcnTrainer
 * against an in-test unfused reference over 5 epochs.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "mps/core/fusion.h"
#include "mps/core/locality.h"
#include "mps/core/precision.h"
#include "mps/core/schedule.h"
#include "mps/core/spmm.h"
#include "mps/gcn/activation.h"
#include "mps/gcn/gemm.h"
#include "mps/gcn/layer.h"
#include "mps/gcn/model.h"
#include "mps/gcn/training.h"
#include "mps/kernels/registry.h"
#include "mps/sparse/generate.h"
#include "mps/util/rng.h"
#include "mps/util/work_steal_pool.h"

namespace mps {
namespace {

/** The boundary dims the issue calls out: aligned, off-by-one, wide. */
const index_t kDims[] = {16, 17, 33, 128};

DenseMatrix
random_dense(index_t rows, index_t cols, uint64_t seed)
{
    DenseMatrix m(rows, cols);
    Pcg32 rng(seed);
    m.fill_random(rng);
    return m;
}

CsrMatrix
test_graph(index_t nodes, index_t edges, uint64_t seed)
{
    CsrMatrix a = erdos_renyi_graph(nodes, edges, seed);
    a.normalize_gcn();
    return a;
}

void
expect_bitwise_equal(const DenseMatrix &got, const DenseMatrix &want,
                     index_t dim, const char *what)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (index_t r = 0; r < got.rows(); ++r)
        for (index_t c = 0; c < got.cols(); ++c)
            ASSERT_EQ(got(r, c), want(r, c))
                << what << " differs at (" << r << ", " << c
                << "), d=" << dim;
}

/**
 * Test sink of a streamed run: ReLU on every finished row, then a copy
 * into columns [col0, col0 + width) of @p out, where col0 tracks the
 * panel in flight (the sweep hands panel-local rows).
 */
struct ReluSink
{
    DenseMatrix *out = nullptr;
    index_t col0 = 0;

    static void apply(const FinishedRow *rows, int count, index_t c_col0,
                      index_t width, const void *ctx)
    {
        const auto &s = *static_cast<const ReluSink *>(ctx);
        activation_epilogue(Activation::kRelu)(rows, count, c_col0, width,
                                               nullptr);
        for (int i = 0; i < count; ++i)
            std::copy(rows[i].crow, rows[i].crow + width,
                      s.out->row(rows[i].row) + s.col0);
    }
};

/**
 * 1-thread schedule: every row commits plain, the epilogue fires at
 * commit, and with 16-wide panels every GEMM/gather column offset is
 * SIMD-aligned — the fused output must be BIT-identical to the
 * unfused dense_gemm -> SpMM -> activation sequence. Covers: a 1-thread
 * schedule on a 4-worker pool, every d in kDims.
 */
TEST(FusionBitIdentity, OneThreadScheduleExactAcrossDims)
{
    WorkStealPool pool(4);
    CsrMatrix a = test_graph(180, 1400, 21);
    const index_t f = 24;
    DenseMatrix x = random_dense(a.rows(), f, 31);
    MergePathSchedule sched = MergePathSchedule::build(a, 1);

    for (index_t d : kDims) {
        DenseMatrix w =
            random_dense(f, d, 40 + static_cast<uint64_t>(d));

        DenseMatrix xw(a.rows(), d);
        dense_gemm(x, w, xw, pool);
        DenseMatrix expect(a.rows(), d);
        mergepath_spmm_parallel(a, xw, expect, sched, pool);
        apply_activation(expect, Activation::kRelu);

        SpmmLocality loc;
        loc.tile_d = 16; // force panel splits even at d=16/17
        FusedLayerPlan plan(a, d, borrow_schedule(sched), loc);
        EXPECT_TRUE(plan.shared_rows().empty());
        DenseMatrix got(a.rows(), d);
        plan.run(gemm_panel_source(x, w, pool), got, pool,
                 activation_epilogue(Activation::kRelu));
        expect_bitwise_equal(got, expect, d, "fused one-thread");
    }
}

/**
 * Streaming chain, 1-thread: layer 1's panels rank-update layer 2's
 * combination in ascending panel order, replaying the exact axpy
 * sequence of the full-width GEMM — the chained 2-layer result is
 * bit-identical to the fully materialized pipeline. Covers: a 1-thread
 * schedule on a 4-worker pool.
 */
TEST(FusionBitIdentity, StreamingChainMatchesMaterialized)
{
    WorkStealPool pool(4);
    CsrMatrix a = test_graph(150, 1100, 23);
    const index_t f = 24, hidden = 32, classes = 24;
    DenseMatrix x = random_dense(a.rows(), f, 51);
    DenseMatrix w1 = random_dense(f, hidden, 52);
    DenseMatrix w2 = random_dense(hidden, classes, 53);
    MergePathSchedule sched = MergePathSchedule::build(a, 1);

    // Materialized reference: XW1 -> H1 -> HW2 -> logits.
    DenseMatrix xw1(a.rows(), hidden);
    dense_gemm(x, w1, xw1, pool);
    DenseMatrix h1(a.rows(), hidden);
    mergepath_spmm_parallel(a, xw1, h1, sched, pool);
    apply_activation(h1, Activation::kRelu);
    DenseMatrix hw2(a.rows(), classes);
    dense_gemm(h1, w2, hw2, pool);
    DenseMatrix expect(a.rows(), classes);
    mergepath_spmm_parallel(a, hw2, expect, sched, pool);

    // Fused chain: H1 exists only as streamed 16-wide panels, which
    // the test's sink copies out one panel at a time.
    SpmmLocality loc;
    loc.tile_d = 16;
    FusedLayerPlan plan1(a, hidden, borrow_schedule(sched), loc);
    FusedLayerPlan plan2(a, classes, borrow_schedule(sched), loc);
    DenseMatrix hw2_acc(a.rows(), classes);
    hw2_acc.fill(0.0f);
    DenseMatrix hp(a.rows(), plan1.tile());
    const ReluSink sink{&hp, 0};
    plan1.run_streaming(
        gemm_panel_source(x, w1, pool),
        [&](index_t col0, index_t width) {
            dense_gemm_rank_update(hp, width, w2, col0, hw2_acc, pool);
        },
        pool, &ReluSink::apply, &sink);
    expect_bitwise_equal(hw2_acc, hw2, hidden, "rank-updated HW2");
    DenseMatrix got(a.rows(), classes);
    plan2.run(slice_panel_source(hw2_acc), got, pool);
    expect_bitwise_equal(got, expect, classes, "chained logits");
}

/**
 * Bit pattern equality, so a -0.0f/+0.0f swap fails too, and a NaN
 * left in a row the sweep never handed over fails.
 */
void
expect_same_bits(const DenseMatrix &got, const DenseMatrix &want,
                 const std::string &what)
{
    ASSERT_EQ(got.rows(), want.rows()) << what;
    ASSERT_EQ(got.cols(), want.cols()) << what;
    for (index_t r = 0; r < got.rows(); ++r)
        for (index_t c = 0; c < got.cols(); ++c)
            ASSERT_EQ(std::bit_cast<uint32_t>(got(r, c)),
                      std::bit_cast<uint32_t>(want(r, c)))
                << what << " differs at (" << r << ", " << c
                << "): " << got(r, c) << " vs " << want(r, c);
}

/**
 * Power-law hubs (many split rows on a fine schedule) with every
 * seventh row emptied, so the sweep also hands over rows that gather
 * nothing.
 */
CsrMatrix
empty_and_hub_rows_graph()
{
    PowerLawParams p;
    p.nodes = 1200;
    p.target_nnz = 12000;
    p.max_degree = 600;
    p.seed = 43;
    const CsrMatrix full = power_law_graph(p);
    std::vector<index_t> row_ptr{0};
    std::vector<index_t> cols;
    std::vector<value_t> vals;
    for (index_t r = 0; r < full.rows(); ++r) {
        if (r % 7 != 3)
            for (index_t k = full.row_begin(r); k < full.row_end(r); ++k) {
                cols.push_back(full.col_idx()[k]);
                vals.push_back(full.values()[k]);
            }
        row_ptr.push_back(static_cast<index_t>(cols.size()));
    }
    return CsrMatrix(full.rows(), full.cols(), std::move(row_ptr),
                     std::move(cols), std::move(vals));
}

/**
 * A streamed run materializes nothing: each finished row goes from the
 * sweep's register row through the executor's staging tile to the
 * epilogue, and the first part of each split row waits in the head
 * panel for the carry fix-up. The rank update (the first panel stores,
 * later ones add) and the aggregate-first fold (one panel, stored)
 * must equal run() followed by a separate dense_gemm_rank_update bit
 * for bit. Their destinations start as NaN, so a row the sweep never
 * hands over, or a first panel that adds instead of storing, shows.
 * Covers: a graph with empty rows and hub rows split across a
 * 97-thread merge-path schedule, panel width 16 (four panels for the
 * rank update) and one full-width panel, on pools of 1, 2 and 4
 * workers.
 */
TEST(FusionBitIdentity, StreamingSinkMatchesMaterialized)
{
    const CsrMatrix a = empty_and_hub_rows_graph();
    const MergePathSchedule sched = MergePathSchedule::build(a, 97);
    ASSERT_FALSE(sched.split_row_list(a).empty());
    ASSERT_EQ(a.row_begin(3), a.row_end(3));
    const index_t n = a.rows(), f = 16, hidden = 64, classes = 24;
    const DenseMatrix x = random_dense(n, f, 81);
    const DenseMatrix w1 = random_dense(f, hidden, 82);
    const DenseMatrix w2 = random_dense(hidden, classes, 83);
    const DenseMatrix xw1 = [&] {
        WorkStealPool pool(2);
        DenseMatrix xw(n, hidden);
        dense_gemm(x, w1, xw, pool);
        return xw;
    }();
    const value_t nan = std::numeric_limits<value_t>::quiet_NaN();

    for (const index_t tile : {index_t{16}, index_t{0}})
        for (const unsigned workers : {1u, 2u, 4u}) {
            SCOPED_TRACE(std::string(tile > 0 ? "16-wide panels"
                                              : "one panel") +
                         " on " + std::to_string(workers) + " workers");
            WorkStealPool pool(workers);
            SpmmLocality loc;
            loc.tile_d = tile;

            // Rank update: relu(A * XW1) * W2.
            FusedLayerPlan wide(a, hidden, borrow_schedule(sched), loc);
            ASSERT_EQ(wide.tile(), tile > 0 ? tile : hidden);
            DenseMatrix h(n, hidden), want(n, classes);
            wide.run(slice_panel_source(xw1), h, pool,
                     activation_epilogue(Activation::kRelu));
            want.fill(0.0f);
            dense_gemm_rank_update(h, hidden, w2, 0, want, pool);
            DenseMatrix got(n, classes);
            got.fill(nan);
            RankUpdateEpilogue rank =
                make_rank_update_epilogue(Activation::kRelu, w2, got);
            wide.run_streaming(
                slice_panel_source(xw1),
                [&rank](index_t col0, index_t width) {
                    rank.w_row0 = col0 + width;
                },
                pool, &RankUpdateEpilogue::apply, &rank);
            expect_same_bits(got, want, "streamed rank update");

            // Fold: relu((A * X) * W1) * W2, aggregated first.
            FusedLayerPlan narrow(a, f, borrow_schedule(sched), loc);
            ASSERT_EQ(narrow.tile(), f);
            DenseMatrix ax(n, f), h_fold(n, hidden), want_fold(n, classes);
            narrow.run(slice_panel_source(x), ax, pool);
            dense_gemm(ax, w1, h_fold, pool);
            apply_activation(h_fold, Activation::kRelu);
            want_fold.fill(0.0f);
            dense_gemm_rank_update(h_fold, hidden, w2, 0, want_fold, pool);
            DenseMatrix got_fold(n, classes);
            got_fold.fill(nan);
            const CombineEpilogue fold = make_combine_epilogue(
                Activation::kRelu, w1, got_fold, &w2);
            narrow.run_streaming(slice_panel_source(x), {}, pool,
                                 &CombineEpilogue::apply, &fold);
            expect_same_bits(got_fold, want_fold, "streamed fold");
        }
}

/**
 * Aggregate-first, 1-thread: the sweep over X commits the same rows
 * as the unfused SpMM, and the combine epilogue runs the GEMM kernel
 * on each of them — act((A * X) * W1) stored, and folded into
 * (.) * W2, are bit-identical to SpMM -> dense_gemm -> activation ->
 * dense_gemm. Covers: a 1-thread schedule on a 4-worker pool.
 */
TEST(FusionBitIdentity, AggregateFirstMatchesUnfused)
{
    WorkStealPool pool(4);
    CsrMatrix a = test_graph(170, 1300, 25);
    const index_t f = 12, hidden = 40, classes = 9;
    DenseMatrix x = random_dense(a.rows(), f, 55);
    DenseMatrix w1 = random_dense(f, hidden, 56);
    DenseMatrix w2 = random_dense(hidden, classes, 57);
    MergePathSchedule sched = MergePathSchedule::build(a, 1);

    DenseMatrix ax(a.rows(), f), h(a.rows(), hidden);
    DenseMatrix hw2(a.rows(), classes);
    mergepath_spmm_parallel(a, x, ax, sched, pool);
    dense_gemm(ax, w1, h, pool);
    apply_activation(h, Activation::kRelu);
    dense_gemm(h, w2, hw2, pool);

    FusedLayerPlan plan(a, f, borrow_schedule(sched), SpmmLocality{});
    ASSERT_EQ(plan.tile(), f);
    DenseMatrix got_h(a.rows(), hidden), got_hw2(a.rows(), classes);
    const CombineEpilogue store = make_combine_epilogue(
        Activation::kRelu, w1, got_h, nullptr);
    const CombineEpilogue fold = make_combine_epilogue(
        Activation::kRelu, w1, got_hw2, &w2);
    for (const CombineEpilogue *epi : {&store, &fold})
        plan.run_streaming(slice_panel_source(x), {}, pool,
                           &CombineEpilogue::apply, epi);
    expect_bitwise_equal(got_h, h, hidden, "aggregate-first H");
    expect_bitwise_equal(got_hw2, hw2, classes, "aggregate-first HW2");
}

/** Multi-thread schedules against the reference kernels, which sum
 * each row in one pass: split rows round differently there, so the
 * comparison is approximate. */
TEST(FusionApprox, GcnLayerForwardAcrossDims)
{
    WorkStealPool pool(4);
    CsrMatrix a = test_graph(200, 1600, 27);
    const index_t f = 24;
    DenseMatrix x = random_dense(a.rows(), f, 61);

    for (index_t d : kDims) {
        DenseMatrix w =
            random_dense(f, d, 70 + static_cast<uint64_t>(d));
        GcnLayer layer(w, Activation::kRelu);
        auto kernel = make_spmm_kernel("mergepath");
        kernel->prepare(a, d);
        DenseMatrix out(a.rows(), d);
        layer.forward(a, x, *kernel, out, pool);

        DenseMatrix xw(a.rows(), d), expect(a.rows(), d);
        reference_gemm(x, w, xw);
        reference_spmm(a, xw, expect);
        apply_activation(expect, Activation::kRelu);
        EXPECT_TRUE(out.approx_equal(expect, 1e-3, 1e-3))
            << "d=" << d << " diff=" << out.max_abs_diff(expect);
    }
}

/**
 * The model's multi-layer fused pipeline against the classic loop: the
 * "reference" kernel offers no fused plan, so a model built on it runs
 * the exact pre-fusion execution with identical (same-seed) weights.
 */
TEST(FusionModel, TwoLayerFusedMatchesClassicLoop)
{
    WorkStealPool pool(4);
    CsrMatrix a = test_graph(220, 1800, 35);
    DenseMatrix x = random_dense(a.rows(), 24, 121);

    GcnModel fused = GcnModel::two_layer(24, 33, 7, 9, "mergepath");
    GcnModel classic = GcnModel::two_layer(24, 33, 7, 9, "reference");
    DenseMatrix got = fused.infer(a, x, pool);
    DenseMatrix expect = classic.infer(a, x, pool);
    EXPECT_TRUE(got.approx_equal(expect, 1e-3, 1e-3))
        << "diff=" << got.max_abs_diff(expect);
}

/** Sigmoid epilogue must hit empty rows too: sigmoid(0) = 0.5. */
TEST(FusionModel, SigmoidEpilogueCoversEmptyRows)
{
    WorkStealPool pool(2);
    // Node 0 has no in-edges: CSR row 0 is empty.
    CsrMatrix a(3, 3, {0, 0, 1, 2}, {0, 1}, {1.0f, 1.0f});
    DenseMatrix x(3, 4);
    x.fill(1.0f);
    DenseMatrix w = random_dense(4, 16, 131);
    MergePathSchedule sched = MergePathSchedule::build(a, 2);
    FusedLayerPlan plan(a, 16, borrow_schedule(sched), SpmmLocality{});
    DenseMatrix out(3, 16);
    plan.run(gemm_panel_source(x, w, pool), out, pool,
             activation_epilogue(Activation::kSigmoid));
    for (index_t c = 0; c < 16; ++c)
        ASSERT_FLOAT_EQ(out(0, c), 0.5f) << "empty row, col " << c;
}

/** In-test unfused reference trainer mirroring GcnTrainer::step. */
class UnfusedReferenceTrainer
{
  public:
    UnfusedReferenceTrainer(index_t f, index_t hidden, index_t classes,
                            uint64_t seed, float lr)
        : w1_(random_layer_weights(f, hidden, seed)),
          w2_(random_layer_weights(hidden, classes, seed + 1)), lr_(lr)
    {
    }

    double
    step(const CsrMatrix &a, const DenseMatrix &x,
         const std::vector<int32_t> &labels,
         const std::vector<bool> &mask, WorkStealPool &pool)
    {
        const index_t n = a.rows();
        DenseMatrix xw1(n, w1_.cols());
        dense_gemm(x, w1_, xw1, pool);
        DenseMatrix z1(n, w1_.cols());
        reference_spmm(a, xw1, z1);
        DenseMatrix h1 = z1;
        apply_activation(h1, Activation::kRelu);
        DenseMatrix hw2(n, w2_.cols());
        dense_gemm(h1, w2_, hw2, pool);
        DenseMatrix logits(n, w2_.cols());
        reference_spmm(a, hw2, logits);

        DenseMatrix g2(n, w2_.cols());
        double loss = softmax_cross_entropy(logits, labels, mask, g2);

        DenseMatrix d_hw2(n, w2_.cols());
        reference_spmm(a, g2, d_hw2);
        DenseMatrix d_w2 = at_b(h1, d_hw2);
        DenseMatrix d_h1 = a_bt(d_hw2, w2_);
        for (index_t r = 0; r < n; ++r)
            for (index_t c = 0; c < d_h1.cols(); ++c)
                if (z1(r, c) <= 0.0f)
                    d_h1(r, c) = 0.0f;
        DenseMatrix d_xw1(n, w1_.cols());
        reference_spmm(a, d_h1, d_xw1);
        DenseMatrix d_w1 = at_b(x, d_xw1);

        sgd(w1_, d_w1);
        sgd(w2_, d_w2);
        return loss;
    }

  private:
    static DenseMatrix
    at_b(const DenseMatrix &a, const DenseMatrix &b)
    {
        DenseMatrix out(a.cols(), b.cols());
        for (index_t k = 0; k < a.cols(); ++k)
            for (index_t j = 0; j < b.cols(); ++j) {
                double sum = 0.0;
                for (index_t i = 0; i < a.rows(); ++i)
                    sum += static_cast<double>(a(i, k)) * b(i, j);
                out(k, j) = static_cast<value_t>(sum);
            }
        return out;
    }

    static DenseMatrix
    a_bt(const DenseMatrix &a, const DenseMatrix &b)
    {
        DenseMatrix out(a.rows(), b.rows());
        for (index_t i = 0; i < a.rows(); ++i)
            for (index_t j = 0; j < b.rows(); ++j) {
                double sum = 0.0;
                for (index_t k = 0; k < a.cols(); ++k)
                    sum += static_cast<double>(a(i, k)) * b(j, k);
                out(i, j) = static_cast<value_t>(sum);
            }
        return out;
    }

    void
    sgd(DenseMatrix &w, const DenseMatrix &g)
    {
        for (index_t r = 0; r < w.rows(); ++r)
            for (index_t c = 0; c < w.cols(); ++c)
                w(r, c) -= lr_ * g(r, c);
    }

    DenseMatrix w1_, w2_;
    float lr_;
};

/**
 * 5-epoch training-loss parity: the fused trainer's per-epoch losses
 * must track an unfused reference (same seed, same algorithm, scalar
 * double-precision backward) within float accumulation noise.
 */
TEST(FusionTraining, LossParityOverFiveEpochs)
{
    WorkStealPool pool(4);
    ClassificationProblem prob =
        make_classification_problem(120, 3, 8, 6, 17);
    GcnTrainer trainer(8, 16, prob.num_classes, 99, 0.1f);
    UnfusedReferenceTrainer ref(8, 16, prob.num_classes, 99, 0.1f);

    for (int epoch = 0; epoch < 5; ++epoch) {
        double got = trainer.step(prob.graph, prob.features, prob.labels,
                                  prob.train_mask, pool);
        double want = ref.step(prob.graph, prob.features, prob.labels,
                               prob.train_mask, pool);
        EXPECT_NEAR(got, want, 5e-3 + 5e-3 * std::abs(want))
            << "epoch " << epoch;
    }
    // And with more epochs the fused trainer still learns.
    for (int epoch = 0; epoch < 35; ++epoch)
        trainer.step(prob.graph, prob.features, prob.labels,
                     prob.train_mask, pool);
    DenseMatrix logits =
        trainer.predict(prob.graph, prob.features, pool);
    EXPECT_GT(accuracy(logits, prob.labels, prob.train_mask), 0.5);
}

/** A model chaining @p widths, ReLU between layers, identity last. */
GcnModel
chain_model(const std::vector<index_t> &widths, const std::string &kernel)
{
    GcnModel model(kernel);
    for (size_t l = 0; l + 1 < widths.size(); ++l)
        model.add_layer(GcnLayer(
            random_layer_weights(widths[l], widths[l + 1], 80 + l),
            l + 2 < widths.size() ? Activation::kRelu : Activation::kNone));
    return model;
}

/** Combine-first row-order reference: reference_gemm, reference_spmm. */
DenseMatrix
reference_forward(const GcnModel &model, const CsrMatrix &a,
                  const DenseMatrix &x)
{
    DenseMatrix h = x;
    for (size_t l = 0; l < model.num_layers(); ++l) {
        const GcnLayer &layer = model.layer(l);
        DenseMatrix xw(a.rows(), layer.out_features());
        DenseMatrix out(a.rows(), layer.out_features());
        reference_gemm(h, layer.weights(), xw);
        reference_spmm(a, xw, out);
        apply_activation(out, layer.activation());
        h = std::move(out);
    }
    return h;
}

/** The association rule, pinned per layer for the model shapes. */
TEST(GcnAssociation, RulePinnedForShapes)
{
    CsrMatrix a = test_graph(200, 1600, 27);
    struct Case
    {
        std::vector<index_t> widths;
        std::vector<bool> agg_first;
    };
    const Case cases[] = {
        {{16, 128, 16}, {true, false}},
        {{128, 128, 16}, {false, false}},
        {{32, 16, 8}, {false, false}},
        {{24, 33, 7}, {true, false}},
        {{8, 32, 64, 4}, {true, true, false}},
    };
    for (const Case &c : cases) {
        const GcnModel model = chain_model(c.widths, "mergepath");
        const std::vector<LayerPlanInfo> plans = model.layer_plans(a);
        ASSERT_EQ(plans.size(), c.agg_first.size());
        for (size_t l = 0; l < plans.size(); ++l) {
            const std::string what = "widths[" + std::to_string(l) +
                                     "]=" + std::to_string(c.widths[l]);
            EXPECT_EQ(plans[l].aggregate_first, c.agg_first[l]) << what;
            EXPECT_EQ(model.layer(l).aggregates_first(a), c.agg_first[l])
                << what;
            EXPECT_EQ(plans[l].sparse_width,
                      c.agg_first[l] ? c.widths[l] : c.widths[l + 1])
                << what;
            // Layer 0 aggregating first gathers the caller's f32 X.
            EXPECT_EQ(plans[l].precision, c.agg_first[l] && l == 0
                                              ? StorageMode::kF32
                                              : model.precision())
                << what;
        }
    }
}

/**
 * A plan that cannot sweep the whole input in one panel (a narrow
 * MPS_TILE_D) leaves no whole aggregated row for the combine
 * epilogue: the layer combines first instead.
 */
TEST(GcnAssociation, TiledPlanCombinesFirst)
{
    EXPECT_TRUE(aggregate_first(16, 128, 16));
    EXPECT_TRUE(aggregate_first(16, 128, 128));
    EXPECT_FALSE(aggregate_first(16, 128, 8));
    EXPECT_FALSE(aggregate_first(48, 64, 32));
    EXPECT_FALSE(aggregate_first(128, 16, 128)); // narrowing
    EXPECT_FALSE(aggregate_first(32, 32, 32));   // equal widths
}

/**
 * Models whose layers widen, on the fused merge-path pipeline, against
 * the "reference" kernel (no fused plan: the classic loop, same
 * association) and the
 * combine-first row-order reference. Covers every handoff:
 * aggregate-first into combine-first (16-48-7), aggregate-first into
 * aggregate-first (8-32-64-4) and combine-first into aggregate-first
 * (32-16-48-8). Under MPS_FUSE=0 the same models run the classic path.
 */
TEST(GcnAssociation, FusedMatchesClassicAndReference)
{
    WorkStealPool pool(4);
    PowerLawParams p;
    p.nodes = 600;
    p.target_nnz = 5000;
    p.max_degree = 300;
    p.seed = 29;
    CsrMatrix a = power_law_graph(p);
    a.normalize_gcn();
    const double tol =
        default_precision() == StorageMode::kF32 ? 1e-3 : 3e-2;
    const std::vector<index_t> shapes[] = {
        {16, 48, 7}, {8, 32, 64, 4}, {32, 16, 48, 8}};
    for (const std::vector<index_t> &widths : shapes) {
        DenseMatrix x = random_dense(a.rows(), widths[0], 141);
        GcnModel gold = chain_model(widths, "reference");
        const DenseMatrix want = reference_forward(gold, a, x);
        const DenseMatrix classic = gold.infer(a, x, pool);
        EXPECT_TRUE(classic.approx_equal(want, tol, tol))
            << "reference kernel, diff=" << classic.max_abs_diff(want);
        GcnModel model = chain_model(widths, "mergepath");
        const DenseMatrix got = model.infer(a, x, pool);
        const std::string what = "in=" + std::to_string(widths[0]);
        EXPECT_TRUE(got.approx_equal(classic, tol, tol))
            << what << " vs classic, diff=" << got.max_abs_diff(classic);
        EXPECT_TRUE(got.approx_equal(want, tol, tol))
            << what << " vs reference, diff=" << got.max_abs_diff(want);
    }
}

/** The combine epilogue fires on empty rows too: sigmoid(0 * W) = 0.5. */
TEST(GcnAssociation, SigmoidAggregateFirstCoversEmptyRows)
{
    WorkStealPool pool(2);
    // Node 0 has no in-edges: CSR row 0 is empty.
    CsrMatrix a(3, 3, {0, 0, 1, 2}, {0, 1}, {1.0f, 1.0f});
    DenseMatrix x(3, 4);
    x.fill(1.0f);
    GcnModel model("mergepath");
    model.add_layer(GcnLayer(random_layer_weights(4, 16, 131),
                             Activation::kSigmoid));
    ASSERT_TRUE(model.layer_plans(a)[0].aggregate_first);
    const DenseMatrix out = model.infer(a, x, pool);
    for (index_t c = 0; c < 16; ++c)
        ASSERT_FLOAT_EQ(out(0, c), 0.5f) << "empty row, col " << c;
}


/**
 * A fused plan sizes an auto panel width at the bytes its panels
 * store. On an operand whose n rows make 128 f32 columns too wide for
 * the width's cache budget while 128 bf16 columns fit it, the plan
 * the merge-path kernel builds sweeps 128 columns in one
 * panel at kBf16 and in narrower ones at kF32, back and forth as the
 * precision changes; the lookahead follows the same rule. An explicit
 * MPS_TILE_D width holds at both precisions. Only an n-row diagonal
 * CSR is built: no n x 128 operand exists until a run.
 */
TEST(FusionTileWidth, SizedAtStoredBytes)
{
    const index_t dim = 128;
    const index_t f32 = storage_elem_bytes(StorageMode::kF32);
    const index_t bf16 = storage_elem_bytes(StorageMode::kBf16);
    // The fewest rows at which the auto f32 width drops below dim, for
    // this host's detected LLC.
    index_t lo = 1, hi = 2;
    while (auto_fused_tile_d(hi, dim, f32) == dim) {
        lo = hi;
        hi *= 2;
        ASSERT_LT(hi, index_t{1} << 28) << "no narrowing row count";
    }
    while (hi - lo > 1) {
        const index_t mid = lo + (hi - lo) / 2;
        (auto_fused_tile_d(mid, dim, f32) == dim ? lo : hi) = mid;
    }
    const index_t n = hi;
    const index_t narrow = auto_fused_tile_d(n, dim, f32);
    ASSERT_LT(narrow, dim);
    ASSERT_EQ(auto_fused_tile_d(n, dim, bf16), dim);

    std::vector<index_t> row_ptr(static_cast<size_t>(n) + 1), cols(
        static_cast<size_t>(n));
    for (index_t i = 0; i <= n; ++i)
        row_ptr[static_cast<size_t>(i)] = i;
    for (index_t i = 0; i < n; ++i)
        cols[static_cast<size_t>(i)] = i;
    const CsrMatrix a(n, n, std::move(row_ptr), std::move(cols),
                      std::vector<value_t>(static_cast<size_t>(n), 1.0f));

    const LocalityEnv &env = locality_env();
    const auto want = [&](StorageMode p) {
        switch (env.tile_policy) {
        case TilePolicy::kDisabled:
            return dim;
        case TilePolicy::kExplicit:
            return std::min(env.tile_d, dim);
        case TilePolicy::kAuto:
            break;
        }
        return p == StorageMode::kBf16 ? dim : narrow;
    };
    auto kernel = make_spmm_kernel("mergepath");
    kernel->prepare(a, dim);
    FusedLayerPlan *plan = kernel->fused_plan(a, dim);
    ASSERT_NE(plan, nullptr);
    // A new plan runs at kF32.
    for (StorageMode p : {StorageMode::kF32, StorageMode::kBf16,
                          StorageMode::kF32, StorageMode::kBf16}) {
        plan->set_precision(p);
        const index_t eb = storage_elem_bytes(p);
        EXPECT_EQ(plan->tile(), want(p)) << "at " << eb;
        EXPECT_EQ(plan->locality().prefetch,
                  default_fused_locality(n, dim, eb).prefetch)
            << "at " << eb;
    }
}

} // namespace
} // namespace mps
