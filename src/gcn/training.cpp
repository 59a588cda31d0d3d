#include "mps/gcn/training.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "mps/core/fusion.h"
#include "mps/core/locality.h"
#include "mps/core/microkernel.h"
#include "mps/core/spmm.h"
#include "mps/gcn/activation.h"
#include "mps/gcn/gemm.h"
#include "mps/gcn/layer.h"
#include "mps/sparse/coo_matrix.h"
#include "mps/util/log.h"
#include "mps/util/metrics.h"
#include "mps/util/rng.h"
#include "mps/util/work_steal_pool.h"
#include "mps/util/timer.h"
#include "mps/util/trace.h"

namespace mps {

namespace {

/** Fused locality over @p a at width @p dim: training runs f32. */
SpmmLocality
f32_fused_locality(const CsrMatrix &a, index_t dim)
{
    return default_fused_locality(a.cols(), dim,
                                  storage_elem_bytes(StorageMode::kF32));
}

/** out = a^T * b with a (n x k), b (n x m); out is k x m. */
void
gemm_at_b(const DenseMatrix &a, const DenseMatrix &b, DenseMatrix &out,
          WorkStealPool &pool)
{
    MPS_CHECK(a.rows() == b.rows(), "a^T b: row counts differ");
    MPS_CHECK(out.rows() == a.cols() && out.cols() == b.cols(),
              "a^T b: bad output shape");
    const index_t n = a.rows(), k = a.cols(), m = b.cols();
    const RowKernels &rk = select_row_kernels(m);
    const index_t chunk = 16;
    pool.parallel_for(
        (static_cast<uint64_t>(k) + chunk - 1) / chunk, [&](uint64_t c) {
            index_t begin = static_cast<index_t>(c) * chunk;
            index_t end = std::min<index_t>(begin + chunk, k);
            for (index_t kk = begin; kk < end; ++kk) {
                value_t *orow = out.row(kk);
                rk.zero(orow, m);
                for (index_t i = 0; i < n; ++i) {
                    const value_t av = a(i, kk);
                    if (av == 0.0f)
                        continue;
                    rk.axpy(orow, av, b.row(i), m);
                }
            }
        });
}

/** out = a * b^T with a (n x m), b (k x m); out is n x k. */
void
gemm_a_bt(const DenseMatrix &a, const DenseMatrix &b, DenseMatrix &out,
          WorkStealPool &pool)
{
    MPS_CHECK(a.cols() == b.cols(), "a b^T: inner dims differ");
    MPS_CHECK(out.rows() == a.rows() && out.cols() == b.rows(),
              "a b^T: bad output shape");
    const index_t m = a.cols(), k = b.rows();
    const RowKernels &rk = select_row_kernels(m);
    const index_t chunk = 64;
    pool.parallel_for(
        (static_cast<uint64_t>(a.rows()) + chunk - 1) / chunk,
        [&](uint64_t c) {
            index_t begin = static_cast<index_t>(c) * chunk;
            index_t end = std::min<index_t>(begin + chunk, a.rows());
            for (index_t i = begin; i < end; ++i) {
                const value_t *arow = a.row(i);
                value_t *orow = out.row(i);
                for (index_t j = 0; j < k; ++j)
                    orow[j] = rk.dot(arow, b.row(j), m);
            }
        });
}

/** w -= lr * grad (element-wise). */
void
sgd_update(DenseMatrix &w, const DenseMatrix &grad, float lr)
{
    MPS_CHECK(w.rows() == grad.rows() && w.cols() == grad.cols(),
              "gradient shape mismatch");
    const index_t cols = w.cols();
    for (index_t r = 0; r < w.rows(); ++r)
        row_axpy(w.row(r), -lr, grad.row(r), cols);
}

} // namespace

double
softmax_cross_entropy(const DenseMatrix &logits,
                      const std::vector<int32_t> &labels,
                      const std::vector<bool> &mask, DenseMatrix &grad)
{
    MPS_CHECK(labels.size() == static_cast<size_t>(logits.rows()),
              "labels length must equal rows");
    MPS_CHECK(mask.size() == labels.size(),
              "mask length must equal rows");
    MPS_CHECK(grad.rows() == logits.rows() && grad.cols() == logits.cols(),
              "grad shape must match logits");

    grad.fill(0.0f);
    const index_t c = logits.cols();
    double loss = 0.0;
    int64_t counted = 0;
    for (index_t r = 0; r < logits.rows(); ++r) {
        if (!mask[static_cast<size_t>(r)])
            continue;
        int32_t y = labels[static_cast<size_t>(r)];
        MPS_CHECK(y >= 0 && y < c, "label out of range: ", y);
        const value_t *row = logits.row(r);
        value_t peak = row[0];
        for (index_t j = 1; j < c; ++j)
            peak = std::max(peak, row[j]);
        double denom = 0.0;
        for (index_t j = 0; j < c; ++j)
            denom += std::exp(static_cast<double>(row[j] - peak));
        loss -= (static_cast<double>(row[y] - peak) - std::log(denom));
        for (index_t j = 0; j < c; ++j) {
            double p = std::exp(static_cast<double>(row[j] - peak)) /
                       denom;
            grad(r, j) =
                static_cast<value_t>(p - (j == y ? 1.0 : 0.0));
        }
        ++counted;
    }
    MPS_CHECK(counted > 0, "loss needs at least one masked node");
    // Average over the masked nodes (gradients too).
    const value_t inv = 1.0f / static_cast<value_t>(counted);
    for (index_t r = 0; r < grad.rows(); ++r) {
        if (!mask[static_cast<size_t>(r)])
            continue;
        row_scale(grad.row(r), inv, c);
    }
    return loss / static_cast<double>(counted);
}

std::vector<int32_t>
argmax_rows(const DenseMatrix &logits)
{
    std::vector<int32_t> out(static_cast<size_t>(logits.rows()), 0);
    for (index_t r = 0; r < logits.rows(); ++r) {
        const value_t *row = logits.row(r);
        int32_t best = 0;
        for (index_t j = 1; j < logits.cols(); ++j) {
            if (row[j] > row[best])
                best = j;
        }
        out[static_cast<size_t>(r)] = best;
    }
    return out;
}

double
accuracy(const DenseMatrix &logits, const std::vector<int32_t> &labels,
         const std::vector<bool> &mask)
{
    std::vector<int32_t> pred = argmax_rows(logits);
    int64_t hit = 0, total = 0;
    for (size_t i = 0; i < pred.size(); ++i) {
        if (!mask[i])
            continue;
        ++total;
        hit += pred[i] == labels[i];
    }
    return total == 0 ? 0.0
                      : static_cast<double>(hit) /
                            static_cast<double>(total);
}

GcnTrainer::GcnTrainer(index_t in_features, index_t hidden,
                       index_t classes, uint64_t seed, float learning_rate)
    : w1_(random_layer_weights(in_features, hidden, seed)),
      w2_(random_layer_weights(hidden, classes, seed + 1)),
      lr_(learning_rate), schedule_cache_(&ScheduleCache::global())
{
}

void
GcnTrainer::set_schedule_cache(ScheduleCache &cache)
{
    schedule_cache_ = &cache;
    sched_.reset();
    sched_rows_ = -1; // re-resolve from the new cache on next use
    sched_nnz_ = -1;
}

void
GcnTrainer::ensure_schedule(const CsrMatrix &a)
{
    if (sched_ && sched_rows_ == a.rows() && sched_nnz_ == a.nnz())
        return;
    int64_t total = static_cast<int64_t>(a.rows()) + a.nnz();
    index_t threads = static_cast<index_t>(
        std::clamp<int64_t>(total / 32, 64, 8192));
    sched_ = schedule_cache_->get_or_build(a, threads);
    sched_rows_ = a.rows();
    sched_nnz_ = a.nnz();
}

DenseMatrix
GcnTrainer::predict(const CsrMatrix &a, const DenseMatrix &x,
                    WorkStealPool &pool)
{
    MPS_CHECK(x.cols() == w1_.rows(), "feature width mismatch");
    ensure_schedule(a);

    DenseMatrix logits(a.rows(), w2_.cols());
    if (fusion_enabled()) {
        // Fused 2-layer pipeline: layer 1's commit epilogue ReLUs its
        // finished rows and rank-updates H1 * W2 from them, up to 48
        // rows per call, so neither XW1 nor H1 is ever
        // materialized; layer 2 then consumes the accumulated HW2 as
        // zero-copy slices.
        FusedLayerPlan plan1(a, w1_.cols(), sched_,
                             f32_fused_locality(a, w1_.cols()));
        FusedLayerPlan plan2(a, w2_.cols(), sched_,
                             f32_fused_locality(a, w2_.cols()));
        DenseMatrix hw2(a.rows(), w2_.cols());
        RankUpdateEpilogue rank =
            make_rank_update_epilogue(Activation::kRelu, w2_, hw2);
        plan1.run_streaming(
            gemm_panel_source(x, w1_, pool),
            [&rank](index_t col0, index_t width) {
                rank.w_row0 = col0 + width;
            },
            pool, &RankUpdateEpilogue::apply, &rank);
        plan2.run(slice_panel_source(hw2), logits, pool);
        return logits;
    }

    DenseMatrix xw1(a.rows(), w1_.cols());
    dense_gemm(x, w1_, xw1, pool);
    DenseMatrix h1(a.rows(), w1_.cols());
    mergepath_spmm_parallel(a, xw1, h1, *sched_, pool);
    apply_activation(h1, Activation::kRelu);

    DenseMatrix hw2(a.rows(), w2_.cols());
    dense_gemm(h1, w2_, hw2, pool);
    mergepath_spmm_parallel(a, hw2, logits, *sched_, pool);
    return logits;
}

double
GcnTrainer::step(const CsrMatrix &a, const DenseMatrix &x,
                 const std::vector<int32_t> &labels,
                 const std::vector<bool> &mask, WorkStealPool &pool)
{
    MPS_CHECK(a.rows() == a.cols(),
              "training expects a square (normalized) adjacency");
    MPS_CHECK(x.cols() == w1_.rows(), "feature width mismatch");
    ScopedSpan span("train.step", "train");
    MetricsRegistry &metrics = MetricsRegistry::global();
    Timer step_timer;
    ensure_schedule(a);

    DenseMatrix z1(a.rows(), w1_.cols());
    DenseMatrix logits(a.rows(), w2_.cols());
    DenseMatrix h1;
    {
        // ---- forward, keeping intermediates ----
        ScopedSpan forward_span("train.forward", "train");
        if (fusion_enabled()) {
            // The backward ReLU gate needs z1 pre-activation, so layer
            // 1 runs without an epilogue; the XW temporaries still
            // never touch DRAM.
            FusedLayerPlan plan1(a, w1_.cols(), sched_,
                                 f32_fused_locality(a, w1_.cols()));
            FusedLayerPlan plan2(a, w2_.cols(), sched_,
                                 f32_fused_locality(a, w2_.cols()));
            plan1.run(gemm_panel_source(x, w1_, pool), z1, pool);
            h1 = z1;
            apply_activation(h1, Activation::kRelu);
            plan2.run(gemm_panel_source(h1, w2_, pool), logits, pool);
        } else {
            DenseMatrix xw1(a.rows(), w1_.cols());
            dense_gemm(x, w1_, xw1, pool);
            mergepath_spmm_parallel(a, xw1, z1, *sched_, pool);
            h1 = z1;
            apply_activation(h1, Activation::kRelu);

            DenseMatrix hw2(a.rows(), w2_.cols());
            dense_gemm(h1, w2_, hw2, pool);
            mergepath_spmm_parallel(a, hw2, logits, *sched_, pool);
        }
    }

    // ---- loss ----
    DenseMatrix g2(a.rows(), w2_.cols());
    double loss = softmax_cross_entropy(logits, labels, mask, g2);

    DenseMatrix d_w1(w1_.rows(), w1_.cols());
    DenseMatrix d_w2(w2_.rows(), w2_.cols());
    {
        // ---- backward ----
        // Z2 = A * (H1 W2), A symmetric: d(H1 W2) = A * dZ2 — the same
        // merge-path SpMM as the forward aggregation.
        ScopedSpan backward_span("train.backward", "train");
        DenseMatrix d_hw2(a.rows(), w2_.cols());
        mergepath_spmm_parallel(a, g2, d_hw2, *sched_, pool);

        gemm_at_b(h1, d_hw2, d_w2, pool);
        DenseMatrix d_h1(a.rows(), w1_.cols());
        gemm_a_bt(d_hw2, w2_, d_h1, pool);

        // ReLU gate (row-wise: stay clear of the stride padding).
        {
            const index_t cols = d_h1.cols();
            for (index_t r = 0; r < d_h1.rows(); ++r) {
                value_t *g = d_h1.row(r);
                const value_t *z = z1.row(r);
                for (index_t j = 0; j < cols; ++j) {
                    if (z[j] <= 0.0f)
                        g[j] = 0.0f;
                }
            }
        }

        DenseMatrix d_xw1(a.rows(), w1_.cols());
        mergepath_spmm_parallel(a, d_h1, d_xw1, *sched_, pool);
        gemm_at_b(x, d_xw1, d_w1, pool);
    }

    // ---- update ----
    sgd_update(w1_, d_w1, lr_);
    sgd_update(w2_, d_w2, lr_);

    // Per-step (full-batch epoch) training stats.
    if (metrics.enabled()) {
        metrics.counter_add("train.steps");
        metrics.timer_record_ms("train.step_ms", step_timer.elapsed_ms());
        metrics.gauge_set("train.loss", loss);
    }
    return loss;
}

ClassificationProblem
make_classification_problem(index_t nodes, index_t classes,
                            index_t feature_dim, index_t avg_degree,
                            uint64_t seed, double train_fraction,
                            double noise)
{
    MPS_CHECK(nodes >= classes && classes >= 2,
              "need at least 2 classes and nodes >= classes");
    MPS_CHECK(feature_dim >= classes,
              "feature_dim must be >= classes for separable centroids");
    uint64_t state = seed ^ 0x7ea1;
    Pcg32 rng(splitmix64(state), splitmix64(state));

    ClassificationProblem prob;
    prob.num_classes = classes;
    prob.labels.resize(static_cast<size_t>(nodes));
    // Contiguous community blocks.
    for (index_t i = 0; i < nodes; ++i) {
        prob.labels[static_cast<size_t>(i)] = static_cast<int32_t>(
            std::min<index_t>(classes - 1,
                              i / std::max<index_t>(1, nodes / classes)));
    }

    // Stochastic-block-model-ish edges: 80% intra-class.
    CooMatrix coo(nodes, nodes);
    coo.reserve(static_cast<size_t>(nodes) * avg_degree);
    index_t block = std::max<index_t>(1, nodes / classes);
    for (index_t i = 0; i < nodes; ++i) {
        index_t base = (i / block) * block;
        index_t bsize = std::min<index_t>(block, nodes - base);
        for (index_t e = 0; e < avg_degree; ++e) {
            index_t j;
            if (rng.next_double() < 0.8) {
                j = base + static_cast<index_t>(rng.next_below(
                               static_cast<uint32_t>(bsize)));
            } else {
                j = static_cast<index_t>(
                    rng.next_below(static_cast<uint32_t>(nodes)));
            }
            if (j != i)
                coo.add(i, j, 1.0f);
        }
    }
    prob.graph = CsrMatrix::from_coo(std::move(coo));
    // Duplicate edges were merged by summing; reset to pure structure
    // before normalizing.
    for (auto &v : prob.graph.values())
        v = 1.0f;
    prob.graph.normalize_gcn();

    // Features: class centroid (one-hot-ish) + uniform noise.
    prob.features = DenseMatrix(nodes, feature_dim);
    for (index_t i = 0; i < nodes; ++i) {
        int32_t c = prob.labels[static_cast<size_t>(i)];
        for (index_t d = 0; d < feature_dim; ++d) {
            value_t centroid = (d % classes) == c ? 1.0f : 0.0f;
            prob.features(i, d) =
                centroid + rng.next_float(-static_cast<float>(noise),
                                          static_cast<float>(noise));
        }
    }

    // Train/test split.
    prob.train_mask.assign(static_cast<size_t>(nodes), false);
    prob.test_mask.assign(static_cast<size_t>(nodes), false);
    for (index_t i = 0; i < nodes; ++i) {
        bool train = rng.next_double() < train_fraction;
        prob.train_mask[static_cast<size_t>(i)] = train;
        prob.test_mask[static_cast<size_t>(i)] = !train;
    }
    return prob;
}

} // namespace mps
