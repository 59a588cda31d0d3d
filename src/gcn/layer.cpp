#include "mps/gcn/layer.h"

#include <cmath>
#include <utility>

#include "mps/core/locality.h"
#include "mps/core/precision.h"
#include "mps/gcn/gemm.h"
#include "mps/util/log.h"
#include "mps/util/rng.h"
#include "mps/util/trace.h"

namespace mps {

GcnLayer::GcnLayer(DenseMatrix weights, Activation act)
    : weights_(std::move(weights)), act_(act)
{
    MPS_CHECK(weights_.rows() > 0 && weights_.cols() > 0,
              "layer weights must be non-empty");
}

bool
aggregate_first(index_t in_features, index_t out_features,
                index_t sparse_tile)
{
    return in_features < out_features && sparse_tile >= in_features;
}

bool
GcnLayer::aggregates_first(const CsrMatrix &a) const
{
    // Sized at f32: an aggregate-first layer 0 gathers the caller's
    // f32 X, and a bf16 width is never narrower, so the order does not
    // depend on the precision.
    return aggregate_first(
        in_features(), out_features(),
        fused_tile_width(a.cols(), in_features(),
                         storage_elem_bytes(StorageMode::kF32)));
}

void
GcnLayer::forward(const CsrMatrix &a, const DenseMatrix &x,
                  const SpmmKernel &kernel, DenseMatrix &out,
                  WorkStealPool &pool, StorageMode precision) const
{
    MPS_CHECK(a.rows() == a.cols(), "adjacency matrix must be square");
    MPS_CHECK(x.rows() == a.rows(), "feature rows must match graph nodes");
    MPS_CHECK(x.cols() == in_features(), "feature width must match W rows");
    MPS_CHECK(out.rows() == a.rows() && out.cols() == out_features(),
              "output must be n x out_features");

    ScopedSpan span("gcn.layer.forward", "gcn");
    const bool agg_first = aggregates_first(a);
    if (fusion_enabled()) {
        // Fused pipeline. Combine first: XW is produced TILE-wide into
        // a hot panel buffer and swept immediately, the activation
        // folded into the commit epilogue — the n x d temporary never
        // exists. Aggregate first: the sweep gathers x directly and
        // each finished row is combined in the epilogue. Kernels
        // without a fused plan (and MPS_FUSE=0) take the classic path.
        if (FusedLayerPlan *plan = kernel.fused_plan(a, sparse_width(a))) {
            ScopedSpan fused("gcn.layer.fused", "gcn");
            plan->set_precision(precision);
            if (agg_first) {
                const CombineEpilogue combine =
                    make_combine_epilogue(act_, weights_, out, nullptr);
                plan->run_streaming(slice_panel_source(x), {}, pool,
                                    &CombineEpilogue::apply, &combine);
            } else {
                plan->run(gemm_panel_source(x, weights_, pool,
                                            plan->gemm_scratch(),
                                            precision),
                          out, pool, activation_epilogue(act_));
            }
            return;
        }
    }
    if (agg_first) {
        DenseMatrix ax(x.rows(), in_features());
        {
            ScopedSpan aggregate("gcn.layer.aggregate", "gcn");
            kernel.run(a, x, ax, pool);
        }
        {
            ScopedSpan combine("gcn.layer.combine", "gcn");
            dense_gemm(ax, weights_, out, pool);
        }
        apply_activation(out, act_);
        return;
    }
    // XW in one full-width panel of the fused path's source. Only the
    // kernels with a fused plan (merge-path and hybrid) gather at the
    // operand's storage; for every other one XW keeps its f32 rows.
    DenseMatrix xw;
    const StorageMode gemm_precision =
        precision == StorageMode::kBf16 &&
                kernel.fused_plan(a, out_features()) != nullptr
            ? StorageMode::kBf16
            : StorageMode::kF32;
    PanelSource src;
    {
        ScopedSpan combine("gcn.layer.combine", "gcn");
        src = gemm_panel_source(x, weights_, pool, xw,
                                gemm_precision)(0, out_features());
    }
    {
        ScopedSpan aggregate("gcn.layer.aggregate", "gcn");
        // Encode the reduced-width shadow before the aggregation unless
        // the product already wrote it.
        if (precision != StorageMode::kF32 && src.quantizable != nullptr)
            quantize_dense(xw, precision, &pool);
        kernel.run(a, xw, out, pool);
    }
    apply_activation(out, act_);
}

DenseMatrix
random_layer_weights(index_t in_features, index_t out_features,
                     uint64_t seed)
{
    DenseMatrix w(in_features, out_features);
    uint64_t state = seed ^ 0x6c0f;
    Pcg32 rng(splitmix64(state), splitmix64(state));
    // Glorot/Xavier uniform bound.
    float bound = std::sqrt(6.0f / static_cast<float>(in_features +
                                                      out_features));
    w.fill_random(rng, -bound, bound);
    return w;
}

} // namespace mps
