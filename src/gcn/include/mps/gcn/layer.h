/**
 * @file
 * One graph-convolution layer: out = sigma(A * X * W). The product
 * associates either way, and the sparse traversal costs in proportion
 * to the width it runs at, so each layer picks the narrower side:
 * combine first, sigma(A * (X * W)) — the accelerator-standard order,
 * traversal at width out — or aggregate first, sigma((A * X) * W),
 * traversal at width in. aggregate_first() is the one rule; the fused
 * pipeline, kernel preparation and the MPS_FUSE=0 path all follow it.
 */
#ifndef MPS_GCN_LAYER_H
#define MPS_GCN_LAYER_H

#include <memory>

#include "mps/gcn/activation.h"
#include "mps/kernels/spmm_kernel.h"
#include "mps/sparse/csr_matrix.h"
#include "mps/sparse/dense_matrix.h"

namespace mps {

class WorkStealPool;

/**
 * The association rule: a layer aggregates first when it widens
 * (@p in_features < @p out_features) and its fused plan sweeps all
 * in_features columns in one panel (@p sparse_tile >= in_features) —
 * the combine epilogue needs the whole aggregated row at once, so a
 * tiled plan (a narrow MPS_TILE_D) combines first instead.
 */
bool aggregate_first(index_t in_features, index_t out_features,
                     index_t sparse_tile);

/** A single GCN layer with its trained weights. */
class GcnLayer
{
  public:
    /**
     * @param weights f x d weight matrix (copied)
     * @param act     non-linearity applied to the aggregation output
     */
    GcnLayer(DenseMatrix weights, Activation act);

    index_t in_features() const { return weights_.rows(); }
    index_t out_features() const { return weights_.cols(); }
    const DenseMatrix &weights() const { return weights_; }
    Activation activation() const { return act_; }

    /**
     * aggregate_first() for this layer on graph @p a, at the panel
     * width an f32 fused plan over the input would use
     * (fused_tile_width). A bf16 plan's width is never narrower, so
     * an aggregate-first layer sweeps one panel at either precision.
     */
    bool aggregates_first(const CsrMatrix &a) const;

    /**
     * Width of this layer's sparse traversal on @p a: in_features()
     * when it aggregates first, out_features() otherwise. The
     * aggregation kernel is prepared at this width.
     */
    index_t sparse_width(const CsrMatrix &a) const {
        return aggregates_first(a) ? in_features() : out_features();
    }

    /**
     * Forward pass: out = sigma(A * x * W) in the order
     * aggregates_first(a) picks, using @p kernel for the aggregation
     * SpMM. The kernel must already be prepared for
     * (a, sparse_width(a)); preparation policy (online/offline) is the
     * model's responsibility.
     *
     * @param a      n x n normalized adjacency matrix
     * @param x      n x in_features() node features
     * @param kernel prepared aggregation kernel
     * @param out    n x out_features() output (overwritten)
     * @param pool   worker pool for GEMM + SpMM
     * @param precision aggregation operand storage: kF32 is the exact
     *        historical execution; kBf16 stores XW reduced-width
     *        for the SpMM gather (fp32 accumulate throughout). Only the
     *        merge-path aggregation honors it — other registry
     *        kernels keep reading the f32 master, which stays valid.
     *        An aggregate-first layer gathers @p x itself, which is
     *        const here, at whatever storage it already carries (the
     *        model quantizes the intermediates it owns).
     */
    void forward(const CsrMatrix &a, const DenseMatrix &x,
                 const SpmmKernel &kernel, DenseMatrix &out,
                 WorkStealPool &pool,
                 StorageMode precision = StorageMode::kF32) const;

  private:
    DenseMatrix weights_;
    Activation act_;
};

/** Deterministic Glorot-style random weights for examples and tests. */
DenseMatrix random_layer_weights(index_t in_features, index_t out_features,
                                 uint64_t seed);

} // namespace mps

#endif // MPS_GCN_LAYER_H
