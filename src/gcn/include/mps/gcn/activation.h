/**
 * @file
 * Element-wise activations for GCN layers (the sigma in
 * sigma(A x X^(l) x W^(l))).
 */
#ifndef MPS_GCN_ACTIVATION_H
#define MPS_GCN_ACTIVATION_H

#include <string>

#include "mps/core/spmm.h"
#include "mps/sparse/dense_matrix.h"

namespace mps {

/** Supported non-linearities. */
enum class Activation {
    kNone,    ///< identity (final layer before softmax/loss)
    kRelu,    ///< max(0, x)
    kSigmoid, ///< 1 / (1 + e^-x)
};

/** Apply @p act in place over every element of @p m. */
void apply_activation(DenseMatrix &m, Activation act);

/**
 * Apply @p act over columns [col0, col0 + width) of every row —
 * the panel-wise activation of the fused serve path (which must order
 * SpMM -> delta correction -> activation and therefore cannot fold the
 * activation into the commit sweep).
 */
void apply_activation_panel(DenseMatrix &m, Activation act, index_t col0,
                            index_t width);

/**
 * The commit-sweep epilogue computing @p act on each row of a batch,
 * element-identical to apply_activation (same scalar expressions), or
 * nullptr for kNone —
 * a null epilogue keeps the fused sweep on the exact unfused commit
 * path.
 */
PanelEpilogue activation_epilogue(Activation act);

/** Parse "none" / "relu" / "sigmoid"; fatal() otherwise. */
Activation parse_activation(const std::string &name);

} // namespace mps

#endif // MPS_GCN_ACTIVATION_H
