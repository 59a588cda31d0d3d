/**
 * @file
 * SIMD-speed quantization of a DenseMatrix B operand.
 *
 * DenseMatrix::quantize() is the sequential scalar reference; this is
 * the hot-path version used by the fused panel pipeline and the serve
 * executor — same bits (the encode microkernels are bit-identical to
 * the quant.h primitives), encoded with the RowKernels encode_bf16
 * path and optionally parallelized over rows on the WorkStealPool.
 */
#ifndef MPS_CORE_PRECISION_H
#define MPS_CORE_PRECISION_H

#include "mps/sparse/dense_matrix.h"
#include "mps/sparse/quant.h"

namespace mps {

class WorkStealPool;

/**
 * (Re)build @p m's shadow storage for @p mode from its fp32 rows.
 * When @p ncols >= 0 only columns [0, ncols) are encoded — panel
 * sources pass the panel width so a narrower final panel encodes
 * only its own columns.
 * @p pool parallelizes over rows when non-null; kF32 just releases
 * the shadow storage.
 */
void quantize_dense(DenseMatrix &m, StorageMode mode,
                    WorkStealPool *pool = nullptr, index_t ncols = -1);

} // namespace mps

#endif // MPS_CORE_PRECISION_H
