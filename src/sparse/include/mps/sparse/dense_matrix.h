/**
 * @file
 * Row-major dense matrix used for the XW input and the C output of the
 * SpMM kernels, the weight matrices of the GCN layers, and the dense
 * reference results in the tests.
 *
 * Storage is 64-byte aligned and every row is padded to a cache-line
 * multiple (padded_cols()), so the SIMD row microkernels can assume
 * each row(r) pointer is aligned. The padding elements are storage
 * only: they stay zero, are never part of the logical matrix, and no
 * arithmetic result may be read from them. Code that walks raw memory
 * must iterate row-by-row over cols() — element (r, c) lives at
 * data()[r * padded_cols() + c], not data()[r * cols() + c].
 */
#ifndef MPS_SPARSE_DENSE_MATRIX_H
#define MPS_SPARSE_DENSE_MATRIX_H

#include <cstddef>

#include "mps/sparse/aligned_buffer.h"
#include "mps/sparse/quant.h"
#include "mps/sparse/types.h"

namespace mps {

class Pcg32;

/**
 * Row-major dense matrix of value_t with cache-line-aligned rows.
 *
 * Mixed precision: a matrix can additionally carry bf16 shadow rows
 * (see mps/sparse/quant.h) selected by quantize() / set_storage(). The
 * fp32 rows remain the master copy — written first, and read by every path
 * that needs exact values (delta correction, reference kernels, GEMM
 * inputs). The one exception is a bf16_panel(): bf16 rows and no fp32
 * rows, for a producer that writes bf16 where it computes (the AMX
 * GEMM panel source); has_f32() tells the two apart. The shadow rows
 * share the element stride padded_cols(), so row_bf16(r) is cache-line
 * aligned exactly like row(r).
 */
class DenseMatrix
{
  public:
    /** Empty 0x0 matrix. */
    DenseMatrix() = default;

    /** rows x cols matrix, zero-initialized. */
    DenseMatrix(index_t rows, index_t cols);

    /**
     * rows x cols of bf16 rows (storage() == kBf16) and no fp32 rows,
     * for a producer that stores every element before anything reads
     * it: allocated, not zero-filled. The elements are unspecified
     * until written; only the row padding is zeroed, as in
     * for_overwrite(). row(), data() and element access must not be
     * used, and quantize()/set_storage() refuse it.
     */
    static DenseMatrix bf16_panel(index_t rows, index_t cols);

    /**
     * rows x cols fp32 rows for a producer that stores every element
     * before anything reads it: allocated, not zero-filled. Only the
     * row padding is zeroed, so no reachable element is undefined.
     */
    static DenseMatrix for_overwrite(index_t rows, index_t cols);

    /** False only for a bf16_panel(), which has no fp32 rows. */
    bool has_f32() const {
        return data_.size() ==
               static_cast<size_t>(rows_) * static_cast<size_t>(stride_);
    }

    index_t rows() const { return rows_; }
    index_t cols() const { return cols_; }

    /**
     * Allocated row stride in elements: cols() rounded up to a
     * cache-line multiple. The distance between row(r) and row(r + 1).
     */
    index_t padded_cols() const { return stride_; }

    /** Element access (no bounds check in release paths). */
    value_t &operator()(index_t r, index_t c) {
        return data_[static_cast<size_t>(r) * stride_ + c];
    }
    value_t operator()(index_t r, index_t c) const {
        return data_[static_cast<size_t>(r) * stride_ + c];
    }

    /** Pointer to the first element of row r (64-byte aligned). */
    value_t *row(index_t r) {
        return data_.data() + static_cast<size_t>(r) * stride_;
    }
    const value_t *row(index_t r) const {
        return data_.data() + static_cast<size_t>(r) * stride_;
    }

    value_t *data() { return data_.data(); }
    const value_t *data() const { return data_.data(); }

    /** Active reduced-precision shadow storage (kF32 = none). */
    StorageMode storage() const { return mode_; }

    /**
     * (Re)build the shadow rows for @p mode from the current fp32
     * rows. This is the sequential scalar reference conversion (the
     * quant.h primitives, row by row); hot paths use the SIMD
     * quantize_dense() in mps/core/precision.h instead, which is
     * bit-identical. Only the first @p ncols columns are encoded
     * when ncols >= 0 — panel sources use that to keep a narrower
     * final panel from reading stale columns.
     * kF32 releases the shadow storage.
     */
    void quantize(StorageMode mode, index_t ncols = -1);

    /**
     * Allocate (zeroed) shadow storage for @p mode and mark it
     * active WITHOUT converting — the caller fills the shadow rows
     * itself via the encode microkernel (quantize_dense does this).
     */
    void set_storage(StorageMode mode);

    /** bf16 shadow row r (valid when storage() == kBf16). */
    const bf16_t *row_bf16(index_t r) const {
        return qb16_.data() + static_cast<size_t>(r) * stride_;
    }
    bf16_t *row_bf16_mut(index_t r) {
        return qb16_.data() + static_cast<size_t>(r) * stride_;
    }

    /** Set every logical element to @p v (padding stays zero). */
    void fill(value_t v);

    /** Fill with uniform values in [lo, hi) from @p rng. */
    void fill_random(Pcg32 &rng, value_t lo = -1.0f, value_t hi = 1.0f);

    /** Largest absolute element-wise difference to @p other. */
    double max_abs_diff(const DenseMatrix &other) const;

    /**
     * True when shapes match and every element differs by at most
     * @p abs_tol absolutely or @p rel_tol relative to the larger
     * magnitude.
     */
    bool approx_equal(const DenseMatrix &other, double abs_tol = 1e-4,
                      double rel_tol = 1e-4) const;

  private:
    index_t rows_ = 0;
    index_t cols_ = 0;
    index_t stride_ = 0;
    StorageMode mode_ = StorageMode::kF32;
    OverwritableVector data_;
    AlignedVectorB16 qb16_; ///< bf16 shadow rows (stride_ elems/row)
};

} // namespace mps

#endif // MPS_SPARSE_DENSE_MATRIX_H
