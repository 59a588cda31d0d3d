#include "mps/sparse/dense_matrix.h"

#include <algorithm>
#include <cmath>

#include "mps/util/log.h"
#include "mps/util/rng.h"

namespace mps {

DenseMatrix::DenseMatrix(index_t rows, index_t cols)
    : rows_(rows), cols_(cols), stride_(padded_row_length(cols)),
      data_(static_cast<size_t>(rows) * static_cast<size_t>(stride_),
            0.0f)
{
    MPS_CHECK(rows >= 0 && cols >= 0, "negative matrix dimension");
}

DenseMatrix
DenseMatrix::bf16_panel(index_t rows, index_t cols)
{
    MPS_CHECK(rows >= 0 && cols >= 0, "negative matrix dimension");
    DenseMatrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.stride_ = padded_row_length(cols);
    m.mode_ = StorageMode::kBf16;
    m.qb16_.resize(static_cast<size_t>(rows) * static_cast<size_t>(m.stride_));
    if (m.stride_ > cols)
        for (index_t r = 0; r < rows; ++r)
            std::fill(m.row_bf16_mut(r) + cols, m.row_bf16_mut(r) + m.stride_,
                      bf16_t{0});
    return m;
}

DenseMatrix
DenseMatrix::for_overwrite(index_t rows, index_t cols)
{
    MPS_CHECK(rows >= 0 && cols >= 0, "negative matrix dimension");
    DenseMatrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.stride_ = padded_row_length(cols);
    m.data_.resize(static_cast<size_t>(rows) * static_cast<size_t>(m.stride_));
    if (m.stride_ > cols)
        for (index_t r = 0; r < rows; ++r)
            std::fill(m.row(r) + cols, m.row(r) + m.stride_, 0.0f);
    return m;
}

void
DenseMatrix::set_storage(StorageMode mode)
{
    MPS_CHECK(has_f32(), "a bf16 panel has no fp32 rows to re-encode");
    mode_ = mode;
    const size_t elems =
        static_cast<size_t>(rows_) * static_cast<size_t>(stride_);
    switch (mode) {
    case StorageMode::kF32:
        qb16_.clear();
        qb16_.shrink_to_fit();
        break;
    case StorageMode::kBf16:
        if (qb16_.size() != elems)
            qb16_.assign(elems, 0);
        break;
    }
}

void
DenseMatrix::quantize(StorageMode mode, index_t ncols)
{
    set_storage(mode);
    if (mode == StorageMode::kF32)
        return;
    const index_t qcols = ncols >= 0 ? std::min(ncols, cols_) : cols_;
    for (index_t r = 0; r < rows_; ++r) {
        const value_t *src = row(r);
        bf16_t *dst = row_bf16_mut(r);
        for (index_t c = 0; c < qcols; ++c)
            dst[c] = bf16_encode(src[c]);
    }
}

void
DenseMatrix::fill(value_t v)
{
    // Row-wise so the inter-row padding keeps its zero invariant.
    for (index_t r = 0; r < rows_; ++r) {
        value_t *p = row(r);
        std::fill(p, p + cols_, v);
    }
}

void
DenseMatrix::fill_random(Pcg32 &rng, value_t lo, value_t hi)
{
    for (index_t r = 0; r < rows_; ++r) {
        value_t *p = row(r);
        for (index_t c = 0; c < cols_; ++c)
            p[c] = rng.next_float(lo, hi);
    }
}

double
DenseMatrix::max_abs_diff(const DenseMatrix &other) const
{
    MPS_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
              "shape mismatch in max_abs_diff");
    double worst = 0.0;
    for (index_t r = 0; r < rows_; ++r) {
        const value_t *pa = row(r);
        const value_t *pb = other.row(r);
        for (index_t c = 0; c < cols_; ++c) {
            worst = std::max(
                worst, std::abs(static_cast<double>(pa[c]) -
                                static_cast<double>(pb[c])));
        }
    }
    return worst;
}

bool
DenseMatrix::approx_equal(const DenseMatrix &other, double abs_tol,
                          double rel_tol) const
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        return false;
    for (index_t r = 0; r < rows_; ++r) {
        const value_t *pa = row(r);
        const value_t *pb = other.row(r);
        for (index_t c = 0; c < cols_; ++c) {
            double a = pa[c];
            double b = pb[c];
            double diff = std::abs(a - b);
            double scale = std::max(std::abs(a), std::abs(b));
            if (diff > abs_tol && diff > rel_tol * scale)
                return false;
        }
    }
    return true;
}

} // namespace mps
