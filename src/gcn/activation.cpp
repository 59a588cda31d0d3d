#include "mps/gcn/activation.h"

#include <cmath>

#include "mps/util/log.h"

namespace mps {

void
apply_activation(DenseMatrix &m, Activation act)
{
    // Row-wise: rows are padded to the cache-line stride, and the
    // padding must not be touched.
    const index_t cols = m.cols();
    switch (act) {
      case Activation::kNone:
        break;
      case Activation::kRelu:
        for (index_t r = 0; r < m.rows(); ++r) {
            value_t *row = m.row(r);
            for (index_t c = 0; c < cols; ++c)
                row[c] = row[c] > 0.0f ? row[c] : 0.0f;
        }
        break;
      case Activation::kSigmoid:
        for (index_t r = 0; r < m.rows(); ++r) {
            value_t *row = m.row(r);
            for (index_t c = 0; c < cols; ++c)
                row[c] = 1.0f / (1.0f + std::exp(-row[c]));
        }
        break;
    }
}

void
apply_activation_panel(DenseMatrix &m, Activation act, index_t col0,
                       index_t width)
{
    switch (act) {
      case Activation::kNone:
        break;
      case Activation::kRelu:
        for (index_t r = 0; r < m.rows(); ++r) {
            value_t *row = m.row(r) + col0;
            for (index_t c = 0; c < width; ++c)
                row[c] = row[c] > 0.0f ? row[c] : 0.0f;
        }
        break;
      case Activation::kSigmoid:
        for (index_t r = 0; r < m.rows(); ++r) {
            value_t *row = m.row(r) + col0;
            for (index_t c = 0; c < width; ++c)
                row[c] = 1.0f / (1.0f + std::exp(-row[c]));
        }
        break;
    }
}

namespace {

// The epilogues repeat apply_activation's scalar expressions exactly:
// the fused output must match the unfused activation bit-for-bit.

void
relu_epilogue(const FinishedRow *rows, int count, index_t, index_t width,
              const void *)
{
    for (int i = 0; i < count; ++i) {
        value_t *crow = rows[i].crow;
        for (index_t c = 0; c < width; ++c)
            crow[c] = crow[c] > 0.0f ? crow[c] : 0.0f;
    }
}

void
sigmoid_epilogue(const FinishedRow *rows, int count, index_t,
                 index_t width, const void *)
{
    for (int i = 0; i < count; ++i) {
        value_t *crow = rows[i].crow;
        for (index_t c = 0; c < width; ++c)
            crow[c] = 1.0f / (1.0f + std::exp(-crow[c]));
    }
}

} // namespace

PanelEpilogue
activation_epilogue(Activation act)
{
    switch (act) {
      case Activation::kRelu:
        return &relu_epilogue;
      case Activation::kSigmoid:
        return &sigmoid_epilogue;
      case Activation::kNone:
        break;
    }
    return nullptr;
}

Activation
parse_activation(const std::string &name)
{
    if (name == "none")
        return Activation::kNone;
    if (name == "relu")
        return Activation::kRelu;
    if (name == "sigmoid")
        return Activation::kSigmoid;
    fatal("unknown activation '" + name + "' (none|relu|sigmoid)");
}

} // namespace mps
