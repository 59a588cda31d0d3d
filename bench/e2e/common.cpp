#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <string>

#include "e2e.h"
#include "mps/util/log.h"
#include "mps/util/work_steal_pool.h"

namespace mps::e2e {

namespace {

double
activate(double v, Activation act)
{
    switch (act) {
    case Activation::kRelu:
        return v > 0.0 ? v : 0.0;
    case Activation::kSigmoid:
        return 1.0 / (1.0 + std::exp(-v));
    case Activation::kNone:
        break;
    }
    return v;
}

} // namespace

uint64_t
derive_seed(uint64_t seed, uint64_t stream)
{
    uint64_t state = seed ^ (stream * 0xd1b54a32d192ed03ULL);
    return splitmix64(state);
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

Reference
reference_forward(const CsrMatrix &a, const DenseMatrix &x,
                  const std::vector<GcnLayer> &layers, WorkStealPool &pool)
{
    MPS_CHECK(layers.size() == 2, "the reference covers two-layer models");
    const GcnLayer &l1 = layers[0];
    const GcnLayer &l2 = layers[1];
    const index_t n = a.rows();
    const index_t f = l1.in_features();
    const index_t h = l1.out_features();
    const index_t c = l2.out_features();
    const auto &rp = a.row_ptr();
    const auto &ci = a.col_idx();
    const auto &av = a.values();

    // hw2 = act1(A X W1) W2, row by row: A X W1 = (A X) W1, so each row
    // needs only its own f-wide aggregate, never the n x h hidden matrix.
    std::vector<double> hw2(static_cast<size_t>(n) * c, 0.0);
    pool.parallel_for_ranges(
        static_cast<uint64_t>(n), [&](uint64_t begin, uint64_t end) {
            std::vector<double> ax(static_cast<size_t>(f));
            std::vector<double> hid(static_cast<size_t>(h));
            for (index_t r = static_cast<index_t>(begin);
                 r < static_cast<index_t>(end); ++r) {
                std::fill(ax.begin(), ax.end(), 0.0);
                for (index_t k = rp[r]; k < rp[r + 1]; ++k) {
                    const double v = av[k];
                    const value_t *xr = x.row(ci[k]);
                    for (index_t j = 0; j < f; ++j)
                        ax[j] += v * xr[j];
                }
                std::fill(hid.begin(), hid.end(), 0.0);
                for (index_t j = 0; j < f; ++j) {
                    const value_t *w = l1.weights().row(j);
                    for (index_t t = 0; t < h; ++t)
                        hid[t] += ax[j] * w[t];
                }
                double *out = hw2.data() + static_cast<size_t>(r) * c;
                for (index_t t = 0; t < h; ++t) {
                    const double ht = activate(hid[t], l1.activation());
                    const value_t *w = l2.weights().row(t);
                    for (index_t u = 0; u < c; ++u)
                        out[u] += ht * w[u];
                }
            }
        });

    Reference ref;
    ref.rows = n;
    ref.cols = c;
    ref.out.assign(static_cast<size_t>(n) * c, 0.0);
    pool.parallel_for_ranges(
        static_cast<uint64_t>(n), [&](uint64_t begin, uint64_t end) {
            for (index_t r = static_cast<index_t>(begin);
                 r < static_cast<index_t>(end); ++r) {
                double *out = ref.out.data() + static_cast<size_t>(r) * c;
                for (index_t k = rp[r]; k < rp[r + 1]; ++k) {
                    const double v = av[k];
                    const double *src =
                        hw2.data() + static_cast<size_t>(ci[k]) * c;
                    for (index_t u = 0; u < c; ++u)
                        out[u] += v * src[u];
                }
                for (index_t u = 0; u < c; ++u)
                    out[u] = activate(out[u], l2.activation());
            }
        });
    for (double v : ref.out)
        ref.max_abs = std::max(ref.max_abs, std::abs(v));
    return ref;
}

double
rel_err(const DenseMatrix &out, const Reference &ref)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    if (out.rows() != ref.rows || out.cols() != ref.cols)
        return kInf;
    double worst = 0.0;
    for (index_t r = 0; r < ref.rows; ++r) {
        const value_t *o = out.row(r);
        const double *e = ref.out.data() + static_cast<size_t>(r) * ref.cols;
        for (index_t u = 0; u < ref.cols; ++u) {
            const double d = std::abs(static_cast<double>(o[u]) - e[u]);
            if (!std::isfinite(d))
                return kInf;
            worst = std::max(worst, d);
        }
    }
    return ref.max_abs > 0.0 ? worst / ref.max_abs : worst;
}

double
rel_err_tolerance(StorageMode precision)
{
    return precision == StorageMode::kF32 ? 1e-4 : 2e-2;
}

double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    }
    return -1.0;
}

bool
reset_peak_rss()
{
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    return static_cast<bool>(clear);
}

double
span_median_ms(const std::vector<TraceEvent> &events, const std::string &name,
               int64_t *count)
{
    std::vector<double> ms;
    for (const TraceEvent &e : events) {
        if (e.phase == 'X' && e.name == name)
            ms.push_back(e.dur_us / 1e3);
    }
    if (count != nullptr)
        *count = static_cast<int64_t>(ms.size());
    return quantile(std::move(ms), 0.5);
}

double
span_total_ms(const std::vector<TraceEvent> &events, const std::string &name)
{
    double total = 0.0;
    for (const TraceEvent &e : events) {
        if (e.phase == 'X' && e.name == name)
            total += e.dur_us / 1e3;
    }
    return total;
}

GraphDelta
hot_tail_delta(Pcg32 &rng, index_t rows, index_t cols, index_t hot_begin,
               int edges)
{
    GraphDelta delta;
    delta.upserts.reserve(static_cast<size_t>(edges));
    const auto hot_span = static_cast<uint32_t>(rows - hot_begin);
    for (int i = 0; i < edges; ++i) {
        EdgeUpdate e;
        e.row = hot_begin + static_cast<index_t>(rng.next_below(hot_span));
        e.col = static_cast<index_t>(
            rng.next_below(static_cast<uint32_t>(cols)));
        e.value = rng.next_float(0.01f, 1.0f);
        delta.upserts.push_back(e);
    }
    return delta;
}

} // namespace mps::e2e
