/**
 * @file
 * Table II: the 23 evaluation graphs. Generates every dataset with the
 * synthetic registry and verifies the published node / non-zero /
 * degree numbers are matched exactly (nodes, nnz, max degree) or to
 * rounding (average degree).
 *
 * --hybrid adds a measured row per graph: HybridSpmm vs the pre-hybrid
 * AdaptiveSpmm baseline and vs pure merge-path at the acceptance
 * dimension (d=128 by default), plus the dense-band fraction the
 * classifier found. --json=<path> writes the same rows as one JSON
 * document so the speedup claim is reproducible from a single file.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common.h"
#include "mps/core/hybrid.h"
#include "mps/kernels/adaptive.h"
#include "mps/kernels/hybrid_kernel.h"
#include "mps/kernels/mergepath_kernel.h"
#include "mps/gcn/model.h"
#include "mps/sparse/degree_stats.h"
#include "mps/util/cli.h"
#include "mps/util/json.h"
#include "mps/util/rng.h"
#include "mps/util/table.h"
#include "mps/util/timer.h"
#include "mps/util/work_steal_pool.h"

using namespace mps;

namespace {

template <class Fn>
double
best_of_reps(int reps, const Fn &run)
{
    run(); // warm the pool, the pages and the schedules
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        Timer timer;
        run();
        best = std::min(best, timer.elapsed_ms());
    }
    return best;
}

struct HybridRow
{
    std::string name;
    double dense_fraction = 0.0;
    int64_t bands = 0;
    double adaptive_ms = 0.0;
    double mergepath_ms = 0.0;
    double hybrid_ms = 0.0;
    double vs_adaptive = 0.0;
    double vs_mergepath = 0.0;
};

HybridRow
bench_hybrid(const DatasetSpec &spec, index_t dim, int reps,
             WorkStealPool &pool)
{
    CsrMatrix a = make_dataset(spec);
    DenseMatrix b(a.cols(), dim);
    Pcg32 rng(7);
    b.fill_random(rng);
    DenseMatrix c(a.rows(), dim);

    // The pre-PR baseline: adaptive selection without the hybrid
    // strategy reachable (what AdaptiveSpmm shipped before this
    // change), so the speedup is against the previous best pick.
    AdaptiveSpmm adaptive(0.7, /*enable_hybrid=*/false);
    adaptive.prepare(a, dim);
    MergePathSpmm mergepath;
    mergepath.prepare(a, dim);
    HybridSpmm hybrid;
    hybrid.prepare(a, dim);

    HybridRow row;
    row.name = spec.name;
    row.dense_fraction = hybrid.schedule().dense_fraction();
    row.bands =
        static_cast<int64_t>(hybrid.schedule().partition().bands.size());
    row.adaptive_ms =
        best_of_reps(reps, [&] { adaptive.run(a, b, c, pool); });
    row.mergepath_ms =
        best_of_reps(reps, [&] { mergepath.run(a, b, c, pool); });
    row.hybrid_ms =
        best_of_reps(reps, [&] { hybrid.run(a, b, c, pool); });
    row.vs_adaptive = row.adaptive_ms / row.hybrid_ms;
    row.vs_mergepath = row.mergepath_ms / row.hybrid_ms;
    return row;
}

/** Mixed-precision timing + accuracy of one graph at dimension d. */
struct PrecisionRow
{
    std::string name;
    double f32_ms = 0.0;
    double bf16_ms = 0.0;
    double bf16_speedup = 0.0;
    // Accuracy vs an fp64-accumulated reference of the same f32 data.
    double f32_max_abs = 0.0, f32_rel = 0.0;
    double bf16_max_abs = 0.0, bf16_rel = 0.0;
    // End-to-end 2-layer GCN inference (hidden width = d).
    double gcn_f32_ms = 0.0;
    double gcn_bf16_ms = 0.0;
    double gcn_speedup = 0.0;
};

/**
 * fp64-accumulated SpMM of the f32 inputs: the accuracy yardstick.
 * Every kernel mode (including f32) is scored against this, so the
 * bf16 deltas can be read next to the f32 rounding floor.
 */
std::vector<double>
reference_spmm_f64(const CsrMatrix &a, const DenseMatrix &b, index_t dim,
                   WorkStealPool &pool)
{
    std::vector<double> ref(static_cast<size_t>(a.rows()) * dim, 0.0);
    pool.parallel_for_ranges(
        static_cast<uint64_t>(a.rows()),
        [&](uint64_t begin, uint64_t end) {
            for (index_t i = static_cast<index_t>(begin);
                 i < static_cast<index_t>(end); ++i) {
                double *out = ref.data() + static_cast<size_t>(i) * dim;
                for (index_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1];
                     ++k) {
                    const double v = a.values()[k];
                    const value_t *brow = b.row(a.col_idx()[k]);
                    for (index_t d = 0; d < dim; ++d)
                        out[d] += v * static_cast<double>(brow[d]);
                }
            }
        });
    return ref;
}

void
score_accuracy(const DenseMatrix &c, const std::vector<double> &ref,
               double ref_max, double *max_abs, double *rel)
{
    double worst = 0.0;
    for (index_t i = 0; i < c.rows(); ++i) {
        const value_t *crow = c.row(i);
        const double *rrow =
            ref.data() + static_cast<size_t>(i) * c.cols();
        for (index_t d = 0; d < c.cols(); ++d)
            worst = std::max(
                worst, std::abs(static_cast<double>(crow[d]) - rrow[d]));
    }
    *max_abs = worst;
    *rel = ref_max > 0.0 ? worst / ref_max : 0.0;
}

PrecisionRow
bench_precision(const DatasetSpec &spec, index_t dim, int reps,
                WorkStealPool &pool)
{
    CsrMatrix a = make_dataset(spec);
    a.normalize_gcn(); // bounded values, the GCN serving regime
    DenseMatrix b(a.cols(), dim);
    Pcg32 rng(7);
    b.fill_random(rng);
    DenseMatrix c(a.rows(), dim);
    MergePathSpmm kernel;
    kernel.prepare(a, dim);

    const std::vector<double> ref = reference_spmm_f64(a, b, dim, pool);
    double ref_max = 0.0;
    for (double v : ref)
        ref_max = std::max(ref_max, std::abs(v));

    PrecisionRow row;
    row.name = spec.name;
    auto run_mode = [&](StorageMode mode, double *max_abs, double *rel) {
        b.quantize(mode);
        const double ms =
            best_of_reps(reps, [&] { kernel.run(a, b, c, pool); });
        score_accuracy(c, ref, ref_max, max_abs, rel);
        return ms;
    };
    row.f32_ms = run_mode(StorageMode::kF32, &row.f32_max_abs,
                          &row.f32_rel);
    row.bf16_ms = run_mode(StorageMode::kBf16, &row.bf16_max_abs,
                           &row.bf16_rel);
    row.bf16_speedup = row.f32_ms / row.bf16_ms;

    // End-to-end: 2-layer GCN with hidden width d, bf16 inference vs
    // f32 (training-shaped f32 stays the default; set_precision is the
    // inference opt-in the serving path uses).
    DenseMatrix x(a.rows(), dim);
    x.fill_random(rng);
    GcnModel model = GcnModel::two_layer(dim, dim, 16, 1, "mergepath");
    model.set_precision(StorageMode::kF32);
    row.gcn_f32_ms =
        best_of_reps(reps, [&] { model.infer(a, x, pool); });
    model.set_precision(StorageMode::kBf16);
    row.gcn_bf16_ms =
        best_of_reps(reps, [&] { model.infer(a, x, pool); });
    row.gcn_speedup = row.gcn_f32_ms / row.gcn_bf16_ms;
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagParser flags("Table II: evaluation graphs (generated vs published)");
    flags.add_string("graphs", "all", "graph selector");
    flags.add_bool("csv", false, "emit CSV instead of aligned text");
    flags.add_bool("hybrid", false,
                   "measure HybridSpmm vs adaptive/merge-path per graph");
    flags.add_bool("precision", false,
                   "measure f32/bf16 mergepath + 2-layer GCN with "
                   "accuracy vs an fp64 reference");
    flags.add_int("dim", 128, "dense dimension for --hybrid");
    flags.add_int("reps", 5, "timing repetitions for --hybrid");
    flags.add_int("threads", 0, "pool threads for --hybrid (0 = hw)");
    flags.add_string("json", "", "write --hybrid rows to this JSON file");
    flags.parse(argc, argv);

    auto specs = bench::select_graphs(flags.get_string("graphs"));
    Table table({"type", "graph", "nodes", "nnz", "avg_deg", "max_deg",
                 "match"});
    int mismatches = 0;
    for (const auto &spec : specs) {
        CsrMatrix a = make_dataset(spec);
        DegreeStats s = compute_degree_stats(a);
        bool ok = a.rows() == spec.nodes && a.nnz() == spec.nnz &&
                  s.max_degree == spec.max_degree &&
                  std::abs(s.avg_degree - spec.avg_degree) < 0.08;
        mismatches += !ok;
        table.new_row();
        table.add(spec.type == GraphType::kPowerLaw ? "I" : "II");
        table.add(spec.name);
        table.add_int(a.rows());
        table.add_int(a.nnz());
        table.add(s.avg_degree, 1);
        table.add_int(s.max_degree);
        table.add(ok ? "ok" : "MISMATCH");
    }
    table.print(flags.get_bool("csv"));
    std::printf("\n%d/%zu graphs match the published Table II numbers.\n",
                static_cast<int>(specs.size()) - mismatches, specs.size());

    if (flags.get_bool("hybrid")) {
        const index_t dim = static_cast<index_t>(flags.get_int("dim"));
        const int reps = static_cast<int>(flags.get_int("reps"));
        unsigned threads =
            static_cast<unsigned>(flags.get_int("threads"));
        if (threads == 0)
            threads =
                std::max(1u, std::thread::hardware_concurrency());
        WorkStealPool pool(threads);

        Table ht({"graph", "dense_frac", "bands", "adaptive_ms",
                  "mergepath_ms", "hybrid_ms", "vs_adaptive",
                  "vs_mergepath"});
        std::vector<HybridRow> rows;
        int wins = 0;
        for (const auto &spec : specs) {
            HybridRow row = bench_hybrid(spec, dim, reps, pool);
            wins += row.vs_adaptive >= 1.2;
            ht.new_row();
            ht.add(row.name);
            ht.add(row.dense_fraction, 3);
            ht.add_int(row.bands);
            ht.add(row.adaptive_ms, 3);
            ht.add(row.mergepath_ms, 3);
            ht.add(row.hybrid_ms, 3);
            ht.add(row.vs_adaptive, 2);
            ht.add(row.vs_mergepath, 2);
            rows.push_back(std::move(row));
        }
        std::printf("\nHybridSpmm vs AdaptiveSpmm (no-hybrid baseline) "
                    "and pure merge-path, d=%lld, best of %d:\n",
                    static_cast<long long>(dim), reps);
        ht.print(flags.get_bool("csv"));
        std::printf("\n%d/%zu graphs at >= 1.2x over the adaptive "
                    "baseline.\n",
                    wins, rows.size());

        const std::string json_path = flags.get_string("json");
        if (!json_path.empty()) {
            JsonWriter w;
            w.begin_object();
            w.key("dim").value(static_cast<int64_t>(dim));
            w.key("reps").value(reps);
            w.key("threads").value(static_cast<int64_t>(threads));
            w.key("hybrid_enabled").value(hybrid_enabled());
            w.key("graphs").begin_array();
            for (const auto &row : rows) {
                w.begin_object();
                w.key("graph").value(row.name);
                w.key("dense_fraction").value(row.dense_fraction);
                w.key("bands").value(row.bands);
                w.key("adaptive_ms").value(row.adaptive_ms);
                w.key("mergepath_ms").value(row.mergepath_ms);
                w.key("hybrid_ms").value(row.hybrid_ms);
                w.key("speedup_vs_adaptive").value(row.vs_adaptive);
                w.key("speedup_vs_mergepath").value(row.vs_mergepath);
                w.end_object();
            }
            w.end_array();
            w.end_object();
            std::ofstream out(json_path);
            out << w.str() << "\n";
            std::printf("wrote %s\n", json_path.c_str());
        }
    }

    if (flags.get_bool("precision")) {
        const index_t dim = static_cast<index_t>(flags.get_int("dim"));
        const int reps = static_cast<int>(flags.get_int("reps"));
        unsigned threads =
            static_cast<unsigned>(flags.get_int("threads"));
        if (threads == 0)
            threads =
                std::max(1u, std::thread::hardware_concurrency());
        WorkStealPool pool(threads);

        Table pt({"graph", "f32_ms", "bf16_ms", "bf16_x", "bf16_maxabs",
                  "bf16_rel", "gcn_f32_ms", "gcn_bf16_ms", "gcn_x"});
        std::vector<PrecisionRow> rows;
        int gcn_wins = 0;
        for (const auto &spec : specs) {
            PrecisionRow row = bench_precision(spec, dim, reps, pool);
            gcn_wins += row.gcn_speedup >= 1.5;
            pt.new_row();
            pt.add(row.name);
            pt.add(row.f32_ms, 3);
            pt.add(row.bf16_ms, 3);
            pt.add(row.bf16_speedup, 2);
            pt.add(row.bf16_max_abs, 6);
            pt.add(row.bf16_rel, 6);
            pt.add(row.gcn_f32_ms, 3);
            pt.add(row.gcn_bf16_ms, 3);
            pt.add(row.gcn_speedup, 2);
            rows.push_back(std::move(row));
        }
        std::printf("\nMixed-precision mergepath + 2-layer GCN "
                    "(hidden=%lld), accuracy vs fp64 reference, best "
                    "of %d:\n",
                    static_cast<long long>(dim), reps);
        pt.print(flags.get_bool("csv"));
        std::printf("\n%d/%zu graphs at >= 1.5x end-to-end GCN with "
                    "bf16.\n",
                    gcn_wins, rows.size());

        const std::string json_path = flags.get_string("json");
        if (!json_path.empty() && !flags.get_bool("hybrid")) {
            JsonWriter w;
            w.begin_object();
            w.key("dim").value(static_cast<int64_t>(dim));
            w.key("reps").value(reps);
            w.key("threads").value(static_cast<int64_t>(threads));
            w.key("graphs").begin_array();
            for (const auto &row : rows) {
                w.begin_object();
                w.key("graph").value(row.name);
                w.key("f32_ms").value(row.f32_ms);
                w.key("bf16_ms").value(row.bf16_ms);
                w.key("bf16_speedup_vs_f32").value(row.bf16_speedup);
                w.key("f32_max_abs_err").value(row.f32_max_abs);
                w.key("f32_rel_err").value(row.f32_rel);
                w.key("bf16_max_abs_err").value(row.bf16_max_abs);
                w.key("bf16_rel_err").value(row.bf16_rel);
                w.key("gcn_f32_ms").value(row.gcn_f32_ms);
                w.key("gcn_bf16_ms").value(row.gcn_bf16_ms);
                w.key("gcn_bf16_speedup").value(row.gcn_speedup);
                w.end_object();
            }
            w.end_array();
            w.end_object();
            std::ofstream out(json_path);
            out << w.str() << "\n";
            std::printf("wrote %s\n", json_path.c_str());
        }
    }
    return mismatches == 0 ? 0 : 1;
}
