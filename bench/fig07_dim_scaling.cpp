/**
 * @file
 * Figure 7: speedup at different dimension sizes, normalized to
 * GNNAdvisor at dimension 128 (per graph, then geomean).
 *
 * Paper reference: GNNAdvisor saturates at ~2x below dim 32 (it cannot
 * pack lanes); GNNAdvisor-opt reaches ~9x at dim 2; MergePath-SpMM
 * reaches ~27.6x at dim 2 and leads at every dimension.
 */
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "common.h"
#include "mps/kernels/mergepath_kernel.h"
#include "mps/util/cli.h"
#include "mps/util/json.h"
#include "mps/util/rng.h"
#include "mps/util/stats.h"
#include "mps/util/table.h"
#include "mps/util/timer.h"
#include "mps/util/work_steal_pool.h"

using namespace mps;

namespace {

/** One measured (dim, storage mode) aggregate over the graph set. */
struct PrecisionRow
{
    index_t dim = 0;
    StorageMode mode = StorageMode::kF32;
    double ms = 0.0;
    double bytes_moved = 0.0; ///< operand gather bytes per sweep
    double gbps = 0.0;
    double speedup_vs_f32 = 0.0;
};

/**
 * Measured mixed-precision section: the real mergepath kernel per
 * storage width, wall-clock, not the SIMT model the figure rows use.
 * bytes_moved counts the operand rows the traversal gathers
 * (nnz * dim * elem_bytes summed over graphs) — the traffic the
 * reduced-width storage actually divides.
 */
std::vector<PrecisionRow>
bench_precision(const std::vector<DatasetSpec> &specs,
                const std::vector<index_t> &dims, int reps,
                WorkStealPool &pool)
{
    const StorageMode modes[] = {StorageMode::kF32, StorageMode::kBf16};
    std::vector<PrecisionRow> rows;
    for (index_t dim : dims) {
        double f32_ms = 0.0;
        for (StorageMode mode : modes) {
            PrecisionRow row;
            row.dim = dim;
            row.mode = mode;
            for (const auto &spec : specs) {
                CsrMatrix a = make_dataset(spec);
                DenseMatrix b(a.cols(), dim);
                Pcg32 rng(7);
                b.fill_random(rng);
                b.quantize(mode);
                DenseMatrix c(a.rows(), dim);
                MergePathSpmm kernel;
                kernel.prepare(a, dim);
                kernel.run(a, b, c, pool); // warm
                double best = 1e30;
                for (int r = 0; r < reps; ++r) {
                    Timer t;
                    kernel.run(a, b, c, pool);
                    best = std::min(best, t.elapsed_ms());
                }
                row.ms += best;
                row.bytes_moved += static_cast<double>(a.nnz()) * dim *
                                   storage_elem_bytes(mode);
            }
            row.gbps = row.bytes_moved / (row.ms * 1e6);
            if (mode == StorageMode::kF32)
                f32_ms = row.ms;
            row.speedup_vs_f32 = f32_ms / row.ms;
            rows.push_back(row);
        }
    }
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagParser flags("Figure 7: dimension-size scaling");
    flags.add_string("graphs", "all", "graph selector");
    flags.add_bool("csv", false, "emit CSV instead of aligned text");
    flags.add_bool("precision", false,
                   "measure mergepath at f32/bf16 per dimension");
    flags.add_int("reps", 3, "timing repetitions for --precision");
    flags.add_int("threads", 0,
                  "pool threads for --precision (0 = hw)");
    flags.add_string("json", "",
                     "write --precision rows to this JSON file");
    flags.parse(argc, argv);

    GpuConfig gpu = GpuConfig::rtx6000();
    const index_t dims[] = {128, 64, 32, 16, 8, 4, 2};
    const char *kernels[] = {"gnnadvisor", "gnnadvisor_opt", "mergepath"};

    auto specs = bench::select_graphs(flags.get_string("graphs"));
    // speedups[kernel][dim] = geomean over graphs of base128 / time.
    Table table({"dim", "gnnadvisor", "gnnadvisor_opt",
                 "mergepath_spmm"});

    // Per-graph baseline: GNNAdvisor at dim 128.
    std::vector<CsrMatrix> graphs;
    std::vector<double> base128;
    for (const auto &spec : specs) {
        graphs.push_back(make_dataset(spec));
        base128.push_back(bench::model_kernel_us(graphs.back(), 128,
                                                 "gnnadvisor", gpu));
    }

    for (index_t dim : dims) {
        table.new_row();
        table.add_int(dim);
        for (const char *kernel : kernels) {
            std::vector<double> speedups;
            for (size_t g = 0; g < graphs.size(); ++g) {
                double t =
                    bench::model_kernel_us(graphs[g], dim, kernel, gpu);
                speedups.push_back(base128[g] / t);
            }
            table.add(geomean(speedups), 2);
        }
    }
    table.print(flags.get_bool("csv"));
    std::printf(
        "\nAll values normalized to GNNAdvisor at dim 128 (geomean over"
        " %zu graphs).\nPaper reference at dim 2: GNNAdvisor ~2x,"
        " GNNAdvisor-opt ~9x, MergePath-SpMM ~27.6x.\n",
        graphs.size());

    if (flags.get_bool("precision")) {
        const int reps = static_cast<int>(flags.get_int("reps"));
        unsigned threads =
            static_cast<unsigned>(flags.get_int("threads"));
        if (threads == 0)
            threads = std::max(1u, std::thread::hardware_concurrency());
        WorkStealPool pool(threads);
        const std::vector<index_t> pdims = {128, 64, 32};
        std::vector<PrecisionRow> rows =
            bench_precision(specs, pdims, reps, pool);

        Table pt({"dim", "storage", "ms", "bytes_moved", "GB/s",
                  "speedup_vs_f32"});
        for (const auto &row : rows) {
            pt.new_row();
            pt.add_int(row.dim);
            pt.add(storage_mode_name(row.mode));
            pt.add(row.ms, 3);
            pt.add(row.bytes_moved, 0);
            pt.add(row.gbps, 2);
            pt.add(row.speedup_vs_f32, 2);
        }
        std::printf("\nMeasured mergepath per operand storage width "
                    "(wall-clock, best of %d, %u threads):\n",
                    reps, threads);
        pt.print(flags.get_bool("csv"));

        const std::string json_path = flags.get_string("json");
        if (!json_path.empty()) {
            JsonWriter w;
            w.begin_object();
            w.key("reps").value(reps);
            w.key("threads").value(static_cast<int64_t>(threads));
            w.key("rows").begin_array();
            for (const auto &row : rows) {
                w.begin_object();
                w.key("dim").value(static_cast<int64_t>(row.dim));
                w.key("storage").value(storage_mode_name(row.mode));
                w.key("ms").value(row.ms);
                w.key("bytes_moved").value(row.bytes_moved);
                w.key("GB/s").value(row.gbps);
                w.key("speedup_vs_f32").value(row.speedup_vs_f32);
                w.end_object();
            }
            w.end_array();
            w.end_object();
            std::ofstream out(json_path);
            out << w.str() << "\n";
            std::printf("wrote %s\n", json_path.c_str());
        }
    }
    return 0;
}
