/**
 * @file
 * mps_tool — command-line front end for the MergePath-SpMM library.
 *
 *   mps_tool generate --dataset=Nell --out=nell.bin
 *   mps_tool convert  --in=graph.mtx --out=graph.bin
 *   mps_tool info     --in=graph.bin
 *   mps_tool schedule --in=graph.bin --cost=20 --dim=16 [--out=s.bin]
 *   mps_tool spmm     --in=graph.bin --kernel=mergepath --dim=16
 *                     [--check] [--metrics-out=m.json] [--trace-out=t.json]
 *   mps_tool profile  --dataset=Cora,Pubmed --kernel=mergepath,row_split
 *                     --dim=16 [--fuse=on|off|both] [--out=report.json]
 *                     [--trace-out=t.json]
 *   mps_tool reorder  --in=graph.bin --method=bfs --out=relabeled.bin
 *   mps_tool serve-bench --clients=1,2,4,8 --max-batch=1,8
 *                     [--out=report.json] [--telemetry-port=0]
 *   mps_tool churn-bench --update-edges=64,512,4096 --updates=80
 *                     [--out=report.json]
 *   mps_tool top      --url=http://127.0.0.1:9464/metrics
 *                     [--interval-ms=1000] [--once] [--strict]
 *   mps_tool hash     --powerlaw=250000 --model=16-128-16 --precision=f32
 *                     --kernel=mergepath --seed=1
 *
 * Containers: .bin (this library's binary CSR), .mtx (MatrixMarket),
 * .el (edge list, read-only), or a Table II dataset name via
 * --dataset.
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mps/core/fusion.h"
#include "mps/core/locality.h"
#include "mps/core/policy.h"
#include "mps/core/precision.h"
#include "mps/core/schedule.h"
#include "mps/gcn/activation.h"
#include "mps/gcn/gemm.h"
#include "mps/core/schedule_cache.h"
#include "mps/core/serialize.h"
#include "mps/core/spmm.h"
#include "mps/gcn/layer.h"
#include "mps/gcn/model.h"
#include "mps/kernels/registry.h"
#include "mps/serve/server.h"
#include "mps/serve/telemetry_server.h"
#include "mps/sparse/datasets.h"
#include "mps/sparse/degree_stats.h"
#include "mps/sparse/delta_csr.h"
#include "mps/sparse/generate.h"
#include "mps/sparse/io.h"
#include "mps/sparse/quant.h"
#include "mps/sparse/reorder.h"
#include "mps/util/cli.h"
#include "mps/util/json.h"
#include "mps/util/log.h"
#include "mps/util/metrics.h"
#include "mps/util/openmetrics.h"
#include "mps/util/rng.h"
#include "mps/util/work_steal_pool.h"
#include "mps/util/timer.h"
#include "mps/util/trace.h"

using namespace mps;

namespace {

bool
ends_with(const std::string &s, const char *suffix)
{
    size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/** Load a matrix from a container file path. */
CsrMatrix
load_matrix_file(const std::string &in)
{
    if (ends_with(in, ".bin"))
        return read_csr_binary_file(in);
    if (ends_with(in, ".mtx"))
        return CsrMatrix::from_coo(read_matrix_market_file(in));
    if (ends_with(in, ".el"))
        return CsrMatrix::from_coo(read_edge_list_file(in));
    fatal("unknown input container (want .bin, .mtx or .el): " + in);
}

/** Load a matrix from --in / --dataset flags. */
CsrMatrix
load_matrix(const FlagParser &flags)
{
    const std::string &dataset = flags.get_string("dataset");
    if (!dataset.empty())
        return make_dataset(dataset);
    const std::string &in = flags.get_string("in");
    if (in.empty())
        fatal("provide --in=<file> or --dataset=<name>");
    return load_matrix_file(in);
}

void
store_matrix(const CsrMatrix &m, const std::string &out)
{
    if (ends_with(out, ".bin")) {
        write_csr_binary_file(out, m);
    } else if (ends_with(out, ".mtx")) {
        std::ofstream f(out);
        if (!f)
            fatal("cannot open for writing: " + out);
        write_matrix_market(f, m.to_coo());
    } else {
        fatal("unknown output container (want .bin or .mtx): " + out);
    }
    inform("wrote " + out);
}

void
add_io_flags(FlagParser &flags)
{
    flags.add_string("in", "", "input matrix (.bin/.mtx/.el)");
    flags.add_string("dataset", "", "Table II dataset name instead of --in");
}

int
cmd_generate(int argc, char **argv)
{
    FlagParser flags("generate a registry dataset into a container");
    flags.add_string("dataset", "Cora", "Table II dataset name");
    flags.add_string("out", "graph.bin", "output file (.bin or .mtx)");
    flags.parse(argc, argv);
    CsrMatrix m = make_dataset(flags.get_string("dataset"));
    store_matrix(m, flags.get_string("out"));
    return 0;
}

int
cmd_convert(int argc, char **argv)
{
    FlagParser flags("convert between matrix containers");
    add_io_flags(flags);
    flags.add_string("out", "", "output file (.bin or .mtx)");
    flags.parse(argc, argv);
    CsrMatrix m = load_matrix(flags);
    if (flags.get_string("out").empty())
        fatal("convert needs --out");
    store_matrix(m, flags.get_string("out"));
    return 0;
}

int
cmd_info(int argc, char **argv)
{
    FlagParser flags("print matrix statistics");
    add_io_flags(flags);
    flags.add_bool("histogram", false, "print the degree histogram");
    flags.parse(argc, argv);
    CsrMatrix m = load_matrix(flags);
    DegreeStats s = compute_degree_stats(m);
    std::printf("%d x %d, %d non-zeros\n%s\n", m.rows(), m.cols(),
                m.nnz(), to_string(s).c_str());
    if (flags.get_bool("histogram"))
        std::printf("%s", degree_histogram(m).to_string().c_str());
    return 0;
}

int
cmd_schedule(int argc, char **argv)
{
    FlagParser flags("build and inspect a merge-path schedule");
    add_io_flags(flags);
    flags.add_int("dim", 16, "dense dimension (for the tuned cost)");
    flags.add_int("cost", 0, "merge-path cost (0 = tuned default)");
    flags.add_int("threads", 0, "explicit thread count (overrides cost)");
    flags.add_string("out", "", "optional schedule output (.bin)");
    flags.parse(argc, argv);
    CsrMatrix m = load_matrix(flags);

    MergePathSchedule sched;
    if (flags.get_int("threads") > 0) {
        sched = MergePathSchedule::build(
            m, static_cast<index_t>(flags.get_int("threads")));
    } else {
        index_t cost = static_cast<index_t>(flags.get_int("cost"));
        if (cost <= 0) {
            cost = default_merge_path_cost(
                static_cast<index_t>(flags.get_int("dim")));
        }
        sched = MergePathSchedule::build_with_cost(m, cost, 1024);
    }
    sched.validate(m);
    ScheduleCensus c = sched.census(m);
    std::printf("threads %d, cost %lld\n", sched.num_threads(),
                static_cast<long long>(sched.items_per_thread()));
    std::printf("atomic commits %lld (%.1f%% of writes), plain rows %lld,"
                " split rows %lld\n",
                static_cast<long long>(c.atomic_commits),
                100.0 * c.atomic_write_fraction(),
                static_cast<long long>(c.plain_row_writes),
                static_cast<long long>(c.split_rows));
    const std::string &out = flags.get_string("out");
    if (!out.empty()) {
        std::ofstream f(out, std::ios::binary);
        if (!f)
            fatal("cannot open for writing: " + out);
        write_schedule_binary(f, sched);
        inform("wrote " + out);
    }
    return 0;
}

/** Split a comma-separated flag value into its non-empty parts. */
std::vector<std::string>
split_list(const std::string &value)
{
    std::vector<std::string> parts;
    size_t begin = 0;
    while (begin <= value.size()) {
        size_t comma = value.find(',', begin);
        if (comma == std::string::npos)
            comma = value.size();
        if (comma > begin)
            parts.push_back(value.substr(begin, comma - begin));
        begin = comma + 1;
    }
    return parts;
}

/** Largest |c - gold| over all elements. */
double
max_abs_error(const DenseMatrix &c, const DenseMatrix &gold)
{
    double worst = 0.0;
    for (index_t r = 0; r < c.rows(); ++r) {
        for (index_t d = 0; d < c.cols(); ++d) {
            double err = std::abs(static_cast<double>(c(r, d)) -
                                  static_cast<double>(gold(r, d)));
            worst = std::max(worst, err);
        }
    }
    return worst;
}

int
cmd_spmm(int argc, char **argv)
{
    FlagParser flags("run one SpMM kernel and time it");
    add_io_flags(flags);
    flags.add_string("kernel", "mergepath", "registry kernel name");
    flags.add_int("dim", 16, "dense dimension size");
    flags.add_int("repeat", 5, "timed repetitions");
    flags.add_bool("check", false,
                   "verify against reference_spmm and report "
                   "max-abs-error");
    flags.add_string("metrics-out", "",
                     "collect metrics and write the JSON snapshot here");
    flags.add_string("trace-out", "",
                     "record spans and write Chrome trace JSON here");
    flags.parse(argc, argv);
    CsrMatrix m = load_matrix(flags);
    const index_t dim = static_cast<index_t>(flags.get_int("dim"));

    const std::string &metrics_out = flags.get_string("metrics-out");
    const std::string &trace_out = flags.get_string("trace-out");
    MetricsRegistry &metrics = MetricsRegistry::global();
    if (!metrics_out.empty()) {
        metrics.reset();
        metrics.set_enabled(true);
    }
    if (!trace_out.empty())
        TraceSession::global().start();

    Pcg32 rng(1);
    DenseMatrix b(m.cols(), dim);
    b.fill_random(rng);
    DenseMatrix c(m.rows(), dim);
    WorkStealPool pool;
    auto kernel = make_spmm_kernel(flags.get_string("kernel"));
    Timer prep;
    kernel->prepare(m, dim);
    double prep_ms = prep.elapsed_ms();

    kernel->run(m, b, c, pool); // warm-up
    Timer timer;
    const int repeat = static_cast<int>(flags.get_int("repeat"));
    for (int i = 0; i < repeat; ++i)
        kernel->run(m, b, c, pool);
    double ms = timer.elapsed_ms() / repeat;

    double checksum = 0.0;
    for (index_t r = 0; r < c.rows(); ++r)
        checksum += c(r, 0);
    std::printf("%s: prepare %.3f ms, run %.3f ms avg over %d"
                " (%.2f GFLOP/s), checksum %.6g\n",
                kernel->name().c_str(), prep_ms, ms, repeat,
                2.0 * m.nnz() * dim / (ms * 1e6), checksum);

    if (kernel->name() == "hybrid" && metrics.enabled()) {
        // The classifier publishes its split at prepare() time; echo
        // it so --kernel=hybrid runs explain where the nnz went.
        std::printf("dispatch: %.0f dense rows / %.0f tail rows, "
                    "%.0f dense nnz in %.0f bands (%.1f%% of nnz)\n",
                    metrics.gauge_value("dispatch.dense_rows"),
                    metrics.gauge_value("dispatch.tail_rows"),
                    metrics.gauge_value("dispatch.dense_nnz"),
                    metrics.gauge_value("dispatch.bands"),
                    100.0 *
                        metrics.gauge_value("dispatch.dense_fraction"));
    }

    int status = 0;
    if (flags.get_bool("check")) {
        // A checksum can mask compensating errors; compare every
        // element against the sequential gold kernel.
        DenseMatrix gold(m.rows(), dim);
        reference_spmm(m, b, gold);
        double err = max_abs_error(c, gold);
        bool ok = c.approx_equal(gold, 1e-3f, 1e-3f);
        std::printf("check vs reference: max-abs-error %.3e (%s)\n", err,
                    ok ? "ok" : "MISMATCH");
        if (!ok)
            status = 1;
    }

    if (!metrics_out.empty() && metrics.write_json_file(metrics_out))
        inform("wrote " + metrics_out);
    if (!trace_out.empty()) {
        TraceSession::global().stop();
        if (TraceSession::global().write_chrome_json_file(trace_out))
            inform("wrote " + trace_out);
    }
    return status;
}

/**
 * Per-layer fusion study for `profile --fuse`: a 2-layer GCN forward
 * (f = min(32, dim) -> dim ReLU -> dim identity) on @p m, each layer
 * timed as it actually ships, in the association order and precision
 * GcnModel plans for it — the unfused side allocating and
 * round-tripping its temporary per call (MPS_FUSE=0), the fused side
 * building its FusedLayerPlan and streaming panels
 * (mps/core/fusion.h). @p mode selects which sides run: "off" times
 * unfused only, "on" fused only, "both" both plus the speedup column.
 * Appends one JSON object per layer to @p w (inside an open array) and
 * prints one human-readable table row per layer to stderr, each with
 * the layer's order, sparse width and effective precision. Traffic
 * columns are the bench/fusion n x d temporary-stream proxy of a
 * combine-first layer; aggregate-first layers report none.
 */
void
profile_fusion(const std::string &input_name, const CsrMatrix &m,
               index_t dim, int repeat, const std::string &mode,
               WorkStealPool &pool, JsonWriter &w)
{
    if (m.rows() != m.cols()) {
        warn("--fuse skips non-square input " + input_name +
             " (a GCN layer needs an adjacency matrix)");
        return;
    }
    const bool time_unfused = mode != "on";
    const bool time_fused = mode != "off";
    const index_t n = m.rows();
    const index_t f = std::min<index_t>(32, dim);

    Pcg32 rng(3);
    DenseMatrix x(n, f), w1(f, dim), w2(dim, dim);
    x.fill_random(rng);
    w1.fill_random(rng);
    w2.fill_random(rng);
    GcnModel model("mergepath");
    model.add_layer(GcnLayer(w1, Activation::kRelu));
    model.add_layer(GcnLayer(w2, Activation::kNone));
    const std::vector<LayerPlanInfo> plans = model.layer_plans(m);

    // One schedule per sparse width, shared by both sides.
    std::map<index_t, MergePathSchedule> scheds;
    for (const LayerPlanInfo &p : plans)
        scheds.emplace(p.sparse_width,
                       MergePathSchedule::build_with_cost(
                           m, cpu_merge_path_cost(m.rows(), m.nnz(),
                                                  p.sparse_width,
                                                  pool.size())));
    const auto locality = [&](index_t width) {
        SpmmLocality loc;
        loc.tile_d = auto_tile_d(m.cols(), width);
        loc.prefetch = auto_prefetch_distance(width);
        return loc;
    };

    // Layer-2 input, produced once outside the timed loops.
    DenseMatrix h1(n, dim);
    {
        DenseMatrix xw(n, dim);
        dense_gemm(x, w1, xw, pool);
        mergepath_spmm_parallel(m, xw, h1, scheds.begin()->second, pool,
                                locality(dim));
        apply_activation(h1, Activation::kRelu);
    }

    auto avg_ms = [&](auto &&fn) {
        fn(); // warm-up
        Timer t;
        for (int i = 0; i < repeat; ++i)
            fn();
        return t.elapsed_ms() / repeat;
    };

    for (int layer = 1; layer <= 2; ++layer) {
        const DenseMatrix &in = layer == 1 ? x : h1;
        const GcnLayer &gl = model.layer(static_cast<size_t>(layer - 1));
        const DenseMatrix &wt = gl.weights();
        const Activation act = gl.activation();
        const LayerPlanInfo &plan_info =
            plans[static_cast<size_t>(layer - 1)];
        const bool agg_first = plan_info.aggregate_first;
        const index_t width = plan_info.sparse_width;
        const MergePathSchedule &sched = scheds.at(width);
        const SpmmLocality loc = locality(width);
        // GcnModel computes only layer 0's XW with a GEMM panel source
        // (on the AMX tiles at bf16); later layers' XW is rank-updated
        // in f32 and encoded.
        const StorageMode gemm_precision =
            layer == 1 ? plan_info.precision : StorageMode::kF32;

        double unfused_ms = 0.0, fused_ms = 0.0;
        index_t run_tile = width, stream_tile = width;
        if (time_unfused) {
            unfused_ms = avg_ms([&] {
                DenseMatrix out(n, dim);
                if (agg_first) {
                    DenseMatrix ax(n, width);
                    mergepath_spmm_parallel(m, in, ax, sched, pool, loc);
                    dense_gemm(ax, wt, out, pool);
                } else {
                    DenseMatrix xw;
                    const PanelSource src = gemm_panel_source(
                        in, wt, pool, xw, gemm_precision)(0, dim);
                    if (plan_info.precision != StorageMode::kF32 &&
                        src.quantizable != nullptr)
                        quantize_dense(xw, plan_info.precision, &pool);
                    mergepath_spmm_parallel(m, xw, out, sched, pool, loc);
                }
                apply_activation(out, act);
            });
        }
        if (time_fused) {
            fused_ms = avg_ms([&] {
                FusedLayerPlan plan(
                    m, width, borrow_schedule(sched),
                    default_fused_locality(
                        m.cols(), width,
                        storage_elem_bytes(plan_info.precision)));
                plan.set_precision(plan_info.precision);
                run_tile = plan.run_tile();
                stream_tile = plan.tile();
                DenseMatrix out(n, dim);
                if (agg_first) {
                    // Combines each batch of finished rows on the
                    // rows-in-lanes register tile.
                    const CombineEpilogue combine =
                        make_combine_epilogue(act, wt, out, nullptr);
                    plan.run_streaming(slice_panel_source(in), {}, pool,
                                       &CombineEpilogue::apply, &combine);
                } else {
                    plan.run(gemm_panel_source(in, wt, pool,
                                               plan.gemm_scratch(),
                                               gemm_precision),
                             out, pool, activation_epilogue(act));
                }
            });
        }

        // bench/fusion traffic proxy: one trip = n * dim * 4 bytes.
        const double trip =
            static_cast<double>(n) * dim * sizeof(value_t) / 1e9;
        const double unfused_gb =
            (5.0 + (act != Activation::kNone ? 2.0 : 0.0)) * trip;
        const double fused_gb = (run_tile >= dim ? 3.0 : 0.0) * trip +
                                2.0 * trip;
        const bool traffic = !agg_first;
        const char *order = agg_first ? "aggregate_first" : "combine_first";
        const char *precision = storage_mode_name(plan_info.precision);

        w.begin_object();
        w.key("input").value(input_name);
        w.key("layer").value(int64_t{layer});
        w.key("dim").value(static_cast<int64_t>(dim));
        w.key("order").value(order);
        w.key("sparse_width").value(static_cast<int64_t>(width));
        w.key("precision").value(precision);
        w.key("fused_tile").value(static_cast<int64_t>(stream_tile));
        w.key("fused_run_tile").value(static_cast<int64_t>(run_tile));
        if (time_unfused) {
            w.key("unfused_ms").value(unfused_ms);
            if (traffic)
                w.key("unfused_traffic_gb").value(unfused_gb);
        }
        if (time_fused) {
            w.key("fused_ms").value(fused_ms);
            if (traffic)
                w.key("fused_traffic_gb").value(fused_gb);
        }
        if (time_unfused && time_fused && fused_ms > 0.0)
            w.key("speedup").value(unfused_ms / fused_ms);
        w.end_object();

        std::string row = "  " + input_name + "  layer " +
                          std::to_string(layer) + "  d=" +
                          std::to_string(dim) + "  " + order + " @" +
                          std::to_string(width) + " " + precision;
        char buf[160];
        if (time_unfused) {
            std::snprintf(buf, sizeof(buf), "  unfused %8.3f ms",
                          unfused_ms);
            row += buf;
            if (traffic) {
                std::snprintf(buf, sizeof(buf), " %6.3f GB", unfused_gb);
                row += buf;
            }
        }
        if (time_fused) {
            std::snprintf(buf, sizeof(buf), "  fused %8.3f ms", fused_ms);
            row += buf;
            if (traffic) {
                std::snprintf(buf, sizeof(buf), " %6.3f GB", fused_gb);
                row += buf;
            }
        }
        if (time_unfused && time_fused && fused_ms > 0.0) {
            std::snprintf(buf, sizeof(buf), "  speedup %5.2fx",
                          unfused_ms / fused_ms);
            row += buf;
        }
        std::fprintf(stderr, "%s\n", row.c_str());
    }
}

/**
 * Profile a kernel x dataset sweep into one machine-readable JSON
 * report (the format the BENCH_*.json trajectory entries consume).
 */
int
cmd_profile(int argc, char **argv)
{
    FlagParser flags("profile a kernel x dataset sweep into one JSON"
                     " report");
    flags.add_string("dataset", "Cora",
                     "comma-separated Table II dataset names");
    flags.add_string("in", "",
                     "profile one matrix file instead of --dataset");
    flags.add_string("kernel", "mergepath",
                     "comma-separated registry kernel names");
    flags.add_int("dim", 16, "dense dimension size");
    flags.add_int("repeat", 5, "timed repetitions per combination");
    flags.add_string("out", "", "report path (default: stdout)");
    flags.add_string("trace-out", "",
                     "also record spans and write Chrome trace JSON");
    flags.add_string("fuse", "",
                     "per-layer fused-vs-unfused study: on | off | both");
    flags.parse(argc, argv);

    const std::string &fuse = flags.get_string("fuse");
    if (!fuse.empty() && fuse != "on" && fuse != "off" && fuse != "both")
        fatal("--fuse wants on, off or both (got '" + fuse + "')");
    const index_t dim = static_cast<index_t>(flags.get_int("dim"));
    const int repeat =
        std::max(1, static_cast<int>(flags.get_int("repeat")));
    std::vector<std::string> kernels =
        split_list(flags.get_string("kernel"));
    if (kernels.empty())
        fatal("profile needs at least one --kernel name");

    // Load every input up front so a typo fails before the sweep.
    std::vector<std::pair<std::string, CsrMatrix>> inputs;
    const std::string &in = flags.get_string("in");
    if (!in.empty()) {
        inputs.emplace_back(in, load_matrix_file(in));
    } else {
        for (const std::string &name :
             split_list(flags.get_string("dataset")))
            inputs.emplace_back(name, make_dataset(name));
    }
    if (inputs.empty())
        fatal("profile needs --dataset or --in");

    const std::string &trace_out = flags.get_string("trace-out");
    if (!trace_out.empty())
        TraceSession::global().start();

    WorkStealPool pool;
    MetricsRegistry &metrics = MetricsRegistry::global();
    Pcg32 rng(1);

    JsonWriter w;
    w.begin_object();
    w.key("tool").value("mps_tool profile");
    w.key("dim").value(static_cast<int64_t>(dim));
    w.key("repeat").value(int64_t{repeat});
    w.key("pool_threads").value(static_cast<int64_t>(pool.size()));
    w.key("results").begin_array();

    for (const auto &[input_name, m] : inputs) {
        DenseMatrix b(m.cols(), dim);
        b.fill_random(rng);
        DenseMatrix c(m.rows(), dim);
        for (const std::string &kernel_name : kernels) {
            metrics.reset();
            metrics.set_enabled(true);
            auto kernel = make_spmm_kernel(kernel_name);

            Timer prep;
            kernel->prepare(m, dim);
            double prep_ms = prep.elapsed_ms();

            kernel->run(m, b, c, pool); // warm-up
            Timer timer;
            for (int i = 0; i < repeat; ++i)
                kernel->run(m, b, c, pool);
            double run_ms = timer.elapsed_ms() / repeat;
            metrics.set_enabled(false);

            // Counters accumulated over warm-up + repeats; normalize to
            // one run via the decorator's run counter.
            int64_t runs = metrics.counter_value("kernel." + kernel_name +
                                                 ".runs");
            if (runs <= 0)
                runs = repeat + 1;
            auto per_run = [runs](int64_t total) {
                return static_cast<double>(total) /
                       static_cast<double>(runs);
            };

            w.begin_object();
            w.key("input").value(input_name);
            w.key("kernel").value(kernel_name);
            w.key("rows").value(static_cast<int64_t>(m.rows()));
            w.key("cols").value(static_cast<int64_t>(m.cols()));
            w.key("nnz").value(static_cast<int64_t>(m.nnz()));
            w.key("prepare_ms").value(prep_ms);
            w.key("run_ms").value(run_ms);
            w.key("gflops").value(run_ms <= 0.0
                                      ? 0.0
                                      : 2.0 * m.nnz() * dim /
                                            (run_ms * 1e6));
            w.key("schedule_build_ms")
                .value(metrics.timer_value("schedule.build_ms").sum);
            w.key("atomic_commits")
                .value(per_run(metrics.counter_value(
                    "spmm." + kernel_name + ".atomic_commits")));
            w.key("plain_commits")
                .value(per_run(metrics.counter_value(
                    "spmm." + kernel_name + ".plain_commits")));
            w.key("split_rows")
                .value(metrics.gauge_value("spmm." + kernel_name +
                                           ".split_rows"));
            w.key("load_imbalance")
                .value(metrics.gauge_value("spmm." + kernel_name +
                                           ".load_imbalance"));
            w.key("metrics");
            metrics.append_json_array(w);
            w.end_object();
        }
    }
    w.end_array();

    if (!fuse.empty()) {
        std::fprintf(stderr,
                     "fusion study (dim=%lld, repeat=%d, mode=%s):\n",
                     static_cast<long long>(dim), repeat, fuse.c_str());
        w.key("fusion").begin_array();
        for (const auto &[input_name, m] : inputs)
            profile_fusion(input_name, m, dim, repeat, fuse, pool, w);
        w.end_array();
    }
    w.end_object();

    const std::string &out = flags.get_string("out");
    if (out.empty()) {
        std::printf("%s\n", w.str().c_str());
    } else {
        std::ofstream f(out);
        if (!f)
            fatal("cannot open for writing: " + out);
        f << w.str() << '\n';
        inform("wrote " + out);
    }
    if (!trace_out.empty()) {
        TraceSession::global().stop();
        if (TraceSession::global().write_chrome_json_file(trace_out))
            inform("wrote " + trace_out);
    }
    return 0;
}

int
cmd_reorder(int argc, char **argv)
{
    FlagParser flags("relabel a graph (degree sort or BFS)");
    add_io_flags(flags);
    flags.add_string("method", "bfs", "bfs | degree | degree-asc");
    flags.add_string("out", "reordered.bin", "output file (.bin or .mtx)");
    flags.parse(argc, argv);
    CsrMatrix m = load_matrix(flags);
    const std::string &method = flags.get_string("method");
    std::vector<index_t> perm;
    if (method == "bfs") {
        perm = bfs_permutation(m);
    } else if (method == "degree") {
        perm = degree_sort_permutation(m, true);
    } else if (method == "degree-asc") {
        perm = degree_sort_permutation(m, false);
    } else {
        fatal("unknown method '" + method + "' (bfs|degree|degree-asc)");
    }
    store_matrix(permute_symmetric(m, perm), flags.get_string("out"));
    return 0;
}

/**
 * Closed-loop serving load generator: sweep client count x batch limit
 * over one graph/model and report throughput + latency percentiles as
 * JSON. All sweep points share one ScheduleCache, so each
 * (graph, threads, cost) schedule is built exactly once per run.
 */
int
cmd_serve_bench(int argc, char **argv)
{
    FlagParser flags("serving load sweep (clients x max-batch) into one"
                     " JSON report");
    add_io_flags(flags);
    flags.add_int("nodes", 4096,
                  "synthetic power-law nodes (used without --in/--dataset)");
    flags.add_int("avg-degree", 128, "synthetic average degree");
    flags.add_int("max-degree", 512, "synthetic maximum row degree");
    // Default dims put the unbatched SpMM in the traversal-bound regime
    // batching exists for (see DESIGN.md on widening the effective d).
    flags.add_int("feat", 8, "input feature dimension");
    flags.add_int("hidden", 4, "hidden layer width");
    flags.add_int("out-dim", 4, "output layer width");
    flags.add_string("clients", "1,2,4,8", "comma-separated client counts");
    flags.add_string("max-batch", "1,8",
                     "comma-separated batch-size limits");
    flags.add_int("max-delay-us", 2000, "batch window in microseconds");
    flags.add_int("requests", 32, "requests per client per sweep point");
    flags.add_int("workers", 2, "server worker threads");
    flags.add_int("pool-threads", 0, "pool threads per worker (0 = auto)");
    flags.add_string("out", "", "report path (default: stdout)");
    flags.add_int("telemetry-port", -1,
                  "expose /metrics during the sweep (0 = ephemeral port,"
                  " -1 = off)");
    flags.add_string("telemetry-port-file", "",
                     "write the bound telemetry port to this file");
    flags.add_int("telemetry-linger-ms", 0,
                  "after the sweep, keep /metrics up until a scrape"
                  " lands (at most this long)");
    flags.parse(argc, argv);

    CsrMatrix m;
    std::string input_name;
    if (!flags.get_string("in").empty() ||
        !flags.get_string("dataset").empty()) {
        m = load_matrix(flags);
        input_name = flags.get_string("in").empty()
                         ? flags.get_string("dataset")
                         : flags.get_string("in");
    } else {
        PowerLawParams p;
        p.nodes = static_cast<index_t>(flags.get_int("nodes"));
        p.target_nnz = p.nodes *
                       static_cast<index_t>(flags.get_int("avg-degree"));
        p.max_degree = static_cast<index_t>(flags.get_int("max-degree"));
        p.seed = 7;
        p.value_mode = ValueMode::kGcnNormalized;
        m = power_law_graph(p);
        input_name = "power-law";
    }

    const index_t feat = static_cast<index_t>(flags.get_int("feat"));
    const index_t hidden = static_cast<index_t>(flags.get_int("hidden"));
    const index_t out_dim = static_cast<index_t>(flags.get_int("out-dim"));
    std::vector<GcnLayer> layers;
    layers.emplace_back(random_layer_weights(feat, hidden, 11),
                        Activation::kRelu);
    layers.emplace_back(random_layer_weights(hidden, out_dim, 13),
                        Activation::kNone);

    std::vector<int> client_counts;
    for (const std::string &s : split_list(flags.get_string("clients")))
        client_counts.push_back(std::stoi(s));
    std::vector<int> batch_limits;
    for (const std::string &s : split_list(flags.get_string("max-batch")))
        batch_limits.push_back(std::stoi(s));
    if (client_counts.empty() || batch_limits.empty())
        fatal("serve-bench needs non-empty --clients and --max-batch");
    const int requests = static_cast<int>(flags.get_int("requests"));
    const int64_t delay_us = flags.get_int("max-delay-us");

    MetricsRegistry &metrics = MetricsRegistry::global();
    metrics.reset();
    metrics.set_enabled(true);

    // One endpoint for the whole sweep (per-point servers would fight
    // over the port); the scrape hook follows the live sweep point.
    std::mutex live_mutex;
    serve::Server *live_server = nullptr;
    std::unique_ptr<serve::TelemetryServer> telemetry;
    if (flags.get_int("telemetry-port") >= 0) {
        serve::TelemetryServer::Options opts;
        opts.port = static_cast<int>(flags.get_int("telemetry-port"));
        opts.pre_scrape = [&live_mutex, &live_server] {
            std::lock_guard<std::mutex> lk(live_mutex);
            if (live_server != nullptr)
                live_server->publish_telemetry();
        };
        telemetry = std::make_unique<serve::TelemetryServer>(
            std::move(opts));
        if (telemetry->start()) {
            inform("telemetry: /metrics on 127.0.0.1:" +
                   std::to_string(telemetry->port()));
            const std::string &port_file =
                flags.get_string("telemetry-port-file");
            if (!port_file.empty()) {
                std::ofstream f(port_file);
                f << telemetry->port() << '\n';
            }
        } else {
            telemetry.reset();
        }
    }

    DenseMatrix feature_template(m.rows(), feat);
    Pcg32 rng(3);
    feature_template.fill_random(rng);

    // One cache across the whole sweep: every sweep point reuses the
    // schedules the first one built.
    ScheduleCache sweep_cache;

    JsonWriter w;
    w.begin_object();
    w.key("tool").value("mps_tool serve-bench");
    w.key("input").value(input_name);
    w.key("rows").value(static_cast<int64_t>(m.rows()));
    w.key("nnz").value(static_cast<int64_t>(m.nnz()));
    w.key("feat").value(static_cast<int64_t>(feat));
    w.key("hidden").value(static_cast<int64_t>(hidden));
    w.key("out_dim").value(static_cast<int64_t>(out_dim));
    w.key("requests_per_client").value(int64_t{requests});
    w.key("max_delay_us").value(delay_us);
    w.key("workers").value(flags.get_int("workers"));
    w.key("results").begin_array();

    for (int max_batch : batch_limits) {
        for (int clients : client_counts) {
            serve::ServeConfig cfg;
            cfg.queue_capacity = 4096;
            cfg.num_workers =
                static_cast<unsigned>(flags.get_int("workers"));
            cfg.pool_threads =
                static_cast<unsigned>(flags.get_int("pool-threads"));
            cfg.batch.max_batch = max_batch;
            cfg.batch.max_delay_us = delay_us;
            cfg.overflow = serve::OverflowPolicy::kBlock;
            // The bench owns the endpoint; keep per-point servers from
            // racing it for MPS_TELEMETRY_PORT.
            cfg.telemetry_port = -1;
            serve::Server server(cfg, &sweep_cache);
            const uint64_t gid = server.register_graph(m, layers);
            {
                std::lock_guard<std::mutex> lk(live_mutex);
                live_server = &server;
            }

            // Warm up outside the timed window (first point also pays
            // the schedule builds here, once for the whole sweep).
            server.infer(gid, feature_template);

            std::atomic<int64_t> ok{0};
            Timer wall;
            std::vector<std::thread> pumps;
            pumps.reserve(static_cast<size_t>(clients));
            for (int cl = 0; cl < clients; ++cl) {
                pumps.emplace_back([&server, &feature_template, &ok,
                                    requests, gid] {
                    for (int i = 0; i < requests; ++i) {
                        DenseMatrix x = feature_template;
                        serve::InferenceResult r =
                            server.infer(gid, std::move(x));
                        if (r.ok())
                            ok.fetch_add(1, std::memory_order_relaxed);
                    }
                });
            }
            for (std::thread &t : pumps)
                t.join();
            const double wall_ms = wall.elapsed_ms();
            {
                std::lock_guard<std::mutex> lk(live_mutex);
                live_server = nullptr;
            }
            server.shutdown();
            serve::ServerStats st = server.stats();

            w.begin_object();
            w.key("clients").value(int64_t{clients});
            w.key("max_batch").value(int64_t{max_batch});
            w.key("completed_ok").value(ok.load());
            w.key("wall_ms").value(wall_ms);
            w.key("throughput_rps")
                .value(wall_ms <= 0.0
                           ? 0.0
                           : static_cast<double>(ok.load()) * 1e3 /
                                 wall_ms);
            w.key("batches").value(st.batches);
            w.key("mean_batch_size").value(st.mean_batch_size);
            w.key("max_batch_size").value(st.max_batch_size);
            w.key("rejected").value(st.rejected);
            w.key("timed_out").value(st.timed_out);
            w.key("latency_ms").begin_object();
            w.key("mean").value(st.latency_ms.mean);
            w.key("p50").value(st.latency_ms.p50);
            w.key("p95").value(st.latency_ms.p95);
            w.key("p99").value(st.latency_ms.p99);
            w.key("max").value(st.latency_ms.max);
            w.end_object();
            w.end_object();
        }
    }
    w.end_array();

    if (telemetry != nullptr) {
        // Give a late scraper (tools/check.sh) a chance to observe the
        // sweep's final state before the registry freezes.
        const double linger_ms =
            static_cast<double>(flags.get_int("telemetry-linger-ms"));
        Timer linger;
        while (telemetry->scrape_count() == 0 &&
               linger.elapsed_ms() < linger_ms)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        telemetry->stop();
    }

    metrics.set_enabled(false);
    w.key("schedule_cache").begin_object();
    w.key("entries").value(static_cast<int64_t>(sweep_cache.size()));
    w.key("hits").value(sweep_cache.hits());
    w.key("misses").value(sweep_cache.misses());
    w.key("builds").value(metrics.counter_value("schedule.builds"));
    w.end_object();
    w.key("metrics");
    metrics.append_json_array(w);
    w.end_object();

    const std::string &out = flags.get_string("out");
    if (out.empty()) {
        std::printf("%s\n", w.str().c_str());
    } else {
        std::ofstream f(out);
        if (!f)
            fatal("cannot open for writing: " + out);
        f << w.str() << '\n';
        inform("wrote " + out);
    }
    return 0;
}

/** Hot-tail edge batch for one dynamic-graph update. */
GraphDelta
churn_bench_delta(Pcg32 &rng, index_t rows, index_t cols,
                  index_t hot_begin, int edges)
{
    GraphDelta delta;
    delta.upserts.reserve(static_cast<size_t>(edges));
    const auto hot_span = static_cast<uint32_t>(rows - hot_begin);
    for (int i = 0; i < edges; ++i) {
        EdgeUpdate e;
        e.row =
            hot_begin + static_cast<index_t>(rng.next_below(hot_span));
        e.col = static_cast<index_t>(
            rng.next_below(static_cast<uint32_t>(cols)));
        e.value = rng.next_float(0.01f, 1.0f);
        delta.upserts.push_back(e);
    }
    return delta;
}

/**
 * Dynamic-graph churn sweep: replay an edge-update stream and compare
 * the schedule maintenance each policy pays per update — incremental
 * (overlay + lazy compaction + repair_schedule) against
 * rebuild-every-update (fresh build + census per update) — then run a
 * short serving comparison with a live update_graph() stream. Emits
 * one JSON report.
 */
int
cmd_churn_bench(int argc, char **argv)
{
    FlagParser flags("dynamic-graph churn sweep into one JSON report");
    add_io_flags(flags);
    flags.add_int("nodes", 20000,
                  "synthetic power-law nodes (used without --in/--dataset)");
    flags.add_int("avg-degree", 8, "synthetic average degree");
    flags.add_int("max-degree", 256, "synthetic maximum row degree");
    flags.add_int("threads", 64, "merge-path threads per schedule");
    flags.add_int("updates", 80, "update batches per sweep point");
    flags.add_string("update-edges", "0",
                     "comma-separated edges per update batch"
                     " (0 = 0.1%% of nnz)");
    flags.add_double("compact-ratio", 0.02,
                     "delta fraction that triggers lazy compaction"
                     " (0 = library default)");
    flags.add_double("hot-fraction", 0.05,
                     "fraction of tail rows receiving churn");
    flags.add_int("serve-clients", 2,
                  "closed-loop clients for the serve phase"
                  " (0 = skip the serve phase)");
    flags.add_int("serve-requests", 12, "requests per client");
    flags.add_int("update-hz", 20,
                  "update_graph batches per second in the serve phase");
    flags.add_int("feat", 8, "input feature dimension");
    flags.add_int("hidden", 4, "hidden layer width");
    flags.add_int("workers", 2, "server worker threads");
    flags.add_string("out", "", "report path (default: stdout)");
    flags.parse(argc, argv);

    CsrMatrix m;
    std::string input_name;
    if (!flags.get_string("in").empty() ||
        !flags.get_string("dataset").empty()) {
        m = load_matrix(flags);
        input_name = flags.get_string("in").empty()
                         ? flags.get_string("dataset")
                         : flags.get_string("in");
    } else {
        PowerLawParams p;
        p.nodes = static_cast<index_t>(flags.get_int("nodes"));
        p.target_nnz = p.nodes *
                       static_cast<index_t>(flags.get_int("avg-degree"));
        p.max_degree = static_cast<index_t>(flags.get_int("max-degree"));
        p.seed = 7;
        p.value_mode = ValueMode::kGcnNormalized;
        m = power_law_graph(p);
        input_name = "power-law";
    }

    const double hot_fraction =
        std::clamp(flags.get_double("hot-fraction"), 1e-4, 1.0);
    const index_t hot_begin = static_cast<index_t>(
        static_cast<double>(m.rows()) * (1.0 - hot_fraction));
    const index_t threads =
        static_cast<index_t>(flags.get_int("threads"));
    const int updates = static_cast<int>(flags.get_int("updates"));
    const double compact_ratio = flags.get_double("compact-ratio");

    std::vector<int> edge_points;
    for (const std::string &s :
         split_list(flags.get_string("update-edges"))) {
        int v = std::stoi(s);
        if (v <= 0)
            v = std::max(1, m.nnz() / 1000);
        edge_points.push_back(v);
    }
    if (edge_points.empty())
        fatal("churn-bench needs a non-empty --update-edges list");

    JsonWriter w;
    w.begin_object();
    w.key("tool").value("mps_tool churn-bench");
    w.key("input").value(input_name);
    w.key("rows").value(static_cast<int64_t>(m.rows()));
    w.key("nnz").value(static_cast<int64_t>(m.nnz()));
    w.key("threads").value(static_cast<int64_t>(threads));
    w.key("updates_per_point").value(int64_t{updates});
    w.key("compact_ratio").value(compact_ratio);
    w.key("hot_fraction").value(hot_fraction);
    w.key("repair_sweep").begin_array();

    for (int update_edges : edge_points) {
        Pcg32 rng(99);
        DeltaCsr dynamic(m);
        if (compact_ratio > 0.0)
            dynamic.set_compact_ratio(compact_ratio);
        DeltaCsr eager(m);
        MergePathSchedule sched = MergePathSchedule::build(m, threads);
        int compactions = 0;
        int fallbacks = 0;
        double repair_total_us = 0.0;
        double rebuild_total_us = 0.0;
        for (int u = 0; u < updates; ++u) {
            GraphDelta delta = churn_bench_delta(
                rng, m.rows(), m.cols(), hot_begin, update_edges);
            dynamic.apply(delta);
            if (dynamic.needs_compaction()) {
                DeltaCsr::CompactResult cr = dynamic.compact();
                Timer repair_timer;
                ScheduleRepair rep =
                    repair_schedule(sched, *cr.old_base, *cr.new_base,
                                    cr.first_dirty_row);
                rep.schedule.census_part(*cr.new_base, rep.dirty_begin,
                                        rep.dirty_end);
                repair_total_us += repair_timer.elapsed_us();
                ++compactions;
                if (rep.rebuilt)
                    ++fallbacks;
                sched = std::move(rep.schedule);
            }
            eager.apply(delta);
            DeltaCsr::CompactResult cr = eager.compact();
            Timer rebuild_timer;
            MergePathSchedule fresh =
                MergePathSchedule::build(*cr.new_base, threads);
            fresh.census(*cr.new_base);
            rebuild_total_us += rebuild_timer.elapsed_us();
        }
        const double per_update_repair =
            repair_total_us / std::max(1, updates);
        const double per_update_rebuild =
            rebuild_total_us / std::max(1, updates);
        w.begin_object();
        w.key("update_edges").value(int64_t{update_edges});
        w.key("compactions").value(int64_t{compactions});
        w.key("fallbacks").value(int64_t{fallbacks});
        w.key("repair_us_per_compaction")
            .value(repair_total_us / std::max(1, compactions));
        w.key("repair_us_per_update").value(per_update_repair);
        w.key("rebuild_us_per_update").value(per_update_rebuild);
        w.key("per_update_speedup")
            .value(per_update_rebuild /
                   std::max(1e-9, per_update_repair));
        w.end_object();
    }
    w.end_array();

    const int serve_clients =
        static_cast<int>(flags.get_int("serve-clients"));
    if (serve_clients > 0) {
        const index_t feat =
            static_cast<index_t>(flags.get_int("feat"));
        const index_t hidden =
            static_cast<index_t>(flags.get_int("hidden"));
        std::vector<GcnLayer> layers;
        layers.emplace_back(random_layer_weights(feat, hidden, 11),
                            Activation::kRelu);
        layers.emplace_back(random_layer_weights(hidden, hidden, 13),
                            Activation::kNone);
        DenseMatrix features(m.rows(), feat);
        Pcg32 frng(3);
        features.fill_random(frng);
        const int requests =
            static_cast<int>(flags.get_int("serve-requests"));
        const int update_hz =
            static_cast<int>(flags.get_int("update-hz"));
        const int batch_edges = edge_points.front();

        const auto run_point = [&](serve::GraphUpdatePolicy policy,
                                   bool churn) {
            serve::ServeConfig cfg;
            cfg.queue_capacity = 4096;
            cfg.num_workers =
                static_cast<unsigned>(flags.get_int("workers"));
            cfg.batch.max_batch = 8;
            cfg.batch.max_delay_us = 2000;
            cfg.overflow = serve::OverflowPolicy::kBlock;
            cfg.update_policy = policy;
            cfg.telemetry_port = -1;
            serve::Server server(cfg);
            const uint64_t gid = server.register_graph(m, layers);
            server.infer(gid, features);

            std::atomic<bool> stop{false};
            std::thread updater;
            if (churn) {
                const auto interval = std::chrono::microseconds(
                    1000000 / std::max(1, update_hz));
                updater = std::thread([&server, &stop, &m, gid,
                                       batch_edges, interval,
                                       hot_begin] {
                    Pcg32 urng(1234);
                    while (!stop.load(std::memory_order_acquire)) {
                        server.update_graph(
                            gid, churn_bench_delta(urng, m.rows(),
                                                   m.cols(), hot_begin,
                                                   batch_edges));
                        std::this_thread::sleep_for(interval);
                    }
                });
            }
            std::atomic<int64_t> ok{0};
            Timer wall;
            std::vector<std::thread> pumps;
            pumps.reserve(static_cast<size_t>(serve_clients));
            for (int c = 0; c < serve_clients; ++c) {
                pumps.emplace_back(
                    [&server, &features, &ok, requests, gid] {
                        for (int i = 0; i < requests; ++i) {
                            DenseMatrix x = features;
                            if (server.infer(gid, std::move(x)).ok())
                                ok.fetch_add(
                                    1, std::memory_order_relaxed);
                        }
                    });
            }
            for (std::thread &t : pumps)
                t.join();
            const double wall_ms = wall.elapsed_ms();
            stop.store(true, std::memory_order_release);
            if (updater.joinable())
                updater.join();
            server.shutdown();
            serve::ServerStats st = server.stats();

            w.begin_object();
            w.key("completed_ok").value(ok.load());
            w.key("throughput_rps")
                .value(wall_ms <= 0.0
                           ? 0.0
                           : static_cast<double>(ok.load()) * 1e3 /
                                 wall_ms);
            w.key("p50_ms").value(st.latency_ms.p50);
            w.key("p99_ms").value(st.latency_ms.p99);
            w.key("graph_updates").value(st.graph_updates);
            w.key("graph_compactions").value(st.graph_compactions);
            w.end_object();
        };

        w.key("serve").begin_object();
        w.key("clients").value(int64_t{serve_clients});
        w.key("requests_per_client").value(int64_t{requests});
        w.key("update_hz").value(int64_t{update_hz});
        w.key("update_edges").value(int64_t{batch_edges});
        w.key("no_churn");
        run_point(serve::GraphUpdatePolicy::kIncremental, false);
        w.key("incremental");
        run_point(serve::GraphUpdatePolicy::kIncremental, true);
        w.key("rebuild_every_update");
        run_point(serve::GraphUpdatePolicy::kRebuildEveryUpdate, true);
        w.end_object();
    }
    w.end_object();

    const std::string &out = flags.get_string("out");
    if (out.empty()) {
        std::printf("%s\n", w.str().c_str());
    } else {
        std::ofstream f(out);
        if (!f)
            fatal("cannot open for writing: " + out);
        f << w.str() << '\n';
        inform("wrote " + out);
    }
    return 0;
}

/**
 * Split --url into (host, port, path); accepts `host:port[/path]` with
 * an optional `http://` scheme. The path defaults to /metrics.
 */
bool
parse_scrape_url(std::string url, std::string *host, int *port,
                 std::string *path)
{
    const std::string scheme = "http://";
    if (url.rfind(scheme, 0) == 0)
        url = url.substr(scheme.size());
    const size_t slash = url.find('/');
    *path = slash == std::string::npos ? "/metrics" : url.substr(slash);
    const std::string authority =
        slash == std::string::npos ? url : url.substr(0, slash);
    const size_t colon = authority.rfind(':');
    if (colon == std::string::npos)
        return false;
    *host = authority.substr(0, colon);
    if (host->empty() || *host == "localhost")
        *host = "127.0.0.1";
    char *end = nullptr;
    const std::string port_str = authority.substr(colon + 1);
    const long parsed = std::strtol(port_str.c_str(), &end, 10);
    if (end == port_str.c_str() || *end != '\0')
        return false;
    *port = static_cast<int>(parsed);
    return *port > 0 && *port <= 65535;
}

/**
 * Polling text dashboard over an OpenMetrics source: throughput from
 * counter deltas, latency quantiles from the serve histogram, queue
 * depth, scheduler imbalance and per-worker utilization from busy-time
 * deltas. The source is a live /metrics endpoint (--url) or a file of
 * scraped text (--file).
 */
int
cmd_top(int argc, char **argv)
{
    FlagParser flags("live telemetry dashboard over an OpenMetrics"
                     " source");
    flags.add_string("url", "",
                     "scrape endpoint ([http://]host:port[/metrics])");
    flags.add_string("file", "",
                     "read OpenMetrics text from a file instead");
    flags.add_int("interval-ms", 1000, "refresh interval");
    flags.add_int("iters", 0, "refresh count (0 = until interrupted)");
    flags.add_bool("once", false,
                   "one snapshot, plain output, no screen clearing");
    flags.add_bool("strict", false,
                   "validate the document; nonzero exit on format"
                   " errors");
    flags.parse(argc, argv);

    const std::string &url = flags.get_string("url");
    const std::string &file = flags.get_string("file");
    if (url.empty() == file.empty())
        fatal("top needs exactly one of --url or --file");

    std::string host, path;
    int port = 0;
    if (!url.empty() && !parse_scrape_url(url, &host, &port, &path))
        fatal("cannot parse --url '" + url +
              "' (want [http://]host:port[/path])");

    const bool once = flags.get_bool("once");
    const bool strict = flags.get_bool("strict");
    int64_t iters = flags.get_int("iters");
    if (once)
        iters = 1;
    const int interval_ms =
        std::max<int>(1, static_cast<int>(flags.get_int("interval-ms")));

    std::map<std::string, double> prev_busy;
    double prev_completed = -1.0;
    double prev_t_ms = 0.0;
    Timer wall;

    for (int64_t i = 0; iters == 0 || i < iters; ++i) {
        std::string text, err;
        if (!url.empty()) {
            if (!serve::http_get(host, port, path, &text, &err))
                fatal("scrape failed: " + err);
        } else {
            std::ifstream f(file);
            if (!f)
                fatal("cannot open " + file);
            std::ostringstream ss;
            ss << f.rdbuf();
            text = ss.str();
        }
        if (strict && !validate_openmetrics(text, &err)) {
            std::fprintf(stderr,
                         "mps_tool top: invalid OpenMetrics: %s\n",
                         err.c_str());
            return 1;
        }
        OpenMetricsText doc = parse_openmetrics(text);

        const double t_ms = wall.elapsed_ms();
        const double dt_s = (t_ms - prev_t_ms) / 1e3;
        const double completed =
            doc.value_or("serve_requests_completed_total");
        const double rate = prev_completed >= 0.0 && dt_s > 0.0
                                ? (completed - prev_completed) / dt_s
                                : 0.0;

        if (!once)
            std::printf("\x1b[2J\x1b[H"); // clear + home
        std::printf("mps top — %s\n",
                    !url.empty() ? url.c_str() : file.c_str());
        std::printf("requests  submitted %.0f   completed %.0f   "
                    "throughput %.1f req/s\n",
                    doc.value_or("serve_requests_submitted_total"),
                    completed, rate);
        std::printf(
            "latency   count %.0f   p50 %.3f ms   p90 %.3f ms   "
            "p99 %.3f ms\n",
            doc.value_or("serve_request_latency_ms_count"),
            doc.histogram_quantile("serve_request_latency_ms", 0.50),
            doc.histogram_quantile("serve_request_latency_ms", 0.90),
            doc.histogram_quantile("serve_request_latency_ms", 0.99));
        std::printf("queue     depth %.0f   batches %.0f\n",
                    doc.value_or("serve_queue_depth"),
                    doc.value_or("serve_batches_total"));
        std::printf("pool      imbalance %.2f   steals %.0f   "
                    "parks %.0f\n",
                    doc.value_or("pool_imbalance"),
                    doc.value_or("pool_steals_total"),
                    doc.value_or("pool_parks_total"));

        std::map<std::string, double> busy;
        for (const OpenMetricsSample &s : doc.samples) {
            if (s.name != "pool_worker_busy_seconds")
                continue;
            auto it = s.labels.find("worker");
            if (it != s.labels.end())
                busy[it->second] = s.value;
        }
        if (!busy.empty()) {
            std::printf("workers  ");
            for (const auto &[worker, seconds] : busy) {
                double util = 0.0;
                auto p = prev_busy.find(worker);
                if (p != prev_busy.end() && dt_s > 0.0)
                    util = std::max(0.0, (seconds - p->second) / dt_s) *
                           100.0;
                std::printf(" %s:%5.1f%%", worker.c_str(), util);
            }
            std::printf("   (busy %% of wall since last refresh)\n");
        }

        prev_busy = std::move(busy);
        prev_completed = completed;
        prev_t_ms = t_ms;
        if (iters == 0 || i + 1 < iters)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(interval_ms));
    }
    return 0;
}

/**
 * mps_tool hash: the FNV-1a hash of one GcnModel::infer output, so two
 * builds' forwards can be compared bit for bit. The graph is a Table
 * II dataset or a power-law graph shaped like the benchmark's
 * (10 non-zeros per row, hubs up to a tenth of the nodes, graph seed
 * 20), GCN-normalized; the weights come from two_layer's fixed seed 1
 * and the features from --seed. The merge-path schedule is sized for
 * the pool, so builds compare at equal --workers.
 */
int
cmd_hash(int argc, char **argv)
{
    FlagParser flags("hash a GcnModel::infer output (FNV-1a over every "
                     "float)");
    flags.add_string("dataset", "", "Table II dataset name");
    flags.add_int("powerlaw", 0,
                  "generate a power-law graph of this many nodes instead");
    flags.add_string("model", "16-128-16",
                     "layer widths f-h-c of a two-layer GCN");
    flags.add_string("precision", "f32", "operand precision: f32|bf16");
    flags.add_string("kernel", "mergepath",
                     "aggregation kernel: mergepath|hybrid");
    flags.add_int("seed", 1, "feature seed");
    flags.add_int("workers", 0,
                  "pool workers (0: one per core but the caller's)");
    flags.parse(argc, argv);

    CsrMatrix a;
    const int64_t nodes = flags.get_int("powerlaw");
    if (nodes != 0 && (nodes < 10 || nodes > 100000000))
        fatal("--powerlaw wants 10 to 100000000 nodes");
    if (nodes > 0) {
        PowerLawParams p;
        p.nodes = static_cast<index_t>(nodes);
        p.target_nnz = p.nodes * 10;
        p.max_degree = std::max<index_t>(10, p.nodes / 10);
        p.seed = 20;
        a = power_law_graph(p);
    } else if (!flags.get_string("dataset").empty()) {
        a = make_dataset(flags.get_string("dataset"));
    } else {
        fatal("provide --dataset=<name> or --powerlaw=<nodes>");
    }
    a.normalize_gcn();

    int f[3] = {0, 0, 0};
    char extra = 0;
    if (std::sscanf(flags.get_string("model").c_str(), "%d-%d-%d%c", &f[0],
                    &f[1], &f[2], &extra) != 3 ||
        *std::min_element(f, f + 3) <= 0 ||
        *std::max_element(f, f + 3) > 4096)
        fatal("--model wants three widths f-h-c in [1, 4096], got '" +
              flags.get_string("model") + "'");
    StorageMode precision = StorageMode::kF32;
    if (!parse_storage_mode(flags.get_string("precision").c_str(),
                            &precision))
        fatal("--precision wants f32 or bf16, got '" +
              flags.get_string("precision") + "'");
    const std::string &kernel = flags.get_string("kernel");
    if (kernel != "mergepath" && kernel != "hybrid")
        fatal("--kernel wants mergepath or hybrid, got '" + kernel + "'");

    constexpr int64_t kMaxWorkers = 256;
    int64_t workers = flags.get_int("workers");
    if (workers < 0 || workers > kMaxWorkers)
        fatal("--workers wants 0 to 256");
    if (workers == 0) {
        // hardware_concurrency() may be 0 when the count is unknown.
        const int64_t hw = std::thread::hardware_concurrency();
        workers = std::clamp<int64_t>(hw - 1, 1, kMaxWorkers);
    }
    WorkStealPool pool(static_cast<unsigned>(workers));
    GcnModel model = GcnModel::two_layer(f[0], f[1], f[2], 1, kernel);
    model.set_precision(precision);
    DenseMatrix x(a.rows(), f[0]);
    Pcg32 rng(static_cast<uint64_t>(flags.get_int("seed")));
    x.fill_random(rng);
    const DenseMatrix out = model.infer(a, x, pool);

    uint64_t h = 14695981039346656037ull;
    for (index_t r = 0; r < out.rows(); ++r) {
        const auto *bytes = reinterpret_cast<const unsigned char *>(out.row(r));
        for (size_t i = 0;
             i < static_cast<size_t>(out.cols()) * sizeof(value_t); ++i) {
            h ^= bytes[i];
            h *= 1099511628211ull;
        }
    }
    std::printf("fnv1a %016llx  %d x %d  %s %s %s seed %lld\n",
                static_cast<unsigned long long>(h), out.rows(), out.cols(),
                flags.get_string("model").c_str(),
                storage_mode_name(precision), kernel.c_str(),
                static_cast<long long>(flags.get_int("seed")));
    return 0;
}

void
usage(std::FILE *to)
{
    std::fprintf(
        to,
        "mps_tool <command> [flags]   (each command supports --help)\n"
        "  generate     materialize a Table II dataset\n"
        "  convert      convert between .bin / .mtx / .el containers\n"
        "  info         matrix statistics and degree histogram\n"
        "  schedule     build + inspect + store a merge-path schedule\n"
        "  spmm         run a kernel from the registry and time it\n"
        "  profile      kernel x dataset sweep into one JSON report\n"
        "  reorder      relabel a graph (bfs | degree | degree-asc)\n"
        "  serve-bench  serving load sweep into one JSON report\n"
        "  churn-bench  dynamic-graph churn sweep into one JSON report\n"
        "  top          live telemetry dashboard (scrapes /metrics)\n"
        "  hash         FNV-1a hash of a GCN forward's output\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(stderr);
        return 1;
    }
    std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "help") {
        usage(stdout);
        return 0;
    }
    // Shift the subcommand out of the argument list.
    if (cmd == "generate")
        return cmd_generate(argc - 1, argv + 1);
    if (cmd == "convert")
        return cmd_convert(argc - 1, argv + 1);
    if (cmd == "info")
        return cmd_info(argc - 1, argv + 1);
    if (cmd == "schedule")
        return cmd_schedule(argc - 1, argv + 1);
    if (cmd == "spmm")
        return cmd_spmm(argc - 1, argv + 1);
    if (cmd == "profile")
        return cmd_profile(argc - 1, argv + 1);
    if (cmd == "reorder")
        return cmd_reorder(argc - 1, argv + 1);
    if (cmd == "serve-bench")
        return cmd_serve_bench(argc - 1, argv + 1);
    if (cmd == "churn-bench")
        return cmd_churn_bench(argc - 1, argv + 1);
    if (cmd == "top")
        return cmd_top(argc - 1, argv + 1);
    if (cmd == "hash")
        return cmd_hash(argc - 1, argv + 1);
    std::fprintf(stderr, "mps_tool: unknown command '%s'\n", cmd.c_str());
    usage(stderr);
    return 1;
}
