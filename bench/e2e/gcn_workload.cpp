/**
 * @file
 * The GCN inference workloads: repeated GcnModel::infer calls on one
 * graph, as an offline user runs them.
 *
 *  - gcn-powerlaw-f32: power-law graph, 16 -> 128 -> 16, f32. The SpMM
 *    dominates (f_in = 16 keeps the GEMM small), hub rows split across
 *    many merge-path threads, and the n x 128 operand exceeds the LLC.
 *  - gcn-amazon-bf16: com-Amazon, 128 -> 128 -> 16, bf16 operands. The
 *    GEMM is most of the forward and quantize runs.
 */
#include <algorithm>
#include <thread>

#include "e2e.h"
#include "mps/core/schedule_cache.h"
#include "mps/gcn/model.h"
#include "mps/serve/server.h"
#include "mps/sparse/datasets.h"
#include "mps/sparse/generate.h"
#include "mps/util/metrics.h"
#include "mps/util/timer.h"
#include "mps/util/work_steal_pool.h"

namespace mps::e2e {

namespace {

constexpr uint64_t kFeatureStream = 2; ///< see derive_seed()

/**
 * The deployment, graph and model weights, is fixed per workload like
 * the Table II datasets; --seed varies what users send (the features),
 * so the spread across seeds measures the program and the host.
 */
constexpr uint64_t kGraphSeed = 20;
constexpr uint64_t kWeightSeed = 1;

struct GcnShape
{
    index_t f_in, hidden, classes;
    StorageMode precision;
};

GcnShape
shape_of(const std::string &workload)
{
    if (workload == "gcn-amazon-bf16")
        return {128, 128, 16, StorageMode::kBf16};
    return {16, 128, 16, StorageMode::kF32};
}

CsrMatrix
make_graph(const Options &opt)
{
    CsrMatrix a;
    if (opt.workload == "gcn-amazon-bf16") {
        const DatasetSpec &spec = find_dataset_spec("com-Amazon");
        a = opt.smoke ? make_scaled_dataset(spec, 100) : make_dataset(spec);
    } else {
        PowerLawParams p;
        p.nodes = opt.smoke ? 3000 : 250000;
        p.target_nnz = p.nodes * 10;
        p.max_degree = p.nodes / 10;
        p.seed = kGraphSeed;
        a = power_law_graph(p);
    }
    a.normalize_gcn();
    return a;
}

GcnModel
make_model(const GcnShape &s)
{
    GcnModel model = GcnModel::two_layer(s.f_in, s.hidden, s.classes,
                                         kWeightSeed, "mergepath");
    model.set_precision(s.precision);
    return model;
}

/** Workers of the compute pool: every core but the caller's. */
unsigned
pool_workers()
{
    return std::max(1u, std::thread::hardware_concurrency() - 1);
}

/** Check one output; count it as attempted, and as failed if off. */
void
check(const DenseMatrix &out, const Reference &ref, StorageMode precision,
      Record &rec, double *worst)
{
    const double err = rel_err(out, ref);
    ++rec.attempted;
    if (!(err <= rel_err_tolerance(precision)))
        ++rec.failed;
    *worst = std::max(*worst, err);
}

/** Time back-to-back infers for @p seconds (at least @p min_calls). */
std::vector<double>
timed_infers(GcnModel &model, WorkStealPool &pool, const ModelInputs &in,
             const Reference &ref, double seconds, int min_calls,
             const char *span, Record &rec, double *worst)
{
    std::vector<double> ms;
    Timer phase;
    while (phase.elapsed_seconds() < seconds ||
           static_cast<int>(ms.size()) < min_calls) {
        Timer t;
        DenseMatrix out;
        {
            ScopedSpan s(span, "bench");
            out = model.infer(in.graph, in.features, pool);
        }
        ms.push_back(t.elapsed_ms());
        check(out, ref, in.precision, rec, worst);
    }
    return ms;
}

/**
 * The serve layer on this workload's graph and model: a few
 * sequential requests through a default Server, timed from outside at
 * submit, plus the server's own wait / exec / batch-size timers.
 */
void
serve_probe(const ModelInputs &in, const Reference &ref, Record &rec,
            double *worst)
{
    MetricsRegistry &metrics = MetricsRegistry::global();
    metrics.set_enabled(true);
    serve::ServeConfig cfg;
    cfg.precision = in.precision;
    serve::Server server(cfg);
    const uint64_t gid = server.register_graph(in.graph, in.layers);
    for (int i = 0; i < 3; ++i) {
        DenseMatrix feats = in.features;
        std::future<serve::InferenceResult> fut;
        {
            ScopedSpan s("bench.serve.submit", "bench");
            fut = server.submit(gid, std::move(feats));
        }
        serve::InferenceResult res = fut.get();
        if (res.ok()) {
            check(res.output, ref, in.precision, rec, worst);
        } else {
            ++rec.attempted;
            ++rec.failed;
        }
    }
    server.shutdown();
    metrics.set_enabled(false);
}

} // namespace

void
run_gcn_workload(const Options &opt, Record &rec)
{
    const GcnShape shape = shape_of(opt.workload);
    ModelInputs in;
    in.graph = make_graph(opt);
    in.features = DenseMatrix(in.graph.rows(), shape.f_in);
    Pcg32 frng(derive_seed(opt.seed, kFeatureStream));
    in.features.fill_random(frng);
    {
        GcnModel proto = make_model(shape);
        in.layers = {proto.layer(0), proto.layer(1)};
    }
    in.precision = shape.precision;

    // Set-up: the user's cold start in this fresh process — the compute
    // pool, a schedule cache, the model and its first inference. The
    // reference comes after, so nothing before the set-up touches the
    // pool or the allocator's per-thread arenas.
    Timer cold;
    WorkStealPool pool(pool_workers());
    ScheduleCache cache;
    GcnModel model = make_model(shape);
    model.set_schedule_cache(&cache);
    const DenseMatrix first = model.infer(in.graph, in.features, pool);
    const double setup_s = cold.elapsed_seconds();

    const Reference ref =
        reference_forward(in.graph, in.features, in.layers, pool);
    double worst = 0.0;
    check(first, ref, in.precision, rec, &worst);
    if (opt.setup_only) {
        rec.add("setup_s", setup_s, "s");
        return;
    }
    if (!reset_peak_rss())
        rec.invalid.push_back("cannot reset VmHWM");

    const double s = opt.seconds;
    timed_infers(model, pool, in, ref, 0.0, 3, "bench.warmup", rec, &worst);
    if (!opt.traced) {
        const std::vector<double> ms = timed_infers(
            model, pool, in, ref, s, opt.smoke ? 3 : 10, "bench.infer", rec,
            &worst);
        const auto n = static_cast<int64_t>(ms.size());
        double total_ms = 0.0;
        for (double v : ms)
            total_ms += v;
        rec.add("setup_s", setup_s, "s");
        rec.add("latency_p10_ms", quantile(ms, 0.1), "ms", n);
        rec.add("latency_p50_ms", quantile(ms, 0.5), "ms", n);
        rec.add("latency_tail_ms", quantile(ms, 0.9), "ms", n);
        rec.add("throughput_per_s", 1e3 * static_cast<double>(n) / total_ms,
                "1/s", n);
        rec.add("rel_err", worst, "ratio", rec.attempted);
        rec.add("peak_rss_mb", peak_rss_mb(), "MB");
        return;
    }

    const std::vector<double> untraced = timed_infers(
        model, pool, in, ref, 0.1 * s, 3, "bench.infer", rec, &worst);

    TraceSession &trace = TraceSession::global();
    trace.start();
    const std::vector<double> traced = timed_infers(
        model, pool, in, ref, 0.1 * s, 3, "bench.infer", rec, &worst);
    run_layer_probes(in, ref, 1, pool_workers(), 0.4 * s, opt.seed, pool,
                     rec);
    serve_probe(in, ref, rec, &worst);
    trace.stop();

    const std::vector<TraceEvent> events = trace.events();
    const MetricsRegistry &metrics = MetricsRegistry::global();
    int64_t submits = 0;
    const double submit_ms =
        span_median_ms(events, "bench.serve.submit", &submits);
    rec.add("serve.submit_us", 1e3 * submit_ms, "us", submits);
    const MetricSnapshot wait = metrics.timer_value("serve.request.wait_ms");
    const MetricSnapshot exec = metrics.timer_value("serve.batch.exec_ms");
    const MetricSnapshot size = metrics.timer_value("serve.batch.size");
    rec.add("serve.queue_wait_ms_mean", wait.mean(), "ms", wait.count);
    rec.add("serve.batch_exec_ms_mean", exec.mean(), "ms", exec.count);
    rec.add("serve.batch_size_mean", size.mean(), "count", size.count);
    rec.add("bench.trace_overhead_frac",
            quantile(traced, 0.5) / quantile(untraced, 0.5) - 1.0, "ratio",
            static_cast<int64_t>(traced.size()));
    if (!opt.trace_out.empty() && !trace.write_chrome_json_file(opt.trace_out))
        rec.invalid.push_back("cannot write " + opt.trace_out);
}

} // namespace mps::e2e
