/**
 * @file
 * The serving workloads: open-loop Poisson arrivals from one generator
 * (the calling thread) into a default-configured Server, one collector
 * thread resolving futures, and for serve-pubmed-churn one updater
 * thread streaming hot-tail edge deltas through Server::update_graph.
 *
 * Latency is timed from each request's SCHEDULED send time, so a stall
 * in the generator or the server is charged to every request it delays:
 * (submit start - due time) + InferenceResult::latency_ms. The gated
 * latency is the p10: on a shared virtual machine the median and the
 * tails moved with the host's load far more than it did between runs of
 * the same code. Capacity comes from a closed loop holding
 * kWindow requests in flight — the highest rate the server sustains
 * without a growing backlog.
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <pthread.h>
#include <sched.h>
#include <thread>

#include "e2e.h"
#include "mps/serve/server.h"
#include "mps/sparse/datasets.h"
#include "mps/util/metrics.h"
#include "mps/util/timer.h"
#include "mps/util/work_steal_pool.h"

namespace mps::e2e {

namespace {

enum SeedStream : uint64_t { kFeatures = 2, kArrivals = 4, kDeltas = 5 };

/** Fixed model weights: the deployment is fixed, requests vary. */
constexpr uint64_t kWeightSeed = 1;

/** Distinct feature matrices requests cycle through. */
constexpr int kTemplates = 4;
/** Requests in flight during the capacity phase (4 full batches). */
constexpr int kWindow = 32;
/**
 * Churn: every kUpdatePeriodMs one update_graph call inserts
 * kUpdateEdges / 2 hot-tail edges and removes the edges inserted
 * kLiveUpdates calls earlier. The graph keeps a steady size (base +
 * 12.8k edges) and the overlay still passes the 10% compaction ratio
 * about once in 40 calls; insert-only churn at this rate grew Pubmed
 * 2.8x within one run, so the end of a run served another graph.
 */
constexpr double kUpdatePeriodMs = 20.0;
constexpr int kUpdateEdges = 256;
constexpr size_t kLiveUpdates = 100;
constexpr int kVerifyRequests = 16;
/** Generator lateness (p99) above which a run does not count. */
constexpr double kMaxLateMs = 1.0;

/**
 * Nominal rates sit at about a fifth (Cora) and a third (Pubmed under
 * churn) of the capacity measured on a quiet 4-core host, and below half
 * of it when a busy host cut capacity 4x: latency then stays a service
 * time, not a queue that grows with the host's load.
 */
struct ServeShape
{
    const char *dataset;
    bool churn;
    double nominal_rps;
};

ServeShape
shape_of(const std::string &workload)
{
    if (workload == "serve-pubmed-churn")
        return {"Pubmed", true, 75.0};
    return {"Cora", false, 200.0};
}

/**
 * Scores one result: its rel_err against the reference of its feature
 * template, or infinity for a failed or malformed one.
 */
using Checker =
    std::function<double(const serve::InferenceResult &, int tmpl)>;

struct Inflight
{
    std::future<serve::InferenceResult> fut;
    double due_ms = 0.0;
    double submit_ms = 0.0;
    int tmpl = 0;
};

struct PhaseResult
{
    std::vector<double> latency_ms; ///< OK requests, from due time
    std::vector<double> late_ms;    ///< generator lateness per request
    int64_t attempted = 0;
    int64_t failed = 0;
    int64_t ok = 0;
    double worst_err = 0.0;
    std::vector<double> done_ms; ///< OK completions, on the phase clock
};

/**
 * Resolves the futures of one phase in submission order on its own
 * thread and scores every result.
 */
class Collector
{
  public:
    Collector(const Checker &check, double tolerance)
        : check_(check), tolerance_(tolerance), thread_([this] { loop(); })
    {
    }

    ~Collector() { finish(); }

    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    void push(Inflight f)
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            queue_.push_back(std::move(f));
            ++outstanding_;
        }
        cv_.notify_all();
    }

    /** Block until fewer than @p window requests are unresolved. */
    void wait_below(int window)
    {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return outstanding_ < window; });
    }

    /** Resolve everything pushed so far, stop the thread, report. */
    PhaseResult finish()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            closed_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
        return result_;
    }

  private:
    void loop()
    {
        for (;;) {
            Inflight f;
            {
                std::unique_lock<std::mutex> lk(mu_);
                cv_.wait(lk, [&] { return !queue_.empty() || closed_; });
                if (queue_.empty())
                    return;
                f = std::move(queue_.front());
                queue_.pop_front();
            }
            const serve::InferenceResult res = f.fut.get();
            const double err = check_(res, f.tmpl);
            ++result_.attempted;
            if (res.ok()) {
                ++result_.ok;
                result_.latency_ms.push_back(f.submit_ms - f.due_ms +
                                             res.latency_ms);
                result_.done_ms.push_back(f.submit_ms + res.latency_ms);
            }
            if (!(err <= tolerance_))
                ++result_.failed;
            result_.worst_err = std::max(result_.worst_err, err);
            {
                std::lock_guard<std::mutex> lk(mu_);
                --outstanding_;
            }
            cv_.notify_all();
        }
    }

    const Checker &check_;
    const double tolerance_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Inflight> queue_;
    int outstanding_ = 0;
    bool closed_ = false;
    PhaseResult result_;
    std::thread thread_;
};

/** What every phase needs to send and score requests. */
struct Load
{
    serve::Server *server = nullptr;
    uint64_t gid = 0;
    const std::vector<DenseMatrix> *templates = nullptr;
    Checker check;
    double tolerance = 0.0;
};

/**
 * The generator sleeps until this long before each send and spins the
 * rest. Waking a sleeping thread on a virtual machine took over 1 ms for
 * about one send in a hundred in some runs (a 0.2 ms margin put the
 * generator's p99 lateness at 1.2-1.5 ms there). At the Cora rate the
 * generator spins up to 2 ms of each 5 ms mean gap.
 */
constexpr double kGeneratorSpinMs = 2.0;
/** The updater's deadlines are not measured; it spins only briefly. */
constexpr double kUpdaterSpinMs = 0.2;

/** Sleep until @p spin_ms before @p due_ms, then spin. */
void
wait_until(const Timer &clock, double due_ms, double spin_ms)
{
    for (;;) {
        const double left = due_ms - clock.elapsed_ms();
        if (left <= 0.0)
            return;
        if (left > spin_ms + 0.1)
            std::this_thread::sleep_for(std::chrono::microseconds(
                static_cast<int64_t>((left - spin_ms) * 1e3)));
        else
            std::this_thread::yield();
    }
}

/**
 * Lowest real-time priority for the calling thread while in scope. The
 * generator stands in for clients on other machines; on this host it
 * shares the cores with the server, and a sleeping CFS thread can wait
 * milliseconds for a core that the server's spinning pool holds. Threads
 * the generator starts while in scope would inherit the policy, so it
 * starts none. Where the platform refuses, the thread keeps its policy
 * and the lateness check reports the consequence.
 */
class GeneratorPriority
{
  public:
    GeneratorPriority()
    {
        sched_param rt{};
        rt.sched_priority = 1;
        granted_ =
            pthread_getschedparam(pthread_self(), &policy_, &param_) == 0 &&
            pthread_setschedparam(pthread_self(), SCHED_FIFO, &rt) == 0;
    }

    ~GeneratorPriority()
    {
        if (granted_)
            pthread_setschedparam(pthread_self(), policy_, &param_);
    }

    GeneratorPriority(const GeneratorPriority &) = delete;
    GeneratorPriority &operator=(const GeneratorPriority &) = delete;

  private:
    int policy_ = SCHED_OTHER;
    sched_param param_{};
    bool granted_ = false;
};

/** Server::submit, timed from outside by the traced run's span. */
std::future<serve::InferenceResult>
submit(const Load &load, DenseMatrix feats)
{
    ScopedSpan s("bench.serve.submit", "bench");
    return load.server->submit(load.gid, std::move(feats));
}

const DenseMatrix &
template_of(const Load &load, int i)
{
    return (*load.templates)[static_cast<size_t>(i % kTemplates)];
}

/**
 * Open loop: Poisson arrivals at @p rps for @p seconds. Each request's
 * feature matrix is a copy (the server takes ownership), made ahead of
 * time while the generator has slack: a Pubmed copy takes longer than
 * many Poisson gaps, and copying on the send path would make the
 * generator, not the server, late.
 */
PhaseResult
open_loop(const Load &load, double rps, double seconds, Pcg32 &rng)
{
    constexpr size_t kLookahead = 8;
    constexpr double kCopySlackMs = 2.0;
    Collector col(load.check, load.tolerance);
    const GeneratorPriority priority; // after the collector thread starts
    std::vector<double> late;
    std::deque<DenseMatrix> ready; // features of requests i, i+1, ...
    int prepared = 0;
    Timer clock;
    double due = 0.0;
    for (int i = 0;; ++i) {
        due += -std::log(1.0 - rng.next_double()) * 1e3 / rps;
        if (due >= seconds * 1e3)
            break;
        while (ready.empty() ||
               (ready.size() < kLookahead &&
                due - clock.elapsed_ms() > kCopySlackMs))
            ready.push_back(template_of(load, prepared++));
        wait_until(clock, due, kGeneratorSpinMs);
        Inflight f;
        f.due_ms = due;
        f.submit_ms = clock.elapsed_ms();
        f.tmpl = i % kTemplates;
        f.fut = submit(load, std::move(ready.front()));
        ready.pop_front();
        late.push_back(f.submit_ms - f.due_ms);
        col.push(std::move(f));
    }
    PhaseResult r = col.finish();
    r.late_ms = std::move(late);
    return r;
}

/** Closed loop: keep kWindow requests in flight for @p seconds. */
PhaseResult
closed_loop(const Load &load, double seconds)
{
    Collector col(load.check, load.tolerance);
    Timer clock;
    for (int i = 0; clock.elapsed_ms() < seconds * 1e3; ++i) {
        DenseMatrix feats = template_of(load, i);
        col.wait_below(kWindow);
        Inflight f;
        f.tmpl = i % kTemplates;
        f.due_ms = f.submit_ms = clock.elapsed_ms();
        f.fut = submit(load, std::move(feats));
        col.push(std::move(f));
    }
    return col.finish();
}

/**
 * Streams hot-tail deltas into the server every kUpdatePeriodMs and
 * mirrors them into the benchmark's replica of the graph.
 */
class Updater
{
  public:
    Updater(serve::Server &server, uint64_t gid, DeltaCsr &replica,
            uint64_t seed)
        : server_(server), gid_(gid), replica_(replica), rng_(seed),
          thread_([this] { loop(); })
    {
    }

    ~Updater() { stop(); }

    Updater(const Updater &) = delete;
    Updater &operator=(const Updater &) = delete;

    void stop()
    {
        stop_.store(true, std::memory_order_release);
        if (thread_.joinable())
            thread_.join();
    }

    std::vector<double> latency_ms;
    int64_t failed = 0;

  private:
    void loop()
    {
        const index_t rows = replica_.rows();
        const index_t hot_begin = rows - std::max<index_t>(1, rows / 10);
        Timer clock;
        double next = 0.0;
        while (!stop_.load(std::memory_order_acquire)) {
            GraphDelta delta = hot_tail_delta(rng_, rows, replica_.cols(),
                                              hot_begin, kUpdateEdges / 2);
            live_.push_back(delta.upserts);
            if (live_.size() > kLiveUpdates) {
                delta.removes = std::move(live_.front());
                live_.pop_front();
            }
            Timer t;
            const bool ok = server_.update_graph(gid_, delta);
            latency_ms.push_back(t.elapsed_ms());
            if (!ok)
                ++failed;
            replica_.apply(delta);
            next += kUpdatePeriodMs;
            wait_until(clock, next, kUpdaterSpinMs);
        }
    }

    serve::Server &server_;
    uint64_t gid_;
    DeltaCsr &replica_;
    Pcg32 rng_;
    /** Upserts of the last kLiveUpdates calls, oldest first. */
    std::deque<std::vector<EdgeUpdate>> live_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

void
absorb(const PhaseResult &p, Record &rec, double *worst)
{
    rec.attempted += p.attempted;
    rec.failed += p.failed;
    *worst = std::max(*worst, p.worst_err);
}

/**
 * OK completions per second in each ~0.5 s window of the capacity phase.
 * Capacity is their median, so a host stall inside one window does not
 * move it.
 */
std::vector<double>
capacity_windows(const PhaseResult &p, double seconds)
{
    const auto windows = std::max<size_t>(
        1, static_cast<size_t>(std::lround(seconds / 0.5)));
    const double window_ms = seconds * 1e3 / static_cast<double>(windows);
    std::vector<double> rate(windows, 0.0);
    for (double t : p.done_ms) {
        const auto w = static_cast<size_t>(t / window_ms);
        if (w < windows)
            rate[w] += 1e3 / window_ms;
    }
    return rate;
}

std::vector<Reference>
references(const CsrMatrix &a, const std::vector<DenseMatrix> &templates,
           const std::vector<GcnLayer> &layers)
{
    WorkStealPool pool;
    std::vector<Reference> refs;
    for (const DenseMatrix &x : templates)
        refs.push_back(reference_forward(a, x, layers, pool));
    return refs;
}

} // namespace

void
run_serve_workload(const Options &opt, Record &rec)
{
    const ServeShape shape = shape_of(opt.workload);
    ModelInputs in;
    in.graph = make_dataset(shape.dataset);
    in.graph.normalize_gcn();
    in.layers.emplace_back(random_layer_weights(32, 16, kWeightSeed),
                           Activation::kRelu);
    in.layers.emplace_back(random_layer_weights(16, 8, kWeightSeed + 1),
                           Activation::kNone);
    in.precision = StorageMode::kF32;

    std::vector<DenseMatrix> templates;
    Pcg32 frng(derive_seed(opt.seed, kFeatures));
    for (int t = 0; t < kTemplates; ++t) {
        templates.emplace_back(in.graph.rows(), 32);
        templates.back().fill_random(frng);
    }
    in.features = templates.front();

    // Set-up: the user's cold start in this fresh process — Server
    // construction, register_graph and the first inference. The
    // references come after, so nothing before it has run a pool.
    Timer cold;
    auto server = std::make_unique<serve::Server>();
    const uint64_t gid = server->register_graph(in.graph, in.layers);
    const serve::InferenceResult first = server->infer(gid, templates[0]);
    const double setup_s = cold.elapsed_seconds();

    const std::vector<Reference> refs = references(
        in.graph,
        opt.setup_only ? std::vector<DenseMatrix>{templates[0]} : templates,
        in.layers);
    const double tol = rel_err_tolerance(in.precision);
    const index_t out_cols = in.layers.back().out_features();

    // A churned graph no longer matches the references while deltas
    // stream in: mid-stream results are checked for status, shape and
    // finiteness; the verification requests after quiescing are checked
    // against a reference of the final graph.
    const bool exact = !shape.churn;
    const Checker check = [&](const serve::InferenceResult &res, int tmpl) {
        constexpr double kInf = std::numeric_limits<double>::infinity();
        if (!res.ok())
            return kInf;
        if (exact)
            return rel_err(res.output, refs[static_cast<size_t>(tmpl)]);
        if (res.output.rows() != in.graph.rows() ||
            res.output.cols() != out_cols)
            return kInf;
        for (index_t r = 0; r < res.output.rows(); ++r)
            for (index_t c = 0; c < out_cols; ++c)
                if (!std::isfinite(res.output(r, c)))
                    return kInf;
        return 0.0;
    };

    // The first result precedes any delta: checked exactly.
    double worst = first.ok() ? rel_err(first.output, refs[0])
                              : std::numeric_limits<double>::infinity();
    ++rec.attempted;
    if (!(worst <= tol))
        ++rec.failed;
    if (opt.setup_only) {
        server->shutdown();
        rec.add("setup_s", setup_s, "s");
        return;
    }
    if (!reset_peak_rss())
        rec.invalid.push_back("cannot reset VmHWM");

    Load load;
    load.server = server.get();
    load.gid = gid;
    load.templates = &templates;
    load.check = check;
    load.tolerance = tol;

    Pcg32 arrivals(derive_seed(opt.seed, kArrivals));
    DeltaCsr replica(in.graph);
    std::unique_ptr<Updater> updater;
    const double s = opt.seconds;
    // Untraced: 10% warm-up, 45% at the nominal rate, 45% capacity.
    const double capacity_s = 0.45 * s;

    absorb(open_loop(load, shape.nominal_rps, 0.1 * s, arrivals), rec,
           &worst);
    if (shape.churn)
        updater = std::make_unique<Updater>(*server, gid, replica,
                                            derive_seed(opt.seed, kDeltas));

    // Untraced: the nominal rate, then capacity. Traced: the nominal rate
    // untraced, then traced; the difference is the tracing overhead.
    PhaseResult nominal, capacity, plain;
    if (!opt.traced) {
        nominal = open_loop(load, shape.nominal_rps, 0.45 * s, arrivals);
        capacity = closed_loop(load, capacity_s);
        absorb(capacity, rec, &worst);
    } else {
        plain = open_loop(load, shape.nominal_rps, 0.15 * s, arrivals);
        absorb(plain, rec, &worst);
        TraceSession::global().start();
        MetricsRegistry::global().set_enabled(true);
        nominal = open_loop(load, shape.nominal_rps, 0.25 * s, arrivals);
        MetricsRegistry::global().set_enabled(false);
    }
    absorb(nominal, rec, &worst);
    const double late = std::max(quantile(plain.late_ms, 0.99),
                                 quantile(nominal.late_ms, 0.99));
    if (late > kMaxLateMs)
        rec.invalid.push_back("load generator late: p99 " +
                              std::to_string(late) + " ms");
    rec.add("bench.loadgen_late_p99_ms", late, "ms",
            static_cast<int64_t>(plain.late_ms.size() +
                                 nominal.late_ms.size()));
    if (updater != nullptr) {
        updater->stop();
        rec.attempted += static_cast<int64_t>(updater->latency_ms.size());
        rec.failed += updater->failed;
    }

    if (shape.churn) {
        // Quiesced: check the served graph against a reference of the
        // replica that saw the same delta stream.
        const std::vector<Reference> final_refs =
            references(replica.materialize(), templates, in.layers);
        std::vector<std::future<serve::InferenceResult>> futs;
        for (int i = 0; i < kVerifyRequests; ++i)
            futs.push_back(submit(load, template_of(load, i)));
        for (int i = 0; i < kVerifyRequests; ++i) {
            const serve::InferenceResult res = futs[static_cast<size_t>(i)].get();
            const double err =
                res.ok() ? rel_err(res.output,
                                   final_refs[static_cast<size_t>(
                                       i % kTemplates)])
                         : std::numeric_limits<double>::infinity();
            ++rec.attempted;
            if (!(err <= tol))
                ++rec.failed;
            worst = std::max(worst, err);
        }
    }

    const auto n_nominal = static_cast<int64_t>(nominal.latency_ms.size());
    if (!opt.traced) {
        const serve::ServerStats st = server->stats();
        server->shutdown();
        const std::vector<double> &lat = nominal.latency_ms;
        const std::vector<double> windows =
            capacity_windows(capacity, capacity_s);
        rec.add("setup_s", setup_s, "s");
        rec.add("latency_p10_ms", quantile(lat, 0.1), "ms", n_nominal);
        rec.add("latency_p50_ms", quantile(lat, 0.5), "ms", n_nominal);
        rec.add("latency_tail_ms", quantile(lat, 0.95), "ms", n_nominal);
        rec.add("latency_p99_ms", quantile(lat, 0.99), "ms", n_nominal);
        rec.add("throughput_per_s", quantile(windows, 0.5), "1/s",
                static_cast<int64_t>(windows.size()));
        rec.add("rel_err", worst, "ratio", rec.attempted);
        rec.add("peak_rss_mb", peak_rss_mb(), "MB");
        if (updater != nullptr) {
            const std::vector<double> &upd = updater->latency_ms;
            const auto n_upd = static_cast<int64_t>(upd.size());
            rec.add("update_p50_ms", quantile(upd, 0.5), "ms", n_upd);
            rec.add("update_p99_ms", quantile(upd, 0.99), "ms", n_upd);
            rec.add("serve.compactions",
                    static_cast<double>(st.graph_compactions), "count");
        }
        return;
    }

    // --- Traced: serve-layer numbers from the traced nominal phase,
    // then the per-layer probes at the observed batch width.
    const MetricsRegistry &metrics = MetricsRegistry::global();
    const MetricSnapshot wait = metrics.timer_value("serve.request.wait_ms");
    const MetricSnapshot exec = metrics.timer_value("serve.batch.exec_ms");
    const MetricSnapshot size = metrics.timer_value("serve.batch.size");
    server->shutdown();
    int64_t submits = 0;
    const double submit_ms = span_median_ms(
        TraceSession::global().events(), "bench.serve.submit", &submits);
    rec.add("serve.submit_us", 1e3 * submit_ms, "us", submits);
    rec.add("serve.queue_wait_ms_mean", wait.mean(), "ms", wait.count);
    rec.add("serve.batch_exec_ms_mean", exec.mean(), "ms", exec.count);
    rec.add("serve.batch_size_mean", size.mean(), "count", size.count);
    rec.add("bench.trace_overhead_frac",
            quantile(nominal.latency_ms, 0.5) /
                    quantile(plain.latency_ms, 0.5) -
                1.0,
            "ratio", n_nominal);

    const auto batch = std::max<index_t>(
        1, static_cast<index_t>(std::lround(size.mean())));
    WorkStealPool pool(std::max(1u, std::thread::hardware_concurrency() - 1));
    run_layer_probes(in, refs.front(), batch,
                     std::max(2u, std::thread::hardware_concurrency()),
                     0.2 * s, opt.seed, pool, rec);
    TraceSession::global().stop();
    if (!opt.trace_out.empty() &&
        !TraceSession::global().write_chrome_json_file(opt.trace_out))
        rec.invalid.push_back("cannot write " + opt.trace_out);
}

} // namespace mps::e2e
