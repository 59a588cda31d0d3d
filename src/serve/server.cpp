#include "mps/serve/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>

#include "mps/core/fusion.h"
#include "mps/core/hybrid.h"
#include "mps/core/locality.h"
#include "mps/core/microkernel.h"
#include "mps/core/policy.h"
#include "mps/core/spmm.h"
#include "mps/gcn/activation.h"
#include "mps/gcn/gemm.h"
#include "mps/sparse/quant.h"
#include "mps/util/log.h"
#include "mps/util/metrics.h"
#include "mps/util/trace.h"

namespace mps {
namespace serve {

namespace {

/**
 * Merge-path cost for a batch SpMM at effective dimension @p dim: the
 * CPU granularity rule (cpu_merge_path_cost) sized for the executing
 * pool. A server keeps many pools busy at once, so the 64x
 * oversubscription cap also bounds scheduling overhead on huge graphs,
 * and the power-of-two rounding keeps the schedule cache key stable
 * while edge churn drifts nnz — a compaction lands on the schedule
 * repair_for_update() migrated instead of missing the cache over a
 * one-edge cost change.
 */
index_t
serve_cost(const CsrMatrix &a, index_t dim, const WorkStealPool &pool)
{
    return cpu_merge_path_cost(a.rows(), a.nnz(), dim, pool.size());
}

/** Flow-event name connecting one request's spans across threads. */
constexpr const char *kRequestFlow = "serve.request";

/**
 * The batch executor prefers the two-phase hybrid schedule whenever
 * the cached row classification routes at least kHybridDenseFractionMin
 * of the nnz to dense bands — the same adaptive threshold AdaptiveSpmm
 * applies (mps/core/hybrid.h). Returns nullptr when hybrid dispatch is
 * off or the graph is not skewed enough; the caller then executes the
 * plain merge path. The hybrid entry shares the ScheduleCache with the
 * merge-path ones, so the classification is paid once per (graph, d).
 */
std::shared_ptr<const HybridSchedule>
preferred_hybrid(ScheduleCache &cache, const CsrMatrix &a, index_t cost)
{
    if (!hybrid_enabled())
        return nullptr;
    auto hs = cache.get_or_build_hybrid(a, cost, 0);
    if (hs != nullptr && hs->dense_fraction() >= kHybridDenseFractionMin)
        return hs;
    return nullptr;
}

/** ServerStats percentile block from a latency histogram snapshot. */
PercentileSummary
summary_from_histogram(const HistogramSnapshot &h)
{
    PercentileSummary s;
    s.count = static_cast<int64_t>(h.count);
    if (h.count == 0)
        return s;
    s.mean = h.mean();
    s.min = h.min;
    s.max = h.max;
    s.p50 = h.quantile(0.50);
    s.p95 = h.quantile(0.95);
    s.p99 = h.quantile(0.99);
    return s;
}

/**
 * Why @p delta cannot apply to an n x n graph, or "" when it can:
 * every edge must lie inside the graph and every upserted value must
 * be finite. DeltaCsr::apply() checks the same bounds as an internal
 * invariant, so a delta from a caller is screened here first.
 */
std::string
delta_error(const GraphDelta &delta, index_t n)
{
    const auto in_range = [n](const EdgeUpdate &e) {
        return e.row >= 0 && e.row < n && e.col >= 0 && e.col < n;
    };
    const auto edge = [](const char *kind, const EdgeUpdate &e) {
        return std::string(kind) + " (" + std::to_string(e.row) + ", " +
               std::to_string(e.col) + ")";
    };
    for (const EdgeUpdate &e : delta.upserts) {
        if (!in_range(e))
            return edge("upsert", e) + " is outside the " +
                   std::to_string(n) + "-node graph";
        if (!std::isfinite(e.value))
            return edge("upsert", e) + " has a non-finite value";
    }
    for (const EdgeUpdate &e : delta.removes)
        if (!in_range(e))
            return edge("remove", e) + " is outside the " +
                   std::to_string(n) + "-node graph";
    return {};
}

} // namespace

int
default_telemetry_port()
{
    const char *v = std::getenv("MPS_TELEMETRY_PORT");
    if (v == nullptr || *v == '\0')
        return -1;
    char *end = nullptr;
    const long parsed = std::strtol(v, &end, 10);
    if (end == v || *end != '\0' || parsed < 0 || parsed > 65535) {
        warn("MPS_TELEMETRY_PORT='" + std::string(v) +
             "' is not a port number; telemetry endpoint disabled");
        return -1;
    }
    return static_cast<int>(parsed);
}

Server::Server(ServeConfig config, ScheduleCache *cache)
    : config_(config),
      owned_cache_(cache == nullptr ? std::make_unique<ScheduleCache>()
                                    : nullptr),
      cache_(cache == nullptr ? owned_cache_.get() : cache),
      queue_(config_.queue_capacity), batcher_(config_.batch)
{
    MPS_CHECK(config_.num_workers >= 1, "num_workers must be >= 1");
    accepting_.store(true, std::memory_order_release);
    if (config_.autostart)
        start();
}

Server::~Server()
{
    shutdown();
}

uint64_t
Server::register_graph(CsrMatrix adjacency, std::vector<GcnLayer> layers)
{
    MPS_CHECK(adjacency.rows() == adjacency.cols(),
              "adjacency must be square, got ", adjacency.rows(), "x",
              adjacency.cols());
    MPS_CHECK(!layers.empty(), "a graph needs at least one layer");
    for (size_t l = 1; l < layers.size(); ++l) {
        MPS_CHECK(layers[l].in_features() == layers[l - 1].out_features(),
                  "layer ", l, " expects ", layers[l].in_features(),
                  " input features but layer ", l - 1, " produces ",
                  layers[l - 1].out_features());
    }
    auto ctx = std::make_shared<GraphContext>();
    ctx->dynamic = DeltaCsr(std::move(adjacency));
    if (config_.delta_compact_ratio > 0.0)
        ctx->dynamic.set_compact_ratio(config_.delta_compact_ratio);
    ctx->layers = std::make_shared<const std::vector<GcnLayer>>(
        std::move(layers));

    std::lock_guard<std::mutex> lk(graphs_mutex_);
    const uint64_t id = next_graph_id_++;
    graphs_.emplace(id, std::move(ctx));
    return id;
}

bool
Server::update_graph(uint64_t graph_id, const GraphDelta &delta)
{
    if (!accepting_.load(std::memory_order_acquire))
        return false;
    auto &metrics = MetricsRegistry::global();
    Timer timer;
    // One update at a time per server; the graphs lock is only taken
    // for the O(1) map reads/swap, so submit() and the dispatcher keep
    // running while the successor snapshot is built.
    std::lock_guard<std::mutex> update_lk(update_mutex_);
    std::shared_ptr<const GraphContext> old_ctx;
    {
        std::lock_guard<std::mutex> lk(graphs_mutex_);
        auto it = graphs_.find(graph_id);
        if (it == graphs_.end())
            return false;
        old_ctx = it->second;
    }
    const std::string error =
        delta_error(delta, old_ctx->adjacency().rows());
    if (!error.empty()) {
        warn("graph " + std::to_string(graph_id) +
             ": rejected edge delta: " + error);
        if (metrics.enabled())
            metrics.counter_add("serve.updates.rejected");
        return false;
    }

    auto ctx = std::make_shared<GraphContext>();
    ctx->dynamic = old_ctx->dynamic; // shares the base, copies overlay
    ctx->layers = old_ctx->layers;
    ctx->update_seq = old_ctx->update_seq + 1;
    ctx->dynamic.apply(delta);

    bool compacted = false;
    if (config_.update_policy == GraphUpdatePolicy::kRebuildEveryUpdate) {
        // Baseline: eager materialization; the next batch pays a full
        // schedule build against the new fingerprint.
        ctx->dynamic.compact();
        compacted = true;
    } else if (ctx->dynamic.needs_compaction()) {
        DeltaCsr::CompactResult cr = ctx->dynamic.compact();
        compacted = true;
        cache_->repair_for_update(*cr.old_base, *cr.new_base,
                                  cr.first_dirty_row);
    }

    {
        std::lock_guard<std::mutex> lk(graphs_mutex_);
        graphs_[graph_id] = ctx; // O(1) snapshot swap
    }
    {
        std::lock_guard<std::mutex> lk(stats_mutex_);
        ++graph_updates_;
        if (compacted)
            ++graph_compactions_;
    }
    if (metrics.enabled()) {
        metrics.counter_add("serve.graph_updates");
        if (compacted)
            metrics.counter_add("serve.graph_compactions");
        metrics.gauge_set("graph.delta_fraction",
                          ctx->dynamic.delta_fraction());
        metrics.timer_record_ms("serve.graph_update_ms",
                                timer.elapsed_ms());
    }
    return true;
}

double
Server::graph_delta_fraction(uint64_t graph_id) const
{
    std::lock_guard<std::mutex> lk(graphs_mutex_);
    auto it = graphs_.find(graph_id);
    return it == graphs_.end() ? 0.0
                               : it->second->dynamic.delta_fraction();
}

index_t
Server::graph_nnz(uint64_t graph_id) const
{
    std::lock_guard<std::mutex> lk(graphs_mutex_);
    auto it = graphs_.find(graph_id);
    return it == graphs_.end() ? 0 : it->second->dynamic.nnz();
}

std::future<InferenceResult>
Server::submit(uint64_t graph_id, DenseMatrix features, double timeout_ms)
{
    auto &metrics = MetricsRegistry::global();
    auto req = std::make_unique<PendingRequest>();
    req->graph_id = graph_id;
    req->request_id = next_request_id();
    req->features = std::move(features);
    req->timeout_ms =
        timeout_ms < 0.0 ? config_.default_timeout_ms : timeout_ms;
    std::future<InferenceResult> fut = req->promise.get_future();

    // Flow start: the 's' point inside this span is the tail of the
    // arrow chain that reappears at batch formation ('t') and batch
    // execution ('f') on other threads.
    ScopedSpan submit_span("serve.submit", "serve");
    TraceSession::global().record_flow(kRequestFlow, "serve", 's',
                                       req->request_id);

    if (metrics.enabled())
        metrics.counter_add("serve.requests.submitted");
    {
        std::lock_guard<std::mutex> lk(stats_mutex_);
        ++submitted_;
    }

    if (!accepting_.load(std::memory_order_acquire)) {
        req->fail(RequestStatus::kShutdown, "server is shutting down");
        return fut;
    }

    {
        std::lock_guard<std::mutex> lk(graphs_mutex_);
        auto it = graphs_.find(graph_id);
        if (it == graphs_.end()) {
            req->fail(RequestStatus::kUnknownGraph,
                      "graph id was never registered");
            return fut;
        }
        const GraphContext &g = *it->second;
        if (req->features.rows() != g.adjacency().rows() ||
            req->features.cols() != g.layers->front().in_features()) {
            std::ostringstream os;
            os << "feature shape " << req->features.rows() << "x"
               << req->features.cols() << " does not match expected "
               << g.adjacency().rows() << "x"
               << g.layers->front().in_features();
            req->fail(RequestStatus::kBadRequest, os.str());
            return fut;
        }
    }

    if (!queue_.try_push(std::move(req))) {
        if (config_.overflow == OverflowPolicy::kReject) {
            if (metrics.enabled())
                metrics.counter_add("serve.requests.rejected");
            {
                std::lock_guard<std::mutex> lk(stats_mutex_);
                ++rejected_;
            }
            req->fail(RequestStatus::kRejected,
                      "ingress queue full (reject policy)");
            return fut;
        }
        // Block policy: wait for the dispatcher to free a slot. The
        // periodic wakeup bounds the window of the full->empty race.
        std::unique_lock<std::mutex> lk(wake_mutex_);
        for (;;) {
            if (stopping_.load(std::memory_order_acquire)) {
                req->fail(RequestStatus::kShutdown,
                          "server shut down while waiting for queue "
                          "space");
                return fut;
            }
            if (queue_.try_push(std::move(req)))
                break;
            space_cv_.wait_for(lk, std::chrono::milliseconds(1));
        }
    }

    // Empty critical section: pairs with the dispatcher's checked wait
    // so a push between its check and its sleep cannot lose the wakeup.
    {
        std::lock_guard<std::mutex> lk(wake_mutex_);
    }
    work_cv_.notify_one();
    return fut;
}

InferenceResult
Server::infer(uint64_t graph_id, DenseMatrix features, double timeout_ms)
{
    return submit(graph_id, std::move(features), timeout_ms).get();
}

void
Server::start()
{
    bool expected = false;
    if (!started_.compare_exchange_strong(expected, true))
        return;

    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 4;
    const unsigned pool_threads =
        config_.pool_threads != 0
            ? config_.pool_threads * config_.num_workers
            : std::max(2u, hw);

    // One steal pool shared by every worker: the pool accepts
    // concurrent parallel_for submissions, so a worker executing a
    // small batch no longer strands the threads a private pool would
    // have reserved for it.
    pool_ = std::make_unique<WorkStealPool>(pool_threads);

    if (config_.telemetry_port >= 0) {
        TelemetryServer::Options opts;
        opts.port = config_.telemetry_port;
        opts.pre_scrape = [this] { publish_telemetry(); };
        telemetry_ = std::make_unique<TelemetryServer>(std::move(opts));
        if (!telemetry_->start())
            telemetry_.reset(); // bind failure: serve without telemetry
    }

    dispatcher_ = std::thread(&Server::dispatcher_loop, this);
    workers_.reserve(config_.num_workers);
    for (unsigned i = 0; i < config_.num_workers; ++i)
        workers_.emplace_back([this] { worker_loop(*pool_); });
}

void
Server::worker_loop(WorkStealPool &pool)
{
    for (;;) {
        // Going idle: count in and wake the dispatcher, so a group held
        // while every worker was busy leaves now. Counting in under
        // wake_mutex_ pairs with the dispatcher's checked wait, so the
        // wakeup cannot be lost.
        {
            std::lock_guard<std::mutex> lk(wake_mutex_);
            ++idle_workers_;
        }
        work_cv_.notify_one();

        Batch batch;
        {
            std::unique_lock<std::mutex> lk(batches_mutex_);
            batches_cv_.wait(lk, [this] {
                return !ready_batches_.empty() || batches_closed_;
            });
            if (ready_batches_.empty())
                return; // closed and drained
            batch = std::move(ready_batches_.front());
            ready_batches_.pop_front();
        }
        if (before_batch_hook_)
            before_batch_hook_();
        execute_batch(std::move(batch), pool);
    }
}

void
Server::drain_queue_into_batcher(int64_t now_us_val)
{
    auto &metrics = MetricsRegistry::global();
    RequestPtr req;
    bool popped = false;
    while (queue_.try_pop(req)) {
        popped = true;
        if (req->expired()) {
            if (metrics.enabled())
                metrics.counter_add("serve.requests.timed_out");
            {
                std::lock_guard<std::mutex> lk(stats_mutex_);
                ++timed_out_;
            }
            req->fail(RequestStatus::kTimeout,
                      "deadline expired while queued");
            continue;
        }
        batcher_.add(std::move(req), now_us_val);
    }
    if (metrics.enabled())
        metrics.gauge_set("serve.queue.depth",
                          static_cast<double>(queue_.size_approx()));
    if (popped && config_.overflow == OverflowPolicy::kBlock) {
        {
            std::lock_guard<std::mutex> lk(wake_mutex_);
        }
        space_cv_.notify_all();
    }
}

void
Server::hand_to_workers(std::vector<RequestPtr> requests,
                        const char *reason)
{
    auto &metrics = MetricsRegistry::global();
    if (reason != nullptr && metrics.enabled())
        metrics.counter_add(reason);
    Batch batch;
    batch.requests = std::move(requests);
    {
        // The snapshot the batch pins: a concurrent update_graph() swap
        // after this point doesn't affect requests already batched.
        std::lock_guard<std::mutex> lk(graphs_mutex_);
        auto it = graphs_.find(batch.requests.front()->graph_id);
        MPS_CHECK(it != graphs_.end(),
                  "batched request for unregistered graph");
        batch.graph = it->second;
    }
    TraceSession &trace = TraceSession::global();
    if (trace.active()) {
        // Flow step on the dispatcher thread: every member request's
        // arrow passes through this batch-formation slice.
        ScopedSpan span("serve.batch.form", "serve");
        for (const RequestPtr &req : batch.requests)
            trace.record_flow(kRequestFlow, "serve", 't',
                              req->request_id);
    }
    --idle_workers_;
    {
        std::lock_guard<std::mutex> lk(batches_mutex_);
        ready_batches_.push_back(std::move(batch));
    }
    batches_cv_.notify_one();
}

void
Server::dispatcher_loop()
{
    for (;;) {
        int64_t now = now_us();
        drain_queue_into_batcher(now);

        // Work-conserving: an idle worker takes the oldest group at
        // once, whatever its size. Holding a request back buys nothing
        // while a worker sits idle.
        while (batcher_.pending() > 0 && idle_workers_ > 0)
            hand_to_workers(batcher_.take_any(), "serve.batches.idle");

        // Every worker busy: groups coalesce until full or expired.
        const auto max_batch =
            static_cast<size_t>(batcher_.policy().max_batch);
        for (;;) {
            std::vector<RequestPtr> ready = batcher_.take_ready(now);
            if (ready.empty())
                break;
            const char *reason = ready.size() >= max_batch
                                     ? "serve.batches.full"
                                     : "serve.batches.expired";
            hand_to_workers(std::move(ready), reason);
        }

        if (stopping_.load(std::memory_order_acquire)) {
            drain_queue_into_batcher(now_us());
            while (batcher_.pending() > 0) {
                std::vector<RequestPtr> rest = batcher_.take_any();
                if (rest.empty())
                    break;
                hand_to_workers(std::move(rest), nullptr);
            }
            if (queue_.empty_approx() && batcher_.pending() == 0)
                break;
            continue; // a racing push landed: loop once more
        }

        // Sleep until new work arrives, a worker goes idle with work
        // pending, or the earliest batching deadline. The check under
        // wake_mutex_ pairs with submit()'s empty critical section and
        // worker_loop()'s count-in, so no wakeup is lost.
        std::unique_lock<std::mutex> lk(wake_mutex_);
        if (!queue_.empty_approx() ||
            stopping_.load(std::memory_order_acquire) ||
            (batcher_.pending() > 0 && idle_workers_ > 0))
            continue;
        if (batcher_.pending() == 0) {
            work_cv_.wait_for(lk, std::chrono::milliseconds(10));
        } else {
            const int64_t deadline = batcher_.next_deadline_us();
            const int64_t wait =
                std::min<int64_t>(deadline - now_us(), 10000);
            if (wait > 0)
                work_cv_.wait_for(lk, std::chrono::microseconds(wait));
        }
    }

    {
        std::lock_guard<std::mutex> lk(batches_mutex_);
        batches_closed_ = true;
    }
    batches_cv_.notify_all();
}

void
Server::execute_batch(Batch batch, WorkStealPool &pool)
{
    auto &metrics = MetricsRegistry::global();

    // Weed requests whose deadline passed while batched or handed off.
    std::vector<RequestPtr> live;
    live.reserve(batch.requests.size());
    for (RequestPtr &req : batch.requests) {
        if (req->expired()) {
            if (metrics.enabled())
                metrics.counter_add("serve.requests.timed_out");
            {
                std::lock_guard<std::mutex> lk(stats_mutex_);
                ++timed_out_;
            }
            req->fail(RequestStatus::kTimeout,
                      "deadline expired before execution");
            continue;
        }
        if (metrics.enabled())
            metrics.timer_record_ms("serve.request.wait_ms",
                                    req->since_submit.elapsed_ms());
        live.push_back(std::move(req));
    }
    if (live.empty())
        return;

    const GraphContext &graph = *batch.graph;
    const DeltaCsr &dyn = graph.dynamic;
    const CsrMatrix &a = graph.adjacency();
    const bool has_delta = dyn.num_dirty_rows() > 0;
    const index_t n = a.rows();
    const int k = static_cast<int>(live.size());

    if (metrics.enabled()) {
        metrics.counter_add("serve.batches");
        metrics.timer_record_ms("serve.batch.size", static_cast<double>(k));
    }
    {
        std::lock_guard<std::mutex> lk(stats_mutex_);
        ++batches_total_;
        batch_requests_total_ += k;
        max_batch_size_ = std::max<int64_t>(max_batch_size_, k);
    }
    ScopedSpan exec_span("serve.batch.exec", "serve");
    {
        // Flow finish: close each request's arrow on the executing
        // worker thread, inside the batch-exec slice.
        TraceSession &trace = TraceSession::global();
        for (const RequestPtr &req : live)
            trace.record_flow(kRequestFlow, "serve", 'f',
                              req->request_id);
    }
    MetricTimer exec_timer("serve.batch.exec_ms");

    // One fused sweep per layer over the batch's wide n x k*h layout:
    // column j*h + c holds request j's column c, so the sparse
    // traversal of A is paid once per batch at effective width k*h.
    // Layer 0 reads each request's own features; a later layer reads
    // request j's column block of the previous layer's wide output.
    DenseMatrix wide;
    for (const GcnLayer &layer : *graph.layers) {
        const index_t h = layer.out_features();
        const index_t in = layer.in_features();
        const DenseMatrix &w = layer.weights();
        const index_t wide_d = static_cast<index_t>(k) * h;
        const index_t cost = serve_cost(a, wide_d, pool);
        auto hsched = preferred_hybrid(*cache_, a, cost);
        std::shared_ptr<const MergePathSchedule> sched;
        if (hsched == nullptr)
            sched = cache_->get_or_build_with_cost(a, cost, 0);
        const SpmmLocality loc = default_fused_locality(
            a.cols(), wide_d, storage_elem_bytes(config_.precision));
        FusedLayerPlan fplan =
            hsched != nullptr ? FusedLayerPlan(a, wide_d, hsched, loc)
                              : FusedLayerPlan(a, wide_d, sched, loc);
        fplan.set_precision(config_.precision);

        // Each wide panel is produced on demand: a panel spanning
        // several requests' column blocks is assembled with one GEMM
        // per overlapping request, so XW is never materialized.
        const bool first = &layer == &graph.layers->front();
        DenseMatrix panel;
        const PanelSourceFn src = [&](index_t col0, index_t width) {
            // The GEMMs below store every element the sweep reads.
            if (panel.rows() != n || panel.cols() < width)
                panel = DenseMatrix::for_overwrite(n, width);
            for (index_t off = 0; off < width;) {
                const index_t j = (col0 + off) / h;
                const index_t local = (col0 + off) % h;
                const index_t take = std::min(width - off, h - local);
                const DenseMatrix &x =
                    first ? live[static_cast<size_t>(j)]->features : wide;
                dense_gemm_panel(x, first ? 0 : j * in, w, local, take,
                                 panel, off, pool);
                off += take;
            }
            // fresh: the assembled panel is rewritten per call, so a
            // quantizing plan re-encodes its panel columns.
            return PanelSource{&panel, 0, &panel, Freshness::kPanel};
        };

        // With a clean overlay the activation folds into the commit
        // sweep's row batches; with a dirty one it waits for the
        // per-panel correction, which needs the raw sums. run() stores
        // every element of out, so it is not zero-filled.
        DenseMatrix out = DenseMatrix::for_overwrite(n, wide_d);
        const PanelEpilogue epi =
            has_delta ? nullptr : activation_epilogue(layer.activation());
        PanelPostSweepFn post;
        if (has_delta) {
            post = [&](index_t col0, index_t width,
                       const PanelSource &psrc) {
                delta_correction_panel(dyn, *psrc.b, psrc.col_begin, out,
                                       col0, width, pool);
                apply_activation_panel(out, layer.activation(), col0,
                                       width);
            };
        }
        fplan.run(src, out, pool, epi, nullptr, post);
        wide = std::move(out);
    }

    // A lone request's result is the whole wide output: it moves out.
    // A batch's requests each get their column block copied out.
    const index_t h_out = graph.layers->back().out_features();
    for (int j = 0; j < k; ++j) {
        DenseMatrix out;
        if (k == 1) {
            out = std::move(wide);
        } else {
            out = DenseMatrix::for_overwrite(n, h_out);
            for (index_t r = 0; r < n; ++r)
                row_copy(out.row(r), wide.row(r) + j * h_out, h_out);
        }
        InferenceResult result;
        result.status = RequestStatus::kOk;
        result.output = std::move(out);
        result.latency_ms =
            live[static_cast<size_t>(j)]->since_submit.elapsed_ms();
        result.batch_size = k;
        if (metrics.enabled()) {
            metrics.histogram_record("serve.request.latency_ms",
                                     result.latency_ms);
            metrics.counter_add("serve.requests.completed");
        }
        record_completion(result.latency_ms);
        live[static_cast<size_t>(j)]->promise.set_value(
            std::move(result));
    }
}

void
Server::record_completion(double latency_ms)
{
    // The histogram has its own per-bucket atomics; only the counter
    // needs the stats mutex.
    latency_hist_.record(latency_ms);
    std::lock_guard<std::mutex> lk(stats_mutex_);
    ++completed_;
}

void
Server::shutdown()
{
    if (terminated_.exchange(true))
        return;

    accepting_.store(false, std::memory_order_release);
    if (!started_.load(std::memory_order_acquire))
        start(); // drain whatever tests queued before start()
    stopping_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lk(wake_mutex_);
    }
    work_cv_.notify_all();
    space_cv_.notify_all();

    if (dispatcher_.joinable())
        dispatcher_.join();
    for (std::thread &w : workers_) {
        if (w.joinable())
            w.join();
    }

    // A producer that passed the accepting_ check concurrently with
    // shutdown may have pushed after the dispatcher exited; no request
    // goes unanswered.
    RequestPtr straggler;
    while (queue_.try_pop(straggler))
        straggler->fail(RequestStatus::kShutdown,
                        "server shut down before execution");

    auto &metrics = MetricsRegistry::global();
    const PercentileSummary summary =
        summary_from_histogram(latency_hist_.snapshot());
    metrics.gauge_set("serve.latency.p50_ms", summary.p50);
    metrics.gauge_set("serve.latency.p95_ms", summary.p95);
    metrics.gauge_set("serve.latency.p99_ms", summary.p99);

    if (telemetry_ != nullptr)
        telemetry_->stop();
}

ServerStats
Server::stats() const
{
    std::lock_guard<std::mutex> lk(stats_mutex_);
    ServerStats s;
    s.submitted = submitted_;
    s.completed = completed_;
    s.rejected = rejected_;
    s.timed_out = timed_out_;
    s.batches = batches_total_;
    s.mean_batch_size =
        batches_total_ == 0
            ? 0.0
            : static_cast<double>(batch_requests_total_) /
                  static_cast<double>(batches_total_);
    s.max_batch_size = max_batch_size_;
    s.graph_updates = graph_updates_;
    s.graph_compactions = graph_compactions_;
    s.latency_ms = summary_from_histogram(latency_hist_.snapshot());
    return s;
}

void
Server::publish_telemetry()
{
    auto &metrics = MetricsRegistry::global();
    if (!metrics.enabled())
        return;
    metrics.gauge_set("serve.queue.depth",
                      static_cast<double>(queue_.size_approx()));
    metrics.gauge_set(
        "serve.workers.idle",
        static_cast<double>(std::max(0, idle_workers_.load())));
    {
        // Per-graph overlay pressure, labeled per OpenMetrics family
        // conventions (split into family + labels by the exporter).
        std::lock_guard<std::mutex> lk(graphs_mutex_);
        for (const auto &[id, ctx] : graphs_) {
            metrics.gauge_set("graph.delta_fraction{graph=\"" +
                                  std::to_string(id) + "\"}",
                              ctx->dynamic.delta_fraction());
        }
    }
    if (pool_ != nullptr)
        pool_->publish_imbalance(metrics);
}

} // namespace serve
} // namespace mps
