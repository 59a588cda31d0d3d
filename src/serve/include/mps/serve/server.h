/**
 * @file
 * Batched GCN inference server.
 *
 *   clients --> MpscQueue (lock-free, bounded) --> dispatcher thread
 *            --> Batcher (coalesce per graph) --> worker pool
 *            --> batched layer execution against cached schedules
 *
 * Dispatch is work-conserving. The dispatcher counts idle workers;
 * while one is idle it hands that worker the oldest pending group at
 * once, whatever its size, so a lone request never waits for
 * batch-mates. Only while every worker is busy do groups coalesce,
 * released when full (BatchPolicy::max_batch) or when their oldest
 * request has waited BatchPolicy::max_delay_us; a worker that frees
 * up wakes the dispatcher and takes the oldest held group at once.
 * DESIGN.md §6 has the measurements behind this policy.
 *
 * A registered graph owns its adjacency matrix, its GCN layer stack
 * and (through the ScheduleCache) its merge-path schedules. Workers
 * execute a batch of k requests — k = 1 included — as one fused
 * MergePath-SpMM sweep per layer over the wide n x k*h layout, where
 * column j*h + c is request j's column c. Each wide panel is built on
 * demand with one GEMM per request block it overlaps: layer 0 reads
 * each request's own features, a later layer reads request j's column
 * block of the previous layer's wide output. Each result is copied
 * out of its column block of the last layer. The sparse traversal of
 * A is thus paid once per batch instead of once per request, and the
 * schedule for each (graph, effective d) pair is built exactly once.
 *
 * Guarantees:
 *  - every accepted request's future resolves — with a result, or with
 *    an explicit kTimeout / kShutdown / kBadRequest error;
 *  - a full queue rejects (kRejected) or blocks, per OverflowPolicy;
 *  - shutdown() drains: queued and batched requests still execute;
 *  - update_graph() swaps an immutable graph snapshot: batches formed
 *    before the swap finish on the old graph, later ones see the new
 *    one, and the dispatch path never blocks on delta integration.
 *
 * Dynamic graphs: each registered graph is a DeltaCsr — edge deltas
 * accumulate in an overlay applied as a cheap correction pass after
 * the (schedule-stable) base SpMM; compaction and incremental schedule
 * repair happen lazily per GraphUpdatePolicy. Telemetry:
 * graph.delta_fraction, serve.graph_updates, serve.graph_compactions,
 * schedule.repairs / schedule.repair_ns (from repair_schedule).
 *
 * Metrics (all through the PR 1 registry, no-ops while disabled):
 *  serve.queue.depth (gauge), serve.batch.size (distribution),
 *  serve.batch.exec_ms / serve.request.wait_ms (timers),
 *  serve.request.latency_ms (histogram; full latency distribution,
 *  quantiles exported), serve.requests.{submitted,completed,rejected,
 *  timed_out} + serve.batches (counters), serve.batches.{idle,full,
 *  expired} (counters, one per release reason: an idle worker took
 *  it, it filled, or it waited out max_delay_us; the shutdown drain's
 *  batches count in none of them), serve.updates.rejected (counter,
 *  malformed edge deltas), serve.workers.idle (gauge, set by
 *  publish_telemetry), and serve.latency.p50_ms/.p95_ms/.p99_ms
 *  gauges published on shutdown.
 * The server additionally owns a private latency histogram so stats()
 * reports exact counts and quantiles even while the registry is
 * disabled.
 *
 * Telemetry endpoint: ServeConfig::telemetry_port >= 0 (or the
 * MPS_TELEMETRY_PORT environment variable) starts a TelemetryServer
 * on 127.0.0.1 whose GET /metrics renders the registry in OpenMetrics
 * form; each scrape first runs publish_telemetry() so derived gauges
 * (queue depth, pool imbalance) are fresh.
 *
 * Tracing: each request gets a process-unique id at submit; flow
 * events named "serve.request" connect its submit -> batch -> execute
 * path across threads in the exported Chrome trace.
 */
#ifndef MPS_SERVE_SERVER_H
#define MPS_SERVE_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "mps/core/schedule_cache.h"
#include "mps/gcn/layer.h"
#include "mps/serve/batcher.h"
#include "mps/serve/mpsc_queue.h"
#include "mps/serve/request.h"
#include "mps/serve/telemetry_server.h"
#include "mps/sparse/csr_matrix.h"
#include "mps/sparse/delta_csr.h"
#include "mps/util/histogram.h"
#include "mps/util/stats.h"
#include "mps/util/work_steal_pool.h"

namespace mps {
namespace serve {

/**
 * Telemetry port selected by the MPS_TELEMETRY_PORT environment
 * variable: the parsed port (0 = ephemeral) when set to a valid value,
 * -1 (disabled) when unset or invalid.
 */
int default_telemetry_port();

/** What a producer experiences when the bounded queue is full. */
enum class OverflowPolicy {
    kReject, ///< submit() resolves the future with kRejected
    kBlock,  ///< submit() waits for space (or shutdown)
};

/** How update_graph() integrates an edge delta. */
enum class GraphUpdatePolicy {
    /**
     * Delta-CSR overlay + lazy compaction + incremental schedule
     * repair: updates are O(delta), compactions amortized, cached
     * schedules migrate via repair_schedule() instead of rebuilding.
     */
    kIncremental,
    /**
     * Materialize a fresh CSR on every update and let the next batch
     * rebuild its schedules from scratch. The churn benchmark's
     * baseline: the rebuild cost lands on the serving path.
     */
    kRebuildEveryUpdate,
};

/** Server construction knobs. */
struct ServeConfig
{
    /** Bounded ingress queue slots (rounded up to a power of two). */
    size_t queue_capacity = 1024;
    /** Worker threads executing batches. */
    unsigned num_workers = 2;
    /**
     * Compute threads per server worker for the GEMM/SpMM inside a
     * batch; 0 sizes the shared pool to the hardware threads. All
     * workers submit concurrently into ONE WorkStealPool of
     * pool_threads * num_workers threads — concurrent parallel_for is
     * native to the steal pool, so batches share idle capacity
     * instead of each worker hoarding a private condvar pool.
     */
    unsigned pool_threads = 0;
    /** Coalescing policy (max_batch, max_delay_us). */
    BatchPolicy batch;
    /** Backpressure behaviour when the ingress queue is full. */
    OverflowPolicy overflow = OverflowPolicy::kReject;
    /** Default per-request deadline; <= 0 means none. */
    double default_timeout_ms = 0.0;
    /**
     * Aggregation operand precision of every batch this server
     * executes: kBf16 stores each batch's panel buffer reduced-width
     * for the SpMM gather, halving the gather's DRAM traffic;
     * accumulation and the commit protocol stay fp32, and the
     * delta-correction pass keeps reading the f32 master rows.
     * Defaults to the cached MPS_PRECISION parse (f32 unset), so
     * serving tenants opt in per process or per ServeConfig.
     */
    StorageMode precision = default_precision();
    /** Edge-delta integration strategy for update_graph(). */
    GraphUpdatePolicy update_policy = GraphUpdatePolicy::kIncremental;
    /**
     * Overlay compaction threshold (fraction of base nnz); <= 0 uses
     * MPS_DELTA_COMPACT_RATIO (default 0.10).
     */
    double delta_compact_ratio = 0.0;
    /**
     * TCP port of the embedded /metrics endpoint: >= 0 starts a
     * TelemetryServer on 127.0.0.1 at start() (0 = ephemeral, see
     * telemetry_port()). Defaults from MPS_TELEMETRY_PORT; -1 when the
     * variable is unset, i.e. no endpoint.
     */
    int telemetry_port = default_telemetry_port();
    /**
     * Start the dispatcher/workers in the constructor. Tests set this
     * false to fill the queue deterministically, then call start().
     */
    bool autostart = true;
};

/** Queue/latency snapshot for reports. */
struct ServerStats
{
    int64_t submitted = 0;
    int64_t completed = 0;
    int64_t rejected = 0;
    int64_t timed_out = 0;
    int64_t batches = 0;
    double mean_batch_size = 0.0;
    int64_t max_batch_size = 0;
    int64_t graph_updates = 0;     ///< update_graph() calls applied
    int64_t graph_compactions = 0; ///< updates that compacted the base
    PercentileSummary latency_ms; ///< completed requests only
};

/** Batched GCN inference server (one process-local instance). */
class Server
{
  public:
    /**
     * @param config serving knobs
     * @param cache  schedule store; nullptr gives the server a private
     *        cache. An external cache can be shared across servers
     *        (e.g. a benchmark sweep) so schedules build once.
     */
    explicit Server(ServeConfig config = {},
                    ScheduleCache *cache = nullptr);

    /** Graceful: equivalent to shutdown(). */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Register a graph and its model layers; returns the graph id used
     * by submit(). The adjacency matrix is expected GCN-normalized.
     * Layer widths must chain; the first layer's in_features fixes the
     * accepted feature width.
     */
    uint64_t register_graph(CsrMatrix adjacency,
                            std::vector<GcnLayer> layers);

    /**
     * Apply an edge delta to a registered graph with snapshot
     * semantics: a fresh immutable GraphContext is built off the
     * dispatch path and swapped in under the graphs lock in O(1) —
     * in-flight batches finish against the snapshot they were formed
     * on, new batches see the updated graph, and dispatch never stalls
     * on delta integration. Updates to the same server serialize on an
     * update mutex. Under the default kIncremental policy the delta
     * lands in the DeltaCsr overlay; when the overlay passes the
     * compaction ratio the base is rebuilt and every cached schedule
     * is migrated via incremental repair.
     *
     * A delta is validated before anything is copied: every upsert and
     * remove must name a row and column inside the graph, and every
     * upsert value must be finite. A malformed delta leaves the graph
     * untouched, logs the reason and counts serve.updates.rejected.
     *
     * @return false when @p graph_id was never registered, the server
     *         is shutting down, or @p delta is malformed.
     */
    bool update_graph(uint64_t graph_id, const GraphDelta &delta);

    /** Current overlay fraction of a graph (0.0 when clean/unknown). */
    double graph_delta_fraction(uint64_t graph_id) const;

    /** Logical nnz of a graph's base ∪ overlay (0 when unknown). */
    index_t graph_nnz(uint64_t graph_id) const;

    /**
     * Enqueue one inference request. The returned future always
     * resolves (see RequestStatus). @p timeout_ms < 0 selects the
     * config default; 0 disables the deadline for this request.
     */
    std::future<InferenceResult> submit(uint64_t graph_id,
                                        DenseMatrix features,
                                        double timeout_ms = -1.0);

    /** submit() + wait: convenience for examples and tools. */
    InferenceResult infer(uint64_t graph_id, DenseMatrix features,
                          double timeout_ms = -1.0);

    /** Start the dispatcher and workers (idempotent). */
    void start();

    /**
     * Stop accepting requests, drain the queue and batcher, execute
     * everything in flight, publish latency-percentile gauges, join
     * all threads. Idempotent.
     */
    void shutdown();

    /** Aggregate counters + latency percentiles so far. */
    ServerStats stats() const;

    /**
     * Publish the derived telemetry gauges (serve.queue.depth,
     * serve.workers.idle, the pool's imbalance gauges) into the global
     * registry. Runs before every /metrics scrape; safe to call any
     * time.
     */
    void publish_telemetry();

    /**
     * Bound port of the embedded /metrics endpoint, -1 when disabled
     * or not (yet) started. Resolves ephemeral (port 0) bindings.
     */
    int telemetry_port() const
    {
        return telemetry_ != nullptr ? telemetry_->port() : -1;
    }

    const ServeConfig &config() const { return config_; }

    /** The schedule store this server resolves schedules from. */
    ScheduleCache &schedule_cache() { return *cache_; }

  private:
    /**
     * One immutable graph snapshot. update_graph() never mutates a
     * published context — it builds a successor and swaps the map
     * entry, so a Batch's shared_ptr pins exactly the graph state its
     * requests were validated against. The DeltaCsr base is shared
     * across snapshots (shared_ptr inside), layers likewise; a
     * snapshot copy is O(overlay), not O(graph).
     */
    struct GraphContext
    {
        DeltaCsr dynamic;
        std::shared_ptr<const std::vector<GcnLayer>> layers;
        /** Monotone update counter (0 at registration). */
        uint64_t update_seq = 0;

        const CsrMatrix &adjacency() const { return dynamic.base(); }
    };

    struct Batch
    {
        std::shared_ptr<const GraphContext> graph;
        std::vector<RequestPtr> requests;
    };

    void dispatcher_loop();
    void worker_loop(WorkStealPool &pool);
    void execute_batch(Batch batch, WorkStealPool &pool);
    /**
     * Pins the graph snapshot @p requests (all for one graph) execute
     * against and queues them as one batch for the workers, taking one
     * from the idle-worker count. @p reason names the release-reason
     * counter (serve.batches.*) to bump, nullptr for none.
     */
    void hand_to_workers(std::vector<RequestPtr> requests,
                         const char *reason);
    void drain_queue_into_batcher(int64_t now_us);
    void record_completion(double latency_ms);
    int64_t now_us() const
    {
        return static_cast<int64_t>(epoch_.elapsed_us());
    }

    ServeConfig config_;
    std::unique_ptr<ScheduleCache> owned_cache_;
    ScheduleCache *cache_;

    std::map<uint64_t, std::shared_ptr<const GraphContext>> graphs_;
    uint64_t next_graph_id_ = 1;
    mutable std::mutex graphs_mutex_;
    /**
     * Serializes update_graph() calls. Held while the successor
     * snapshot is built (outside graphs_mutex_, so submit/dispatch
     * never wait on delta integration).
     */
    std::mutex update_mutex_;

    MpscQueue<RequestPtr> queue_;
    Batcher batcher_; // dispatcher-only
    Timer epoch_;

    /** Shared compute pool; every worker submits into it concurrently. */
    std::unique_ptr<WorkStealPool> pool_;

    /** Embedded /metrics endpoint; nullptr when disabled. */
    std::unique_ptr<TelemetryServer> telemetry_;

    // Producer->dispatcher wakeup + block-mode backpressure. The data
    // path stays lock-free: this mutex guards only sleeping/waking.
    std::mutex wake_mutex_;
    std::condition_variable work_cv_;  // dispatcher sleeps here
    std::condition_variable space_cv_; // kBlock producers sleep here

    // Dispatcher->worker handoff (small, rarely contended).
    std::mutex batches_mutex_;
    std::condition_variable batches_cv_;
    std::deque<Batch> ready_batches_;
    bool batches_closed_ = false;
    /**
     * Workers waiting for a batch minus batches queued for them: a
     * worker adds one each time it goes idle, hand_to_workers() takes
     * one. Negative while released batches outnumber waiting workers.
     */
    std::atomic<int> idle_workers_{0};

    /** Test-only: runs on a worker before each batch it executes. */
    std::function<void()> before_batch_hook_;
    friend class ServerTestPeer;

    std::thread dispatcher_;
    std::vector<std::thread> workers_;
    std::atomic<bool> started_{false};
    std::atomic<bool> accepting_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> terminated_{false};

    // Aggregate stats (guarded by stats_mutex_).
    mutable std::mutex stats_mutex_;
    int64_t submitted_ = 0;
    int64_t completed_ = 0;
    int64_t rejected_ = 0;
    int64_t timed_out_ = 0;
    int64_t batches_total_ = 0;
    int64_t batch_requests_total_ = 0;
    int64_t max_batch_size_ = 0;
    int64_t graph_updates_ = 0;
    int64_t graph_compactions_ = 0;
    /**
     * Completed-request latency distribution. Thread-safe on its own
     * (per-bucket atomics), records outside stats_mutex_; unlike the
     * old bounded sample ring it never drops samples, so quantiles
     * stay exact-to-bucket-resolution at any load.
     */
    LogHistogram latency_hist_;
};

} // namespace serve
} // namespace mps

#endif // MPS_SERVE_SERVER_H
