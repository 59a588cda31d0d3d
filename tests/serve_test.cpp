/**
 * Tests for the serving subsystem: Batcher coalescing policy (pure,
 * clock-injected), Server request lifecycle (validation, backpressure,
 * timeouts, graceful shutdown) and batched-execution correctness
 * against the sequential reference kernels.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "mps/core/spmm.h"
#include "mps/gcn/activation.h"
#include "mps/gcn/gemm.h"
#include "mps/gcn/layer.h"
#include "mps/serve/batcher.h"
#include "mps/serve/server.h"
#include "mps/sparse/delta_csr.h"
#include "mps/sparse/generate.h"
#include "mps/sparse/quant.h"
#include "mps/util/metrics.h"
#include "mps/util/rng.h"

namespace mps {
namespace serve {

/** Test-only access to a Server's dispatch internals. */
class ServerTestPeer
{
  public:
    /** Install a hook each worker runs before a batch; before start(). */
    static void
    set_before_batch_hook(Server &server, std::function<void()> hook)
    {
        server.before_batch_hook_ = std::move(hook);
    }

    /** True once the dispatcher has drained the ingress queue. */
    static bool
    ingress_empty(const Server &server)
    {
        return server.queue_.empty_approx();
    }
};

namespace {

/**
 * While closed, parks every worker that starts a batch inside the
 * server's before-batch hook, so a test can hold all workers busy.
 */
class WorkerGate
{
  public:
    std::function<void()>
    hook()
    {
        return [this] {
            std::unique_lock<std::mutex> lk(mutex_);
            if (!closed_)
                return;
            ++held_;
            cv_.notify_all();
            cv_.wait(lk, [this] { return !closed_; });
            --held_;
        };
    }

    void
    close()
    {
        std::lock_guard<std::mutex> lk(mutex_);
        closed_ = true;
    }

    void
    open()
    {
        {
            std::lock_guard<std::mutex> lk(mutex_);
            closed_ = false;
        }
        cv_.notify_all();
    }

    /** Block until @p n workers are parked. */
    void
    wait_held(int n)
    {
        std::unique_lock<std::mutex> lk(mutex_);
        cv_.wait(lk, [&] { return held_ >= n; });
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool closed_ = false;
    int held_ = 0;
};

/** Poll @p done every millisecond; false if it stays false for 10 s. */
template <typename Pred>
bool
eventually(Pred done)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

/**
 * Close @p gate and park every worker of @p server on a request of its
 * own, one at a time, so each worker holds exactly one. Returns the
 * holders' futures; they resolve once the gate opens.
 */
std::vector<std::future<InferenceResult>>
hold_every_worker(Server &server, WorkerGate &gate, uint64_t gid,
                  const DenseMatrix &features)
{
    gate.close();
    std::vector<std::future<InferenceResult>> holders;
    const int workers = static_cast<int>(server.config().num_workers);
    for (int i = 0; i < workers; ++i) {
        holders.push_back(server.submit(gid, features));
        gate.wait_held(i + 1);
    }
    return holders;
}

RequestPtr
make_request(uint64_t graph_id)
{
    auto r = std::make_unique<PendingRequest>();
    r->graph_id = graph_id;
    return r;
}

TEST(Batcher, FullGroupReadyImmediately)
{
    Batcher b({/*max_batch=*/3, /*max_delay_us=*/1000000});
    b.add(make_request(1), 100);
    b.add(make_request(1), 110);
    EXPECT_FALSE(b.has_ready(120));
    b.add(make_request(1), 120);
    EXPECT_TRUE(b.has_ready(120));
    std::vector<RequestPtr> batch = b.take_ready(120);
    EXPECT_EQ(batch.size(), 3u);
    EXPECT_EQ(b.pending(), 0u);
}

TEST(Batcher, DelayExpiryReleasesPartialGroup)
{
    Batcher b({/*max_batch=*/8, /*max_delay_us=*/200});
    b.add(make_request(1), 1000);
    EXPECT_FALSE(b.has_ready(1100));
    EXPECT_EQ(b.next_deadline_us(), 1200);
    EXPECT_TRUE(b.has_ready(1200));
    std::vector<RequestPtr> batch = b.take_ready(1200);
    EXPECT_EQ(batch.size(), 1u);
}

TEST(Batcher, SplitFrontCapsBatchAndKeepsOverflow)
{
    Batcher b({/*max_batch=*/4, /*max_delay_us=*/0});
    for (int i = 0; i < 10; ++i)
        b.add(make_request(1), 100 + i);
    EXPECT_EQ(b.pending(), 10u);
    EXPECT_EQ(b.take_ready(200).size(), 4u);
    EXPECT_EQ(b.pending(), 6u);
    EXPECT_EQ(b.take_ready(200).size(), 4u);
    EXPECT_EQ(b.take_ready(200).size(), 2u);
    EXPECT_EQ(b.pending(), 0u);
    EXPECT_TRUE(b.take_ready(200).empty());
}

TEST(Batcher, GraphsGroupSeparately)
{
    Batcher b({/*max_batch=*/2, /*max_delay_us=*/1000000});
    b.add(make_request(7), 10);
    b.add(make_request(9), 20);
    EXPECT_FALSE(b.has_ready(30)); // two singleton groups, neither full
    b.add(make_request(7), 30);
    std::vector<RequestPtr> batch = b.take_ready(30);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0]->graph_id, 7u);
    EXPECT_EQ(batch[1]->graph_id, 7u);
    EXPECT_EQ(b.pending(), 1u);
}

TEST(Batcher, TakeAnyFlushesRegardlessOfReadiness)
{
    Batcher b({/*max_batch=*/8, /*max_delay_us=*/1000000});
    b.add(make_request(1), 50);
    b.add(make_request(2), 10);
    // take_any picks the oldest group first.
    std::vector<RequestPtr> first = b.take_any();
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0]->graph_id, 2u);
    EXPECT_EQ(b.take_any().size(), 1u);
    EXPECT_TRUE(b.take_any().empty());
}

/** Small serving fixture: a power-law graph with a 2-layer model. */
class ServerFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        PowerLawParams p;
        p.nodes = 64;
        p.target_nnz = 512;
        p.max_degree = 16;
        p.seed = 5;
        p.value_mode = ValueMode::kGcnNormalized;
        graph_ = power_law_graph(p);
        layers_.emplace_back(random_layer_weights(8, 6, 21),
                             Activation::kRelu);
        layers_.emplace_back(random_layer_weights(6, 4, 22),
                             Activation::kNone);
        Pcg32 rng(77);
        features_ = DenseMatrix(graph_.rows(), 8);
        features_.fill_random(rng);
    }

    /** out = act(A * (x * W)) per layer, all-sequential reference. */
    DenseMatrix
    reference_forward(const DenseMatrix &x) const
    {
        return reference_forward(graph_, x);
    }

    /** The same reference against @p adjacency. */
    DenseMatrix
    reference_forward(const CsrMatrix &adjacency, const DenseMatrix &x) const
    {
        DenseMatrix cur = x;
        for (const GcnLayer &layer : layers_) {
            DenseMatrix xw(adjacency.rows(), layer.out_features());
            reference_gemm(cur, layer.weights(), xw);
            DenseMatrix out(adjacency.rows(), layer.out_features());
            reference_spmm(adjacency, xw, out);
            apply_activation(out, layer.activation());
            cur = std::move(out);
        }
        return cur;
    }

    /**
     * Non-zero edge upserts plus a removal on every 11th row: small
     * enough that the default compaction ratio leaves it in the overlay.
     */
    GraphDelta
    mixed_delta() const
    {
        Pcg32 rng(31);
        GraphDelta delta;
        const auto n = static_cast<uint32_t>(graph_.rows());
        for (int i = 0; i < 12; ++i)
            delta.upserts.push_back(
                {static_cast<index_t>(rng.next_below(n)),
                 static_cast<index_t>(rng.next_below(n)),
                 0.25f * static_cast<value_t>(1 + rng.next_below(3))});
        for (index_t r = 0; r < graph_.rows(); r += 11)
            if (graph_.degree(r) > 0)
                delta.removes.push_back(
                    {r, graph_.col_idx()[graph_.row_begin(r)], 0.0f});
        return delta;
    }

    CsrMatrix graph_;
    std::vector<GcnLayer> layers_;
    DenseMatrix features_;
};

TEST_F(ServerFixture, InferMatchesSequentialReference)
{
    Server server;
    uint64_t gid = server.register_graph(graph_, layers_);
    InferenceResult r = server.infer(gid, features_);
    ASSERT_EQ(r.status, RequestStatus::kOk);
    EXPECT_TRUE(r.output.approx_equal(reference_forward(features_)));
    EXPECT_GE(r.batch_size, 1);
    EXPECT_GT(r.latency_ms, 0.0);
}

/**
 * Every request of a k-request batch against its own reference: on a
 * clean graph and behind a dirty overlay of non-zero upserts and removes (the
 * wide-panel delta correction).
 */
TEST_F(ServerFixture, BatchedExecutionMatchesPerRequestResults)
{
    enum class Setup { kClean, kDelta };
    for (const Setup setup : {Setup::kClean, Setup::kDelta})
        for (const int k : {1, 3, 4, 8}) {
            SCOPED_TRACE(::testing::Message()
                         << "setup " << static_cast<int>(setup)
                         << ", k = " << k);
            ServeConfig cfg;
            cfg.batch.max_batch = k;
            cfg.batch.max_delay_us = 1000000; // only dispatch full batches
            cfg.autostart = false;
            Server server(cfg);
            uint64_t gid = server.register_graph(graph_, layers_);
            CsrMatrix adjacency = graph_;
            if (setup == Setup::kDelta) {
                DeltaCsr shadow(graph_);
                const GraphDelta delta = mixed_delta();
                shadow.apply(delta);
                ASSERT_TRUE(server.update_graph(gid, delta));
                ASSERT_GT(server.graph_delta_fraction(gid), 0.0);
                adjacency = shadow.materialize();
            }

            // Distinct inputs so cross-request mixups would be caught.
            Pcg32 rng(123);
            std::vector<DenseMatrix> inputs;
            std::vector<std::future<InferenceResult>> futures;
            for (int i = 0; i < k; ++i) {
                DenseMatrix x(graph_.rows(), 8);
                x.fill_random(rng);
                inputs.push_back(x);
                futures.push_back(server.submit(gid, std::move(x)));
            }
            server.start(); // burst-drains all k into one batch
            for (int i = 0; i < k; ++i) {
                InferenceResult r = futures[static_cast<size_t>(i)].get();
                ASSERT_EQ(r.status, RequestStatus::kOk) << r.message;
                EXPECT_EQ(r.batch_size, k);
                EXPECT_TRUE(r.output.approx_equal(reference_forward(
                    adjacency, inputs[static_cast<size_t>(i)])))
                    << "request " << i;
            }
            ServerStats stats = server.stats();
            EXPECT_EQ(stats.completed, k);
            EXPECT_EQ(stats.batches, 1);
            EXPECT_EQ(stats.max_batch_size, k);
        }
}

/**
 * A lone request's result is the batch's whole last-layer output,
 * moved out rather than copied: it equals, bit for bit, the copy of
 * column block 0 that a batch of two identical requests returns, and
 * its row padding is zero as a fresh matrix's is.
 */
TEST_F(ServerFixture, LoneRequestResultEqualsBatchedCopy)
{
    const auto serve = [&](int k) {
        ServeConfig cfg;
        cfg.batch.max_batch = k;
        cfg.batch.max_delay_us = 1000000;
        cfg.autostart = false;
        Server server(cfg);
        const uint64_t gid = server.register_graph(graph_, layers_);
        std::vector<std::future<InferenceResult>> futures;
        for (int i = 0; i < k; ++i)
            futures.push_back(server.submit(gid, features_));
        server.start();
        std::vector<InferenceResult> results;
        for (auto &f : futures)
            results.push_back(f.get());
        return results;
    };
    const InferenceResult lone = serve(1).front();
    const InferenceResult copied = serve(2).front();
    ASSERT_EQ(lone.status, RequestStatus::kOk) << lone.message;
    ASSERT_EQ(copied.status, RequestStatus::kOk) << copied.message;
    EXPECT_EQ(lone.batch_size, 1);
    EXPECT_EQ(copied.batch_size, 2);
    const DenseMatrix &got = lone.output;
    const DenseMatrix &want = copied.output;
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    ASSERT_EQ(got.padded_cols(), want.padded_cols());
    for (index_t r = 0; r < got.rows(); ++r)
        ASSERT_EQ(std::memcmp(got.row(r), want.row(r),
                              static_cast<size_t>(got.padded_cols()) *
                                  sizeof(value_t)),
                  0)
            << "row " << r;
}

/** Largest absolute error over the largest reference magnitude. */
double
rel_err(const DenseMatrix &got, const DenseMatrix &want)
{
    double worst = 0.0, scale = 0.0;
    for (index_t r = 0; r < want.rows(); ++r)
        for (index_t c = 0; c < want.cols(); ++c) {
            worst = std::max(worst,
                             std::abs(static_cast<double>(got(r, c)) -
                                      want(r, c)));
            scale = std::max(scale, std::abs(static_cast<double>(
                                        want(r, c))));
        }
    return worst / scale;
}

/**
 * A request's result must not depend on its batch-mates: request 0
 * shares a batch with a mate whose features are 1e4 times larger.
 */
TEST_F(ServerFixture, BatchMateDoesNotChangeResult)
{
    const DenseMatrix want = reference_forward(features_);
    DenseMatrix loud = features_;
    for (index_t r = 0; r < loud.rows(); ++r)
        for (index_t c = 0; c < loud.cols(); ++c)
            loud(r, c) *= 1e4f;
    for (const StorageMode mode : {StorageMode::kF32, StorageMode::kBf16}) {
        SCOPED_TRACE(::testing::Message()
                     << "precision " << static_cast<int>(mode));
        ServeConfig cfg;
        cfg.batch.max_batch = 2;
        cfg.batch.max_delay_us = 1000000;
        cfg.autostart = false;
        cfg.precision = mode;
        Server server(cfg);
        uint64_t gid = server.register_graph(graph_, layers_);
        auto quiet = server.submit(gid, features_);
        auto mate = server.submit(gid, loud);
        server.start();
        InferenceResult r = quiet.get();
        ASSERT_EQ(r.status, RequestStatus::kOk) << r.message;
        EXPECT_EQ(r.batch_size, 2);
        EXPECT_EQ(mate.get().status, RequestStatus::kOk);
        if (mode == StorageMode::kF32)
            EXPECT_TRUE(r.output.approx_equal(want));
        else
            EXPECT_LE(rel_err(r.output, want), 2e-2);
    }
}

TEST_F(ServerFixture, ValidationFailsFast)
{
    Server server;
    uint64_t gid = server.register_graph(graph_, layers_);

    InferenceResult unknown = server.infer(gid + 100, features_);
    EXPECT_EQ(unknown.status, RequestStatus::kUnknownGraph);

    DenseMatrix wrong(graph_.rows(), 5); // model wants 8 features
    InferenceResult bad = server.infer(gid, std::move(wrong));
    EXPECT_EQ(bad.status, RequestStatus::kBadRequest);

    // Valid requests still work afterwards.
    EXPECT_EQ(server.infer(gid, features_).status, RequestStatus::kOk);
}

TEST_F(ServerFixture, RejectPolicyFailsFastWhenQueueFull)
{
    ServeConfig cfg;
    cfg.queue_capacity = 2;
    cfg.overflow = OverflowPolicy::kReject;
    cfg.autostart = false; // no consumer: the queue must fill
    Server server(cfg);
    uint64_t gid = server.register_graph(graph_, layers_);

    auto f1 = server.submit(gid, features_);
    auto f2 = server.submit(gid, features_);
    auto f3 = server.submit(gid, features_);
    InferenceResult rejected = f3.get();
    EXPECT_EQ(rejected.status, RequestStatus::kRejected);

    server.shutdown(); // starts, drains, executes the two queued
    EXPECT_EQ(f1.get().status, RequestStatus::kOk);
    EXPECT_EQ(f2.get().status, RequestStatus::kOk);
    EXPECT_EQ(server.stats().rejected, 1);
}

TEST_F(ServerFixture, ExpiredRequestTimesOutInsteadOfExecuting)
{
    ServeConfig cfg;
    cfg.autostart = false;
    Server server(cfg);
    uint64_t gid = server.register_graph(graph_, layers_);
    auto f = server.submit(gid, features_, /*timeout_ms=*/1.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.shutdown();
    InferenceResult r = f.get();
    EXPECT_EQ(r.status, RequestStatus::kTimeout);
    EXPECT_EQ(server.stats().timed_out, 1);
}

TEST_F(ServerFixture, GracefulShutdownAnswersEveryQueuedRequest)
{
    ServeConfig cfg;
    cfg.batch.max_batch = 3;
    cfg.autostart = false;
    Server server(cfg);
    uint64_t gid = server.register_graph(graph_, layers_);

    std::vector<std::future<InferenceResult>> futures;
    for (int i = 0; i < 7; ++i)
        futures.push_back(server.submit(gid, features_));
    server.shutdown(); // must drain and execute all 7
    for (auto &f : futures)
        EXPECT_EQ(f.get().status, RequestStatus::kOk);
    EXPECT_EQ(server.stats().completed, 7);

    // After shutdown new requests resolve immediately with kShutdown.
    InferenceResult late = server.infer(gid, features_);
    EXPECT_EQ(late.status, RequestStatus::kShutdown);
}

TEST_F(ServerFixture, ConcurrentClientsAllComplete)
{
    ServeConfig cfg;
    cfg.batch.max_batch = 4;
    cfg.batch.max_delay_us = 500;
    Server server(cfg);
    uint64_t gid = server.register_graph(graph_, layers_);

    constexpr int kClients = 4;
    constexpr int kPerClient = 8;
    std::atomic<int> ok{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&] {
            for (int i = 0; i < kPerClient; ++i) {
                DenseMatrix x = features_;
                if (server.infer(gid, std::move(x)).status ==
                    RequestStatus::kOk)
                    ok.fetch_add(1);
            }
        });
    }
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(ok.load(), kClients * kPerClient);
    ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, kClients * kPerClient);
    EXPECT_EQ(stats.latency_ms.count, kClients * kPerClient);
    EXPECT_GT(stats.latency_ms.p99, 0.0);
}

TEST_F(ServerFixture, IdleWorkerDispatchesAtOnce)
{
    ServeConfig cfg;
    cfg.batch.max_delay_us = 10000000; // a held request would wait 10 s
    Server server(cfg);
    uint64_t gid = server.register_graph(graph_, layers_);
    for (int i = 0; i < 3; ++i) {
        Timer wall;
        InferenceResult r = server.infer(gid, features_);
        ASSERT_EQ(r.status, RequestStatus::kOk) << r.message;
        EXPECT_EQ(r.batch_size, 1);
        EXPECT_LT(wall.elapsed_ms(), 1000.0);
        EXPECT_TRUE(r.output.approx_equal(reference_forward(features_)));
    }
}

/**
 * With every worker held busy, k requests coalesce into one batch of k:
 * k = max_batch leaves as a full group while the workers are still
 * held, a smaller k leaves the moment a worker frees up, long before
 * max_delay_us.
 */
TEST_F(ServerFixture, BusyWorkersCoalesce)
{
    constexpr int kMaxBatch = 8;
    for (const int k : {3, kMaxBatch}) {
        SCOPED_TRACE(::testing::Message() << "k = " << k);
        WorkerGate gate;
        ServeConfig cfg;
        cfg.batch.max_batch = kMaxBatch;
        cfg.batch.max_delay_us = 10000000;
        cfg.autostart = false;
        Server server(cfg);
        ServerTestPeer::set_before_batch_hook(server, gate.hook());
        server.start();
        uint64_t gid = server.register_graph(graph_, layers_);

        auto holders = hold_every_worker(server, gate, gid, features_);
        std::vector<std::future<InferenceResult>> futures;
        for (int i = 0; i < k; ++i)
            futures.push_back(server.submit(gid, features_));
        // EXPECT, not ASSERT: returning with the gate closed would
        // leave shutdown() joining parked workers.
        EXPECT_TRUE(eventually(
            [&] { return ServerTestPeer::ingress_empty(server); }));
        Timer since_open;
        gate.open();

        for (auto &f : holders)
            EXPECT_EQ(f.get().batch_size, 1);
        for (auto &f : futures) {
            InferenceResult r = f.get();
            ASSERT_EQ(r.status, RequestStatus::kOk) << r.message;
            EXPECT_EQ(r.batch_size, k);
        }
        // The freed worker takes the held group; nobody waits 10 s.
        EXPECT_LT(since_open.elapsed_ms(), 1000.0);
        const ServerStats stats = server.stats();
        EXPECT_EQ(stats.batches,
                  static_cast<int64_t>(cfg.num_workers) + 1);
        EXPECT_EQ(stats.max_batch_size, k);
    }
}

TEST_F(ServerFixture, UpdateGraphRejectsMalformedDelta)
{
    MetricsRegistry &m = MetricsRegistry::global();
    m.reset();
    m.set_enabled(true);
    Server server;
    uint64_t gid = server.register_graph(graph_, layers_);
    const index_t nnz = server.graph_nnz(gid);
    const index_t n = graph_.rows();

    // Each bad delta also carries a valid upsert: nothing may land.
    const EdgeUpdate good{1, 2, 0.5f};
    GraphDelta negative_row, column_past_end, nan_value;
    negative_row.upserts = {good, {-1, 0, 1.0f}};
    column_past_end.upserts = {good};
    column_past_end.removes = {{0, n, 0.0f}};
    nan_value.upserts = {good, {3, 4, std::nanf("")}};
    for (const GraphDelta *bad :
         {&negative_row, &column_past_end, &nan_value}) {
        EXPECT_FALSE(server.update_graph(gid, *bad));
        EXPECT_EQ(server.graph_nnz(gid), nnz);
        EXPECT_EQ(server.graph_delta_fraction(gid), 0.0);
        InferenceResult r = server.infer(gid, features_);
        ASSERT_EQ(r.status, RequestStatus::kOk) << r.message;
        EXPECT_TRUE(r.output.approx_equal(reference_forward(features_)));
    }
    EXPECT_EQ(server.stats().graph_updates, 0);
    m.set_enabled(false);
    EXPECT_EQ(m.counter_value("serve.updates.rejected"), 3);
    m.reset();
}

TEST_F(ServerFixture, MetricsInstrumentTheServePath)
{
    MetricsRegistry &m = MetricsRegistry::global();
    m.reset();
    m.set_enabled(true);
    const auto workers_idle = [&](Server &server, int n) {
        return eventually([&] {
            server.publish_telemetry();
            return m.gauge_value("serve.workers.idle") == n;
        });
    };
    {
        Server server;
        uint64_t gid = server.register_graph(graph_, layers_);
        for (int i = 0; i < 3; ++i) {
            ASSERT_TRUE(workers_idle(server, 2));
            EXPECT_TRUE(server.infer(gid, features_).ok());
        }
        server.shutdown();
    }
    // Busy releases, both workers held: at max_delay_us = 10 s a pair
    // fills its group; at max_delay_us = 0 a lone request expires.
    for (const int64_t delay_us : {int64_t{10000000}, int64_t{0}}) {
        const char *reason =
            delay_us > 0 ? "serve.batches.full" : "serve.batches.expired";
        SCOPED_TRACE(reason);
        WorkerGate gate;
        ServeConfig cfg;
        cfg.batch.max_batch = 2;
        cfg.batch.max_delay_us = delay_us;
        cfg.autostart = false;
        Server server(cfg);
        ServerTestPeer::set_before_batch_hook(server, gate.hook());
        server.start();
        uint64_t gid = server.register_graph(graph_, layers_);
        ASSERT_TRUE(workers_idle(server, 2));
        auto futures = hold_every_worker(server, gate, gid, features_);
        for (int i = delay_us > 0 ? 2 : 1; i > 0; --i)
            futures.push_back(server.submit(gid, features_));
        EXPECT_TRUE(
            eventually([&] { return m.counter_value(reason) == 1; }));
        gate.open();
        for (auto &f : futures)
            EXPECT_TRUE(f.get().ok());
    }
    m.set_enabled(false);
    EXPECT_EQ(m.counter_value("serve.requests.submitted"), 10);
    EXPECT_EQ(m.counter_value("serve.requests.completed"), 10);
    EXPECT_EQ(m.counter_value("serve.batches"), 9);
    EXPECT_EQ(m.counter_value("serve.batches.idle"), 7);
    EXPECT_EQ(m.counter_value("serve.batches.full"), 1);
    EXPECT_EQ(m.counter_value("serve.batches.expired"), 1);
    EXPECT_GE(m.timer_value("serve.batch.size").count, 1);
    const MetricSnapshot lat =
        m.histogram_value("serve.request.latency_ms");
    EXPECT_GE(lat.count, 3);
    EXPECT_GT(lat.p99, 0.0);
    EXPECT_GE(lat.p99, lat.p50);
    EXPECT_GT(m.gauge_value("serve.latency.p50_ms"), 0.0);
    EXPECT_GE(m.gauge_value("serve.latency.p99_ms"),
              m.gauge_value("serve.latency.p50_ms"));
    m.reset();
}

} // namespace
} // namespace serve
} // namespace mps
