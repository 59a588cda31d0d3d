/**
 * @file
 * Persistent work-stealing parallel runtime.
 *
 * This is the scheduler every kernel dispatches through. It avoids the
 * per-call costs of a plain mutex/condvar pool — a condvar broadcast
 * per parallel_for, every worker contending on one shared fetch_add
 * cacheline, and a full wake/sleep round-trip even for tiny jobs —
 * which are the CPU transplant of the warp-scheduling waste the paper
 * eliminates on GPU (DESIGN.md §7b).
 *
 * Design:
 *  - Chunk ranges per executor. A parallel_for splits [0, n) into
 *    grain-sized chunks and statically partitions the chunks into one
 *    contiguous range per executor (workers + the calling thread).
 *    Merge-path schedules are already balanced, so in the common case
 *    every executor drains only its own range — an uncontended
 *    fetch_add on its own cacheline. Only when an executor runs dry
 *    does it steal from the ranges of stragglers (Chase–Lev-style
 *    owner/thief claims collapsed onto one cursor per range; thieves
 *    touch a range's cacheline only while actually stealing).
 *  - The caller participates. The submitting thread executes its own
 *    range (and steals) before waiting, so small jobs complete at
 *    memory speed without any wake/sleep round-trip at all.
 *  - Adaptive waiting. Idle workers spin on a job epoch for
 *    MPS_POOL_SPIN iterations (default 4096; 0 parks immediately),
 *    yield a few times, then park on a condvar. Back-to-back kernel
 *    launches — the serving hot path — never touch the condvar.
 *  - Concurrent and re-entrant submission. parallel_for may be called
 *    from many threads at once (each job occupies one of a fixed set
 *    of slots; workers service all active jobs). A call from inside a
 *    worker of the same pool degrades to inline execution.
 *  - No std::function. The templated parallel_for passes a pointer to
 *    the caller's lambda plus a monomorphized range invoker — no heap
 *    allocation and one indirect call per chunk rather than per index.
 *
 * Observability (all through the PR 1 registry, no-ops when disabled):
 * pool.dispatch_ms (timer; millisecond samples of the submit path),
 * pool.steals / pool.parks / pool.jobs / pool.inline_runs (counters).
 * Load-balance telemetry (the live analog of the paper's Fig. 8):
 * per-executor busy and steal durations per job class go into the
 * pool.worker.busy_ms.{small,medium,large} and .steal_ms.* histograms
 * (jobs too small to rebalance — fewer than two chunks per range —
 * are excluded so launch latency stays unperturbed), workers
 * accumulate cumulative busy time per slot, and publish_imbalance()
 * derives the pool.imbalance gauge (max/mean worker busy time) plus
 * per-worker pool.worker.busy_seconds{worker="i"} gauges. Workers
 * publish automatically before parking; scrape paths call it on
 * demand.
 *
 * Environment: MPS_POOL_SPIN (spin budget, read at pool construction),
 * MPS_PIN_THREADS=1 (pin worker i to core i mod hardware cores).
 */
#ifndef MPS_UTIL_WORK_STEAL_POOL_H
#define MPS_UTIL_WORK_STEAL_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mps {

/**
 * Persistent pool of steal-capable worker threads.
 *
 * parallel_for(n, fn) runs fn(i) for every i in [0, n) and returns when
 * all indices completed. Indices are grouped into grain-sized chunks;
 * grain 0 (the default) derives the chunk size from n and the pool
 * width so every executor gets ~8 chunks to start from and stragglers
 * can be stolen from.
 */
class WorkStealPool
{
  public:
    /** Range invoker: run indices [begin, end) against a context. */
    using RangeFn = void (*)(const void *ctx, uint64_t begin,
                             uint64_t end);

    /**
     * @param num_threads worker count; 0 selects hardware concurrency
     *        (minimum 2 so concurrency bugs surface on 1-core hosts).
     */
    explicit WorkStealPool(unsigned num_threads = 0);
    ~WorkStealPool();

    WorkStealPool(const WorkStealPool &) = delete;
    WorkStealPool &operator=(const WorkStealPool &) = delete;

    /**
     * Number of worker threads in the pool. Reads a count fixed before
     * the first worker starts, not workers_.size() — workers touch it
     * (via publish_imbalance) while the constructor is still emplacing
     * their std::thread handles.
     */
    unsigned size() const { return num_workers_; }

    /**
     * Upper bound on threads that can execute tasks of one
     * parallel_for: the workers plus the submitting caller. Kernels
     * size per-executor accumulator arrays with this (indexed by
     * current_slot()).
     */
    unsigned max_concurrency() const { return size() + 1; }

    /**
     * Stable executor index of the current thread for this pool:
     * workers report [0, size()), every other thread (in particular a
     * parallel_for caller participating in its own job) reports
     * size(). Within one parallel_for no two concurrently executing
     * tasks observe the same slot.
     */
    unsigned current_slot() const;

    /**
     * Run fn(i) for all i in [0, n); blocks until every index
     * finished. Safe to call from multiple threads concurrently; a
     * call from inside one of this pool's own workers runs inline.
     * @p grain indices are claimed per chunk; 0 auto-derives the
     * chunk size from n and the pool width.
     */
    template <class F>
    void parallel_for(uint64_t n, const F &fn, uint64_t grain = 0)
    {
        run(n, grain,
            [](const void *ctx, uint64_t begin, uint64_t end) {
                const F &f = *static_cast<const F *>(ctx);
                for (uint64_t i = begin; i < end; ++i)
                    f(i);
            },
            &fn);
    }

    /**
     * Chunk-granular variant: fn(begin, end) receives whole claimed
     * ranges, letting the body hoist per-chunk setup (accumulator
     * flushes, scratch lookups) out of the index loop.
     */
    template <class F>
    void parallel_for_ranges(uint64_t n, const F &fn, uint64_t grain = 0)
    {
        run(n, grain,
            [](const void *ctx, uint64_t begin, uint64_t end) {
                (*static_cast<const F *>(ctx))(begin, end);
            },
            &fn);
    }

    /** Process-wide default pool (lazily constructed, never destroyed
     *  before exit). */
    static WorkStealPool &global();

    /**
     * Publish the scheduler load-balance gauges derived from the
     * cumulative per-worker busy time: pool.imbalance (max/mean busy
     * across workers; 1.0 = perfectly even, 0 when idle) and one
     * pool.worker.busy_seconds{worker="i"} gauge per worker. No-op
     * while the registry is disabled. Called by workers before they
     * park and by scrape hooks (the /metrics endpoint).
     */
    void publish_imbalance(class MetricsRegistry &registry) const;
    void publish_imbalance() const;

  private:
    /** Concurrent in-flight jobs; further submissions run inline. */
    static constexpr unsigned kJobSlots = 8;
    /** Executor ranges per job (wider pools share ranges modulo). */
    static constexpr unsigned kMaxRanges = 65;

    /**
     * kFree -> kBuilding (submitter claimed it) -> kActive (published)
     * -> kDraining (every chunk done; waiting out registered workers)
     * -> kFree.
     */
    enum SlotState : uint32_t {
        kFree = 0,
        kBuilding = 1,
        kActive = 2,
        kDraining = 3,
    };

    /**
     * One executor's contiguous share of a job's chunks. The owner
     * claims with an uncontended fetch_add; thieves hit the same
     * cursor only while the owner is a straggler.
     */
    struct alignas(64) ChunkRange
    {
        std::atomic<uint64_t> next{0};
        uint64_t end = 0;
    };

    /** One in-flight parallel_for. Slots are pool-owned and recycled;
     *  they are never freed while the pool lives, so a worker holding
     *  a stale pointer can always safely read the state word. */
    struct JobSlot
    {
        std::atomic<uint32_t> state{kFree};
        /** Workers currently inside this slot; the submitter recycles
         *  the slot only once this drops to zero. */
        std::atomic<uint32_t> participants{0};
        std::atomic<uint64_t> completed{0};
        std::atomic<bool> caller_waiting{false};

        // Immutable while state == kActive.
        RangeFn invoke = nullptr;
        const void *ctx = nullptr;
        uint64_t n = 0;
        uint64_t grain = 1;
        uint64_t num_chunks = 0;
        uint32_t num_ranges = 0;
        ChunkRange ranges[kMaxRanges];
    };

    /** Per-executor cumulative busy time (own cacheline each). */
    struct alignas(64) ExecutorStat
    {
        std::atomic<uint64_t> busy_ns{0};
    };

    void run(uint64_t n, uint64_t grain, RangeFn invoke, const void *ctx);
    void worker_loop(unsigned id);
    bool scan_jobs(unsigned preferred_range, uint64_t &steals);
    bool work_on(JobSlot &slot, unsigned my_range, uint64_t &steals);
    void wait_job_done(JobSlot &slot);
    void finish_chunk(JobSlot &slot);

    unsigned num_workers_ = 0;
    std::vector<std::thread> workers_;
    std::unique_ptr<JobSlot[]> slots_;
    /** size() + 1 entries; the last aggregates external callers. */
    std::unique_ptr<ExecutorStat[]> executor_stats_;

    /** Bumped on every publish; idle workers spin on it. */
    std::atomic<uint64_t> epoch_{0};
    std::atomic<uint32_t> parked_{0};
    std::atomic<bool> shutdown_{false};

    uint32_t spin_budget_ = 4096;
    bool pin_threads_ = false;

    // Slow paths only: parking idle workers / a caller waiting on a
    // long tail. The claim/execute data path never takes a lock.
    std::mutex park_mutex_;
    std::condition_variable work_cv_;
    std::mutex done_mutex_;
    std::condition_variable done_cv_;
};

} // namespace mps

#endif // MPS_UTIL_WORK_STEAL_POOL_H
