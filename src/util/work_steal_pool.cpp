#include "mps/util/work_steal_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>

#include "mps/util/log.h"
#include "mps/util/metrics.h"
#include "mps/util/timer.h"
#include "mps/util/trace.h"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace mps {

namespace {

/** Identity of the current thread within at most one pool. */
struct TlsWorker
{
    const WorkStealPool *pool = nullptr;
    unsigned id = 0;
};

thread_local TlsWorker tls_worker;

inline void
cpu_pause()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
}

uint32_t
env_spin_budget()
{
    const char *v = std::getenv("MPS_POOL_SPIN");
    if (v == nullptr || *v == '\0')
        return 4096;
    char *end = nullptr;
    const long parsed = std::strtol(v, &end, 10);
    if (end == v || parsed < 0) {
        warn("MPS_POOL_SPIN='" + std::string(v) +
             "' is not a non-negative integer; using default 4096");
        return 4096;
    }
    return static_cast<uint32_t>(
        std::min<long>(parsed, 1L << 24)); // cap: ~ms of spinning
}

bool
env_pin_threads()
{
    const char *v = std::getenv("MPS_PIN_THREADS");
    if (v == nullptr)
        return false;
    const std::string s(v);
    return s == "1" || s == "true" || s == "on" || s == "yes";
}

void
pin_to_core(unsigned id)
{
#ifdef __linux__
    unsigned cores = std::thread::hardware_concurrency();
    if (cores == 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(id % cores, &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
    (void)id;
#endif
}

/**
 * Chunk size giving every executor ~8 chunks: enough granularity that
 * a straggler's range is worth stealing from, few enough that cursor
 * traffic stays negligible. The derivation from (n, pool width) is
 * what lets tiny jobs stay parallel and huge ones avoid over-chunking.
 */
uint64_t
auto_grain(uint64_t n, unsigned width)
{
    const uint64_t target_chunks =
        static_cast<uint64_t>(width + 1) * 8;
    return std::max<uint64_t>(1, (n + target_chunks - 1) / target_chunks);
}

/**
 * Job class for the per-worker duration histograms, by index count.
 * The bands separate launch-latency-bound jobs from traversal-bound
 * kernels so one distribution does not drown the other.
 */
const std::string &
busy_hist_name(uint64_t n)
{
    static const std::string small = "pool.worker.busy_ms.small";
    static const std::string medium = "pool.worker.busy_ms.medium";
    static const std::string large = "pool.worker.busy_ms.large";
    return n < (1u << 12) ? small : n < (1u << 20) ? medium : large;
}

const std::string &
steal_hist_name(uint64_t n)
{
    static const std::string small = "pool.worker.steal_ms.small";
    static const std::string medium = "pool.worker.steal_ms.medium";
    static const std::string large = "pool.worker.steal_ms.large";
    return n < (1u << 12) ? small : n < (1u << 20) ? medium : large;
}

} // namespace

WorkStealPool::WorkStealPool(unsigned num_threads)
    : slots_(new JobSlot[kJobSlots]),
      spin_budget_(env_spin_budget()),
      pin_threads_(env_pin_threads())
{
    if (num_threads == 0)
        num_threads = std::max(2u, std::thread::hardware_concurrency());
    num_workers_ = num_threads;
    executor_stats_.reset(new ExecutorStat[num_threads + 1]);
    workers_.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i)
        workers_.emplace_back([this, i] { worker_loop(i); });
}

WorkStealPool::~WorkStealPool()
{
    {
        std::lock_guard<std::mutex> lock(park_mutex_);
        shutdown_.store(true, std::memory_order_seq_cst);
    }
    work_cv_.notify_all();
    for (auto &t : workers_)
        t.join();
}

unsigned
WorkStealPool::current_slot() const
{
    return tls_worker.pool == this ? tls_worker.id : size();
}

/**
 * Drain one job's chunk ranges, own range first, then steal from the
 * others. Returns whether any chunk was executed.
 */
bool
WorkStealPool::work_on(JobSlot &slot, unsigned my_range, uint64_t &steals)
{
    MetricsRegistry &metrics = MetricsRegistry::global();
    // Balance telemetry costs three clock reads per participation, so
    // it is taken only when enabled AND the job is big enough to
    // rebalance at all (>= 2 chunks per range); launch-latency-bound
    // jobs stay on the bare path.
    const bool instrumented =
        metrics.enabled() &&
        slot.num_chunks >= 2 * static_cast<uint64_t>(slot.num_ranges);
    std::optional<Timer> clock;
    if (instrumented)
        clock.emplace();
    double own_ms = 0.0;

    bool did_work = false;
    bool stole = false;
    const uint32_t nranges = slot.num_ranges;
    for (uint32_t offset = 0; offset < nranges; ++offset) {
        if (instrumented && offset == 1)
            own_ms = clock->elapsed_ms();
        const uint32_t r = (my_range + offset) % nranges;
        ChunkRange &range = slot.ranges[r];
        for (;;) {
            // Pre-check keeps drained cursors from being bumped on
            // every scan (and keeps the fetch_add overrun bounded).
            if (range.next.load(std::memory_order_relaxed) >= range.end)
                break;
            const uint64_t chunk =
                range.next.fetch_add(1, std::memory_order_relaxed);
            if (chunk >= range.end)
                break;
            const uint64_t begin = chunk * slot.grain;
            const uint64_t end =
                std::min(begin + slot.grain, slot.n);
            slot.invoke(slot.ctx, begin, end);
            did_work = true;
            if (offset != 0) {
                ++steals;
                stole = true;
            }
            finish_chunk(slot);
        }
    }
    if (instrumented && did_work) {
        const double total_ms = clock->elapsed_ms();
        executor_stats_[current_slot()].busy_ns.fetch_add(
            static_cast<uint64_t>(total_ms * 1e6),
            std::memory_order_relaxed);
        metrics.histogram_record(busy_hist_name(slot.n), total_ms);
        if (stole)
            metrics.histogram_record(steal_hist_name(slot.n),
                                     total_ms - own_ms);
    }
    return did_work;
}

void
WorkStealPool::finish_chunk(JobSlot &slot)
{
    // The release on the final increment publishes every chunk's side
    // effects to the caller's acquire load in wait_job_done.
    const uint64_t done =
        slot.completed.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (done == slot.num_chunks &&
        slot.caller_waiting.load(std::memory_order_acquire)) {
        // Empty critical section pairs with the caller's checked wait
        // (wait_for additionally bounds the Dekker-style race window).
        {
            std::lock_guard<std::mutex> lock(done_mutex_);
        }
        done_cv_.notify_all();
    }
}

bool
WorkStealPool::scan_jobs(unsigned preferred_range, uint64_t &steals)
{
    bool did_work = false;
    for (unsigned s = 0; s < kJobSlots; ++s) {
        JobSlot &slot = slots_[s];
        if (slot.state.load(std::memory_order_acquire) != kActive)
            continue;
        // participants gates recycling: the submitter only rebuilds a
        // slot once no worker is inside it. Re-checking the state
        // after registering makes the pointer chase safe — the slot
        // may by now carry a different (but equally valid) job. Both
        // are seq_cst: they pair with the submitter's kDraining store
        // and participants load (see run()), so either it sees this
        // registration and waits, or this re-check sees kDraining.
        slot.participants.fetch_add(1, std::memory_order_seq_cst);
        if (slot.state.load(std::memory_order_seq_cst) == kActive) {
            did_work |=
                work_on(slot, preferred_range % slot.num_ranges, steals);
        }
        slot.participants.fetch_sub(1, std::memory_order_acq_rel);
    }
    return did_work;
}

void
WorkStealPool::worker_loop(unsigned id)
{
    tls_worker.pool = this;
    tls_worker.id = id;
    if (pin_threads_)
        pin_to_core(id);
    MetricsRegistry &metrics = MetricsRegistry::global();

    for (;;) {
        if (shutdown_.load(std::memory_order_acquire))
            return;
        // Epoch is sampled before scanning so a job published while we
        // scan is never missed by the wait below.
        const uint64_t seen = epoch_.load(std::memory_order_seq_cst);
        uint64_t steals = 0;
        const bool did_work = scan_jobs(id, steals);
        if (steals > 0 && metrics.enabled())
            metrics.counter_add("pool.steals",
                                static_cast<int64_t>(steals));
        if (did_work)
            continue;

        // Nothing claimable: spin -> yield -> park until a publish.
        uint32_t spins = spin_budget_;
        bool advanced = false;
        for (;;) {
            if (epoch_.load(std::memory_order_relaxed) != seen ||
                shutdown_.load(std::memory_order_relaxed)) {
                advanced = true;
                break;
            }
            if (spins == 0)
                break;
            --spins;
            cpu_pause();
        }
        if (!advanced) {
            for (int i = 0; i < 4 && !advanced; ++i) {
                std::this_thread::yield();
                advanced =
                    epoch_.load(std::memory_order_relaxed) != seen ||
                    shutdown_.load(std::memory_order_relaxed);
            }
        }
        if (advanced)
            continue;

        if (metrics.enabled()) {
            metrics.counter_add("pool.parks");
            // Going idle is the natural point to refresh the balance
            // gauges: the worker has just drained everything it could.
            publish_imbalance(metrics);
        }
        std::optional<Timer> idle;
        if (metrics.enabled())
            idle.emplace();
        // seq_cst on the parked_ increment pairs with the publisher's
        // epoch bump + parked_ load: at least one side always sees the
        // other, so no wakeup is lost.
        parked_.fetch_add(1, std::memory_order_seq_cst);
        {
            std::unique_lock<std::mutex> lock(park_mutex_);
            work_cv_.wait(lock, [&] {
                return shutdown_.load(std::memory_order_relaxed) ||
                       epoch_.load(std::memory_order_relaxed) != seen;
            });
        }
        parked_.fetch_sub(1, std::memory_order_relaxed);
        if (idle) {
            const double ms = idle->elapsed_ms();
            metrics.timer_record_ms("pool.idle_ms", ms);
            metrics.histogram_record("pool.worker.park_ms", ms);
        }
    }
}

void
WorkStealPool::run(uint64_t n, uint64_t grain, RangeFn invoke,
                   const void *ctx)
{
    if (n == 0)
        return;
    MetricsRegistry &metrics = MetricsRegistry::global();

    // Re-entrant submission from one of our own workers: the worker is
    // already an executor, so nesting degrades to inline execution.
    if (tls_worker.pool == this) {
        if (metrics.enabled())
            metrics.counter_add("pool.inline_runs");
        invoke(ctx, 0, n);
        return;
    }

    const unsigned width = size();
    if (grain == 0)
        grain = auto_grain(n, width);
    const uint64_t num_chunks = (n + grain - 1) / grain;
    if (num_chunks <= 1 || width == 0) {
        if (metrics.enabled())
            metrics.counter_add("pool.inline_runs");
        invoke(ctx, 0, n);
        return;
    }

    ScopedSpan span("pool.parallel_for", "pool");
    const bool instrumented = metrics.enabled();
    std::optional<Timer> dispatch;
    if (instrumented)
        dispatch.emplace();

    // Acquire a job slot; all-busy (deep concurrent submission) simply
    // degrades to inline execution.
    JobSlot *slot = nullptr;
    for (unsigned s = 0; s < kJobSlots; ++s) {
        uint32_t expected = kFree;
        if (slots_[s].state.compare_exchange_strong(
                expected, kBuilding, std::memory_order_acq_rel)) {
            slot = &slots_[s];
            break;
        }
    }
    if (slot == nullptr) {
        if (instrumented)
            metrics.counter_add("pool.inline_runs");
        invoke(ctx, 0, n);
        return;
    }

    // Static initial partition: one contiguous chunk range per
    // executor (workers + this caller). Executors start on their own
    // share and steal only from stragglers.
    const uint32_t num_ranges = static_cast<uint32_t>(std::min<uint64_t>(
        {static_cast<uint64_t>(width) + 1, num_chunks, kMaxRanges}));
    slot->invoke = invoke;
    slot->ctx = ctx;
    slot->n = n;
    slot->grain = grain;
    slot->num_chunks = num_chunks;
    slot->num_ranges = num_ranges;
    for (uint32_t r = 0; r < num_ranges; ++r) {
        slot->ranges[r].next.store(num_chunks * r / num_ranges,
                                   std::memory_order_relaxed);
        slot->ranges[r].end = num_chunks * (r + 1) / num_ranges;
    }
    slot->completed.store(0, std::memory_order_relaxed);
    slot->caller_waiting.store(false, std::memory_order_relaxed);
    slot->state.store(kActive, std::memory_order_release);

    // Publish. Spinning workers notice the epoch; parked ones need the
    // condvar (see worker_loop for the seq_cst pairing).
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_seq_cst) > 0) {
        {
            std::lock_guard<std::mutex> lock(park_mutex_);
        }
        work_cv_.notify_all();
    }
    if (instrumented) {
        metrics.timer_record_ms("pool.dispatch_ms",
                                dispatch->elapsed_ms());
        metrics.counter_add("pool.jobs");
    }

    // The caller is an executor too: drain the last range, then steal.
    uint64_t steals = 0;
    work_on(*slot, num_ranges - 1, steals);
    if (steals > 0 && instrumented)
        metrics.counter_add("pool.steals", static_cast<int64_t>(steals));

    wait_job_done(*slot);

    // Recycle: retire the job first, then wait out workers still
    // registered on the slot (they can only be leaving — every chunk
    // is done), then free it. Without kDraining a worker that loaded
    // kActive before the wait could register after it, pass its
    // re-check and read fields the next submitter is rewriting.
    slot->state.store(kDraining, std::memory_order_seq_cst);
    uint32_t spins = 0;
    while (slot->participants.load(std::memory_order_seq_cst) != 0) {
        if (++spins > 1024) {
            std::this_thread::yield();
            spins = 0;
        } else {
            cpu_pause();
        }
    }
    slot->state.store(kFree, std::memory_order_release);
}

void
WorkStealPool::wait_job_done(JobSlot &slot)
{
    uint32_t spins = spin_budget_;
    for (;;) {
        if (slot.completed.load(std::memory_order_acquire) ==
            slot.num_chunks)
            return;
        if (spins > 0) {
            --spins;
            cpu_pause();
            continue;
        }
        // Park until the finishing worker signals; the timed wait
        // bounds the set-flag/final-increment race window.
        std::unique_lock<std::mutex> lock(done_mutex_);
        slot.caller_waiting.store(true, std::memory_order_seq_cst);
        if (slot.completed.load(std::memory_order_seq_cst) ==
            slot.num_chunks)
            return;
        done_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
}

void
WorkStealPool::publish_imbalance(MetricsRegistry &metrics) const
{
    if (!metrics.enabled())
        return;
    // Workers only; the external-caller aggregate (slot size()) mixes
    // many threads and would distort the max/mean ratio.
    const unsigned n = size();
    uint64_t max_ns = 0;
    uint64_t total_ns = 0;
    for (unsigned i = 0; i < n; ++i) {
        const uint64_t busy =
            executor_stats_[i].busy_ns.load(std::memory_order_relaxed);
        max_ns = std::max(max_ns, busy);
        total_ns += busy;
        metrics.gauge_set("pool.worker.busy_seconds{worker=\"" +
                              std::to_string(i) + "\"}",
                          static_cast<double>(busy) * 1e-9);
    }
    const double mean_ns =
        n > 0 ? static_cast<double>(total_ns) / n : 0.0;
    metrics.gauge_set("pool.imbalance",
                      mean_ns > 0.0
                          ? static_cast<double>(max_ns) / mean_ns
                          : 0.0);
}

void
WorkStealPool::publish_imbalance() const
{
    publish_imbalance(MetricsRegistry::global());
}

WorkStealPool &
WorkStealPool::global()
{
    static WorkStealPool pool;
    return pool;
}

} // namespace mps
