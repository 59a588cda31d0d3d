/**
 * @file
 * Request coalescing. The Batcher holds requests the dispatcher has
 * drained from the ingress queue, grouped by graph id. One batch
 * becomes one wide SpMM per layer (feature columns concatenated),
 * which is where batching pays: the sparse traversal of A is
 * amortized over every request in the batch.
 *
 * The server's dispatch is work-conserving: while a worker is idle it
 * takes the oldest group at once (take_any), whatever its size, so an
 * idle worker never waits for batch-mates. Only while every worker is
 * busy does the release rule apply (take_ready): a group leaves
 * when it reaches max_batch requests or its oldest member has waited
 * max_delay_us, so the next batch forms while the current ones run.
 *
 * The Batcher is deliberately thread-free (the dispatcher is its only
 * caller) so the coalescing policy is unit-testable without timing.
 */
#ifndef MPS_SERVE_BATCHER_H
#define MPS_SERVE_BATCHER_H

#include <cstdint>
#include <map>
#include <vector>

#include "mps/serve/request.h"

namespace mps {
namespace serve {

/** Coalescing knobs. */
struct BatchPolicy
{
    /** Most requests coalesced into one batch (>= 1). */
    int max_batch = 8;
    /**
     * Longest a request may wait for batch-mates while every worker is
     * busy, in microseconds; a partial batch is released then. An idle
     * worker never waits: it takes the oldest group at once. 0
     * releases every group as soon as the dispatcher sees it.
     */
    int64_t max_delay_us = 200;
};

/** Per-graph accumulation of pending requests into dispatchable batches. */
class Batcher
{
  public:
    explicit Batcher(BatchPolicy policy);

    /** Add a drained request; @p now_us is the dispatcher's clock. */
    void add(RequestPtr request, int64_t now_us);

    /**
     * Earliest time a currently-pending group becomes ready by delay
     * expiry; int64_t max when nothing is pending. A full group is
     * ready immediately (its deadline is its arrival time).
     */
    int64_t next_deadline_us() const;

    /** True when some group is full or has waited out the delay. */
    bool has_ready(int64_t now_us) const;

    /**
     * Remove and return the ready batch whose oldest request has waited
     * longest; empty vector when none is ready. Call repeatedly to
     * collect all ready batches.
     */
    std::vector<RequestPtr> take_ready(int64_t now_us);

    /** Remove and return the oldest group regardless of readiness. */
    std::vector<RequestPtr> take_any();

    /** Requests currently held across all groups. */
    size_t pending() const { return pending_; }

    const BatchPolicy &policy() const { return policy_; }

  private:
    struct Group
    {
        std::vector<RequestPtr> requests;
        int64_t oldest_us = 0; ///< arrival time of the first member
    };

    bool group_ready(const Group &g, int64_t now_us) const;
    std::vector<RequestPtr>
    split_front(std::map<uint64_t, Group>::iterator it);

    BatchPolicy policy_;
    std::map<uint64_t, Group> groups_;
    size_t pending_ = 0;
};

} // namespace serve
} // namespace mps

#endif // MPS_SERVE_BATCHER_H
