/**
 * @file
 * Work-stealing thread pool shared by the crash-point sweeps, the
 * figure orchestrator and the service's shards.
 *
 * Items are fully independent — each owns its own simulated machine —
 * so the work is embarrassingly parallel, but per-item runtime varies
 * by an order of magnitude (a crash at store #3 replays almost
 * nothing; one at store #900 replays the whole trace). Static
 * partitioning would leave late-item workers dominating the wall
 * time, so each worker owns a deque of item indices: it pops from its
 * own back and, when empty, steals from the front of the busiest
 * victim. Results are written to caller-owned slots indexed by item,
 * keeping the output independent of the worker count and schedule.
 */

#ifndef SLPMT_COMMON_WORK_QUEUE_HH
#define SLPMT_COMMON_WORK_QUEUE_HH

#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace slpmt
{

/** One worker's deque of pending item indices. */
class StealableQueue
{
  public:
    void
    push(std::size_t item)
    {
        std::lock_guard<std::mutex> lock(mtx);
        items.push_back(item);
    }

    /** Owner takes the most recently pushed item (LIFO, cache-warm). */
    bool
    popBack(std::size_t *out)
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (items.empty())
            return false;
        *out = items.back();
        items.pop_back();
        return true;
    }

    /** A thief takes the oldest item (FIFO end, least contended). */
    bool
    stealFront(std::size_t *out)
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (items.empty())
            return false;
        *out = items.front();
        items.pop_front();
        return true;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mtx);
        return items.size();
    }

  private:
    mutable std::mutex mtx;
    std::deque<std::size_t> items;
};

namespace detail
{
/** Set on runWorkStealing's worker threads. */
inline thread_local bool onPoolWorker = false;
} // namespace detail

/**
 * Threads a new pool may use: one per hardware thread, but just the
 * caller's own on a thread that is already a pool worker. The outer
 * pool keeps the hardware busy, so a nested one (a service cell's
 * shards inside the figure orchestrator) would only oversubscribe it.
 */
inline std::size_t
poolThreadBudget()
{
    if (detail::onPoolWorker)
        return 1;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

/**
 * Run @p fn(item) for every item in [0, num_items) on @p num_workers
 * threads — the caller's own plus num_workers - 1 new ones — with
 * work stealing. Blocks until all items complete. The callable must
 * be thread-safe across distinct items and must not throw (wrap and
 * record failures per item instead).
 */
inline void
runWorkStealing(std::size_t num_workers, std::size_t num_items,
                const std::function<void(std::size_t)> &fn)
{
    if (num_workers <= 1 || num_items <= 1) {
        for (std::size_t i = 0; i < num_items; ++i)
            fn(i);
        return;
    }

    std::vector<StealableQueue> queues(num_workers);
    for (std::size_t i = 0; i < num_items; ++i)
        queues[i % num_workers].push(i);

    auto worker = [&](std::size_t self) {
        detail::onPoolWorker = true;
        std::size_t item;
        for (;;) {
            if (queues[self].popBack(&item)) {
                fn(item);
                continue;
            }
            // Steal from the victim with the most pending work.
            std::size_t victim = self;
            std::size_t best = 0;
            for (std::size_t q = 0; q < queues.size(); ++q) {
                if (q == self)
                    continue;
                const std::size_t n = queues[q].size();
                if (n > best) {
                    best = n;
                    victim = q;
                }
            }
            // Queue sizes only ever shrink, so seeing every queue
            // empty means no unclaimed work remains anywhere.
            if (best == 0)
                break;
            // A lost race against another thief: rescan for a victim.
            if (queues[victim].stealFront(&item))
                fn(item);
        }
    };

    // The caller works as worker 0 rather than idling in join(): one
    // thread fewer to start, and its allocations stay in the malloc
    // arena it already has instead of growing a fresh one.
    std::vector<std::thread> threads;
    threads.reserve(num_workers - 1);
    for (std::size_t w = 1; w < num_workers; ++w)
        threads.emplace_back(worker, w);
    const bool caller_was_worker = detail::onPoolWorker;
    worker(0);
    detail::onPoolWorker = caller_was_worker;
    for (auto &t : threads)
        t.join();
}

} // namespace slpmt

#endif // SLPMT_COMMON_WORK_QUEUE_HH
