/**
 * @file
 * First-fit persistent-heap allocator.
 *
 * The allocator hands out ranges of the PM heap region: each request
 * takes the lowest-address free range that is long enough. The free
 * ranges sit in an address-ordered tree whose nodes also hold the
 * longest range in their subtree, so first fit is one O(log n)
 * descent instead of a walk past every hole too small for the
 * request. Its metadata (free ranges, allocation table) is
 * deliberately volatile: the paper's recovery model reclaims regions
 * leaked by a crash-interrupted transaction with a garbage collector /
 * persistent inspector (Section IV-B, Pattern 1), so after a crash the
 * structure-specific recovery walks its roots, reports the set of
 * reachable allocations, and rebuild() reconstitutes the allocator
 * state — leaking nothing.
 */

#ifndef SLPMT_CORE_HEAP_HH
#define SLPMT_CORE_HEAP_HH

#include <algorithm>
#include <cstdint>
#include <ext/pb_ds/assoc_container.hpp>
#include <ext/pb_ds/tree_policy.hpp>
#include <map>
#include <unordered_map>
#include <vector>

#include "checkpoint/serde.hh"
#include "common/logging.hh"
#include "stats/stats.hh"
#include "common/types.hh"

namespace slpmt
{

/** One live allocation. */
struct AllocInfo
{
    Bytes size = 0;
    std::uint64_t txnSeq = 0;  //!< transaction that allocated it
};

/**
 * Tree node update for the free ranges: each node's metadata is the
 * longest range length in its subtree. The tree maintains it on
 * insert and erase only, so a range's length is never changed in
 * place.
 */
template <class NodeCItr, class NodeItr, class CmpFn, class Alloc>
struct LongestRangeUpdate
{
    using metadata_type = Bytes;

    void
    operator()(NodeItr node, NodeCItr end) const
    {
        Bytes longest = (*node)->second;
        if (const NodeCItr left = node.get_l_child(); left != end)
            longest = std::max(longest, left.get_metadata());
        if (const NodeCItr right = node.get_r_child(); right != end)
            longest = std::max(longest, right.get_metadata());
        const_cast<Bytes &>(node.get_metadata()) = longest;
    }
};

/** Volatile-metadata first-fit allocator over the PM heap range. */
class PersistentHeap
{
  public:
    PersistentHeap(Addr base, Bytes size, StatsRegistry &stats)
        : heapBase(base),
          heapSize(size),
          statAllocs(stats.counter("heap.allocs")),
          statFrees(stats.counter("heap.frees")),
          statGcReclaims(stats.counter("heap.gcReclaimedAllocs"))
    {
        freeRanges.insert({base, size});
    }

    /** Allocate @p size bytes, 8-byte aligned, from the lowest-address
     *  free range that fits. */
    Addr
    alloc(Bytes size, std::uint64_t txn_seq = 0)
    {
        const Bytes need = roundUp(size);
        const auto end = freeRanges.node_end();
        auto node = freeRanges.node_begin();
        if (node == end || node.get_metadata() < need)
            fatal("persistent heap exhausted");
        // Some range in this subtree fits: prefer the left (lower)
        // subtree, then this node; otherwise one fits on the right.
        for (;;) {
            const auto left = node.get_l_child();
            if (left != end && left.get_metadata() >= need)
                node = left;
            else if ((*node)->second >= need)
                break;
            else
                node = node.get_r_child();
        }
        const auto it = *node;
        const Addr addr = it->first;
        const Bytes remaining = it->second - need;
        freeRanges.erase(it);
        if (remaining > 0)
            freeRanges.insert({addr + need, remaining});
        live[addr] = {need, txn_seq};
        statAllocs++;
        return addr;
    }

    /** Release an allocation. */
    void
    free(Addr addr)
    {
        auto it = live.find(addr);
        panicIfNot(it != live.end(), "free of unknown allocation");
        releaseRange(addr, it->second.size);
        live.erase(it);
        statFrees++;
    }

    /** Is @p addr inside a live allocation? */
    bool
    isLive(Addr addr) const
    {
        auto it = live.upper_bound(addr);
        if (it == live.begin())
            return false;
        --it;
        return addr < it->first + it->second.size;
    }

    /** Base address of the live allocation containing @p addr. */
    Addr
    allocationBase(Addr addr) const
    {
        auto it = live.upper_bound(addr);
        panicIfNot(it != live.begin(), "address outside any allocation");
        --it;
        panicIfNot(addr < it->first + it->second.size,
                   "address outside any allocation");
        return it->first;
    }

    std::size_t liveCount() const { return live.size(); }

    Bytes
    liveBytes() const
    {
        Bytes total = 0;
        for (const auto &[addr, info] : live)
            total += info.size;
        return total;
    }

    /** Allocations created by transactions with seq > @p since. */
    std::vector<Addr>
    allocationsSince(std::uint64_t since) const
    {
        std::vector<Addr> out;
        for (const auto &[addr, info] : live) {
            if (info.txnSeq > since)
                out.push_back(addr);
        }
        return out;
    }

    /**
     * Post-crash garbage collection: keep exactly the allocations in
     * @p reachable (by base address), reclaim everything else.
     *
     * @return number of leaked allocations reclaimed
     */
    std::size_t
    rebuild(const std::vector<Addr> &reachable)
    {
        std::unordered_map<Addr, bool> keep;
        for (Addr a : reachable)
            keep[a] = true;
        std::size_t reclaimed = 0;
        for (auto it = live.begin(); it != live.end();) {
            if (keep.count(it->first)) {
                ++it;
            } else {
                releaseRange(it->first, it->second.size);
                it = live.erase(it);
                ++reclaimed;
            }
        }
        statGcReclaims += reclaimed;
        return reclaimed;
    }

    /** Crash loses nothing here — the *caller* decides what survives.
     *  The allocation table models durable structure walks, so it is
     *  retained; tests exercising true metadata loss use reset(). */
    void
    reset()
    {
        live.clear();
        freeRanges.clear();
        freeRanges.insert({heapBase, heapSize});
    }

    Addr base() const { return heapBase; }
    Bytes size() const { return heapSize; }

    /** @name Checkpointing (ordered trees: deterministic iteration) */
    /** @{ */
    void
    saveState(BlobWriter &w) const
    {
        w.u<std::uint64_t>(freeRanges.size());
        for (const auto &[addr, len] : freeRanges) {
            w.u<Addr>(addr);
            w.u<Bytes>(len);
        }
        w.u<std::uint64_t>(live.size());
        for (const auto &[addr, info] : live) {
            w.u<Addr>(addr);
            w.u<Bytes>(info.size);
            w.u<std::uint64_t>(info.txnSeq);
        }
    }

    void
    restoreState(BlobReader &r)
    {
        freeRanges.clear();
        live.clear();
        const std::size_t nfree = r.count(2 * sizeof(Addr));
        for (std::size_t i = 0; i < nfree; ++i) {
            const Addr addr = r.u<Addr>();
            freeRanges.insert({addr, r.u<Bytes>()});
        }
        const std::size_t nlive = r.count(3 * sizeof(Addr));
        for (std::size_t i = 0; i < nlive; ++i) {
            const Addr addr = r.u<Addr>();
            AllocInfo info;
            info.size = r.u<Bytes>();
            info.txnSeq = r.u<std::uint64_t>();
            live[addr] = info;
        }
    }
    /** @} */

  private:
    static Bytes
    roundUp(Bytes size)
    {
        return (size + wordSize - 1) / wordSize * wordSize;
    }

    void
    releaseRange(Addr addr, Bytes size)
    {
        // Coalesce with neighbours.
        auto next = freeRanges.lower_bound(addr);
        if (next != freeRanges.begin()) {
            auto prev = std::prev(next);
            if (prev->first + prev->second == addr) {
                addr = prev->first;
                size += prev->second;
                freeRanges.erase(prev);
            }
        }
        next = freeRanges.lower_bound(addr + size);
        if (next != freeRanges.end() && next->first == addr + size) {
            size += next->second;
            freeRanges.erase(next);
        }
        freeRanges.insert({addr, size});
    }

    Addr heapBase;
    Bytes heapSize;
    /** Free ranges, base -> length, with subtree-longest metadata. */
    using FreeRangeTree =
        __gnu_pbds::tree<Addr, Bytes, std::less<Addr>,
                         __gnu_pbds::rb_tree_tag, LongestRangeUpdate>;

    FreeRangeTree freeRanges;
    std::map<Addr, AllocInfo> live;     //!< base -> info

    StatsRegistry::Counter statAllocs;
    StatsRegistry::Counter statFrees;
    StatsRegistry::Counter statGcReclaims;
};

} // namespace slpmt

#endif // SLPMT_CORE_HEAP_HH
