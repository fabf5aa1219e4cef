/**
 * @file
 * Unit tests for the persistent-heap allocator: first-fit behaviour,
 * free-range coalescing, liveness queries, the post-crash GC
 * rebuild that reclaims transactions' leaked allocations, and a
 * lockstep referee against a linear-scan first-fit model.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <unordered_set>

#include "common/rng.hh"
#include "stats/stats.hh"
#include "core/heap.hh"

namespace slpmt
{
namespace
{

class HeapTest : public ::testing::Test
{
  protected:
    HeapTest() : heap(0x1000, 64 * 1024, stats) {}

    StatsRegistry stats;
    PersistentHeap heap;
};

TEST_F(HeapTest, AllocationsAreDisjointAndAligned)
{
    std::vector<std::pair<Addr, Bytes>> allocs;
    for (Bytes size : {8u, 24u, 40u, 100u, 7u, 1u}) {
        const Addr a = heap.alloc(size);
        EXPECT_EQ(a % wordSize, 0u);
        for (const auto &[b, s] : allocs) {
            const bool disjoint = a + size <= b || b + s <= a;
            EXPECT_TRUE(disjoint);
        }
        allocs.emplace_back(a, size);
    }
}

TEST_F(HeapTest, FirstFitReusesFreedHole)
{
    const Addr a = heap.alloc(64);
    heap.alloc(64);  // keep a barrier after the hole
    heap.free(a);
    EXPECT_EQ(heap.alloc(64), a);
}

TEST_F(HeapTest, FreeCoalescesNeighbours)
{
    const Addr a = heap.alloc(64);
    const Addr b = heap.alloc(64);
    const Addr c = heap.alloc(64);
    heap.alloc(64);  // barrier
    heap.free(a);
    heap.free(c);
    heap.free(b);  // middle: coalesces with both
    EXPECT_EQ(heap.alloc(192), a);
}

TEST_F(HeapTest, IsLiveAndAllocationBase)
{
    const Addr a = heap.alloc(40);
    EXPECT_TRUE(heap.isLive(a));
    EXPECT_TRUE(heap.isLive(a + 39));
    EXPECT_FALSE(heap.isLive(a + 40));
    EXPECT_EQ(heap.allocationBase(a + 10), a);
}

TEST_F(HeapTest, DoubleFreePanics)
{
    const Addr a = heap.alloc(8);
    heap.free(a);
    EXPECT_THROW(heap.free(a), PanicError);
}

TEST_F(HeapTest, ExhaustionIsFatal)
{
    heap.alloc(60 * 1024);
    EXPECT_THROW(heap.alloc(8 * 1024), FatalError);
}

TEST_F(HeapTest, GcReclaimsUnreachable)
{
    const Addr keep1 = heap.alloc(40, 1);
    const Addr leak1 = heap.alloc(40, 2);
    const Addr keep2 = heap.alloc(40, 2);
    const Addr leak2 = heap.alloc(40, 3);
    (void)leak1;
    (void)leak2;
    const std::size_t reclaimed = heap.rebuild({keep1, keep2});
    EXPECT_EQ(reclaimed, 2u);
    EXPECT_EQ(heap.liveCount(), 2u);
    EXPECT_TRUE(heap.isLive(keep1));
    EXPECT_FALSE(heap.isLive(leak1));
    // Reclaimed space is allocatable again.
    heap.alloc(40);
}

TEST_F(HeapTest, AllocationsSinceFiltersByTxn)
{
    heap.alloc(8, 5);
    const Addr b = heap.alloc(8, 9);
    const auto since = heap.allocationsSince(5);
    ASSERT_EQ(since.size(), 1u);
    EXPECT_EQ(since[0], b);
}

TEST_F(HeapTest, LiveBytesTracksRoundedSizes)
{
    heap.alloc(7);   // rounds to 8
    heap.alloc(40);
    EXPECT_EQ(heap.liveBytes(), 48u);
}

TEST_F(HeapTest, ResetReturnsToBlankSlate)
{
    heap.alloc(1024);
    heap.reset();
    EXPECT_EQ(heap.liveCount(), 0u);
    EXPECT_EQ(heap.alloc(1024), 0x1000u);
}

TEST_F(HeapTest, StressRandomAllocFree)
{
    StatsRegistry local;
    PersistentHeap heap(0x1000, 4 * 1024 * 1024, local);
    Rng rng(11);
    std::vector<std::pair<Addr, Bytes>> live;
    for (int i = 0; i < 5000; ++i) {
        if (live.empty() || rng.below(100) < 60) {
            const Bytes size = 8 + rng.below(256);
            const Addr a = heap.alloc(size);
            for (const auto &[b, s] : live) {
                ASSERT_TRUE(a + size <= b || b + s <= a)
                    << "overlapping allocation";
            }
            live.emplace_back(a, size);
        } else {
            const std::size_t idx = rng.below(live.size());
            heap.free(live[idx].first);
            live.erase(live.begin() + static_cast<long>(idx));
        }
    }
    EXPECT_EQ(heap.liveCount(), live.size());
}

/**
 * The referee: first fit as a linear scan of the free ranges from the
 * lowest address, with the allocator's coalescing, GC rebuild, reset
 * and checkpoint encoding. The indexed heap must agree with it on
 * every address and every checkpoint byte.
 */
class LinearFirstFit
{
  public:
    LinearFirstFit(Addr base, Bytes size) : base(base), size(size)
    {
        reset();
    }

    /** The allocated base, or nothing when no range fits. */
    std::optional<Addr>
    alloc(Bytes bytes, std::uint64_t txn_seq)
    {
        const Bytes need = (bytes + wordSize - 1) / wordSize * wordSize;
        for (auto it = freeRanges.begin(); it != freeRanges.end(); ++it) {
            if (it->second < need)
                continue;
            const Addr addr = it->first;
            const Bytes remaining = it->second - need;
            freeRanges.erase(it);
            if (remaining > 0)
                freeRanges[addr + need] = remaining;
            live[addr] = {need, txn_seq};
            return addr;
        }
        return std::nullopt;
    }

    void
    free(Addr addr)
    {
        release(addr, live.at(addr).size);
        live.erase(addr);
    }

    std::size_t
    rebuild(const std::vector<Addr> &reachable)
    {
        const std::unordered_set<Addr> keep(reachable.begin(),
                                            reachable.end());
        std::size_t reclaimed = 0;
        for (auto it = live.begin(); it != live.end();) {
            if (keep.count(it->first)) {
                ++it;
            } else {
                release(it->first, it->second.size);
                it = live.erase(it);
                ++reclaimed;
            }
        }
        return reclaimed;
    }

    void
    reset()
    {
        live.clear();
        freeRanges = {{base, size}};
    }

    /** PersistentHeap::saveState's encoding of this model. */
    std::vector<std::uint8_t>
    blob() const
    {
        BlobWriter w;
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
        return w.data();
    }

    std::map<Addr, AllocInfo> live;

  private:
    void
    release(Addr addr, Bytes bytes)
    {
        auto next = freeRanges.lower_bound(addr);
        if (next != freeRanges.begin()) {
            auto prev = std::prev(next);
            if (prev->first + prev->second == addr) {
                addr = prev->first;
                bytes += prev->second;
                freeRanges.erase(prev);
            }
        }
        next = freeRanges.lower_bound(addr + bytes);
        if (next != freeRanges.end() && next->first == addr + bytes) {
            bytes += next->second;
            freeRanges.erase(next);
        }
        freeRanges[addr] = bytes;
    }

    Addr base;
    Bytes size;
    std::map<Addr, Bytes> freeRanges;
};

std::vector<std::uint8_t>
heapBlob(const PersistentHeap &heap)
{
    BlobWriter w;
    heap.saveState(w);
    return w.data();
}

/** Drive the heap and the referee with one seeded op sequence. */
void
runLockstep(std::uint64_t seed, Bytes heap_bytes, int steps)
{
    constexpr Addr base = 0x10000;
    StatsRegistry stats;
    auto heap = std::make_unique<PersistentHeap>(base, heap_bytes, stats);
    LinearFirstFit model(base, heap_bytes);
    Rng rng(seed);
    std::vector<Addr> live;  // allocation order, for random picks
    std::uint64_t txn = 0;
    int exhausted = 0;

    for (int step = 0; step < steps; ++step) {
        const std::uint64_t op = rng.below(1000);
        if (live.empty() || op < 520) {
            // Mostly values and nodes; now and then a bucket array.
            const Bytes size = rng.below(50) == 0
                                   ? wordSize << (10 + rng.below(5))
                                   : 1 + rng.below(4096);
            ++txn;
            const std::optional<Addr> want = model.alloc(size, txn);
            if (!want) {
                EXPECT_THROW(heap->alloc(size, txn), FatalError);
                ++exhausted;
            } else {
                ASSERT_EQ(heap->alloc(size, txn), *want)
                    << "seed " << seed << " step " << step;
                live.push_back(*want);
            }
        } else if (op < 930) {
            const std::size_t idx = rng.below(live.size());
            heap->free(live[idx]);
            model.free(live[idx]);
            live[idx] = live.back();
            live.pop_back();
        } else if (op < 960) {
            std::vector<Addr> reachable;
            for (Addr a : live) {
                if (rng.below(10) < 7)
                    reachable.push_back(a);
            }
            ASSERT_EQ(heap->rebuild(reachable), model.rebuild(reachable));
            live = reachable;
        } else if (op < 965) {
            heap->reset();
            model.reset();
            live.clear();
        } else {
            // Checkpoint round trip: carry on with the restored heap.
            const std::vector<std::uint8_t> saved = heapBlob(*heap);
            auto restored =
                std::make_unique<PersistentHeap>(base, heap_bytes, stats);
            BlobReader r(saved);
            restored->restoreState(r);
            heap = std::move(restored);
        }
        ASSERT_EQ(heap->liveCount(), model.live.size())
            << "seed " << seed << " step " << step;
        ASSERT_EQ(heapBlob(*heap), model.blob())
            << "seed " << seed << " step " << step;
    }
    if (heap_bytes < 1024 * 1024) {
        EXPECT_GT(exhausted, 0) << "small heap never ran out";
    }
}

TEST(HeapReferee, MatchesLinearFirstFitInLockstep)
{
    for (std::uint64_t seed : {1, 2, 3, 42})
        runLockstep(seed, 4 * 1024 * 1024, 3000);
}

TEST(HeapReferee, MatchesLinearFirstFitWhenExhausted)
{
    for (std::uint64_t seed : {5, 6})
        runLockstep(seed, 256 * 1024, 3000);
}

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
