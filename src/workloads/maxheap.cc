#include "workloads/maxheap.hh"

#include <unordered_map>
#include <unordered_set>

namespace slpmt
{

void
MaxHeapWorkload::setup(PmContext &sys)
{
    auto &sites = sys.sites();
    siteValueInit = sites.add({.name = "heap.insert.value",
                               .manual = {.lazy = false, .logFree = true},
                               .origin = ValueOrigin::Input,
                               .targetsFreshAlloc = true,
                               .defUseDepth = 1});
    siteNewSlot = sites.add({.name = "heap.insert.newSlot",
                             .manual = {.lazy = false, .logFree = true},
                             .origin = ValueOrigin::Input,
                             .requiresDeepSemantics = true,
                             .defUseDepth = 2});
    siteShift = sites.add({.name = "heap.siftUp.shift",
                           .manual = {},
                           .origin = ValueOrigin::PmLoad,
                           .defUseDepth = 3});
    siteCount = sites.add({.name = "heap.insert.count",
                           .manual = {},
                           .origin = ValueOrigin::Computed,
                           .defUseDepth = 2});
    siteGrowCopy = sites.add({.name = "heap.grow.copy",
                              .manual = {.lazy = false, .logFree = true},
                              .origin = ValueOrigin::PmLoad,
                              .targetsFreshAlloc = true,
                              .defUseDepth = 3});
    siteDeadPoison = sites.add({.name = "heap.remove.poison",
                                .manual = {.lazy = true, .logFree = true},
                                .origin = ValueOrigin::Constant,
                                .targetsDeadRegion = true,
                                .defUseDepth = 1});
    siteHeader = sites.add({.name = "heap.grow.header",
                            .manual = {},
                            .origin = ValueOrigin::Computed,
                            .defUseDepth = 2});

    DurableTx tx(sys);
    const std::uint64_t seq = sys.currentTxnSeq();
    headerAddr = sys.heap().alloc(HdrOff::size, seq);
    const Addr arr = sys.heap().alloc(initialCapacity * entryBytes, seq);
    sys.write<std::uint64_t>(headerAddr + HdrOff::count, 0);
    sys.write<std::uint64_t>(headerAddr + HdrOff::capacity,
                             initialCapacity);
    sys.write<Addr>(headerAddr + HdrOff::arrPtr, arr);
    sys.writeRoot(headerRootSlot, headerAddr);
    tx.commit();
    sys.quiesce();
}

MaxHeapWorkload::Entry
MaxHeapWorkload::readEntry(PmContext &sys, Addr arr, std::uint64_t idx)
{
    const Addr e = arr + idx * entryBytes;
    return {sys.read<std::uint64_t>(e), sys.read<Addr>(e + 8),
            sys.read<std::uint64_t>(e + 16)};
}

void
MaxHeapWorkload::writeEntry(PmContext &sys, Addr arr, std::uint64_t idx,
                            const Entry &e, SiteId site)
{
    const Addr a = arr + idx * entryBytes;
    sys.writeSite<std::uint64_t>(a, e.key, site);
    sys.writeSite<Addr>(a + 8, e.valPtr, site);
    sys.writeSite<std::uint64_t>(a + 16, e.valLen, site);
}

void
MaxHeapWorkload::grow(PmContext &sys)
{
    const auto cap =
        sys.read<std::uint64_t>(headerAddr + HdrOff::capacity);
    const auto cnt = sys.read<std::uint64_t>(headerAddr + HdrOff::count);
    const Addr old_arr = sys.read<Addr>(headerAddr + HdrOff::arrPtr);
    const Addr new_arr = sys.heap().alloc(cap * 2 * entryBytes,
                                          sys.currentTxnSeq());
    for (std::uint64_t i = 0; i < cnt; ++i) {
        sys.compute(opcost::perMove);
        writeEntry(sys, new_arr, i, readEntry(sys, old_arr, i),
                   siteGrowCopy);
    }
    sys.writeSite<std::uint64_t>(headerAddr + HdrOff::capacity, cap * 2,
                                 siteHeader);
    sys.writeSite<Addr>(headerAddr + HdrOff::arrPtr, new_arr,
                        siteHeader);
    sys.heap().free(old_arr);
}

void
MaxHeapWorkload::insert(PmContext &sys, std::uint64_t key,
                        const std::vector<std::uint8_t> &value)
{
    DurableTx tx(sys);
    const std::uint64_t seq = sys.currentTxnSeq();
    sys.compute(opcost::insertBase + opcost::valueWork(value.size()));

    const Addr val_ptr = sys.heap().alloc(value.size(), seq);
    sys.writeBytesSite(val_ptr, value.data(), value.size(),
                       siteValueInit);

    const auto cnt = sys.read<std::uint64_t>(headerAddr + HdrOff::count);
    const auto cap =
        sys.read<std::uint64_t>(headerAddr + HdrOff::capacity);
    if (cnt == cap)
        grow(sys);
    const Addr arr = sys.read<Addr>(headerAddr + HdrOff::arrPtr);

    // Hole bubbling: shift smaller ancestors down the path, then drop
    // the new element into the final hole. The first hole (arr[count])
    // is dead space, so its write is log-free; shifts into live slots
    // are logged.
    std::uint64_t hole = cnt;
    while (hole > 0) {
        sys.compute(opcost::perLevel);
        const std::uint64_t parent = (hole - 1) / 2;
        const Entry pe = readEntry(sys, arr, parent);
        if (pe.key >= key)
            break;
        writeEntry(sys, arr, hole, pe,
                   hole == cnt ? siteNewSlot : siteShift);
        hole = parent;
    }
    writeEntry(sys, arr, hole, {key, val_ptr, value.size()},
               hole == cnt ? siteNewSlot : siteShift);

    sys.writeSite<std::uint64_t>(headerAddr + HdrOff::count, cnt + 1,
                                 siteCount);
    tx.commit();
}

bool
MaxHeapWorkload::lookup(PmContext &sys, std::uint64_t key,
                        std::vector<std::uint8_t> *out)
{
    // Linear scan: a heap is not an index, but the checker needs to
    // verify membership and payloads.
    const auto cnt = sys.read<std::uint64_t>(headerAddr + HdrOff::count);
    const Addr arr = sys.read<Addr>(headerAddr + HdrOff::arrPtr);
    for (std::uint64_t i = 0; i < cnt; ++i) {
        const Entry e = readEntry(sys, arr, i);
        if (e.key == key) {
            if (out) {
                out->resize(e.valLen);
                sys.readBytes(e.valPtr, out->data(), e.valLen);
            }
            return true;
        }
    }
    return false;
}

void
MaxHeapWorkload::lookupAll(PmContext &sys,
                           std::span<const std::uint64_t> keys,
                           bool with_values, const LookupSink &sink)
{
    // An empty batch reads nothing, as the per-key loop does.
    if (keys.empty())
        return;
    // Index the array once; try_emplace keeps the lowest index of a
    // duplicate key, which is the entry lookup()'s scan stops at.
    const auto cnt = sys.read<std::uint64_t>(headerAddr + HdrOff::count);
    const Addr arr = sys.read<Addr>(headerAddr + HdrOff::arrPtr);
    std::unordered_map<std::uint64_t, Entry> index;
    index.reserve(cnt);
    for (std::uint64_t i = 0; i < cnt; ++i) {
        const Entry e = readEntry(sys, arr, i);
        index.try_emplace(e.key, e);
    }
    std::vector<std::uint8_t> buf;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const auto it = index.find(keys[i]);
        const bool found = it != index.end();
        if (found && with_values) {
            buf.resize(it->second.valLen);
            sys.readBytes(it->second.valPtr, buf.data(),
                          it->second.valLen);
        }
        if (!sink(i, found, buf))
            return;
    }
}

bool
MaxHeapWorkload::peekMax(PmContext &sys, std::uint64_t *key_out)
{
    const auto cnt = sys.read<std::uint64_t>(headerAddr + HdrOff::count);
    if (cnt == 0)
        return false;
    const Addr arr = sys.read<Addr>(headerAddr + HdrOff::arrPtr);
    if (key_out)
        *key_out = readEntry(sys, arr, 0).key;
    return true;
}

std::size_t
MaxHeapWorkload::count(PmContext &sys)
{
    return sys.read<std::uint64_t>(headerAddr + HdrOff::count);
}

void
MaxHeapWorkload::recover(PmContext &sys)
{
    // Everything structural is eager: after the hardware undo replay
    // the array and count are consistent. Only leaked allocations
    // (value blob / grown array of an interrupted transaction) need
    // collecting.
    headerAddr = sys.peek<Addr>(sys.rootSlotAddr(headerRootSlot));
    const auto cnt = sys.peek<std::uint64_t>(headerAddr + HdrOff::count);
    const Addr arr = sys.peek<Addr>(headerAddr + HdrOff::arrPtr);

    std::vector<Addr> reachable = {headerAddr, arr};
    for (std::uint64_t i = 0; i < cnt; ++i)
        reachable.push_back(sys.peek<Addr>(arr + i * entryBytes + 8));
    sys.heap().rebuild(reachable);
    sys.quiesce();
}

bool
MaxHeapWorkload::checkConsistency(PmContext &sys, std::string *why)
{
    const auto cnt = sys.read<std::uint64_t>(headerAddr + HdrOff::count);
    const auto cap =
        sys.read<std::uint64_t>(headerAddr + HdrOff::capacity);
    const Addr arr = sys.read<Addr>(headerAddr + HdrOff::arrPtr);
    if (cnt > cap)
        return failCheck(why, "count exceeds capacity");
    std::unordered_set<Addr> blobs;
    for (std::uint64_t i = 1; i < cnt; ++i) {
        const Entry e = readEntry(sys, arr, i);
        const Entry p = readEntry(sys, arr, (i - 1) / 2);
        if (p.key < e.key)
            return failCheck(why, "heap property violated");
        if (!blobs.insert(e.valPtr).second)
            return failCheck(why, "duplicate value pointer");
    }
    return true;
}

bool
MaxHeapWorkload::update(PmContext &sys, std::uint64_t key,
                        const std::vector<std::uint8_t> &value)
{
    const auto cnt = sys.read<std::uint64_t>(headerAddr + HdrOff::count);
    const Addr arr = sys.read<Addr>(headerAddr + HdrOff::arrPtr);
    std::uint64_t idx = cnt;
    for (std::uint64_t i = 0; i < cnt; ++i) {
        if (sys.read<std::uint64_t>(arr + i * entryBytes) == key) {
            idx = i;
            break;
        }
    }
    if (idx == cnt)
        return false;

    DurableTx tx(sys);
    sys.compute(opcost::insertBase + opcost::valueWork(value.size()));
    const std::uint64_t seq = sys.currentTxnSeq();
    const Addr new_blob = sys.heap().alloc(value.size(), seq);
    sys.writeBytesSite(new_blob, value.data(), value.size(),
                       siteValueInit);
    const Addr entry = arr + idx * entryBytes;
    const Addr old_blob = sys.read<Addr>(entry + 8);
    sys.writeSite<Addr>(entry + 8, new_blob, siteShift);
    sys.writeSite<std::uint64_t>(entry + 16, value.size(), siteShift);
    tx.commit();
    sys.heap().free(old_blob);
    return true;
}

bool
MaxHeapWorkload::remove(PmContext &sys, std::uint64_t key)
{
    const auto cnt = sys.read<std::uint64_t>(headerAddr + HdrOff::count);
    const Addr arr = sys.read<Addr>(headerAddr + HdrOff::arrPtr);
    std::uint64_t idx = cnt;
    for (std::uint64_t i = 0; i < cnt; ++i) {
        if (sys.read<std::uint64_t>(arr + i * entryBytes) == key) {
            idx = i;
            break;
        }
    }
    if (idx == cnt)
        return false;

    DurableTx tx(sys);
    sys.compute(opcost::insertBase / 2);
    const Addr blob = sys.read<Addr>(arr + idx * entryBytes + 8);
    const std::uint64_t last = cnt - 1;

    if (idx != last) {
        // Move the last entry into the hole, then restore the heap
        // property by sifting it up or down (all logged stores: they
        // touch live slots).
        Entry moved = readEntry(sys, arr, last);
        std::uint64_t hole = idx;
        // Sift up while larger than the parent.
        while (hole > 0) {
            sys.compute(opcost::perLevel);
            const std::uint64_t up = (hole - 1) / 2;
            const Entry pe = readEntry(sys, arr, up);
            if (pe.key >= moved.key)
                break;
            writeEntry(sys, arr, hole, pe, siteShift);
            hole = up;
        }
        // Then sift down while smaller than the larger child.
        while (true) {
            sys.compute(opcost::perLevel);
            std::uint64_t child = hole * 2 + 1;
            if (child >= last)
                break;
            Entry ce = readEntry(sys, arr, child);
            if (child + 1 < last) {
                const Entry rc = readEntry(sys, arr, child + 1);
                if (rc.key > ce.key) {
                    ++child;
                    ce = rc;
                }
            }
            if (ce.key <= moved.key)
                break;
            writeEntry(sys, arr, hole, ce, siteShift);
            hole = child;
        }
        writeEntry(sys, arr, hole, moved, siteShift);
    }
    // Pattern 1b: the slot beyond the new count is dead space.
    writeEntry(sys, arr, last, {0, 0, 0}, siteDeadPoison);
    sys.writeSite<std::uint64_t>(headerAddr + HdrOff::count, last,
                                 siteCount);
    tx.commit();
    sys.heap().free(blob);
    return true;
}

} // namespace slpmt
