#include "workloads/hashtable.hh"

#include <unordered_map>
#include <unordered_set>

namespace slpmt
{

void
HashTableWorkload::setup(PmContext &sys)
{
    auto &sites = sys.sites();
    siteNodeInit = sites.add({.name = "hashtable.insert.node",
                              .manual = {.lazy = false, .logFree = true},
                              .origin = ValueOrigin::Input,
                              .targetsFreshAlloc = true,
                              .defUseDepth = 2});
    siteValueInit = sites.add({.name = "hashtable.insert.value",
                               .manual = {.lazy = false, .logFree = true},
                               .origin = ValueOrigin::Input,
                               .targetsFreshAlloc = true,
                               .defUseDepth = 1});
    siteBucketHead = sites.add({.name = "hashtable.insert.bucketHead",
                                .manual = {},
                                .origin = ValueOrigin::Computed,
                                .defUseDepth = 2});
    siteCount = sites.add({.name = "hashtable.insert.count",
                           .manual = {.lazy = true, .logFree = false},
                           .origin = ValueOrigin::Computed,
                           .rebuildable = true,
                           .requiresDeepSemantics = true,
                           .defUseDepth = 3});
    siteCopyInit = sites.add({.name = "hashtable.resize.nodeCopy",
                              .manual = {.lazy = true, .logFree = true},
                              .origin = ValueOrigin::PmLoad,
                              .targetsFreshAlloc = true,
                              .rebuildable = true,
                              .defUseDepth = 4});
    siteNewBuckets = sites.add({.name = "hashtable.resize.newBuckets",
                                .manual = {.lazy = true, .logFree = true},
                                .origin = ValueOrigin::PmLoad,
                                .targetsFreshAlloc = true,
                                .rebuildable = true,
                                .defUseDepth = 4});
    siteHeaderSwing = sites.add({.name = "hashtable.resize.headerSwing",
                                 .manual = {},
                                 .origin = ValueOrigin::Computed,
                                 .defUseDepth = 2});
    siteJournal = sites.add({.name = "hashtable.resize.journal",
                             .manual = {},
                             .origin = ValueOrigin::Computed,
                             .defUseDepth = 1});
    siteDeadPoison = sites.add({.name = "hashtable.remove.poison",
                                .manual = {.lazy = true, .logFree = true},
                                .origin = ValueOrigin::Constant,
                                .targetsDeadRegion = true,
                                .defUseDepth = 1});

    DurableTx tx(sys);
    const std::uint64_t seq = sys.currentTxnSeq();
    headerAddr = sys.heap().alloc(HdrOff::size, seq);
    journalAddr = sys.heap().alloc(JnlOff::size, seq);
    const Addr buckets =
        sys.heap().alloc(initialBuckets * wordSize, seq);

    for (std::uint64_t b = 0; b < initialBuckets; ++b)
        sys.write<Addr>(buckets + b * wordSize, 0);
    sys.write<std::uint64_t>(headerAddr + HdrOff::numBuckets,
                             initialBuckets);
    sys.write<std::uint64_t>(headerAddr + HdrOff::count, 0);
    sys.write<Addr>(headerAddr + HdrOff::bucketsPtr, buckets);
    sys.write<std::uint64_t>(journalAddr + JnlOff::valid, 0);
    sys.writeRoot(headerRootSlot, headerAddr);
    sys.writeRoot(journalRootSlot, journalAddr);
    tx.commit();
    sys.quiesce();
}

Addr
HashTableWorkload::writeFreshNode(PmContext &sys, std::uint64_t key,
                                  Addr next, Addr val_ptr,
                                  std::uint64_t val_len, bool as_copy)
{
    const SiteId site = as_copy ? siteCopyInit : siteNodeInit;
    const Addr node =
        sys.heap().alloc(NodeOff::size, sys.currentTxnSeq());
    sys.writeSite<std::uint64_t>(node + NodeOff::key, key, site);
    sys.writeSite<Addr>(node + NodeOff::next, next, site);
    sys.writeSite<Addr>(node + NodeOff::valPtr, val_ptr, site);
    sys.writeSite<std::uint64_t>(node + NodeOff::valLen, val_len, site);
    sys.writeSite<std::uint64_t>(
        node + NodeOff::chk, nodeChecksum(key, next, val_ptr, val_len),
        site);
    return node;
}

void
HashTableWorkload::insert(PmContext &sys, std::uint64_t key,
                          const std::vector<std::uint8_t> &value)
{
    DurableTx tx(sys);
    const std::uint64_t seq = sys.currentTxnSeq();

    // Hash computation and control flow.
    sys.compute(opcost::insertBase + opcost::valueWork(value.size()));

    const Addr val_ptr = sys.heap().alloc(value.size(), seq);
    sys.writeBytesSite(val_ptr, value.data(), value.size(),
                       siteValueInit);

    const std::uint64_t num =
        sys.read<std::uint64_t>(headerAddr + HdrOff::numBuckets);
    const Addr buckets = sys.read<Addr>(headerAddr + HdrOff::bucketsPtr);
    const Addr slot = buckets + bucketOf(key, num) * wordSize;
    const Addr head = sys.read<Addr>(slot);

    const Addr node =
        writeFreshNode(sys, key, head, val_ptr, value.size(), false);

    // The commit pivot: a normal logged, eagerly persistent store.
    sys.writeSite<Addr>(slot, node, siteBucketHead);

    const std::uint64_t cnt =
        sys.read<std::uint64_t>(headerAddr + HdrOff::count);
    sys.writeSite<std::uint64_t>(headerAddr + HdrOff::count, cnt + 1,
                                 siteCount);

    if (cnt + 1 > loadFactor * num)
        resize(sys, num * 2);

    tx.commit();

    // Deferred reclamation of replaced table storage (see the header
    // comment on deferredFrees for why this must follow the commit).
    for (Addr stale : deferredFrees)
        sys.heap().free(stale);
    deferredFrees.clear();
}

void
HashTableWorkload::resize(PmContext &sys, std::uint64_t new_num)
{
    const std::uint64_t seq = sys.currentTxnSeq();
    const std::uint64_t old_num =
        sys.read<std::uint64_t>(headerAddr + HdrOff::numBuckets);
    const Addr old_buckets =
        sys.read<Addr>(headerAddr + HdrOff::bucketsPtr);

    const Addr new_buckets = sys.heap().alloc(new_num * wordSize, seq);

    // Journal first (logged + eager): recovery learns both locations.
    sys.writeSite<Addr>(journalAddr + JnlOff::oldBuckets, old_buckets,
                        siteJournal);
    sys.writeSite<std::uint64_t>(journalAddr + JnlOff::oldNum, old_num,
                                 siteJournal);
    sys.writeSite<Addr>(journalAddr + JnlOff::newBuckets, new_buckets,
                        siteJournal);
    sys.writeSite<std::uint64_t>(journalAddr + JnlOff::newNum, new_num,
                                 siteJournal);
    sys.writeSite<std::uint64_t>(journalAddr + JnlOff::valid, 1,
                                 siteJournal);
    journalValid = true;

    // Volatile staging of the new chains so copies can be written in
    // one pass with correct next pointers.
    std::vector<Addr> heads(new_num, 0);

    for (std::uint64_t b = 0; b < old_num; ++b) {
        Addr cursor = sys.read<Addr>(old_buckets + b * wordSize);
        while (cursor != 0) {
            sys.compute(opcost::perMove);
            const auto key =
                sys.read<std::uint64_t>(cursor + NodeOff::key);
            const Addr val_ptr = sys.read<Addr>(cursor + NodeOff::valPtr);
            const auto val_len =
                sys.read<std::uint64_t>(cursor + NodeOff::valLen);
            const Addr next = sys.read<Addr>(cursor + NodeOff::next);

            // Copy, never modify, the original node: the old table
            // stays intact while any copy is volatile.
            const std::uint64_t nb = bucketOf(key, new_num);
            heads[nb] = writeFreshNode(sys, key, heads[nb], val_ptr,
                                       val_len, true);
            deferredFrees.push_back(cursor);
            cursor = next;
        }
    }

    for (std::uint64_t b = 0; b < new_num; ++b)
        sys.writeSite<Addr>(new_buckets + b * wordSize, heads[b],
                            siteNewBuckets);

    // Swing the header (logged + eager); the old array is reclaimed
    // after commit with the old nodes.
    sys.writeSite<std::uint64_t>(headerAddr + HdrOff::numBuckets,
                                 new_num, siteHeaderSwing);
    sys.writeSite<Addr>(headerAddr + HdrOff::bucketsPtr, new_buckets,
                        siteHeaderSwing);
    deferredFrees.push_back(old_buckets);
    resizeCount++;
}

bool
HashTableWorkload::lookup(PmContext &sys, std::uint64_t key,
                          std::vector<std::uint8_t> *out)
{
    const std::uint64_t num =
        sys.read<std::uint64_t>(headerAddr + HdrOff::numBuckets);
    const Addr buckets = sys.read<Addr>(headerAddr + HdrOff::bucketsPtr);
    Addr cursor =
        sys.read<Addr>(buckets + bucketOf(key, num) * wordSize);
    while (cursor != 0) {
        sys.compute(opcost::perLevel);
        if (sys.read<std::uint64_t>(cursor + NodeOff::key) == key) {
            if (out) {
                const Addr val_ptr =
                    sys.read<Addr>(cursor + NodeOff::valPtr);
                const auto val_len =
                    sys.read<std::uint64_t>(cursor + NodeOff::valLen);
                out->resize(val_len);
                sys.readBytes(val_ptr, out->data(), val_len);
            }
            return true;
        }
        cursor = sys.read<Addr>(cursor + NodeOff::next);
    }
    return false;
}

std::size_t
HashTableWorkload::count(PmContext &sys)
{
    const std::uint64_t num =
        sys.read<std::uint64_t>(headerAddr + HdrOff::numBuckets);
    const Addr buckets = sys.read<Addr>(headerAddr + HdrOff::bucketsPtr);
    std::size_t n = 0;
    for (std::uint64_t b = 0; b < num; ++b) {
        Addr cursor = sys.read<Addr>(buckets + b * wordSize);
        while (cursor != 0) {
            ++n;
            cursor = sys.read<Addr>(cursor + NodeOff::next);
        }
    }
    return n;
}

std::vector<HashTableWorkload::Survivor>
HashTableWorkload::walkDurable(PmContext &sys, Addr buckets,
                               std::uint64_t num) const
{
    std::vector<Survivor> out;
    const auto &heap = sys.heap();
    const Addr lo = heap.base();
    const Addr hi = heap.base() + heap.size();
    auto plausible = [&](Addr a) {
        return a >= lo && a < hi && a % wordSize == 0;
    };

    if (!plausible(buckets))
        return out;
    for (std::uint64_t b = 0; b < num; ++b) {
        Addr cursor = sys.peek<Addr>(buckets + b * wordSize);
        std::size_t guard = 0;
        while (cursor != 0 && plausible(cursor) && guard++ < 1'000'000) {
            const auto key =
                sys.peek<std::uint64_t>(cursor + NodeOff::key);
            const Addr next = sys.peek<Addr>(cursor + NodeOff::next);
            const Addr val_ptr = sys.peek<Addr>(cursor + NodeOff::valPtr);
            const auto val_len =
                sys.peek<std::uint64_t>(cursor + NodeOff::valLen);
            const auto chk = sys.peek<std::uint64_t>(cursor + NodeOff::chk);
            if (chk != nodeChecksum(key, next, val_ptr, val_len))
                break;  // this copy never reached PM
            out.push_back({key, val_ptr, val_len});
            cursor = next;
        }
    }
    return out;
}

void
HashTableWorkload::recover(PmContext &sys)
{
    // Hardware replay already ran; re-derive volatile state from the
    // durable roots. A crash inside a resize leaves stale entries in
    // the deferred-free list: after rollback the old table is still
    // live, so those frees must never happen.
    deferredFrees.clear();
    journalValid = false;  // both paths below leave the flag clear
    headerAddr = sys.peek<Addr>(sys.rootSlotAddr(headerRootSlot));
    journalAddr = sys.peek<Addr>(sys.rootSlotAddr(journalRootSlot));

    const std::uint64_t journal_valid =
        sys.peek<std::uint64_t>(journalAddr + JnlOff::valid);

    if (journal_valid) {
        // A resize committed but its lazily persistent copies may not
        // have reached PM. Merge: checksum-valid chains of the new
        // table (always includes post-resize eager inserts) union the
        // old table (intact whenever any copy is missing; see header
        // comment).
        const Addr new_buckets =
            sys.peek<Addr>(journalAddr + JnlOff::newBuckets);
        const auto new_num =
            sys.peek<std::uint64_t>(journalAddr + JnlOff::newNum);
        const Addr old_buckets =
            sys.peek<Addr>(journalAddr + JnlOff::oldBuckets);
        const auto old_num =
            sys.peek<std::uint64_t>(journalAddr + JnlOff::oldNum);

        auto new_set = walkDurable(sys, new_buckets, new_num);
        auto old_set = walkDurable(sys, old_buckets, old_num);

        std::unordered_map<std::uint64_t, Survivor> merged;
        for (const auto &s : old_set)
            merged[s.key] = s;
        for (const auto &s : new_set)
            merged[s.key] = s;  // new table wins

        // Capture every survivor's value bytes before the rebuild:
        // the fresh table reuses the same heap range from its base,
        // so an early allocation can sit where a later survivor's
        // blob still lives.
        std::unordered_map<std::uint64_t, std::vector<std::uint8_t>>
            values;
        for (const auto &[key, s] : merged) {
            auto &value = values[key];
            value.resize(s.valLen);
            sys.peekBytes(s.valPtr, value.data(), s.valLen);
        }

        // Rebuild a fresh table from the merged set. Allocator state
        // is rebuilt below, so reset it first to a blank slate.
        sys.heap().reset();
        DurableTx tx(sys);
        const std::uint64_t seq = sys.currentTxnSeq();
        headerAddr = sys.heap().alloc(HdrOff::size, seq);
        journalAddr = sys.heap().alloc(JnlOff::size, seq);
        std::uint64_t num = initialBuckets;
        while (num * loadFactor < merged.size())
            num *= 2;
        const Addr buckets = sys.heap().alloc(num * wordSize, seq);
        for (std::uint64_t b = 0; b < num; ++b)
            sys.write<Addr>(buckets + b * wordSize, 0);

        std::uint64_t cnt = 0;
        for (const auto &[key, s] : merged) {
            // Value blobs were written eagerly by the original insert
            // and never moved: copy their captured durable contents.
            const std::vector<std::uint8_t> &value = values[key];
            const Addr val_ptr = sys.heap().alloc(s.valLen, seq);
            sys.writeBytes(val_ptr, value.data(), s.valLen);

            const Addr slot = buckets + bucketOf(key, num) * wordSize;
            const Addr head = sys.read<Addr>(slot);
            const Addr node = sys.heap().alloc(NodeOff::size, seq);
            sys.write<std::uint64_t>(node + NodeOff::key, key);
            sys.write<Addr>(node + NodeOff::next, head);
            sys.write<Addr>(node + NodeOff::valPtr, val_ptr);
            sys.write<std::uint64_t>(node + NodeOff::valLen, s.valLen);
            sys.write<std::uint64_t>(
                node + NodeOff::chk,
                nodeChecksum(key, head, val_ptr, s.valLen));
            sys.write<Addr>(slot, node);
            ++cnt;
        }
        sys.write<std::uint64_t>(headerAddr + HdrOff::numBuckets, num);
        sys.write<std::uint64_t>(headerAddr + HdrOff::count, cnt);
        sys.write<Addr>(headerAddr + HdrOff::bucketsPtr, buckets);
        sys.write<std::uint64_t>(journalAddr + JnlOff::valid, 0);
        sys.writeRoot(headerRootSlot, headerAddr);
        sys.writeRoot(journalRootSlot, journalAddr);
        tx.commit();
        sys.quiesce();
        return;
    }

    // No resize in flight: recompute the lazy count and GC leaks.
    const Addr buckets = sys.peek<Addr>(headerAddr + HdrOff::bucketsPtr);
    const auto num =
        sys.peek<std::uint64_t>(headerAddr + HdrOff::numBuckets);
    const auto survivors = walkDurable(sys, buckets, num);
    DurableTx tx(sys);
    sys.write<std::uint64_t>(headerAddr + HdrOff::count,
                             survivors.size());
    tx.commit();
    sys.heap().rebuild(collectReachable(sys));
    sys.quiesce();
}

std::vector<Addr>
HashTableWorkload::collectReachable(PmContext &sys)
{
    std::vector<Addr> reachable = {headerAddr, journalAddr};
    const auto num =
        sys.peek<std::uint64_t>(headerAddr + HdrOff::numBuckets);
    const Addr buckets = sys.peek<Addr>(headerAddr + HdrOff::bucketsPtr);
    reachable.push_back(buckets);
    for (std::uint64_t b = 0; b < num; ++b) {
        Addr cursor = sys.peek<Addr>(buckets + b * wordSize);
        while (cursor != 0) {
            reachable.push_back(cursor);
            reachable.push_back(sys.peek<Addr>(cursor + NodeOff::valPtr));
            cursor = sys.peek<Addr>(cursor + NodeOff::next);
        }
    }
    return reachable;
}

bool
HashTableWorkload::checkConsistency(PmContext &sys, std::string *why)
{
    const auto num =
        sys.read<std::uint64_t>(headerAddr + HdrOff::numBuckets);
    const Addr buckets = sys.read<Addr>(headerAddr + HdrOff::bucketsPtr);
    if (num == 0 || buckets == 0)
        return failCheck(why, "empty header");

    std::unordered_set<std::uint64_t> seen;
    std::size_t walked = 0;
    for (std::uint64_t b = 0; b < num; ++b) {
        Addr cursor = sys.read<Addr>(buckets + b * wordSize);
        while (cursor != 0) {
            const auto key =
                sys.read<std::uint64_t>(cursor + NodeOff::key);
            const Addr next = sys.read<Addr>(cursor + NodeOff::next);
            const Addr val_ptr = sys.read<Addr>(cursor + NodeOff::valPtr);
            const auto val_len =
                sys.read<std::uint64_t>(cursor + NodeOff::valLen);
            const auto chk =
                sys.read<std::uint64_t>(cursor + NodeOff::chk);
            if (chk != nodeChecksum(key, next, val_ptr, val_len))
                return failCheck(why, "node checksum mismatch");
            if (bucketOf(key, num) != b)
                return failCheck(why, "key in wrong bucket");
            if (!seen.insert(key).second)
                return failCheck(why, "duplicate key");
            ++walked;
            cursor = next;
        }
    }
    const auto cnt = sys.read<std::uint64_t>(headerAddr + HdrOff::count);
    if (cnt != walked)
        return failCheck(why, "count field does not match walk");
    return true;
}

bool
HashTableWorkload::update(PmContext &sys, std::uint64_t key,
                          const std::vector<std::uint8_t> &value)
{
    // Locate the node first (plain reads, outside any transaction).
    const auto num =
        sys.read<std::uint64_t>(headerAddr + HdrOff::numBuckets);
    const Addr buckets = sys.read<Addr>(headerAddr + HdrOff::bucketsPtr);
    Addr node = sys.read<Addr>(buckets + bucketOf(key, num) * wordSize);
    while (node && sys.read<std::uint64_t>(node + NodeOff::key) != key)
        node = sys.read<Addr>(node + NodeOff::next);
    if (!node)
        return false;

    DurableTx tx(sys);
    sys.compute(opcost::insertBase + opcost::valueWork(value.size()));
    const std::uint64_t seq = sys.currentTxnSeq();
    const Addr new_blob = sys.heap().alloc(value.size(), seq);
    sys.writeBytesSite(new_blob, value.data(), value.size(),
                       siteValueInit);
    const Addr old_blob = sys.read<Addr>(node + NodeOff::valPtr);
    const Addr next = sys.read<Addr>(node + NodeOff::next);
    sys.writeSite<Addr>(node + NodeOff::valPtr, new_blob,
                        siteBucketHead);
    sys.writeSite<std::uint64_t>(node + NodeOff::valLen, value.size(),
                                 siteBucketHead);
    sys.writeSite<std::uint64_t>(
        node + NodeOff::chk,
        nodeChecksum(key, next, new_blob, value.size()), siteBucketHead);
    tx.commit();
    sys.heap().free(old_blob);  // deferred past the commit
    return true;
}

bool
HashTableWorkload::remove(PmContext &sys, std::uint64_t key)
{
    const auto num =
        sys.read<std::uint64_t>(headerAddr + HdrOff::numBuckets);
    const Addr buckets = sys.read<Addr>(headerAddr + HdrOff::bucketsPtr);
    const Addr slot = buckets + bucketOf(key, num) * wordSize;
    Addr prev = 0;
    Addr node = sys.read<Addr>(slot);
    while (node && sys.read<std::uint64_t>(node + NodeOff::key) != key) {
        prev = node;
        node = sys.read<Addr>(node + NodeOff::next);
    }
    if (!node)
        return false;

    // First remove since a resize: a crash recovered through the
    // journal would merge the old table, and with it this key, back
    // in. Make the resize's copies durable, then retire the journal
    // inside this transaction (see the header comment).
    const bool retire_journal = journalValid;
    if (retire_journal)
        sys.quiesce();

    DurableTx tx(sys);
    if (retire_journal)
        sys.writeSite<std::uint64_t>(journalAddr + JnlOff::valid, 0,
                                     siteJournal);
    sys.compute(opcost::insertBase / 2);
    const Addr next = sys.read<Addr>(node + NodeOff::next);
    if (!prev) {
        sys.writeSite<Addr>(slot, next, siteBucketHead);
    } else {
        // Unlink: the predecessor's next changes, and its checksum
        // covers the next pointer.
        const auto pk = sys.read<std::uint64_t>(prev + NodeOff::key);
        const Addr pv = sys.read<Addr>(prev + NodeOff::valPtr);
        const auto pl = sys.read<std::uint64_t>(prev + NodeOff::valLen);
        sys.writeSite<Addr>(prev + NodeOff::next, next, siteBucketHead);
        sys.writeSite<std::uint64_t>(prev + NodeOff::chk,
                                     nodeChecksum(pk, next, pv, pl),
                                     siteBucketHead);
    }
    const auto cnt = sys.read<std::uint64_t>(headerAddr + HdrOff::count);
    sys.writeSite<std::uint64_t>(headerAddr + HdrOff::count, cnt - 1,
                                 siteCount);
    // Pattern 1b: the node dies with this transaction — poisoning its
    // checksum needs neither logging nor persistence.
    sys.writeSite<std::uint64_t>(node + NodeOff::chk, 0, siteDeadPoison);
    const Addr blob = sys.read<Addr>(node + NodeOff::valPtr);
    tx.commit();
    journalValid = false;
    sys.heap().free(node);
    sys.heap().free(blob);
    return true;
}

} // namespace slpmt
