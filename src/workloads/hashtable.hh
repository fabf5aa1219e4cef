/**
 * @file
 * Chained hash table that resizes at an average chain length of three
 * (Table II), with the paper's flagship lazy-persistency pattern: the
 * node copies made while rehashing are written with lazy, log-free
 * storeT and left in the cache past the commit (Section VI-D1).
 *
 * Durability design:
 *  - Regular inserts allocate a node and a value blob inside the
 *    transaction; both are initialised with log-free eager storeT
 *    (Pattern 1: a crash leaks them; recovery GC reclaims). The
 *    bucket-head pointer is a normal logged store — the commit pivot.
 *  - The element count is lazy+logged: recovery recomputes it by
 *    walking the table (a "deep semantics" annotation the compiler
 *    pass cannot find).
 *  - Rehashing copies every node into a fresh node (the originals are
 *    never modified) with lazy+log-free storeT, and swings the header
 *    to the new bucket array with logged stores. A durable journal
 *    records old/new table locations. Every node carries a checksum
 *    over its payload so recovery can tell which copies reached PM.
 *
 * Why recovery is sound: while any copy is still volatile, the old
 *  table is intact — the resize transaction *read* every old node, so
 *  they are in its working set, and the hardware persists all its
 *  lazy lines before any of those addresses can be overwritten
 *  (Section III-C). Recovery therefore merges the checksum-valid part
 *  of the new table (which always includes every post-resize insert,
 *  because those are eager) with the old table's contents.
 *
 *  The merge is only sound until the first remove after the resize:
 *  the old table still holds the removed key, and the merge would
 *  bring it back. So that remove first makes the resize's copies
 *  durable (quiesce), then clears the journal's valid flag with a
 *  logged store inside its own transaction. If it commits, recovery
 *  walks the new table alone; if it rolls back, the flag is set again
 *  and the merge sees no remove to undo. Inserts and updates leave the
 *  flag alone.
 */

#ifndef SLPMT_WORKLOADS_HASHTABLE_HH
#define SLPMT_WORKLOADS_HASHTABLE_HH

#include "workloads/workload.hh"

namespace slpmt
{

/** The durable chained hash table. */
class HashTableWorkload : public Workload
{
  public:
    /** Root-directory slots used by the table. */
    static constexpr std::size_t headerRootSlot = 0;
    static constexpr std::size_t journalRootSlot = 1;

    /** Resize when count exceeds loadFactor * buckets. */
    static constexpr std::uint64_t loadFactor = 3;
    static constexpr std::uint64_t initialBuckets = 16;

    std::string name() const override { return "hashtable"; }

    std::unique_ptr<Workload>
    clone() const override
    {
        return std::make_unique<HashTableWorkload>(*this);
    }
    void setup(PmContext &sys) override;
    void insert(PmContext &sys, std::uint64_t key,
                const std::vector<std::uint8_t> &value) override;
    bool lookup(PmContext &sys, std::uint64_t key,
                std::vector<std::uint8_t> *out) override;
    bool update(PmContext &sys, std::uint64_t key,
                const std::vector<std::uint8_t> &value) override;
    bool remove(PmContext &sys, std::uint64_t key) override;
    std::size_t count(PmContext &sys) override;
    void recover(PmContext &sys) override;
    bool checkConsistency(PmContext &sys, std::string *why) override;

    /** Number of resizes performed so far (test introspection). */
    std::uint64_t resizes() const { return resizeCount; }

  private:
    /** Node field offsets (all fields are 8-byte words). */
    struct NodeOff
    {
        static constexpr Bytes key = 0;
        static constexpr Bytes next = 8;
        static constexpr Bytes valPtr = 16;
        static constexpr Bytes valLen = 24;
        static constexpr Bytes chk = 32;
        static constexpr Bytes size = 40;
    };

    /** Header field offsets. */
    struct HdrOff
    {
        static constexpr Bytes numBuckets = 0;
        static constexpr Bytes count = 8;
        static constexpr Bytes bucketsPtr = 16;
        static constexpr Bytes size = 24;
    };

    /** Journal field offsets. */
    struct JnlOff
    {
        static constexpr Bytes valid = 0;
        static constexpr Bytes oldBuckets = 8;
        static constexpr Bytes oldNum = 16;
        static constexpr Bytes newBuckets = 24;
        static constexpr Bytes newNum = 32;
        static constexpr Bytes size = 40;
    };

    static std::uint64_t
    nodeChecksum(std::uint64_t key, Addr next, Addr val_ptr,
                 std::uint64_t val_len)
    {
        return mix64(key ^ mix64(next) ^ mix64(val_ptr) ^ val_len ^
                     0x5a5a5a5a5a5a5a5aULL);
    }

    static std::uint64_t
    bucketOf(std::uint64_t key, std::uint64_t num_buckets)
    {
        return mix64(key) % num_buckets;
    }

    /** Rehash into a table twice the size (inside the caller's txn). */
    void resize(PmContext &sys, std::uint64_t new_num);

    /** Write one fresh node (log-free sites). */
    Addr writeFreshNode(PmContext &sys, std::uint64_t key, Addr next,
                        Addr val_ptr, std::uint64_t val_len,
                        bool as_copy);

    /** A durable-image chain walk entry. */
    struct Survivor
    {
        std::uint64_t key;
        Addr valPtr;
        std::uint64_t valLen;
    };

    /** Walk one durable table image, keeping checksum-valid nodes. */
    std::vector<Survivor> walkDurable(PmContext &sys, Addr buckets,
                                      std::uint64_t num) const;

    /** Reachable allocation bases for the heap GC. */
    std::vector<Addr> collectReachable(PmContext &sys);

    /** Store sites, registered in setup(). */
    SiteId siteNodeInit = 0;    //!< fresh node fields (log-free)
    SiteId siteValueInit = 0;   //!< fresh value blob (log-free)
    SiteId siteBucketHead = 0;  //!< bucket head pointer (plain store)
    SiteId siteCount = 0;       //!< header count (lazy, deep semantics)
    SiteId siteCopyInit = 0;    //!< rehash node copies (log-free+lazy)
    SiteId siteNewBuckets = 0;  //!< fresh bucket array (log-free+lazy)
    SiteId siteHeaderSwing = 0; //!< header bucketsPtr/numBuckets
    SiteId siteJournal = 0;     //!< resize journal (plain store)
    SiteId siteDeadPoison = 0;  //!< poisoning freed nodes
                                //!< (Pattern 1b: dead region)

    Addr headerAddr = 0;   //!< cached from the root slot
    Addr journalAddr = 0;
    std::uint64_t resizeCount = 0;

    /** The durable journal's valid flag is set: a resize committed
     *  and no remove has cleared the flag since (see remove()). */
    bool journalValid = false;

    /**
     * Old-table storage released only *after* the resize transaction
     * commits (deferred reclamation). Freeing inside the transaction
     * would let the allocator hand an old node's storage to a lazy
     * copy whose line still carries the persist bit from earlier
     * eager stores of the same transaction — the commit would then
     * overwrite durable old-table data the journal recovery depends
     * on. Deferring the free moves any reuse into later transactions,
     * where the working-set signature forces the lazy copies to PM
     * before the old data can be overwritten (Section III-C).
     */
    std::vector<Addr> deferredFrees;
};

} // namespace slpmt

#endif // SLPMT_WORKLOADS_HASHTABLE_HH
