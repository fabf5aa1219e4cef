/**
 * @file
 * Per-workload behavioural tests: resize/growth/split mechanics,
 * ordering queries, duplicate handling, larger-scale runs, and the
 * redo-logging mode end to end.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>

#include "core/pm_system.hh"
#include "test_util.hh"
#include "workloads/factory.hh"
#include "workloads/hashtable.hh"
#include "workloads/maxheap.hh"
#include "workloads/ycsb.hh"

namespace slpmt
{
namespace
{

TEST(Hashtable, ResizesAtLoadFactor)
{
    PmSystem sys;
    HashTableWorkload ht;
    ht.setup(sys);
    const auto ops = ycsbLoad({.numOps = 200, .valueBytes = 16,
                               .seed = 2});
    std::size_t i = 0;
    for (; i < 48; ++i)
        ht.insert(sys, ops[i].key, ops[i].value);
    EXPECT_EQ(ht.resizes(), 0u);
    ht.insert(sys, ops[i].key, ops[i].value);
    EXPECT_EQ(ht.resizes(), 1u);  // 16 buckets * 3 = 48 exceeded
    for (++i; i < 97; ++i)
        ht.insert(sys, ops[i].key, ops[i].value);
    EXPECT_EQ(ht.resizes(), 2u);  // 32 * 3 = 96 exceeded
}

TEST(Hashtable, ValuesSurviveResizeUnmoved)
{
    // Rehash copies nodes but points at the original value blobs.
    PmSystem sys;
    HashTableWorkload ht;
    ht.setup(sys);
    const auto ops = ycsbLoad({.numOps = 60, .valueBytes = 64,
                               .seed = 4});
    for (const auto &op : ops)
        ht.insert(sys, op.key, op.value);
    EXPECT_GE(ht.resizes(), 1u);
    std::vector<std::uint8_t> got;
    for (const auto &op : ops) {
        ASSERT_TRUE(ht.lookup(sys, op.key, &got));
        EXPECT_EQ(got, op.value);
    }
}

TEST(Heap, PeekMaxTracksMaximum)
{
    PmSystem sys;
    MaxHeapWorkload heap;
    heap.setup(sys);
    const auto ops = ycsbLoad({.numOps = 150, .valueBytes = 16,
                               .seed = 5});
    std::uint64_t expect_max = 0;
    for (const auto &op : ops) {
        heap.insert(sys, op.key, op.value);
        expect_max = std::max(expect_max, op.key);
        std::uint64_t got = 0;
        ASSERT_TRUE(heap.peekMax(sys, &got));
        EXPECT_EQ(got, expect_max);
    }
}

TEST(Heap, GrowsPastInitialCapacity)
{
    PmSystem sys;
    MaxHeapWorkload heap;
    heap.setup(sys);
    const auto ops = ycsbLoad({.numOps = 200, .valueBytes = 16,
                               .seed = 6});
    for (const auto &op : ops)
        heap.insert(sys, op.key, op.value);
    EXPECT_EQ(heap.count(sys), 200u);  // initial capacity was 64
    std::string why;
    EXPECT_TRUE(heap.checkConsistency(sys, &why)) << why;
}

TEST(Workloads, SequentialKeysKeepStructuresBalanced)
{
    // Monotone keys are the adversarial input for the trees.
    for (const auto &name : {std::string("rbtree"), std::string("avl"),
                             std::string("kv-btree")}) {
        PmSystem sys;
        auto workload = makeWorkload(name);
        workload->setup(sys);
        for (std::uint64_t k = 1; k <= 300; ++k) {
            const auto value = ycsbValueFor(k, 16);
            workload->insert(sys, k * 2 + 1, value);
        }
        std::string why;
        EXPECT_TRUE(workload->checkConsistency(sys, &why))
            << name << ": " << why;
        EXPECT_EQ(workload->count(sys), 300u) << name;
    }
}

TEST(Workloads, LargerRunAllSchemesSpotCheck)
{
    // 2,000 inserts on the two structures with reorganisation events.
    for (const auto &name :
         {std::string("hashtable"), std::string("kv-rtree")}) {
        SystemConfig cfg;
        cfg.scheme = SchemeConfig::forKind(SchemeKind::SLPMT);
        PmSystem sys(cfg);
        auto workload = makeWorkload(name);
        workload->setup(sys);
        const auto ops = ycsbLoad({.numOps = 2000, .valueBytes = 16,
                                   .seed = 8});
        for (const auto &op : ops)
            workload->insert(sys, op.key, op.value);
        std::string why;
        EXPECT_TRUE(workload->checkConsistency(sys, &why))
            << name << ": " << why;
        EXPECT_EQ(workload->count(sys), 2000u) << name;
    }
}

TEST(Workloads, RandomizedKvMixMatchesShadow)
{
    // Interleaved insert/update/remove/lookup fuzz over a small key
    // space (forced collisions) against a std::map oracle. kv-ctree
    // implements removal; kv-btree and kv-rtree inherit the
    // "unsupported" default, so the oracle expects remove == false
    // and keeps the key.
    for (const auto &name : {std::string("kv-btree"),
                             std::string("kv-ctree"),
                             std::string("kv-rtree")}) {
        const bool removable = name == "kv-ctree";
        SystemConfig cfg;
        cfg.scheme = SchemeConfig::forKind(SchemeKind::SLPMT);
        PmSystem sys(cfg);
        auto workload = makeWorkload(name);
        workload->setup(sys);

        std::map<std::uint64_t, std::vector<std::uint8_t>> shadow;
        std::mt19937_64 rng(name.size() * 131 + 7);
        std::vector<std::uint8_t> got;
        for (std::size_t i = 0; i < 600; ++i) {
            const std::uint64_t key = rng() % 97 + 1;
            const std::uint64_t roll = rng() % 100;
            if (roll < 40) {
                const auto value =
                    ycsbValueFor(key ^ (i << 8), 24);
                if (shadow.count(key)) {
                    EXPECT_TRUE(workload->update(sys, key, value))
                        << name << " op " << i;
                } else {
                    workload->insert(sys, key, value);
                }
                shadow[key] = value;
            } else if (roll < 60) {
                const bool removed = workload->remove(sys, key);
                EXPECT_EQ(removed, removable && shadow.count(key))
                    << name << " op " << i;
                if (removed)
                    shadow.erase(key);
            } else if (roll < 70) {
                // Update of a key that may be absent: no-op then.
                const auto value =
                    ycsbValueFor(~key ^ i, 24);
                const bool updated =
                    workload->update(sys, key, value);
                EXPECT_EQ(updated, shadow.count(key) != 0)
                    << name << " op " << i;
                if (updated)
                    shadow[key] = value;
            } else {
                const bool found = workload->lookup(sys, key, &got);
                ASSERT_EQ(found, shadow.count(key) != 0)
                    << name << " op " << i;
                if (found) {
                    EXPECT_EQ(got, shadow[key])
                        << name << " op " << i;
                }
            }
            if ((i + 1) % 150 == 0) {
                std::string why;
                ASSERT_TRUE(workload->checkConsistency(sys, &why))
                    << name << " op " << i << ": " << why;
                ASSERT_EQ(workload->count(sys), shadow.size())
                    << name << " op " << i;
            }
        }
        std::string why;
        EXPECT_TRUE(workload->checkConsistency(sys, &why))
            << name << ": " << why;
        EXPECT_EQ(workload->count(sys), shadow.size()) << name;
        for (const auto &kv : shadow) {
            ASSERT_TRUE(workload->lookup(sys, kv.first, &got))
                << name << " key " << kv.first;
            EXPECT_EQ(got, kv.second) << name << " key " << kv.first;
        }
    }
}

class RedoWorkloads
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RedoWorkloads, CrashRecoveryUnderRedoLogging)
{
    SystemConfig cfg;
    cfg.scheme = SchemeConfig::forKind(SchemeKind::SLPMT);
    cfg.style = LoggingStyle::Redo;
    PmSystem sys(cfg);
    auto workload = makeWorkload(GetParam());
    workload->setup(sys);

    const auto ops = ycsbLoad({.numOps = 80, .valueBytes = 32,
                               .seed = 9});
    for (std::size_t i = 0; i < 55; ++i)
        workload->insert(sys, ops[i].key, ops[i].value);

    sys.crash();
    sys.recoverHardware();
    workload->recover(sys);

    std::string why;
    ASSERT_TRUE(workload->checkConsistency(sys, &why)) << why;
    EXPECT_EQ(workload->count(sys), 55u);
    std::vector<std::uint8_t> got;
    for (std::size_t i = 0; i < 55; ++i) {
        ASSERT_TRUE(workload->lookup(sys, ops[i].key, &got));
        EXPECT_EQ(got, ops[i].value);
    }
    for (std::size_t i = 55; i < ops.size(); ++i)
        workload->insert(sys, ops[i].key, ops[i].value);
    EXPECT_TRUE(workload->checkConsistency(sys, &why)) << why;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, RedoWorkloads,
                         ::testing::ValuesIn(allWorkloads()),
                         [](const auto &info) {
                             return testName(info.param);
                         });

TEST(Workloads, DistinctRootSlotsAcrossWorkloads)
{
    // Two workloads can coexist in one system (different root slots).
    PmSystem sys;
    auto ht = makeWorkload("hashtable");
    auto tree = makeWorkload("rbtree");
    ht->setup(sys);
    tree->setup(sys);
    const auto ops = ycsbLoad({.numOps = 40, .valueBytes = 16,
                               .seed = 10});
    for (const auto &op : ops) {
        ht->insert(sys, op.key, op.value);
        tree->insert(sys, op.key, op.value);
    }
    std::string why;
    EXPECT_TRUE(ht->checkConsistency(sys, &why)) << why;
    EXPECT_TRUE(tree->checkConsistency(sys, &why)) << why;
}

/** Per-key lookup() results for @p keys, the referee of lookupAll. */
struct PerKeyResults
{
    std::vector<bool> found;
    std::vector<std::vector<std::uint8_t>> values;
};

PerKeyResults
perKeyLookups(PmSystem &sys, Workload &wl,
              const std::vector<std::uint64_t> &keys, bool with_values)
{
    PerKeyResults r;
    for (std::uint64_t key : keys) {
        std::vector<std::uint8_t> got;
        r.found.push_back(wl.lookup(sys, key, with_values ? &got : nullptr));
        r.values.push_back(r.found.back() && with_values
                               ? got
                               : std::vector<std::uint8_t>{});
    }
    return r;
}

/** lookupAll must stream exactly the per-key results, in order, and
 *  stop when the sink says so. */
void
expectLookupAllMatches(PmSystem &sys, Workload &wl,
                       const std::vector<std::uint64_t> &keys,
                       const std::string &where)
{
    for (bool with_values : {true, false}) {
        SCOPED_TRACE(where + (with_values ? " with values" : " no values"));
        const PerKeyResults want = perKeyLookups(sys, wl, keys, with_values);
        std::size_t next = 0;
        wl.lookupAll(sys, keys, with_values,
                     [&](std::size_t i, bool found,
                         const std::vector<std::uint8_t> &got) {
                         EXPECT_EQ(i, next);
                         ++next;
                         EXPECT_EQ(found, want.found[i])
                             << "key " << keys[i];
                         if (found && with_values) {
                             EXPECT_EQ(got, want.values[i])
                                 << "key " << keys[i];
                         }
                         return true;
                     });
        EXPECT_EQ(next, keys.size());

        const std::size_t stop_at = keys.size() / 2;
        std::size_t calls = 0;
        wl.lookupAll(sys, keys, with_values,
                     [&](std::size_t i, bool, const auto &) {
                         ++calls;
                         return i != stop_at;
                     });
        EXPECT_EQ(calls, stop_at + 1);
    }
}

TEST(WorkloadLookupAll, MatchesPerKeyLookup)
{
    std::vector<std::string> names;
    for (const auto *group :
         {&kernelWorkloads(), &kvWorkloads(), &indexWorkloads()}) {
        for (const auto &name : *group) {
            if (std::find(names.begin(), names.end(), name) == names.end())
                names.push_back(name);
        }
    }
    const auto trace =
        ycsbMixedLoad({.numOps = 240, .valueBytes = 40, .seed = 15,
                       .insertPct = 65, .updatePct = 20,
                       .removePct = 15});

    for (const auto &name : names) {
        for (LoggingStyle style : {LoggingStyle::Undo, LoggingStyle::Redo}) {
            const std::string where =
                name + (style == LoggingStyle::Undo ? " undo" : " redo");
            SCOPED_TRACE(where);
            SystemConfig cfg;
            cfg.scheme = SchemeConfig::forKind(SchemeKind::SLPMT);
            cfg.style = style;
            PmSystem sys(cfg);
            auto wl = makeWorkload(name);
            wl->setup(sys);

            std::map<std::uint64_t, bool> live;
            for (const auto &op : trace) {
                switch (op.kind) {
                  case YcsbOpKind::Insert:
                    wl->insert(sys, op.key, op.value);
                    live[op.key] = true;
                    break;
                  case YcsbOpKind::Update:
                    wl->update(sys, op.key, op.value);
                    break;
                  case YcsbOpKind::Remove:
                    if (wl->remove(sys, op.key))
                        live[op.key] = false;
                    break;
                }
            }

            // Trace keys (present and removed), never-inserted keys
            // (trace keys are odd), and one key listed twice.
            std::vector<std::uint64_t> keys;
            for (const auto &[key, present] : live)
                keys.push_back(key);
            for (std::uint64_t k = 2; k <= 20; k += 6)
                keys.push_back(k);
            keys.push_back(trace.front().key);
            const auto removed = std::count_if(
                live.begin(), live.end(),
                [](const auto &kv) { return !kv.second; });
            if (name == "hashtable" || name == "heap" ||
                name == "skiplist") {
                EXPECT_GT(removed, 0);
            }

            // The heap scan stops at the lowest index of a key that
            // appears twice; insert a second copy of a live key.
            if (name == "heap") {
                const auto dup = std::find_if(
                    live.begin(), live.end(),
                    [](const auto &kv) { return kv.second; });
                ASSERT_NE(dup, live.end());
                wl->insert(sys, dup->first,
                           std::vector<std::uint8_t>(24, 0xd7));
                keys.push_back(dup->first);
            }
            expectLookupAllMatches(sys, *wl, keys, "after trace");

            // Crash inside one more insert, then recover.
            const std::uint64_t fresh = 0x5a5a5a5a00ULL;
            sys.armCrashAfterStores(5);
            bool crashed = false;
            try {
                wl->insert(sys, fresh, std::vector<std::uint8_t>(40, 0x3c));
            } catch (const CrashInjected &) {
                crashed = true;
            }
            sys.armCrashAfterStores(0);
            EXPECT_TRUE(crashed);
            if (!crashed)
                sys.crash();
            sys.recoverHardware();
            wl->recover(sys);
            keys.push_back(fresh);
            expectLookupAllMatches(sys, *wl, keys, "after recovery");
        }
    }
}

TEST(WorkloadLookupAll, HeapBatchCostIsLinear)
{
    // The per-key scan issues ~3n^2/2 entry loads for n keys; the
    // batched lookup reads each entry once plus each value once.
    constexpr std::size_t n = 2000;
    PmSystem sys;
    MaxHeapWorkload heap;
    heap.setup(sys);
    const auto ops = ycsbLoad({.numOps = n, .valueBytes = 16, .seed = 16});
    std::vector<std::uint64_t> keys;
    for (const auto &op : ops) {
        heap.insert(sys, op.key, op.value);
        keys.push_back(op.key);
    }

    const StatsSnapshot before = sys.stats().snapshot();
    std::size_t found = 0;
    heap.lookupAll(sys, keys, true,
                   [&](std::size_t, bool hit, const auto &) {
                       found += hit ? 1 : 0;
                       return true;
                   });
    const StatsSnapshot delta =
        StatsRegistry::delta(before, sys.stats().snapshot());
    EXPECT_EQ(found, n);
    auto get = [&](const char *name) {
        auto it = delta.find(name);
        return it == delta.end() ? std::uint64_t{0} : it->second;
    };
    const std::uint64_t l1_accesses =
        get("cache.l1Hits") + get("cache.l1Misses");
    EXPECT_GT(l1_accesses, 0u);
    EXPECT_LE(l1_accesses, 8 * n) << "lookupAll is not linear in n";
}

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
