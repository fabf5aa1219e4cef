#include "service/service_crash.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "checkpoint/checkpoint.hh"
#include "common/rng.hh"
#include "common/work_queue.hh"
#include "workloads/factory.hh"
#include "workloads/ycsb.hh"

namespace slpmt
{
namespace
{

constexpr std::size_t maxViolationsPerPhase = 4;

/** One entry of the arrival-ordered (shard, op) dispatch list. */
struct DispatchOp
{
    std::size_t shard = 0;
    ShardOp op;
};

/** Last-write-wins value recipe of one committed key. */
struct ShadowValue
{
    std::uint64_t valueSalt = 0;
    std::uint32_t valueBytes = 0;
};

using Shadow = std::map<std::uint64_t, ShadowValue>;

std::string
styleName(LoggingStyle style)
{
    return style == LoggingStyle::Undo ? "undo" : "redo";
}

std::string
hexKey(std::uint64_t key)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

std::string
reproTuple(const ServiceCrashConfig &cfg, std::uint64_t crash_point)
{
    return "(scheme=" + schemeName(cfg.scheme) +
           " style=" + styleName(cfg.style) +
           " workload=" + cfg.workload +
           " shards=" + std::to_string(cfg.numShards) +
           " seed=" + std::to_string(cfg.load.seed) +
           std::string(cfg.tinyCache ? " tiny_cache=1" : "") +
           " ckpt_interval=" + std::to_string(cfg.checkpointInterval) +
           " crash_point=" + std::to_string(crash_point) + ")";
}

SystemConfig
shardSysConfig(const ServiceCrashConfig &cfg)
{
    SystemConfig sys;
    sys.scheme = SchemeConfig::forKind(cfg.scheme);
    sys.style = cfg.style;
    sys.numCores = 1;
    if (cfg.tinyCache) {
        sys.hierarchy.l1 = CacheConfig{"L1", 1024, 2, 4};
        sys.hierarchy.l2 = CacheConfig{"L2", 2048, 2, 12};
        sys.hierarchy.l3 = CacheConfig{"L3", 4096, 4, 40};
    }
    return sys;
}

/** Lower the generated load (preload then requests, arrival order)
 *  to the flat dispatch list; per-shard subsequences equal the
 *  routeOps() streams by construction. */
std::vector<DispatchOp>
buildDispatch(const ServiceCrashConfig &cfg, const SvcLoad &load)
{
    const ShardRouter router(cfg.numShards, cfg.routerSalt);
    std::vector<DispatchOp> dispatch;
    auto lower = [&](const std::vector<SvcOp> &ops) {
        for (const SvcOp &op : ops) {
            if (op.kind == SvcOpKind::Scan) {
                for (std::uint32_t j = 0; j < op.scanLen; ++j) {
                    ShardOp sub;
                    sub.kind = SvcOpKind::Scan;
                    sub.key =
                        svcKeyForRecord(op.record + j, load.keySalt);
                    dispatch.push_back(
                        {router.shardOf(sub.key), sub});
                }
                continue;
            }
            ShardOp out;
            out.kind = op.kind;
            out.key = op.key;
            out.valueBytes = op.valueBytes;
            out.valueSalt = op.valueSalt;
            dispatch.push_back({router.shardOf(out.key), out});
        }
    };
    lower(load.preload);
    lower(load.ops);
    return dispatch;
}

/** The service's shard machines plus the global store ordinal. */
struct ShardSet
{
    std::vector<std::unique_ptr<McMachine>> machines;
    std::vector<std::unique_ptr<Workload>> workloads;
    std::uint64_t baseStores = 0;

    std::uint64_t
    rawStores() const
    {
        std::uint64_t total = 0;
        for (const auto &m : machines)
            total += m->storesExecuted();
        return total;
    }

    std::uint64_t globalStores() const { return rawStores() - baseStores; }
};

/** Fresh machines; setup() runs when @p with_setup (restores skip it:
 *  the checkpoint rewrites the whole machine and the cloned workload
 *  carries the roots). */
ShardSet
makeShards(const ServiceCrashConfig &cfg, bool with_setup)
{
    ShardSet set;
    const SystemConfig sys = shardSysConfig(cfg);
    for (std::size_t s = 0; s < cfg.numShards; ++s) {
        set.machines.push_back(std::make_unique<McMachine>(sys));
        if (with_setup) {
            set.workloads.push_back(makeWorkload(cfg.workload));
            set.workloads.back()->setup(set.machines[s]->context(0));
        }
    }
    set.baseStores = set.rawStores();
    return set;
}

/**
 * One node of the master run's checkpoint chain: every shard machine
 * and workload captured at the same request boundary. Immutable
 * after capture; workers fork from it concurrently.
 */
struct SvcCheckpoint
{
    std::vector<std::shared_ptr<const MachineCheckpoint>> machines;
    std::vector<std::shared_ptr<const Workload>> workloads;
    std::size_t opIndex = 0;
    std::uint64_t storesAt = 0;
};

struct SvcChain
{
    std::vector<SvcCheckpoint> entries;

    /** Global stores completed before dispatch op i; the extra final
     *  entry is the whole trace's store count. */
    std::vector<std::uint64_t> opStart;
    std::uint64_t traceStores = 0;
};

/** The master run: execute the dispatch once, recording every op's
 *  global store ordinal and (optionally) dropping checkpoints. */
SvcChain
buildChain(const ServiceCrashConfig &cfg,
           const std::vector<DispatchOp> &dispatch, bool with_checkpoints)
{
    SvcChain chain;
    ShardSet set = makeShards(cfg, true);
    const std::uint64_t interval =
        std::max<std::size_t>(cfg.checkpointInterval, 1);

    auto capture = [&](std::size_t op_index) {
        SvcCheckpoint t;
        for (std::size_t s = 0; s < cfg.numShards; ++s) {
            t.machines.push_back(
                std::make_shared<const MachineCheckpoint>(
                    MachineCheckpoint::capture(*set.machines[s])));
            t.workloads.push_back(set.workloads[s]->clone());
        }
        t.opIndex = op_index;
        t.storesAt = set.globalStores();
        chain.entries.push_back(std::move(t));
    };

    if (with_checkpoints)
        capture(0);
    for (std::size_t i = 0; i < dispatch.size(); ++i) {
        const std::uint64_t stores = set.globalStores();
        chain.opStart.push_back(stores);
        if (with_checkpoints &&
            stores - chain.entries.back().storesAt >= interval)
            capture(i);
        const DispatchOp &d = dispatch[i];
        applyShardOp(set.machines[d.shard]->context(0),
                     *set.workloads[d.shard], d.op);
    }
    chain.traceStores = set.globalStores();
    chain.opStart.push_back(chain.traceStores);
    return chain;
}

/** Oracle comparison of every recovered shard with the shadow.
 *  @p interrupted is the dispatch op the crash unwound (nullptr for
 *  the post-completion point); its key may atomically hold the old
 *  or the new value. */
void
checkState(ShardSet &set, const ShardRouter &router, const Shadow &shadow,
           const DispatchOp *interrupted,
           const std::vector<std::uint64_t> &absent_keys,
           const std::string &tuple, const std::string &phase,
           std::vector<std::string> &out)
{
    std::size_t added = 0;
    auto add = [&](const std::string &msg) {
        if (added < maxViolationsPerPhase)
            out.push_back(tuple + " " + phase + ": " + msg);
        else if (added == maxViolationsPerPhase)
            out.push_back(tuple + " " + phase +
                          ": further violations suppressed");
        ++added;
    };

    const bool interrupted_mutation =
        interrupted && interrupted->op.isMutation();
    const std::uint64_t ikey =
        interrupted_mutation ? interrupted->op.key : 0;

    std::vector<std::size_t> expected_counts(router.numShards(), 0);
    for (const auto &[key, value] : shadow)
        expected_counts[router.shardOf(key)]++;

    for (std::size_t s = 0; s < router.numShards(); ++s) {
        PmContext &ctx = set.machines[s]->context(0);
        Workload &wl = *set.workloads[s];
        const std::string where = "shard " + std::to_string(s) + " ";

        std::string why;
        if (!wl.checkConsistency(ctx, &why))
            add(where + "structure invariant violated: " + why);

        // The interrupted request may atomically add one key.
        const std::size_t n = wl.count(ctx);
        const bool slack = interrupted_mutation &&
                           !shadow.count(ikey) &&
                           router.shardOf(ikey) == s;
        if (n != expected_counts[s] &&
            !(slack && n == expected_counts[s] + 1))
            add(where + "count mismatch: structure holds " +
                std::to_string(n) + ", oracle expects " +
                std::to_string(expected_counts[s]) +
                (slack ? " (+1 allowed)" : ""));

        std::vector<std::uint8_t> got;
        for (const auto &[key, value] : shadow) {
            if (router.shardOf(key) != s)
                continue;
            got.clear();
            if (interrupted_mutation && key == ikey) {
                // Old-or-new, never torn.
                if (!wl.lookup(ctx, key, &got)) {
                    add(where + "interrupted key " + hexKey(key) +
                        " lost its committed value");
                } else if (got != svcValueFor(key, value.valueSalt,
                                              value.valueBytes) &&
                           got != svcValueFor(
                                      key, interrupted->op.valueSalt,
                                      interrupted->op.valueBytes)) {
                    add(where + "interrupted key " + hexKey(key) +
                        " holds neither old nor new value");
                }
                continue;
            }
            if (!wl.lookup(ctx, key, &got))
                add(where + "committed key " + hexKey(key) +
                    " missing");
            else if (got != svcValueFor(key, value.valueSalt,
                                        value.valueBytes))
                add(where + "value mismatch for committed key " +
                    hexKey(key));
        }

        // A fresh interrupted insert is allowed fully in or fully
        // out — but never torn.
        if (slack && wl.lookup(ctx, ikey, &got) &&
            got != svcValueFor(ikey, interrupted->op.valueSalt,
                               interrupted->op.valueBytes))
            add(where + "interrupted fresh key " + hexKey(ikey) +
                " visible with a torn value");
    }

    for (std::uint64_t key : absent_keys) {
        if (set.workloads[router.shardOf(key)]->lookup(
                set.machines[router.shardOf(key)]->context(0), key,
                nullptr))
            add("future key " + hexKey(key) + " visible on shard " +
                std::to_string(router.shardOf(key)));
    }
}

/**
 * From the crash onward every path is the same: power-fail every
 * shard, recover each, and run the oracle phases against the
 * completed request prefix.
 */
void
finishPoint(const ServiceCrashConfig &cfg,
            const std::vector<DispatchOp> &dispatch, ShardSet &set,
            std::size_t completed_ops, const DispatchOp *interrupted,
            const std::string &tuple, ServiceCrashPointOutcome &out)
{
    const ShardRouter router(cfg.numShards, cfg.routerSalt);
    out.completedOps = completed_ops;

    // Power failure is service-wide: every shard machine goes down,
    // the one that fired included (its engine crashed only itself).
    for (auto &machine : set.machines)
        machine->crash();

    Shadow shadow;
    for (std::size_t i = 0; i < completed_ops; ++i) {
        const ShardOp &op = dispatch[i].op;
        if (op.isMutation())
            shadow[op.key] = {op.valueSalt, op.valueBytes};
    }

    // Keys no completed (or interrupted) request ever wrote must not
    // surface.
    std::vector<std::uint64_t> absent;
    {
        std::set<std::uint64_t> future;
        for (std::size_t i = completed_ops; i < dispatch.size(); ++i)
            if (dispatch[i].op.isMutation())
                future.insert(dispatch[i].op.key);
        for (std::uint64_t key : future) {
            if (!shadow.count(key) &&
                !(interrupted && interrupted->op.isMutation() &&
                  interrupted->op.key == key))
                absent.push_back(key);
        }
    }

    // Hardware log replay, then the workload's user-level recovery,
    // on every shard.
    for (std::size_t s = 0; s < cfg.numShards; ++s) {
        out.replayedRecords += set.machines[s]->recover();
        set.workloads[s]->recover(set.machines[s]->context(0));
    }
    checkState(set, router, shadow, interrupted, absent, tuple,
               "post-recovery", out.violations);

    if (cfg.checkIdempotence) {
        std::size_t again = 0;
        for (std::size_t s = 0; s < cfg.numShards; ++s) {
            again += set.machines[s]->recover();
            set.workloads[s]->recover(set.machines[s]->context(0));
        }
        if (again != 0)
            out.violations.push_back(
                tuple + " idempotence: second hardware recovery "
                        "replayed " +
                std::to_string(again) + " records");
        checkState(set, router, shadow, interrupted, absent, tuple,
                   "idempotence", out.violations);
    }

    // Every shard must keep serving: fresh inserts routed like any
    // request (generator keys have bit 62 set; continuation keys set
    // bit 61 instead, so they can never collide).
    if (cfg.continuationOps > 0) {
        Rng rng(mix64(cfg.load.seed) ^ (out.crashPoint + 1));
        std::vector<std::uint8_t> got;
        for (std::size_t i = 0; i < cfg.continuationOps; ++i) {
            const std::uint64_t key =
                (std::uint64_t{1} << 61) |
                (rng.next() & ((std::uint64_t{1} << 61) - 1));
            const std::size_t s = router.shardOf(key);
            const auto value = ycsbValueFor(key, 64);
            set.workloads[s]->insert(set.machines[s]->context(0), key,
                                     value);
            got.clear();
            if (!set.workloads[s]->lookup(set.machines[s]->context(0),
                                          key, &got) ||
                got != value)
                out.violations.push_back(
                    tuple + " continuation: fresh key " + hexKey(key) +
                    " unreadable on shard " + std::to_string(s));
        }
    }
}

/** Index of the dispatch op during which global store @p g executes:
 *  the largest i with opStart[i] < g (zero-store requests can never
 *  hold a crash point). */
std::size_t
opForStore(const std::vector<std::uint64_t> &op_start, std::uint64_t g)
{
    std::size_t i = 0;
    for (std::size_t j = 0; j + 1 < op_start.size(); ++j)
        if (op_start[j] < g)
            i = j;
    return i;
}

/** Replay dispatch ops [from, to) on an already-positioned set. */
void
replayOps(const std::vector<DispatchOp> &dispatch, ShardSet &set,
          std::size_t from, std::size_t to)
{
    for (std::size_t i = from; i < to; ++i) {
        const DispatchOp &d = dispatch[i];
        applyShardOp(set.machines[d.shard]->context(0),
                     *set.workloads[d.shard], d.op);
    }
}

/** Run one crash point, forking from @p ckpt when given (restore)
 *  or from scratch (fresh setup + full replay) otherwise. */
ServiceCrashPointOutcome
runPoint(const ServiceCrashConfig &cfg,
         const std::vector<DispatchOp> &dispatch,
         const std::vector<std::uint64_t> &op_start,
         const SvcCheckpoint *ckpt, std::uint64_t crash_point)
{
    ServiceCrashPointOutcome out;
    out.crashPoint = crash_point;
    const std::string tuple = reproTuple(cfg, crash_point);

    try {
        ShardSet set = makeShards(cfg, ckpt == nullptr);
        std::size_t at = 0;
        std::uint64_t stores_at = 0;
        if (ckpt) {
            for (std::size_t s = 0; s < cfg.numShards; ++s) {
                set.workloads.push_back(ckpt->workloads[s]->clone());
                ckpt->machines[s]->restore(*set.machines[s]);
            }
            at = ckpt->opIndex;
            stores_at = ckpt->storesAt;
        }

        if (crash_point == 0) {
            // Post-completion point: run out, then power off with
            // lazy data still volatile.
            replayOps(dispatch, set, at, dispatch.size());
            finishPoint(cfg, dispatch, set, dispatch.size(), nullptr,
                        tuple, out);
            return out;
        }

        const std::size_t target = opForStore(op_start, crash_point);
        replayOps(dispatch, set, at, target);

        const DispatchOp &victim = dispatch[target];
        out.crashShard = victim.shard;
        McMachine &machine = *set.machines[victim.shard];
        machine.armCrashAfterStores(crash_point - op_start[target]);
        try {
            applyShardOp(machine.context(0),
                         *set.workloads[victim.shard], victim.op);
        } catch (const CrashInjected &) {
            out.fired = true;
        }
        machine.armCrashAfterStores(0);
        if (!out.fired)
            out.violations.push_back(
                tuple + " armed crash did not fire (stores at " +
                std::to_string(stores_at) + ")");
        finishPoint(cfg, dispatch, set, target, &victim, tuple, out);
    } catch (const std::exception &e) {
        out.violations.push_back(tuple + " exception: " + e.what());
    }
    return out;
}

/** Stratified point enumeration (mirrors the multicore sweep). */
std::vector<std::uint64_t>
enumeratePoints(const ServiceCrashConfig &cfg, std::uint64_t total_stores)
{
    std::vector<std::uint64_t> points;
    const std::uint64_t total = total_stores;
    if (total > 0) {
        if (cfg.maxPoints == 0 || total <= cfg.maxPoints) {
            for (std::uint64_t k = 1; k <= total; ++k)
                points.push_back(k);
        } else {
            Rng rng(mix64(cfg.load.seed ^ 0x5e4'71ce'c4a5'4f1eULL));
            const std::uint64_t strata = cfg.maxPoints;
            for (std::uint64_t s = 0; s < strata; ++s) {
                const std::uint64_t lo = 1 + s * total / strata;
                const std::uint64_t hi = 1 + (s + 1) * total / strata;
                points.push_back(hi > lo ? lo + rng.below(hi - lo)
                                         : lo);
            }
            points.front() = 1;
            points.back() = total;
            std::sort(points.begin(), points.end());
            points.erase(std::unique(points.begin(), points.end()),
                         points.end());
        }
    }
    if (cfg.crashAfterCompletion)
        points.push_back(0);
    return points;
}

/** The chain entry forking point @p g: last one strictly below. */
const SvcCheckpoint *
entryFor(const SvcChain &chain, std::uint64_t g)
{
    const SvcCheckpoint *ckpt = &chain.entries.front();
    for (const auto &entry : chain.entries) {
        if (g == 0 || entry.storesAt < g)
            ckpt = &entry;
        else
            break;
    }
    return ckpt;
}

} // namespace

ServiceCrashPointOutcome
runServiceCrashPoint(const ServiceCrashConfig &cfg,
                     std::uint64_t crash_point)
{
    const SvcLoad load = svcGenerate(cfg.load);
    const auto dispatch = buildDispatch(cfg, load);
    const SvcChain chain = buildChain(cfg, dispatch, false);
    return runPoint(cfg, dispatch, chain.opStart, nullptr, crash_point);
}

ServiceCrashSweepReport
runServiceCrashSweep(const ServiceCrashConfig &cfg)
{
    ServiceCrashSweepReport report;
    report.config = cfg;

    const SvcLoad load = svcGenerate(cfg.load);
    const auto dispatch = buildDispatch(cfg, load);
    report.dispatchOps = dispatch.size();

    const SvcChain chain =
        buildChain(cfg, dispatch, cfg.useCheckpoints);
    report.traceStores = chain.traceStores;
    const auto points = enumeratePoints(cfg, report.traceStores);
    report.points.resize(points.size());
    runWorkStealing(std::max<std::size_t>(cfg.workers, 1),
                    points.size(), [&](std::size_t i) {
                        const SvcCheckpoint *ckpt =
                            cfg.useCheckpoints
                                ? entryFor(chain, points[i])
                                : nullptr;
                        report.points[i] =
                            runPoint(cfg, dispatch, chain.opStart,
                                     ckpt, points[i]);
                    });
    return report;
}

std::size_t
ServiceCrashSweepReport::violationCount() const
{
    std::size_t n = 0;
    for (const auto &p : points)
        n += p.violations.size();
    return n;
}

std::uint64_t
ServiceCrashSweepReport::replayedRecordsTotal() const
{
    std::uint64_t n = 0;
    for (const auto &p : points)
        n += p.replayedRecords;
    return n;
}

std::string
ServiceCrashSweepReport::violationsText() const
{
    std::string text;
    for (const auto &p : points) {
        for (const auto &v : p.violations) {
            text += v;
            text += '\n';
        }
    }
    return text;
}

std::string
ServiceCrashSweepReport::summaryText() const
{
    std::size_t fired = 0;
    for (const auto &p : points)
        fired += p.fired ? 1 : 0;
    std::string text;
    text += "service-crash-sweep scheme=" + schemeName(config.scheme) +
            " style=" + styleName(config.style) +
            " workload=" + config.workload +
            " shards=" + std::to_string(config.numShards) +
            " seed=" + std::to_string(config.load.seed) + "\n";
    text += "  trace_stores=" + std::to_string(traceStores) +
            " dispatch_ops=" + std::to_string(dispatchOps) +
            " points=" + std::to_string(pointsExplored()) +
            " fired=" + std::to_string(fired) +
            " replayed_records=" +
            std::to_string(replayedRecordsTotal()) +
            " violations=" + std::to_string(violationCount()) + "\n";
    text += violationsText();
    return text;
}

} // namespace slpmt
