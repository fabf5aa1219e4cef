#include "service/service.hh"

#include <algorithm>
#include <exception>
#include <map>
#include <memory>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/work_queue.hh"
#include "compiler/compiler_policy.hh"
#include "mem/paged_memory.hh"
#include "workloads/factory.hh"

namespace slpmt
{
namespace
{

/** Last-write-wins value identity of one key: the recompute recipe. */
struct ExpectedValue
{
    std::uint64_t valueSalt = 0;
    std::uint32_t valueBytes = 0;
};

/** One shard's slice of the expected final KV state, in key order. */
using ShardOracle = std::vector<std::pair<std::uint64_t, ExpectedValue>>;

/** Expected final KV state of the whole service, split by shard:
 *  every mutation of the arrival-ordered load folded last-write-wins. */
std::vector<ShardOracle>
expectedState(const SvcLoad &load, const ShardRouter &router)
{
    std::map<std::uint64_t, ExpectedValue> expected;
    for (const SvcOp &op : load.preload)
        expected[op.key] = {op.valueSalt, op.valueBytes};
    for (const SvcOp &op : load.ops) {
        if (op.isMutation())
            expected[op.key] = {op.valueSalt, op.valueBytes};
    }
    std::vector<ShardOracle> shards(router.numShards());
    for (const auto &[key, value] : expected)
        shards[router.shardOf(key)].emplace_back(key, value);
    return shards;
}

/** Per-op service instrument handles. */
struct ServiceCounters
{
    StatsRegistry::Counter shardOps;
    StatsRegistry::Counter reads;
    StatsRegistry::Counter readHits;
    StatsRegistry::Counter inserts;
    StatsRegistry::Counter updates;
    StatsRegistry::Counter rmws;
    StatsRegistry::Counter scannedKeys;
    StatsRegistry::Counter upsertFallbacks;
    StatsRegistry::Histogram latency;
    StatsRegistry::Histogram commitLatency;

    explicit ServiceCounters(StatsRegistry &reg)
    {
        const StatGroup g(reg, "service");
        shardOps = g.counter("shardOps");
        reads = g.counter("reads");
        readHits = g.counter("readHits");
        inserts = g.counter("inserts");
        updates = g.counter("updates");
        rmws = g.counter("rmws");
        scannedKeys = g.counter("scannedKeys");
        upsertFallbacks = g.counter("upsertFallbacks");
        latency = g.histogram("latency", serviceLatencyBounds());
        commitLatency =
            g.histogram("commitLatency", serviceLatencyBounds());
    }

    /** Fold in another registry's instruments (a shard's). */
    void
    add(const ServiceCounters &o)
    {
        shardOps += o.shardOps.get();
        reads += o.reads.get();
        readHits += o.readHits.get();
        inserts += o.inserts.get();
        updates += o.updates.get();
        rmws += o.rmws.get();
        scannedKeys += o.scannedKeys.get();
        upsertFallbacks += o.upsertFallbacks.get();
        latency.merge(*o.latency.get());
        commitLatency.merge(*o.commitLatency.get());
    }

    void
    note(const ShardOp &op, const ShardOpOutcome &out)
    {
        shardOps++;
        latency.record(out.cycles);
        if (op.isMutation())
            commitLatency.record(out.cycles);
        if (out.fallbackInsert)
            upsertFallbacks++;
        switch (op.kind) {
          case SvcOpKind::Insert:
            inserts++;
            break;
          case SvcOpKind::Update:
            updates++;
            break;
          case SvcOpKind::ReadModifyWrite:
            rmws++;
            break;
          case SvcOpKind::Scan:
            scannedKeys++;
            [[fallthrough]];
          case SvcOpKind::Read:
            reads++;
            if (out.hit)
                readHits++;
            break;
        }
    }
};

/** A core's slice of one shard's op stream (multicore shards). */
class ShardCoreDriver : public McCoreDriver
{
  public:
    ShardCoreDriver(PmContext &ctx, Workload &wl,
                    std::vector<ShardOp> ops, ServiceCounters &ctrs)
        : ctx(ctx), wl(wl), ops(std::move(ops)), counters(ctrs)
    {
    }

    bool done() const override { return cursor >= ops.size(); }

    void
    step() override
    {
        const ShardOp &op = ops[cursor];
        counters.note(op, applyShardOp(ctx, wl, op));
        ++cursor;
    }

  private:
    PmContext &ctx;
    Workload &wl;
    std::vector<ShardOp> ops;
    ServiceCounters &counters;
    std::size_t cursor = 0;
};

/** What one shard's life hands back to the merge. */
struct ShardRun
{
    ShardRun() = default;
    ShardRun(const ShardRun &) = delete;
    ShardRun &operator=(const ShardRun &) = delete;

    StatsRegistry stats;               //!< backs counters only
    ServiceCounters counters{stats};   //!< measured-window requests
    StatsSnapshot before;              //!< machine, window start
    StatsSnapshot after;               //!< machine, window end
    Cycles cycles = 0;                 //!< slowest core's window
    Cycles coreCyclesSum = 0;          //!< every core's window
    std::uint64_t imageFp = 0;         //!< PM image at window end
    std::string failure;               //!< oracle diagnostic, if any
    std::exception_ptr error;          //!< exception thrown, if any
};

/**
 * One shard's whole life: construct its machine, set up and preload
 * its structure, run the measured window, capture its identities and
 * verify it against its slice of the oracle. The machine dies on the
 * calling thread before this returns.
 */
void
runShard(const ServiceConfig &cfg, const SystemConfig &sys_cfg,
         std::size_t s, const std::vector<ShardOp> &preload,
         const std::vector<ShardOp> &stream, const ShardOracle &expected,
         ShardRun &run)
{
    const auto machine_ptr = std::make_unique<McMachine>(sys_cfg);
    McMachine &machine = *machine_ptr;
    if (cfg.policy)
        machine.setAnnotationPolicy(cfg.policy);
    const std::unique_ptr<Workload> wl = makeWorkload(cfg.workload);
    wl->setup(machine.context(0));
    // Preload (outside the measured window): arrival order on core 0,
    // like every driver's setup phase.
    for (const ShardOp &op : preload)
        applyShardOp(machine.context(0), *wl, op);

    // Measured window: the shard's request phase.
    run.before = machine.snapshot();
    std::vector<Cycles> start;
    for (std::size_t c = 0; c < cfg.coresPerShard; ++c)
        start.push_back(machine.core(c).engine().now());
    if (cfg.coresPerShard == 1) {
        for (const ShardOp &op : stream)
            run.counters.note(op,
                              applyShardOp(machine.context(0), *wl, op));
    } else {
        // Deal the shard's stream over its cores *by key* — the
        // last-write-wins oracle needs every key's mutations to stay
        // program-ordered, and a key's insert must precede its
        // updates; pinning each key to one core preserves both while
        // cross-key interleaving stays free. Then interleave with the
        // seeded scheduler (a distinct seed per shard so shards do not
        // replay each other's draws).
        constexpr std::uint64_t core_salt = 0xc0de'5a17'dea1ULL;
        std::vector<std::vector<ShardOp>> slices(cfg.coresPerShard);
        for (const ShardOp &op : stream)
            slices[mix64Salted(op.key, core_salt) % cfg.coresPerShard]
                .push_back(op);
        std::vector<std::unique_ptr<ShardCoreDriver>> drivers;
        std::vector<McCoreDriver *> ptrs;
        for (std::size_t c = 0; c < cfg.coresPerShard; ++c) {
            drivers.push_back(std::make_unique<ShardCoreDriver>(
                machine.context(c), *wl, std::move(slices[c]),
                run.counters));
            ptrs.push_back(drivers.back().get());
        }
        McSchedConfig sched = cfg.sched;
        sched.seed = mix64Salted(cfg.sched.seed, s + 1);
        runInterleaved(machine, ptrs, sched);
    }
    for (std::size_t c = 0; c < cfg.coresPerShard; ++c) {
        const Cycles core_cycles = machine.core(c).engine().now() - start[c];
        run.cycles = std::max(run.cycles, core_cycles);
        run.coreCyclesSum += core_cycles;
    }

    // Capture the bit-for-bit identities before verification perturbs
    // caches and clocks.
    run.after = machine.snapshot();
    run.imageFp = pmImageFingerprint(machine);

    // Verification (outside the measured window): the shard against
    // its slice of the last-write-wins oracle.
    PmContext &ctx = machine.context(0);
    const std::string shard = "shard " + std::to_string(s);
    std::string why;
    if (!wl->checkConsistency(ctx, &why)) {
        run.failure = shard + " consistency: " + why;
        return;
    }
    if (wl->count(ctx) != expected.size()) {
        run.failure = shard + " count mismatch: holds " +
                      std::to_string(wl->count(ctx)) +
                      ", oracle expects " +
                      std::to_string(expected.size());
        return;
    }
    wl->lookupAll(
        ctx, keysOf(expected), true,
        [&](std::size_t i, bool found, const std::vector<std::uint8_t> &got) {
            const auto &[key, value] = expected[i];
            if (found &&
                got == svcValueFor(key, value.valueSalt, value.valueBytes))
                return true;
            run.failure =
                shard + " lookup mismatch at key " + std::to_string(key);
            return false;
        });
}

const AnnotationPolicy *
policyFor(AnnotationMode mode)
{
    static const NullAnnotationPolicy null_policy;
    static const ManualAnnotationPolicy manual_policy;
    static const CompilerAnnotationPolicy compiler_policy;
    switch (mode) {
      case AnnotationMode::None:
        return &null_policy;
      case AnnotationMode::Manual:
        return &manual_policy;
      case AnnotationMode::Compiler:
        return &compiler_policy;
    }
    return &manual_policy;
}

} // namespace

ShardOpOutcome
applyShardOp(PmContext &ctx, Workload &wl, const ShardOp &op)
{
    ShardOpOutcome out;
    const Cycles start = ctx.cycles();
    switch (op.kind) {
      case SvcOpKind::Insert:
        wl.insert(ctx, op.key,
                  svcValueFor(op.key, op.valueSalt, op.valueBytes));
        break;
      case SvcOpKind::Update:
      case SvcOpKind::ReadModifyWrite: {
        if (op.kind == SvcOpKind::ReadModifyWrite)
            wl.lookup(ctx, op.key, nullptr);  // the read half
        const auto value =
            svcValueFor(op.key, op.valueSalt, op.valueBytes);
        out.hit = wl.update(ctx, op.key, value);
        if (!out.hit) {
            wl.insert(ctx, op.key, value);
            out.fallbackInsert = true;
        }
        break;
      }
      case SvcOpKind::Read:
      case SvcOpKind::Scan:
        out.hit = wl.lookup(ctx, op.key, nullptr);
        break;
    }
    out.cycles = ctx.cycles() - start;
    return out;
}

std::vector<std::uint64_t>
serviceLatencyBounds()
{
    std::vector<std::uint64_t> bounds;
    for (std::uint64_t v = 64; v < 20'000'000; v += v / 4)
        bounds.push_back(v);
    return bounds;
}

std::uint64_t
pmImageFingerprint(const McMachine &machine)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto fold = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    machine.pm().memory().forEachPageSorted(
        [&](Addr page, const PagedMemory::Page &data) {
            fold(page);
            for (std::uint8_t byte : data) {
                h ^= byte;
                h *= 0x100000001b3ULL;
            }
        });
    return h;
}

KvServiceResult
runService(const ServiceConfig &cfg)
{
    panicIfNot(cfg.numShards >= 1, "service needs at least one shard");
    panicIfNot(cfg.coresPerShard >= 1,
               "service shards need at least one core");

    const SvcLoad load = svcGenerate(cfg.load);
    const ShardRouter router(cfg.numShards, cfg.routerSalt);
    const auto preload = routeOps(router, load.preload, load.keySalt);
    const auto streams = routeOps(router, load.ops, load.keySalt);

    const std::vector<ShardOracle> expected = expectedState(load, router);

    SystemConfig sys_cfg = cfg.sys;
    sys_cfg.numCores = cfg.coresPerShard;

    // Each shard's whole life runs as one pool item and records into
    // its own ShardRun; nothing else is shared but read-only inputs.
    std::vector<ShardRun> runs(cfg.numShards);
    const std::size_t workers =
        std::min(cfg.numShards, poolThreadBudget());
    runWorkStealing(workers, cfg.numShards, [&](std::size_t s) {
        try {
            runShard(cfg, sys_cfg, s, preload[s], streams[s],
                     expected[s], runs[s]);
        } catch (...) {
            runs[s].error = std::current_exception();
        }
    });
#if defined(__GLIBC__)
    // Worker threads allocate from their own malloc arenas, which keep
    // the destroyed shards' pages resident; hand them back.
    if (workers > 1)
        malloc_trim(0);
#endif

    // Merge in shard order: the service instruments sum into one
    // registry, shard machine deltas land under "shardN.".
    KvServiceResult res;
    StatsRegistry svc_stats;
    ServiceCounters counters(svc_stats);
    res.verified = true;
    for (std::size_t s = 0; s < cfg.numShards; ++s) {
        ShardRun &run = runs[s];
        if (run.error)
            std::rethrow_exception(run.error);
        counters.add(run.counters);
        res.shardCycles.push_back(run.cycles);
        res.shardOps.push_back(streams[s].size());
        res.makespan = std::max(res.makespan, run.cycles);
        res.coreCyclesSum += run.coreCyclesSum;
        res.shardImageFp.push_back(run.imageFp);
        if (res.verified && !run.failure.empty()) {
            res.verified = false;
            res.failure = std::move(run.failure);
        }
        const std::string prefix = "shard" + std::to_string(s) + ".";
        for (const auto &[name, value] :
             StatsRegistry::delta(run.before, run.after))
            res.stats[prefix + name] = value;
        res.shardSnapshots.push_back(std::move(run.after));
    }
    res.stats.merge(svc_stats.snapshot());

    // Derived integer gauges the figure table reads.
    const StatsRegistry::HistogramData &lat =
        *counters.latency.get();
    const StatsRegistry::HistogramData &commit =
        *counters.commitLatency.get();
    res.stats["service.latency.p50"] = lat.percentile(50, 100);
    res.stats["service.latency.p99"] = lat.percentile(99, 100);
    res.stats["service.latency.p999"] = lat.percentile(999, 1000);
    res.stats["service.commitLatency.p50"] =
        commit.percentile(50, 100);
    res.stats["service.commitLatency.p99"] =
        commit.percentile(99, 100);
    res.stats["service.commitLatency.p999"] =
        commit.percentile(999, 1000);
    res.stats["service.requests"] = load.ops.size();
    res.stats["service.makespanCycles"] = res.makespan;
    if (res.makespan > 0)
        res.stats["service.opsPerGcycle"] =
            load.ops.size() * 1'000'000'000ULL / res.makespan;
    return res;
}

ExperimentResult
runServiceExperiment(const std::string &workload_name,
                     const ExperimentConfig &cfg)
{
    ServiceConfig svc;
    svc.workload = workload_name;
    svc.numShards = cfg.service.shards;
    svc.coresPerShard = std::max<std::size_t>(1, cfg.numCores);

    svc.load.mix = static_cast<YcsbMix>(cfg.service.mix);
    svc.load.skew = cfg.service.zipfian ? KeySkew::Zipfian
                                        : KeySkew::Uniform;
    svc.load.zipfThetaBp = cfg.service.zipfThetaBp;
    svc.load.keySpace = cfg.service.keySpace;
    svc.load.preloadRecords = cfg.service.preloadRecords;
    svc.load.numOps = cfg.ycsb.numOps;
    svc.load.valueBytesMax = cfg.ycsb.valueBytes;
    svc.load.valueBytesMin = cfg.service.valueBytesMin
                                 ? cfg.service.valueBytesMin
                                 : cfg.ycsb.valueBytes;
    svc.load.churnInterval = cfg.service.churnInterval;
    svc.load.seed = cfg.ycsb.seed;

    svc.sched.seed = cfg.ycsb.seed;
    svc.sched.quantumOps = cfg.mcQuantumOps;

    svc.sys.scheme = SchemeConfig::forKind(cfg.scheme);
    svc.sys.scheme.speculativeRounding = cfg.speculativeRounding;
    svc.sys.scheme.numTxnIds = cfg.numTxnIds;
    svc.sys.style = cfg.style;
    svc.sys.pm.writeLatencyNs = cfg.pmWriteLatencyNs;
    svc.sys.useMetaIndex = cfg.useMetaIndex;
    svc.sys.layoutAudit = cfg.layoutAudit;
    svc.policy = policyFor(cfg.annotations);

    const KvServiceResult run = runService(svc);

    ExperimentResult result;
    result.workload = workload_name;
    result.scheme = cfg.scheme;
    result.cycles = run.makespan;
    result.coreCyclesSum = run.coreCyclesSum;

    // Shared-device counters appear once per shard under "shardN.";
    // engine counters per core under "shardN.coreM.". Summing
    // ".name"-suffixed matches covers both.
    auto sum = [&](const std::string &name) {
        const std::string dotted = "." + name;
        std::uint64_t total = 0;
        for (const auto &[key, value] : run.stats)
            if (key == name || key.ends_with(dotted))
                total += value;
        return total;
    };
    result.pmWriteBytes = sum("pm.bytesWritten");
    result.pmDataBytes = sum("pm.dataBytesWritten");
    result.pmLogBytes = sum("pm.logBytesWritten");
    result.commits = sum("txn.committed");
    result.logRecords = sum("txn.logRecordsCreated");
    result.stats = run.stats;
    result.verified = run.verified;
    result.failure = run.failure;
    return result;
}

} // namespace slpmt
