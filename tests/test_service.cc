/**
 * @file
 * The sharded KV service: router determinism and partition
 * correctness, the 1-shard-vs-plain-machine differential anchor,
 * whole-run determinism and verification across shard counts, core
 * counts and schemes, and the ExperimentConfig dispatch bridge.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>

#include "service/service.hh"
#include "sim/experiment.hh"
#include "workloads/factory.hh"

namespace slpmt
{
namespace
{

LoadGenConfig
smallLoad(YcsbMix mix = YcsbMix::A)
{
    LoadGenConfig load;
    load.mix = mix;
    load.skew = KeySkew::Zipfian;
    load.keySpace = std::size_t{1} << 16;
    load.preloadRecords = 120;
    load.numOps = 400;
    load.valueBytesMin = 48;
    load.valueBytesMax = 128;
    load.seed = 7;
    return load;
}

ServiceConfig
smallService(std::size_t shards, YcsbMix mix = YcsbMix::A)
{
    ServiceConfig cfg;
    cfg.numShards = shards;
    cfg.load = smallLoad(mix);
    return cfg;
}

/** Expanded request count: scans count once per swept record. */
std::size_t
expandedOps(const std::vector<SvcOp> &ops)
{
    std::size_t n = 0;
    for (const SvcOp &op : ops)
        n += op.kind == SvcOpKind::Scan ? op.scanLen : 1;
    return n;
}

TEST(ServiceRouter, SameSeedYieldsByteIdenticalShardStreams)
{
    const LoadGenConfig load_cfg = smallLoad();
    const SvcLoad a = svcGenerate(load_cfg);
    const SvcLoad b = svcGenerate(load_cfg);
    const ShardRouter router(4);
    const auto sa = routeOps(router, a.ops, a.keySalt);
    const auto sb = routeOps(router, b.ops, b.keySalt);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t s = 0; s < sa.size(); ++s)
        EXPECT_EQ(sa[s], sb[s]) << "shard " << s;
}

TEST(ServiceRouter, EveryKeyRoutesToExactlyOneShard)
{
    const SvcLoad load = svcGenerate(smallLoad(YcsbMix::E));
    const ShardRouter router(4);
    const auto streams = routeOps(router, load.ops, load.keySalt);

    // Partition is complete: nothing dropped, nothing duplicated.
    std::size_t total = 0;
    for (const auto &stream : streams)
        total += stream.size();
    EXPECT_EQ(total, expandedOps(load.ops));

    // And consistent: every op sits on the shard its key hashes to,
    // under any identically-configured router.
    const ShardRouter twin(4);
    for (std::size_t s = 0; s < streams.size(); ++s) {
        for (const ShardOp &op : streams[s]) {
            EXPECT_EQ(router.shardOf(op.key), s);
            EXPECT_EQ(twin.shardOf(op.key), s);
        }
    }

    // Distinct salts repartition: at least one key moves.
    const ShardRouter salted(4, 0x1234);
    bool moved = false;
    for (const auto &stream : streams)
        for (const ShardOp &op : stream)
            moved |= salted.shardOf(op.key) != router.shardOf(op.key);
    EXPECT_TRUE(moved);
}

TEST(ServiceRouter, ReShardingToSameCountIsANoOp)
{
    const SvcLoad load = svcGenerate(smallLoad());
    const ShardRouter router(3);
    const auto streams = routeOps(router, load.ops, load.keySalt);
    // Re-partition each shard's stream with a fresh identical router:
    // every op must stay put.
    for (std::size_t s = 0; s < streams.size(); ++s) {
        const ShardRouter again(3);
        for (const ShardOp &op : streams[s])
            EXPECT_EQ(again.shardOf(op.key), s)
                << "re-shard moved key " << op.key;
    }
}

TEST(ServiceRouter, RejectsZeroShards)
{
    EXPECT_THROW(ShardRouter(0), PanicError);
}

// The differential anchor: a 1-shard service run is bit-identical to
// executing the same routed stream on a plain McMachine — same PM
// image, same machine statistics.
TEST(ServiceDifferential, OneShardServiceEqualsPlainMachineRun)
{
    const ServiceConfig cfg = smallService(1);
    const KvServiceResult res = runService(cfg);
    ASSERT_TRUE(res.verified) << res.failure;
    ASSERT_EQ(res.shardImageFp.size(), 1u);

    // Replay: one machine, the identical routed stream.
    const SvcLoad load = svcGenerate(cfg.load);
    const ShardRouter router(1, cfg.routerSalt);
    const auto preload = routeOps(router, load.preload, load.keySalt);
    const auto stream = routeOps(router, load.ops, load.keySalt);

    SystemConfig sys_cfg = cfg.sys;
    sys_cfg.numCores = 1;
    McMachine machine(sys_cfg);
    auto wl = makeWorkload(cfg.workload);
    wl->setup(machine.context(0));
    for (const ShardOp &op : preload[0])
        applyShardOp(machine.context(0), *wl, op);
    for (const ShardOp &op : stream[0])
        applyShardOp(machine.context(0), *wl, op);

    EXPECT_EQ(pmImageFingerprint(machine), res.shardImageFp[0]);
    EXPECT_EQ(machine.snapshot(), res.shardSnapshots[0]);
}

TEST(ServiceRun, VerifiesAcrossShardCountsAndConservesOps)
{
    const SvcLoad load = svcGenerate(smallLoad());
    const std::size_t expanded = expandedOps(load.ops);
    for (std::size_t shards : {1, 2, 4}) {
        const KvServiceResult res = runService(smallService(shards));
        EXPECT_TRUE(res.verified)
            << shards << " shards: " << res.failure;
        ASSERT_EQ(res.shardOps.size(), shards);
        std::size_t total = 0;
        Cycles slowest = 0;
        for (std::size_t s = 0; s < shards; ++s) {
            total += res.shardOps[s];
            slowest = std::max(slowest, res.shardCycles[s]);
        }
        EXPECT_EQ(total, expanded) << shards << " shards";
        EXPECT_EQ(res.makespan, slowest) << shards << " shards";
        EXPECT_GT(res.makespan, 0u);
        EXPECT_EQ(res.stats.at("service.shardOps"), expanded);
        EXPECT_EQ(res.stats.at("service.latency.count"), expanded);
    }
}

TEST(ServiceRun, RerunsAreByteIdentical)
{
    const ServiceConfig cfg = smallService(2, YcsbMix::B);
    const KvServiceResult a = runService(cfg);
    const KvServiceResult b = runService(cfg);
    ASSERT_TRUE(a.verified) << a.failure;
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.shardImageFp, b.shardImageFp);
    EXPECT_EQ(a.shardSnapshots, b.shardSnapshots);
    EXPECT_EQ(a.stats, b.stats);
}

TEST(ServiceRun, MulticoreShardsVerifyAndStayDeterministic)
{
    ServiceConfig cfg = smallService(2);
    cfg.coresPerShard = 2;
    const KvServiceResult a = runService(cfg);
    EXPECT_TRUE(a.verified) << a.failure;
    const KvServiceResult b = runService(cfg);
    EXPECT_EQ(a.shardImageFp, b.shardImageFp);
    EXPECT_EQ(a.stats, b.stats);
}

TEST(ServiceRun, VerifiesAcrossSchemesAndMixes)
{
    for (const SchemeKind scheme :
         {SchemeKind::FG, SchemeKind::SLPMT}) {
        for (const YcsbMix mix :
             {YcsbMix::A, YcsbMix::D, YcsbMix::F}) {
            ServiceConfig cfg = smallService(2, mix);
            cfg.load.numOps = 200;
            cfg.sys.scheme = SchemeConfig::forKind(scheme);
            const KvServiceResult res = runService(cfg);
            EXPECT_TRUE(res.verified)
                << schemeName(scheme) << "/" << ycsbMixName(mix)
                << ": " << res.failure;
        }
    }
}

TEST(ServiceRun, LatencyPercentileGaugesAreOrdered)
{
    const KvServiceResult res = runService(smallService(2));
    ASSERT_TRUE(res.verified) << res.failure;
    const std::uint64_t p50 = res.stats.at("service.latency.p50");
    const std::uint64_t p99 = res.stats.at("service.latency.p99");
    const std::uint64_t p999 = res.stats.at("service.latency.p999");
    EXPECT_GT(p50, 0u);
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, p999);
    EXPECT_LE(res.stats.at("service.commitLatency.p50"),
              res.stats.at("service.commitLatency.p999"));
    EXPECT_GT(res.stats.at("service.opsPerGcycle"), 0u);
}

/** A core's slice of a shard stream, recorded like the service does. */
class RefereeDriver : public McCoreDriver
{
  public:
    RefereeDriver(PmContext &ctx, Workload &wl,
                  std::vector<ShardOp> ops,
                  std::function<void(const ShardOp &,
                                     const ShardOpOutcome &)> note)
        : ctx(ctx), wl(wl), ops(std::move(ops)), note(std::move(note))
    {
    }

    bool done() const override { return cursor >= ops.size(); }

    void
    step() override
    {
        const ShardOp &op = ops[cursor++];
        note(op, applyShardOp(ctx, wl, op));
    }

  private:
    PmContext &ctx;
    Workload &wl;
    std::vector<ShardOp> ops;
    std::function<void(const ShardOp &, const ShardOpOutcome &)> note;
    std::size_t cursor = 0;
};

// The serial referee: the whole service rebuilt shard after shard on
// the caller's thread from the public calls, recording every request
// into one registry. runService() runs its shards on host threads and
// merges per-shard instruments; the two must agree bit for bit.
TEST(ServiceDifferential, ThreadedRunMatchesSerialReferee)
{
    for (const YcsbMix mix : {YcsbMix::A, YcsbMix::E}) {
        for (std::size_t shards : {2, 4}) {
            for (std::size_t cores : {1, 2}) {
                SCOPED_TRACE(std::string(ycsbMixName(mix)) + ", " +
                             std::to_string(shards) + " shards x " +
                             std::to_string(cores) + " cores");
                ServiceConfig cfg = smallService(shards, mix);
                cfg.coresPerShard = cores;
                const KvServiceResult res = runService(cfg);
                ASSERT_TRUE(res.verified) << res.failure;

                const SvcLoad load = svcGenerate(cfg.load);
                const ShardRouter router(shards, cfg.routerSalt);
                const auto preload =
                    routeOps(router, load.preload, load.keySalt);
                const auto streams =
                    routeOps(router, load.ops, load.keySalt);
                std::map<std::uint64_t, std::vector<std::uint8_t>> oracle;
                for (const SvcOp &op : load.preload)
                    oracle[op.key] = svcValueFor(op.key, op.valueSalt,
                                                 op.valueBytes);
                for (const SvcOp &op : load.ops)
                    if (op.isMutation())
                        oracle[op.key] = svcValueFor(
                            op.key, op.valueSalt, op.valueBytes);

                StatsRegistry reg;
                const StatGroup g(reg, "service");
                auto latency =
                    g.histogram("latency", serviceLatencyBounds());
                auto commit = g.histogram("commitLatency",
                                          serviceLatencyBounds());
                auto note = [&](const ShardOp &op,
                                const ShardOpOutcome &out) {
                    g.counter("shardOps")++;
                    latency.record(out.cycles);
                    if (op.isMutation())
                        commit.record(out.cycles);
                    if (out.fallbackInsert)
                        g.counter("upsertFallbacks")++;
                    switch (op.kind) {
                      case SvcOpKind::Insert:
                        g.counter("inserts")++;
                        break;
                      case SvcOpKind::Update:
                        g.counter("updates")++;
                        break;
                      case SvcOpKind::ReadModifyWrite:
                        g.counter("rmws")++;
                        break;
                      case SvcOpKind::Scan:
                        g.counter("scannedKeys")++;
                        [[fallthrough]];
                      case SvcOpKind::Read:
                        g.counter("reads")++;
                        if (out.hit)
                            g.counter("readHits")++;
                        break;
                    }
                };
                for (const char *name :
                     {"shardOps", "reads", "readHits", "inserts",
                      "updates", "rmws", "scannedKeys",
                      "upsertFallbacks"})
                    g.counter(name);

                SystemConfig sys_cfg = cfg.sys;
                sys_cfg.numCores = cores;
                Cycles makespan = 0;
                std::vector<Cycles> shard_cycles;
                std::vector<std::uint64_t> image_fp;
                std::vector<StatsSnapshot> after;
                StatsSnapshot shard_deltas;
                for (std::size_t s = 0; s < shards; ++s) {
                    McMachine machine(sys_cfg);
                    auto wl = makeWorkload(cfg.workload);
                    wl->setup(machine.context(0));
                    for (const ShardOp &op : preload[s])
                        applyShardOp(machine.context(0), *wl, op);

                    const StatsSnapshot before = machine.snapshot();
                    std::vector<Cycles> start;
                    for (std::size_t c = 0; c < cores; ++c)
                        start.push_back(machine.core(c).engine().now());
                    std::vector<std::vector<ShardOp>> slices(cores);
                    for (const ShardOp &op : streams[s])
                        slices[mix64Salted(op.key,
                                           0xc0de'5a17'dea1ULL) %
                               cores]
                            .push_back(op);
                    std::vector<std::unique_ptr<RefereeDriver>> drivers;
                    std::vector<McCoreDriver *> ptrs;
                    for (std::size_t c = 0; c < cores; ++c) {
                        drivers.push_back(std::make_unique<RefereeDriver>(
                            machine.context(c), *wl,
                            std::move(slices[c]), note));
                        ptrs.push_back(drivers.back().get());
                    }
                    if (cores == 1) {
                        while (!drivers[0]->done())
                            drivers[0]->step();
                    } else {
                        McSchedConfig sched = cfg.sched;
                        sched.seed = mix64Salted(cfg.sched.seed, s + 1);
                        runInterleaved(machine, ptrs, sched);
                    }
                    Cycles cycles = 0;
                    for (std::size_t c = 0; c < cores; ++c)
                        cycles = std::max(
                            cycles,
                            machine.core(c).engine().now() - start[c]);
                    shard_cycles.push_back(cycles);
                    makespan = std::max(makespan, cycles);
                    after.push_back(machine.snapshot());
                    image_fp.push_back(pmImageFingerprint(machine));
                    for (const auto &[name, value] :
                         StatsRegistry::delta(before, after.back()))
                        shard_deltas["shard" + std::to_string(s) + "." +
                                     name] = value;

                    PmContext &ctx = machine.context(0);
                    std::string why;
                    EXPECT_TRUE(wl->checkConsistency(ctx, &why)) << why;
                    std::size_t held = 0;
                    std::vector<std::uint8_t> got;
                    for (const auto &[key, value] : oracle) {
                        if (router.shardOf(key) != s)
                            continue;
                        ++held;
                        EXPECT_TRUE(wl->lookup(ctx, key, &got) &&
                                    got == value)
                            << "shard " << s << " key " << key;
                    }
                    EXPECT_EQ(wl->count(ctx), held) << "shard " << s;
                }

                EXPECT_EQ(res.makespan, makespan);
                EXPECT_EQ(res.shardCycles, shard_cycles);
                EXPECT_EQ(res.shardImageFp, image_fp);
                EXPECT_EQ(res.shardSnapshots, after);

                StatsSnapshot expected = reg.snapshot();
                expected.merge(shard_deltas);
                const auto &lat = *latency.get();
                const auto &com = *commit.get();
                expected["service.latency.p50"] = lat.percentile(50, 100);
                expected["service.latency.p99"] = lat.percentile(99, 100);
                expected["service.latency.p999"] =
                    lat.percentile(999, 1000);
                expected["service.commitLatency.p50"] =
                    com.percentile(50, 100);
                expected["service.commitLatency.p99"] =
                    com.percentile(99, 100);
                expected["service.commitLatency.p999"] =
                    com.percentile(999, 1000);
                expected["service.requests"] = load.ops.size();
                expected["service.makespanCycles"] = makespan;
                expected["service.opsPerGcycle"] =
                    load.ops.size() * 1'000'000'000ULL / makespan;
                EXPECT_EQ(res.stats, expected);
            }
        }
    }
}

TEST(ServiceExperiment, DispatchesServiceCellsAndMapsMetrics)
{
    ExperimentConfig cfg;
    cfg.scheme = SchemeKind::SLPMT;
    cfg.ycsb.numOps = 300;
    cfg.ycsb.valueBytes = 96;
    cfg.ycsb.seed = 11;
    cfg.service.shards = 2;
    cfg.service.mix = 0;  // YCSB A
    cfg.service.zipfian = true;
    cfg.service.keySpace = std::size_t{1} << 16;
    cfg.service.preloadRecords = 100;
    cfg.service.valueBytesMin = 48;

    const ExperimentResult res = runExperiment("hashtable", cfg);
    EXPECT_TRUE(res.verified) << res.failure;
    EXPECT_GT(res.cycles, 0u);
    EXPECT_GT(res.commits, 0u);
    EXPECT_GT(res.pmWriteBytes, 0u);
    EXPECT_TRUE(res.stats.count("service.latency.p50"));
    EXPECT_TRUE(res.stats.count("service.commitLatency.p999"));
    EXPECT_EQ(res.stats.at("service.requests"), cfg.ycsb.numOps);

    // The bridge reports the service makespan as the cell's cycles.
    EXPECT_EQ(res.cycles, res.stats.at("service.makespanCycles"));

    // And reruns of the experiment are byte-identical too.
    const ExperimentResult again = runExperiment("hashtable", cfg);
    EXPECT_EQ(res.cycles, again.cycles);
    EXPECT_EQ(res.stats, again.stats);
}

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
