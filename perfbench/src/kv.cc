/**
 * @file
 * kv-update and kv-read-spill workloads: runService() over a seeded
 * YCSB request stream, 1 core per shard, SLPMT, hashtable shards. An
 * op is one service request.
 *
 * kv-update (YCSB-A, Zipfian 0.99, hot-key churn every 500 requests,
 * 64-256 B values, 4 shards x 4k records) fits each shard's structure
 * in its 2 MB L3 and loads the update and commit path: logging, lazy
 * persistency, heap allocation under skew. kv-read-spill (YCSB-B,
 * uniform keys, shards far beyond their L3) loads the cache miss and
 * PM read path that every other workload bypasses.
 *
 * The traced run rebuilds runService()'s sequence from the same
 * public calls (svcGenerate, routeOps, McMachine, Workload::setup,
 * applyShardOp, pmImageFingerprint, the oracle lookups) so each phase
 * gets its own span, and checks it reproduces runService() bit for
 * bit.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "checkpoint/checkpoint.hh"
#include "layers.hh"
#include "service/service.hh"
#include "sim_summary.hh"
#include "trace.hh"
#include "workloads/factory.hh"

namespace perfbench
{

using namespace slpmt;

namespace
{

/** Requests per pass: at least 100 samples lie beyond the p999.
 *  kv-read-spill runs twice as many, so that the 5% updates, where its
 *  p99 and p999 fall, number 10k. */
std::size_t
kvRequests(const std::string &workload)
{
    return workload == "kv-update" ? 100'000 : 200'000;
}

ServiceConfig
kvConfig(const std::string &workload, std::uint64_t seed,
         std::size_t requests)
{
    ServiceConfig cfg;
    cfg.workload = "hashtable";
    cfg.coresPerShard = 1;
    cfg.sys.scheme = SchemeConfig::forKind(SchemeKind::SLPMT);
    cfg.load.seed = seed;
    cfg.load.numOps = requests;
    cfg.load.keySpace = std::size_t{1} << 20;
    cfg.load.valueBytesMin = 64;
    cfg.load.valueBytesMax = 256;
    cfg.numShards = 4;
    if (workload == "kv-update") {
        cfg.load.preloadRecords = 4 * 4096;
        cfg.load.mix = YcsbMix::A;
        cfg.load.skew = KeySkew::Zipfian;
        cfg.load.zipfThetaBp = 9900;
        cfg.load.churnInterval = 500;
    } else {
        cfg.load.preloadRecords = 4 * 16384;
        cfg.load.mix = YcsbMix::B;
        cfg.load.skew = KeySkew::Uniform;
    }
    return cfg;
}

/** Everything two runs must agree on bit for bit. */
bool
sameRun(const KvServiceResult &a, const KvServiceResult &b)
{
    return a.makespan == b.makespan && a.shardCycles == b.shardCycles &&
           a.shardImageFp == b.shardImageFp && a.stats == b.stats;
}

/** The traced composition's outputs, compared against runService(). */
struct TracedRun
{
    Cycles makespan = 0;
    std::vector<Cycles> shardCycles;
    std::vector<std::uint64_t> shardImageFp;
    StatsSnapshot foldedDelta;
    bool verified = true;
    std::string failure;
    bool checkpointRestored = false;
    std::size_t pagesHeld = 0;
};

/** Last-write-wins oracle of a load: key -> (value salt, bytes). */
std::map<std::uint64_t, std::pair<std::uint64_t, std::uint32_t>>
oracle(const SvcLoad &load)
{
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint32_t>> exp;
    for (const SvcOp &op : load.preload)
        exp[op.key] = {op.valueSalt, op.valueBytes};
    for (const SvcOp &op : load.ops)
        if (op.isMutation())
            exp[op.key] = {op.valueSalt, op.valueBytes};
    return exp;
}

TracedRun
tracedService(const ServiceConfig &cfg, Tracer &tracer)
{
    TracedRun out;
    SvcLoad load;
    {
        Tracer::Span span(tracer, "workloads.generate");
        load = svcGenerate(cfg.load);
    }
    const ShardRouter router(cfg.numShards, cfg.routerSalt);
    std::vector<std::vector<ShardOp>> preload;
    std::vector<std::vector<ShardOp>> streams;
    {
        Tracer::Span span(tracer, "service.route");
        preload = routeOps(router, load.preload, load.keySalt);
        streams = routeOps(router, load.ops, load.keySalt);
    }

    SystemConfig sys = cfg.sys;
    sys.numCores = 1;
    std::vector<std::unique_ptr<McMachine>> shards;
    std::vector<std::unique_ptr<Workload>> wls;
    for (std::size_t s = 0; s < cfg.numShards; ++s) {
        {
            Tracer::Span span(tracer, "multicore.construct");
            shards.push_back(std::make_unique<McMachine>(sys));
        }
        Tracer::Span span(tracer, "workloads.preload");
        wls.push_back(makeWorkload(cfg.workload));
        wls.back()->setup(shards.back()->context(0));
        for (const ShardOp &op : preload[s])
            applyShardOp(shards.back()->context(0), *wls.back(), op);
    }

    // Checkpoint one post-preload shard and restore it into a fresh
    // machine; the restored PM image must match bit for bit.
    {
        std::unique_ptr<MachineCheckpoint> ckpt;
        {
            Tracer::Span span(tracer, "checkpoint.capture");
            ckpt = std::make_unique<MachineCheckpoint>(
                MachineCheckpoint::capture(*shards[0]));
        }
        out.pagesHeld = ckpt->pagesHeld();
        McMachine restored(sys);
        {
            Tracer::Span span(tracer, "checkpoint.restore");
            ckpt->restore(restored);
        }
        out.checkpointRestored =
            pmImageFingerprint(restored) == pmImageFingerprint(*shards[0]);
    }

    {
        Tracer::Span window(tracer, "service.window");
        for (std::size_t s = 0; s < cfg.numShards; ++s) {
            McMachine &m = *shards[s];
            const StatsSnapshot before = m.snapshot();
            const Cycles start = m.core(0).engine().now();
            for (const ShardOp &op : streams[s]) {
                Tracer::Span span(tracer, "service.request");
                applyShardOp(m.context(0), *wls[s], op);
            }
            out.shardCycles.push_back(m.core(0).engine().now() - start);
            out.makespan = std::max(out.makespan, out.shardCycles.back());
            foldInto(out.foldedDelta,
                     StatsRegistry::delta(before, m.snapshot()));
            Tracer::Span span(tracer, "service.fingerprint");
            out.shardImageFp.push_back(pmImageFingerprint(m));
        }
    }

    Tracer::Span span(tracer, "workloads.verify");
    const auto expected = oracle(load);
    std::vector<std::size_t> counts(cfg.numShards, 0);
    for (const auto &[key, value] : expected)
        counts[router.shardOf(key)]++;
    std::vector<std::uint8_t> got;
    for (std::size_t s = 0; s < cfg.numShards && out.verified; ++s) {
        PmContext &ctx = shards[s]->context(0);
        std::string why;
        if (!wls[s]->checkConsistency(ctx, &why) ||
            wls[s]->count(ctx) != counts[s]) {
            out.verified = false;
            out.failure = "shard " + std::to_string(s) + ": " + why;
            break;
        }
        for (const auto &[key, value] : expected) {
            if (router.shardOf(key) != s)
                continue;
            if (!wls[s]->lookup(ctx, key, &got) ||
                got != svcValueFor(key, value.first, value.second)) {
                out.verified = false;
                out.failure = "shard " + std::to_string(s) +
                              " lookup mismatch at key " +
                              std::to_string(key);
                break;
            }
        }
    }
    return out;
}

/** The service-tier counters of runService()'s merged stats, which
 *  the traced composition does not keep. */
StatsSnapshot
machineCounters(const StatsSnapshot &folded)
{
    StatsSnapshot out;
    for (const auto &[name, value] : folded)
        if (!name.starts_with("service."))
            out[name] = value;
    return out;
}

RunResult
tracedKv(const RunOptions &opt, const ServiceConfig &cfg)
{
    RunResult result;
    const Clock::time_point t0 = Clock::now();
    const KvServiceResult ref = runService(cfg);
    const double untraced_s = secondsSince(t0);
    result.check(ref.verified, "runService oracle: " + ref.failure);

    Tracer tracer(opt.workload + " seed=" + std::to_string(opt.seed));
    const Clock::time_point t1 = Clock::now();
    const TracedRun traced = tracedService(cfg, tracer);
    const double traced_s = secondsSince(t1) -
                            tracer.total("checkpoint.capture") -
                            tracer.total("checkpoint.restore");

    StatsSnapshot folded;
    double cycles = 0;
    serviceSummary(ref, cfg.load.mix, static_cast<double>(cfg.load.numOps),
                   &folded, &cycles);
    result.check(traced.verified, "traced oracle: " + traced.failure);
    result.check(traced.makespan == ref.makespan &&
                     traced.shardCycles == ref.shardCycles,
                 "traced makespan and shard cycles equal runService's");
    result.check(traced.shardImageFp == ref.shardImageFp,
                 "traced shard PM images equal runService's");
    result.check(traced.foldedDelta == machineCounters(folded),
                 "traced window counters equal runService's");
    result.check(traced.checkpointRestored,
                 "checkpoint restore reproduces the shard PM image");

    HostLayerValues host;
    host["workloads.generate_s"] = tracer.total("workloads.generate");
    host["workloads.preload_s"] = tracer.total("workloads.preload");
    host["workloads.verify_s"] = tracer.total("workloads.verify");
    host["service.route_s"] = tracer.total("service.route");
    std::vector<double> req_us;
    for (double d : tracer.durations("service.request"))
        req_us.push_back(d * 1e6);
    host["service.request_us.p50"] = quantile(req_us, 0.50);
    host["service.request_us.p99"] = quantile(req_us, 0.99);
    host["service.request_us.p999"] = quantile(req_us, 0.999);
    host["service.fingerprint_ms"] =
        median(tracer.durations("service.fingerprint")) * 1e3;
    host["checkpoint.capture_ms"] = tracer.total("checkpoint.capture") * 1e3;
    host["checkpoint.restore_ms"] = tracer.total("checkpoint.restore") * 1e3;
    host["checkpoint.pages_held"] = static_cast<double>(traced.pagesHeld);
    probeMachineCosts(tracer, host);
    std::printf("trace overhead: untraced %.3f s, traced %.3f s (%.3fx)\n",
                untraced_s, traced_s, traced_s / untraced_s);
    finishTrace(tracer, opt);

    result.attempted = cfg.load.numOps;
    addLayerMetrics(result, host, folded,
                    {static_cast<double>(cfg.load.numOps), cycles});
    return result;
}

} // namespace

SimSummary
serviceSummary(const KvServiceResult &run, YcsbMix mix, double requests,
               StatsSnapshot *folded, double *cycles)
{
    foldInto(*folded, run.stats);
    *cycles = 0;
    for (Cycles c : run.shardCycles)
        *cycles += static_cast<double>(c);
    SimSummary sim;
    sim.cyclesPerOp = *cycles / requests;
    sim.pmBytesPerOp = stat(*folded, "pm.bytesWritten") / requests;
    // YCSB-A is half reads, half updates: the median of all requests
    // falls between the two classes and flips with the seed, so there
    // the p50 is the updates' median.
    sim.p50 = stat(run.stats, mix == YcsbMix::A
                                  ? "service.commitLatency.p50"
                                  : "service.latency.p50");
    sim.p99 = stat(run.stats, "service.latency.p99");
    sim.p999 = stat(run.stats, "service.latency.p999");
    sim.opsPerGcycle =
        ratio(requests * 1e9, static_cast<double>(run.makespan));
    return sim;
}

RunResult
runKv(const RunOptions &opt)
{
    const std::size_t requests = kvRequests(opt.workload);
    const ServiceConfig cfg = kvConfig(opt.workload, opt.seed, requests);
    if (opt.trace)
        return tracedKv(opt, cfg);

    RunResult result;
    const ServiceConfig zero = kvConfig(opt.workload, opt.seed, 0);
    const PassTimes setup_times =
        timedPasses(setupSeconds, setupMinPasses, [&](std::size_t) {
            const KvServiceResult r = runService(zero);
            result.check(r.verified, "zero-request runService oracle: " +
                                         r.failure);
        });

    KvServiceResult first;
    const PassTimes times =
        timedPasses(opt.seconds, 1, [&](std::size_t pass) {
            KvServiceResult r = runService(cfg);
            if (pass == 0) {
                first = std::move(r);
                return;
            }
            result.check(sameRun(first, r),
                         "pass repeats the simulated results exactly");
        });

    result.attempted = requests;
    if (!first.verified) {
        result.failed = requests;
        std::fprintf(stderr, "runService oracle failed: %s\n",
                     first.failure.c_str());
    }
    result.check(first.verified, "runService oracle verified");

    StatsSnapshot folded;
    double cycles = 0;
    const SimSummary sim = serviceSummary(
        first, cfg.load.mix, static_cast<double>(requests), &folded,
        &cycles);
    const double reads = stat(folded, "pm.reads");
    std::printf("%s: %zu requests, %zu shards x %zu records, "
                "%.3f PM reads per request\n",
                opt.workload.c_str(), requests, cfg.numShards,
                cfg.load.preloadRecords / cfg.numShards,
                reads / static_cast<double>(requests));
    printTimes("setup passes", setup_times);
    printTimes("measured passes", times);
    addEndToEnd(result, setup_times.scaledSeconds(1),
                static_cast<double>(requests) / times.scaledSeconds(1),
                sim);
    return result;
}

} // namespace perfbench
