/**
 * @file
 * crash-sweep workload: all three crash-sweep engines with tiny caches
 * (so recovery replays log records), stratified point budgets, 2 sweep
 * workers. An op is one crash point explored; a point with at least
 * one oracle violation is a failed op (a program failure, reported as
 * measured). It loads the validate, checkpoint and recovery layers that
 * no other workload touches.
 *
 * Its simulated end-to-end metrics come from a fault-free runService()
 * reference run of the service sweep's configuration (4 shards, tiny
 * caches) at a request count with at least 10 samples beyond p999.
 */

#include <cstdio>
#include <functional>
#include <memory>

#include "layers.hh"
#include "multicore/mc_crash.hh"
#include "service/service_crash.hh"
#include "sim_summary.hh"
#include "trace.hh"
#include "validate/crash_explorer.hh"

namespace perfbench
{

using namespace slpmt;

namespace
{

constexpr std::size_t sweepWorkers = 2;
constexpr std::size_t singlePoints = 400;
constexpr std::size_t mcPoints = 300;
constexpr std::size_t servicePoints = 120;
constexpr std::size_t referenceRequests = 20'000;
constexpr std::size_t referenceRecords = 4096;

/** The sweeps' --tiny-cache geometry. */
void
tinyCaches(SystemConfig &sys)
{
    sys.hierarchy.l1 = CacheConfig{"L1", 1024, 2, 4};
    sys.hierarchy.l2 = CacheConfig{"L2", 2048, 2, 12};
    sys.hierarchy.l3 = CacheConfig{"L3", 4096, 4, 40};
}

struct Sweeps
{
    std::vector<CrashSweepConfig> single;
    std::vector<McCrashSweepConfig> mc;
    std::vector<ServiceCrashConfig> service;
};

/** The swept configurations at @p seed; @p budget_one selects the
 *  one-point set-up sweeps (0 would mean exhaustive). */
Sweeps
sweepConfigs(std::uint64_t seed, bool budget_one, std::size_t workers)
{
    Sweeps s;
    for (SchemeKind scheme : {SchemeKind::SLPMT, SchemeKind::FG}) {
        for (const char *wl : {"hashtable", "rbtree"}) {
            CrashSweepConfig c;
            c.scheme = scheme;
            c.workload = wl;
            c.mix.numOps = 200;
            c.mix.valueBytes = 32;
            c.mix.seed = seed;
            c.mix.insertPct = 80;
            c.mix.updatePct = 12;
            c.mix.removePct = 8;
            c.maxPoints = budget_one ? 1 : singlePoints;
            c.tinyCache = true;
            c.workers = workers;
            s.single.push_back(c);
        }
        McCrashSweepConfig m;
        m.scheme = scheme;
        m.run.workload = "hashtable";
        m.run.numCores = 4;
        m.run.opsPerCore = 48;
        m.run.valueBytes = 32;
        m.run.seed = seed;
        m.maxPoints = budget_one ? 1 : mcPoints;
        m.tinyCache = true;
        m.workers = workers;
        s.mc.push_back(m);
    }
    ServiceCrashConfig v;
    v.scheme = SchemeKind::SLPMT;
    v.workload = "hashtable";
    v.numShards = 4;
    v.load.mix = YcsbMix::A;
    v.load.skew = KeySkew::Uniform;
    v.load.preloadRecords = 64;
    v.load.numOps = 400;
    v.load.valueBytesMin = 32;
    v.load.valueBytesMax = 64;
    v.load.seed = seed;
    v.maxPoints = budget_one ? 1 : servicePoints;
    v.tinyCache = true;
    v.workers = workers;
    s.service.push_back(v);
    return s;
}

/** What one sweep call found. */
struct SweepOutcome
{
    int engine = 0;  //!< 0 single-core, 1 multicore, 2 service
    std::string label;
    std::size_t points = 0;
    std::size_t violating = 0;
    std::uint64_t replayed = 0;
    std::string firstRepro;
    std::string report;  //!< deterministic report text
};

template <typename Report>
SweepOutcome
outcome(int engine, std::string label, const Report &r, std::string report)
{
    SweepOutcome o{engine, std::move(label), r.pointsExplored(), 0,
                   r.replayedRecordsTotal(), "", std::move(report)};
    for (const auto &p : r.points)
        if (!p.violations.empty() && o.violating++ == 0)
            o.firstRepro = p.violations.front();
    return o;
}

/** Every sweep of @p s as a call, in a fixed order. */
std::vector<std::function<SweepOutcome()>>
sweepJobs(const Sweeps &s)
{
    std::vector<std::function<SweepOutcome()>> jobs;
    for (const CrashSweepConfig &c : s.single)
        jobs.push_back([c] {
            const CrashSweepReport r = runCrashSweep(c);
            return outcome(0, "single " + schemeName(c.scheme) + " " +
                                  c.workload,
                           r, r.toJson());
        });
    for (const McCrashSweepConfig &c : s.mc)
        jobs.push_back([c] {
            const McCrashSweepReport r = runMcCrashSweep(c);
            return outcome(1, "multicore " + schemeName(c.scheme) +
                                  " hashtable",
                           r, r.toJson());
        });
    for (const ServiceCrashConfig &c : s.service)
        jobs.push_back([c] {
            const ServiceCrashSweepReport r = runServiceCrashSweep(c);
            return outcome(2, "service " + schemeName(c.scheme) +
                                  " hashtable",
                           r, r.summaryText());
        });
    return jobs;
}

/** Outcomes of one pass over every sweep, summed per engine. */
struct SweepPass
{
    std::size_t points[3] = {0, 0, 0};  //!< single, mc, service
    double seconds[3] = {0, 0, 0};
    std::size_t violatingPoints = 0;
    std::uint64_t replayed = 0;
    std::string reports;                  //!< determinism fingerprint
    std::vector<std::string> sweepLines;  //!< per-sweep summary + repro

    void
    add(const SweepOutcome &o, double secs)
    {
        points[o.engine] += o.points;
        seconds[o.engine] += secs;
        violatingPoints += o.violating;
        replayed += o.replayed;
        reports += o.report;
        sweepLines.push_back(o.label + ": " + std::to_string(o.points) +
                             " points, " + std::to_string(o.violating) +
                             " violating");
        if (o.violating)
            sweepLines.push_back("  first: " + o.firstRepro);
    }

    std::size_t totalPoints() const
    {
        return points[0] + points[1] + points[2];
    }
};

SweepPass
runSweeps(const Sweeps &s, Tracer *tracer)
{
    SweepPass pass;
    for (const auto &job : sweepJobs(s)) {
        std::unique_ptr<Tracer::Span> span;
        if (tracer)
            span = std::make_unique<Tracer::Span>(*tracer, "validate.sweep");
        const Clock::time_point t0 = Clock::now();
        const SweepOutcome o = job();
        pass.add(o, secondsSince(t0));
    }
    return pass;
}

/** The fault-free reference run of the service sweep's configuration
 *  (scheme, shards, mix, tiny caches) over enough preloaded records
 *  that the router balances the shards: with the sweep's 64 records
 *  the busiest shard, and with it the makespan, varies with the seed. */
ServiceConfig
referenceConfig(std::uint64_t seed)
{
    const ServiceCrashConfig v = sweepConfigs(seed, false, 1).service[0];
    ServiceConfig cfg;
    cfg.workload = v.workload;
    cfg.numShards = v.numShards;
    cfg.load = v.load;
    cfg.load.numOps = referenceRequests;
    cfg.load.preloadRecords = referenceRecords;
    cfg.sys.scheme = SchemeConfig::forKind(v.scheme);
    cfg.sys.style = v.style;
    tinyCaches(cfg.sys);
    return cfg;
}

} // namespace

RunResult
runCrashSweepWorkload(const RunOptions &opt)
{
    RunResult result;
    const Sweeps sweeps = sweepConfigs(opt.seed, false, sweepWorkers);

    if (opt.trace) {
        const Clock::time_point t0 = Clock::now();
        const SweepPass ref = runSweeps(sweeps, nullptr);
        const double untraced_s = secondsSince(t0);

        Tracer tracer("crash-sweep seed=" + std::to_string(opt.seed));
        const Clock::time_point t1 = Clock::now();
        const SweepPass traced = runSweeps(sweeps, &tracer);
        const double traced_s = secondsSince(t1);
        const SweepPass serial =
            runSweeps(sweepConfigs(opt.seed, false, 1), nullptr);
        result.check(traced.reports == ref.reports,
                     "traced sweep reports equal the untraced ones");
        result.check(serial.reports == ref.reports,
                     "sweep reports equal at 1 and 2 workers");
        const SweepPass fixed =
            runSweeps(sweepConfigs(opt.seed, true, sweepWorkers), nullptr);

        const ServiceConfig reference = referenceConfig(opt.seed);
        const KvServiceResult svc = runService(reference);
        result.check(svc.verified, "reference runService oracle: " +
                                       svc.failure);
        StatsSnapshot folded;
        double cycles = 0;
        serviceSummary(svc, reference.load.mix,
                       static_cast<double>(referenceRequests), &folded,
                       &cycles);

        HostLayerValues host;
        const char *engines[3] = {"single", "mc", "service"};
        for (int e = 0; e < 3; ++e) {
            const std::string base = std::string("validate.") + engines[e];
            host[base + ".points_per_s"] =
                ratio(static_cast<double>(ref.points[e]), ref.seconds[e]);
            host[base + ".fixed_s"] = fixed.seconds[e];
        }
        host["validate.replayed_records_per_point"] = ratio(
            static_cast<double>(ref.replayed),
            static_cast<double>(ref.totalPoints()));
        host["validate.violating_points"] =
            static_cast<double>(ref.violatingPoints);
        probeMachineCosts(tracer, host);
        std::printf("trace overhead: untraced %.3f s, traced %.3f s "
                    "(%.3fx)\n",
                    untraced_s, traced_s, traced_s / untraced_s);
        finishTrace(tracer, opt);
        result.attempted = ref.totalPoints();
        result.failed = ref.violatingPoints;
        addLayerMetrics(result, host, folded,
                        {static_cast<double>(referenceRequests), cycles});
        return result;
    }

    const Sweeps one = sweepConfigs(opt.seed, true, sweepWorkers);
    const PassTimes setup_times = timedPasses(
        setupSeconds, setupMinPasses,
        [&](std::size_t) { runSweeps(one, nullptr); });

    // The single-threaded reference run goes before the timed sweeps:
    // after them, how the workers' malloc arenas fragmented decides
    // whether it raises the peak RSS, which varied it by 20%.
    const ServiceConfig reference = referenceConfig(opt.seed);
    const KvServiceResult svc = runService(reference);
    result.check(svc.verified, "reference runService oracle: " + svc.failure);
    StatsSnapshot folded;
    double cycles = 0;
    const SimSummary sim =
        serviceSummary(svc, reference.load.mix,
                       static_cast<double>(referenceRequests), &folded,
                       &cycles);

    // Sweeps run one call at a time, round robin, with the host-speed
    // calibration between calls; a pass is the sum of each sweep's
    // median scaled time.
    const auto jobs = sweepJobs(sweeps);
    std::vector<SweepOutcome> first_round;
    const PassTimes times =
        timedPasses(opt.seconds, jobs.size(), [&](std::size_t unit) {
            SweepOutcome o = jobs[unit % jobs.size()]();
            if (unit < jobs.size()) {
                first_round.push_back(std::move(o));
                return;
            }
            result.check(o.report == first_round[unit % jobs.size()].report,
                         "repeated sweeps repeat their reports exactly");
        });
    SweepPass first;
    for (std::size_t j = 0; j < jobs.size(); ++j)
        first.add(first_round[j], times.raw[j]);

    result.attempted = first.totalPoints();
    result.failed = first.violatingPoints;
    std::printf("crash-sweep: %zu points (single %zu, mc %zu, service %zu), "
                "%zu violating, error_rate %.6f\n",
                first.totalPoints(), first.points[0], first.points[1],
                first.points[2], first.violatingPoints,
                ratio(static_cast<double>(first.violatingPoints),
                      static_cast<double>(first.totalPoints())));
    for (const std::string &line : first.sweepLines)
        std::printf("  %s\n", line.c_str());

    printTimes("setup passes", setup_times);
    printTimes("measured passes", times);
    addEndToEnd(result, setup_times.scaledSeconds(1),
                static_cast<double>(first.totalPoints()) /
                    times.scaledSeconds(jobs.size()),
                sim);
    return result;
}

} // namespace perfbench
