#include "multicore/mc_crash.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "checkpoint/checkpoint.hh"
#include "common/rng.hh"
#include "common/work_queue.hh"
#include "sim/json.hh"
#include "workloads/ycsb.hh"

namespace slpmt
{
namespace
{

/** Committed state (scheduler-commit order, last writer wins). */
using Shadow = std::map<std::uint64_t, std::vector<std::uint8_t>>;

constexpr std::size_t maxViolationsPerPhase = 4;

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
reproTuple(const McCrashSweepConfig &cfg, std::uint64_t crash_point)
{
    return "(scheme=" + schemeName(cfg.scheme) +
           " style=" + styleName(cfg.style) +
           " workload=" + cfg.run.workload +
           " cores=" + std::to_string(cfg.run.numCores) +
           " seed=" + std::to_string(cfg.run.seed) +
           std::string(cfg.tinyCache ? " tiny_cache=1" : "") +
           " ckpt_interval=" + std::to_string(cfg.checkpointInterval) +
           " crash_point=" + std::to_string(crash_point) + ")";
}

/** The run configuration with scheme/style stamped in. */
McYcsbConfig
runConfigFor(const McCrashSweepConfig &cfg)
{
    McYcsbConfig rc = cfg.run;
    rc.sys.scheme = SchemeConfig::forKind(cfg.scheme);
    rc.sys.style = cfg.style;
    if (cfg.tinyCache) {
        rc.sys.hierarchy.l1 = CacheConfig{"L1", 1024, 2, 4};
        rc.sys.hierarchy.l2 = CacheConfig{"L2", 2048, 2, 12};
        rc.sys.hierarchy.l3 = CacheConfig{"L3", 4096, 4, 40};
    }
    return rc;
}

/** Oracle comparison of the recovered structure with the shadow. */
void
checkState(PmContext &ctx, Workload &wl, const Shadow &shadow,
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

    std::string why;
    if (!wl.checkConsistency(ctx, &why))
        add("structure invariant violated: " + why);

    const std::size_t n = wl.count(ctx);
    if (n != shadow.size())
        add("count mismatch: structure holds " + std::to_string(n) +
            ", oracle expects " + std::to_string(shadow.size()));

    auto it = shadow.begin();
    wl.lookupAll(ctx, keysOf(shadow), true,
                 [&](std::size_t, bool found,
                     const std::vector<std::uint8_t> &got) {
                     const auto &[key, value] = *it++;
                     if (!found)
                         add("committed key " + hexKey(key) + " missing");
                     else if (got != value)
                         add("value mismatch for committed key " +
                             hexKey(key));
                     return true;
                 });

    wl.lookupAll(ctx, absent_keys, false,
                 [&](std::size_t i, bool found,
                     const std::vector<std::uint8_t> &) {
                     if (found)
                         add("uncommitted key " + hexKey(absent_keys[i]) +
                             " visible");
                     return true;
                 });
}

/**
 * From the crash (or run completion) onward, every path is the same:
 * power off if nothing fired, rebuild the shadow from the commit log,
 * recover, and run the oracle phases.
 */
void
finishPoint(const McCrashSweepConfig &cfg, const McYcsbConfig &rc,
            const std::string &tuple, McMachine &machine, Workload &wl,
            const std::vector<std::vector<McOpRecord>> &streams,
            const std::vector<McOpRecord> &commit_log, bool crashed,
            McCrashPointOutcome &out)
{
    const std::uint64_t crash_point = out.crashPoint;
    out.fired = crashed;
    out.committedOps = commit_log.size();

    // Power off after the run when the armed point never fired
    // (or for the explicit post-completion sentinel).
    if (!crashed)
        machine.crash();

    Shadow shadow;
    for (const auto &op : commit_log)
        shadow[op.key] = op.value;

    std::vector<std::uint64_t> absent;
    {
        std::set<std::uint64_t> keys;
        for (const auto &stream : streams)
            for (const auto &op : stream)
                keys.insert(op.key);
        for (std::uint64_t key : keys) {
            if (!shadow.count(key))
                absent.push_back(key);
        }
    }

    // Hardware replay of every core's log slice, then the
    // workload's user-level recovery (runs on core 0 — recovery
    // is single-threaded kernel/runtime work).
    out.replayedRecords = machine.recover();
    wl.recover(machine.context(0));
    checkState(machine.context(0), wl, shadow, absent, tuple,
               "post-recovery", out.violations);

    if (cfg.checkIdempotence) {
        const std::size_t again = machine.recover();
        if (again != 0)
            out.violations.push_back(
                tuple + " idempotence: second hardware recovery "
                        "replayed " +
                std::to_string(again) + " records");
        wl.recover(machine.context(0));
        checkState(machine.context(0), wl, shadow, absent, tuple,
                   "idempotence", out.violations);
    }

    // The structure must keep working: fresh even-keyed inserts
    // (stream keys are odd) spread across the cores.
    if (cfg.continuationOps > 0) {
        Rng rng(mix64(rc.seed) ^ (crash_point + 1));
        for (std::size_t i = 0; i < cfg.continuationOps; ++i) {
            std::uint64_t key;
            do {
                key = ((rng.next() >> 1) | 2ULL) &
                      ~static_cast<std::uint64_t>(1);
            } while (shadow.count(key));
            const auto value = ycsbValueFor(key, rc.valueBytes);
            wl.insert(machine.context(i % rc.numCores), key,
                      value);
            shadow[key] = value;
        }
        checkState(machine.context(0), wl, shadow, absent, tuple,
                   "continuation", out.violations);
    }

    out.stats = machine.snapshot();
}

/** Run one crash point against pre-generated streams (from scratch). */
McCrashPointOutcome
runPointOnStreams(const McCrashSweepConfig &cfg,
                  const std::vector<std::vector<McOpRecord>> &streams,
                  std::uint64_t crash_point)
{
    McCrashPointOutcome out;
    out.crashPoint = crash_point;
    const std::string tuple = reproTuple(cfg, crash_point);
    const McYcsbConfig rc = runConfigFor(cfg);

    try {
        SystemConfig sys_cfg = rc.sys;
        sys_cfg.numCores = rc.numCores;
        McMachine machine(sys_cfg);
        if (rc.policy)
            machine.setAnnotationPolicy(rc.policy);

        auto wl = makeWorkload(rc.workload);
        wl->setup(machine.context(0));

        std::vector<McOpRecord> commit_log;
        std::vector<std::unique_ptr<McYcsbDriver>> drivers;
        std::vector<McCoreDriver *> ptrs;
        for (std::size_t i = 0; i < rc.numCores; ++i) {
            drivers.push_back(std::make_unique<McYcsbDriver>(
                machine.context(i), *wl, streams[i], commit_log));
            ptrs.push_back(drivers.back().get());
        }

        if (crash_point > 0)
            machine.armCrashAfterStores(crash_point);
        const McScheduleResult run =
            runInterleaved(machine, ptrs, rc.sched);
        machine.armCrashAfterStores(0);
        finishPoint(cfg, rc, tuple, machine, *wl, streams, commit_log,
                    run.crashed, out);
    } catch (const std::exception &e) {
        out.violations.push_back(tuple + " exception: " + e.what());
    }
    return out;
}

/**
 * One node of the master run's checkpoint chain: the machine at a
 * quantum boundary plus everything host-side the boundary needs —
 * workload roots, per-driver cursors, the commit log so far, and the
 * scheduler's register file. Immutable after capture; workers fork
 * from it concurrently.
 */
struct McTraceCheckpoint
{
    std::shared_ptr<const MachineCheckpoint> machine;
    std::shared_ptr<const Workload> workload;
    std::vector<McOpRecord> commitLog;
    std::vector<std::size_t> cursors;
    McScheduleState sched;
    std::uint64_t storesAt = 0;
};

struct McCheckpointChain
{
    std::vector<McTraceCheckpoint> entries;
    std::uint64_t traceStores = 0;
};

/**
 * The master run: execute the interleaving once, dropping a
 * checkpoint at every quantum boundary that completes another
 * checkpointInterval stores (plus the entry boundary, so every crash
 * point has a base). Also yields the total store count, absorbing
 * the dry run.
 */
McCheckpointChain
buildMcChain(const McCrashSweepConfig &cfg,
             const std::vector<std::vector<McOpRecord>> &streams)
{
    McCheckpointChain chain;
    const McYcsbConfig rc = runConfigFor(cfg);
    SystemConfig sys_cfg = rc.sys;
    sys_cfg.numCores = rc.numCores;
    McMachine machine(sys_cfg);
    if (rc.policy)
        machine.setAnnotationPolicy(rc.policy);

    auto wl = makeWorkload(rc.workload);
    wl->setup(machine.context(0));

    std::vector<McOpRecord> commit_log;
    std::vector<std::unique_ptr<McYcsbDriver>> drivers;
    std::vector<McCoreDriver *> ptrs;
    for (std::size_t i = 0; i < rc.numCores; ++i) {
        drivers.push_back(std::make_unique<McYcsbDriver>(
            machine.context(i), *wl, streams[i], commit_log));
        ptrs.push_back(drivers.back().get());
    }

    const std::uint64_t base = machine.storesExecuted();
    const std::uint64_t interval =
        std::max<std::size_t>(cfg.checkpointInterval, 1);
    runInterleaved(machine, ptrs, rc.sched,
                   [&](const McScheduleState &st) {
                       const std::uint64_t stores =
                           machine.storesExecuted() - base;
                       if (!chain.entries.empty() &&
                           stores - chain.entries.back().storesAt <
                               interval)
                           return;
                       McTraceCheckpoint t;
                       t.machine =
                           std::make_shared<const MachineCheckpoint>(
                               MachineCheckpoint::capture(machine));
                       t.workload = wl->clone();
                       t.commitLog = commit_log;
                       for (const auto &d : drivers)
                           t.cursors.push_back(d->position());
                       t.sched = st;
                       t.storesAt = stores;
                       chain.entries.push_back(std::move(t));
                   });
    chain.traceStores = machine.storesExecuted() - base;
    return chain;
}

/**
 * Restore checkpoint @p ckpt and resume only the tail of the
 * interleaving up to @p crash_point (0 = run the interleaving out
 * and power off after completion).
 */
McCrashPointOutcome
runMcPointFromBase(const McCrashSweepConfig &cfg,
                   const std::vector<std::vector<McOpRecord>> &streams,
                   const McTraceCheckpoint &ckpt,
                   std::uint64_t crash_point)
{
    McCrashPointOutcome out;
    out.crashPoint = crash_point;
    const std::string tuple = reproTuple(cfg, crash_point);
    const McYcsbConfig rc = runConfigFor(cfg);

    try {
        SystemConfig sys_cfg = rc.sys;
        sys_cfg.numCores = rc.numCores;
        McMachine machine(sys_cfg);
        if (rc.policy)
            machine.setAnnotationPolicy(rc.policy);

        // No setup(): the restore rewrites the whole machine (site
        // registry included) and the cloned workload carries the
        // roots.
        auto wl = ckpt.workload->clone();
        ckpt.machine->restore(machine);

        std::vector<McOpRecord> commit_log = ckpt.commitLog;
        std::vector<std::unique_ptr<McYcsbDriver>> drivers;
        std::vector<McCoreDriver *> ptrs;
        for (std::size_t i = 0; i < rc.numCores; ++i) {
            drivers.push_back(std::make_unique<McYcsbDriver>(
                machine.context(i), *wl, streams[i], commit_log));
            drivers.back()->resumeAt(ckpt.cursors[i]);
            ptrs.push_back(drivers.back().get());
        }

        if (crash_point > 0)
            machine.armCrashAfterStores(crash_point - ckpt.storesAt);
        const McScheduleResult run =
            runInterleavedFrom(machine, ptrs, rc.sched, ckpt.sched);
        machine.armCrashAfterStores(0);
        finishPoint(cfg, rc, tuple, machine, *wl, streams, commit_log,
                    run.crashed, out);
    } catch (const std::exception &e) {
        out.violations.push_back(tuple + " exception: " + e.what());
    }
    return out;
}

/**
 * Run one crash point by restoring the nearest checkpoint strictly
 * below it and resuming only the tail of the interleaving. Point 0
 * (post-completion) resumes the last checkpoint and runs the
 * interleaving out.
 */
McCrashPointOutcome
runPointFromChain(const McCrashSweepConfig &cfg,
                  const std::vector<std::vector<McOpRecord>> &streams,
                  const McCheckpointChain &chain,
                  std::uint64_t crash_point)
{
    const McTraceCheckpoint *ckpt = &chain.entries.front();
    for (const auto &entry : chain.entries) {
        if (crash_point == 0 || entry.storesAt < crash_point)
            ckpt = &entry;
        else
            break;
    }
    return runMcPointFromBase(cfg, streams, *ckpt, crash_point);
}

std::vector<std::uint64_t> enumeratePoints(const McCrashSweepConfig &cfg,
                                           std::uint64_t total_stores);

/**
 * Shared state of the pipelined exhaustive sweep (mirrors the
 * single-core TailPipeline): the master interleaving publishes
 * checkpoints and its store frontier at every quantum boundary, and
 * tail workers resume crash points concurrently with the build. Point
 * k's base — the nearest checkpoint strictly below k — is final as
 * soon as the frontier reaches k, because every later checkpoint
 * lands at a store count >= the frontier.
 */
struct McTailPipeline
{
    std::mutex mtx;
    std::condition_variable cv;
    std::deque<McTraceCheckpoint> entries;
    std::uint64_t frontier = 0;
    std::uint64_t traceStores = 0;
    bool done = false;
    std::exception_ptr error;
};

/** The master interleaving of the pipelined sweep (same drop rule as
 *  buildMcChain, published incrementally). */
void
runMcPipelineMaster(const McCrashSweepConfig &cfg,
                    const std::vector<std::vector<McOpRecord>> &streams,
                    McTailPipeline &pipe)
{
    try {
        const McYcsbConfig rc = runConfigFor(cfg);
        SystemConfig sys_cfg = rc.sys;
        sys_cfg.numCores = rc.numCores;
        McMachine machine(sys_cfg);
        if (rc.policy)
            machine.setAnnotationPolicy(rc.policy);

        auto wl = makeWorkload(rc.workload);
        wl->setup(machine.context(0));

        std::vector<McOpRecord> commit_log;
        std::vector<std::unique_ptr<McYcsbDriver>> drivers;
        std::vector<McCoreDriver *> ptrs;
        for (std::size_t i = 0; i < rc.numCores; ++i) {
            drivers.push_back(std::make_unique<McYcsbDriver>(
                machine.context(i), *wl, streams[i], commit_log));
            ptrs.push_back(drivers.back().get());
        }

        const std::uint64_t base = machine.storesExecuted();
        const std::uint64_t interval =
            std::max<std::size_t>(cfg.checkpointInterval, 1);
        bool have_dropped = false;
        std::uint64_t last_drop_stores = 0;
        runInterleaved(
            machine, ptrs, rc.sched, [&](const McScheduleState &st) {
                const std::uint64_t stores =
                    machine.storesExecuted() - base;
                if (!have_dropped ||
                    stores - last_drop_stores >= interval) {
                    McTraceCheckpoint t;
                    t.machine =
                        std::make_shared<const MachineCheckpoint>(
                            MachineCheckpoint::capture(machine));
                    t.workload = wl->clone();
                    t.commitLog = commit_log;
                    for (const auto &d : drivers)
                        t.cursors.push_back(d->position());
                    t.sched = st;
                    t.storesAt = stores;
                    have_dropped = true;
                    last_drop_stores = stores;
                    std::lock_guard<std::mutex> lock(pipe.mtx);
                    pipe.entries.push_back(std::move(t));
                }
                {
                    std::lock_guard<std::mutex> lock(pipe.mtx);
                    pipe.frontier = stores;
                }
                pipe.cv.notify_all();
            });
        {
            std::lock_guard<std::mutex> lock(pipe.mtx);
            pipe.traceStores = machine.storesExecuted() - base;
            pipe.done = true;
        }
    } catch (...) {
        std::lock_guard<std::mutex> lock(pipe.mtx);
        pipe.error = std::current_exception();
        pipe.done = true;
    }
    pipe.cv.notify_all();
}

/** The pipelined exhaustive sweep (maxPoints == 0); sampled sweeps
 *  keep the two-phase shape because stratification needs the total
 *  store count before any point can be enumerated. */
void
runMcPipelinedSweep(const McCrashSweepConfig &cfg,
                    const std::vector<std::vector<McOpRecord>> &streams,
                    McCrashSweepReport &report)
{
    McTailPipeline pipe;
    std::mutex results_mtx;
    std::map<std::uint64_t, McCrashPointOutcome> results;
    std::atomic<std::uint64_t> ticket{1};

    auto worker = [&]() {
        for (;;) {
            const std::uint64_t k = ticket.fetch_add(1);
            const McTraceCheckpoint *ckpt = nullptr;
            std::uint64_t point = k;
            {
                std::unique_lock<std::mutex> lock(pipe.mtx);
                pipe.cv.wait(lock, [&] {
                    return pipe.done || pipe.frontier >= k;
                });
                if (pipe.done && pipe.error)
                    return;
                if (pipe.done && k > pipe.traceStores) {
                    if (!cfg.crashAfterCompletion ||
                        k != pipe.traceStores + 1)
                        return;
                    point = 0;
                    ckpt = &pipe.entries.back();
                } else {
                    ckpt = &pipe.entries.front();
                    for (const auto &entry : pipe.entries) {
                        if (entry.storesAt < k)
                            ckpt = &entry;
                        else
                            break;
                    }
                }
            }
            McCrashPointOutcome out =
                runMcPointFromBase(cfg, streams, *ckpt, point);
            std::lock_guard<std::mutex> lock(results_mtx);
            results[point] = std::move(out);
            if (point == 0)
                return;
        }
    };

    std::vector<std::thread> threads;
    const std::size_t workers = std::max<std::size_t>(cfg.workers, 1);
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
        threads.emplace_back(worker);
    runMcPipelineMaster(cfg, streams, pipe);
    worker();  // the finished master joins the replay pool
    for (auto &t : threads)
        t.join();
    if (pipe.error)
        std::rethrow_exception(pipe.error);

    report.traceStores = pipe.traceStores;
    const auto points = enumeratePoints(cfg, report.traceStores);
    report.points.reserve(points.size());
    for (std::uint64_t p : points)
        report.points.push_back(std::move(results.at(p)));
}

/** Stratified point enumeration (mirrors the single-core sweep). */
std::vector<std::uint64_t>
enumeratePoints(const McCrashSweepConfig &cfg,
                std::uint64_t total_stores)
{
    std::vector<std::uint64_t> points;
    const std::uint64_t total = total_stores;
    if (total > 0) {
        if (cfg.maxPoints == 0 || total <= cfg.maxPoints) {
            for (std::uint64_t k = 1; k <= total; ++k)
                points.push_back(k);
        } else {
            Rng rng(mix64(cfg.run.seed ^ 0xc5a5c5a5c5a5c5a5ULL));
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

} // namespace

std::uint64_t
countMcTraceStores(const McCrashSweepConfig &cfg)
{
    const McYcsbConfig rc = runConfigFor(cfg);
    SystemConfig sys_cfg = rc.sys;
    sys_cfg.numCores = rc.numCores;
    McMachine machine(sys_cfg);
    if (rc.policy)
        machine.setAnnotationPolicy(rc.policy);

    auto wl = makeWorkload(rc.workload);
    wl->setup(machine.context(0));

    const auto streams = mcYcsbStreams(rc);
    std::vector<McOpRecord> commit_log;
    std::vector<std::unique_ptr<McYcsbDriver>> drivers;
    std::vector<McCoreDriver *> ptrs;
    for (std::size_t i = 0; i < rc.numCores; ++i) {
        drivers.push_back(std::make_unique<McYcsbDriver>(
            machine.context(i), *wl, streams[i], commit_log));
        ptrs.push_back(drivers.back().get());
    }
    const std::uint64_t base = machine.storesExecuted();
    runInterleaved(machine, ptrs, rc.sched);
    return machine.storesExecuted() - base;
}

McCrashPointOutcome
runMcCrashPoint(const McCrashSweepConfig &cfg,
                std::uint64_t crash_point)
{
    return runPointOnStreams(cfg, mcYcsbStreams(runConfigFor(cfg)),
                             crash_point);
}

McCrashSweepReport
runMcCrashSweep(const McCrashSweepConfig &cfg)
{
    McCrashSweepReport report;
    report.config = cfg;

    const auto streams = mcYcsbStreams(runConfigFor(cfg));
    if (cfg.useCheckpoints && cfg.maxPoints == 0) {
        // Exhaustive sweep: every interleaved store is a point, so
        // the tail replays can start while the master interleaving is
        // still building the checkpoint chain.
        runMcPipelinedSweep(cfg, streams, report);
    } else if (cfg.useCheckpoints) {
        const McCheckpointChain chain = buildMcChain(cfg, streams);
        report.traceStores = chain.traceStores;
        const auto points = enumeratePoints(cfg, report.traceStores);
        report.points.resize(points.size());
        runWorkStealing(std::max<std::size_t>(cfg.workers, 1),
                        points.size(), [&](std::size_t i) {
                            report.points[i] = runPointFromChain(
                                cfg, streams, chain, points[i]);
                        });
    } else {
        report.traceStores = countMcTraceStores(cfg);
        const auto points = enumeratePoints(cfg, report.traceStores);
        report.points.resize(points.size());
        runWorkStealing(std::max<std::size_t>(cfg.workers, 1),
                        points.size(), [&](std::size_t i) {
                            report.points[i] = runPointOnStreams(
                                cfg, streams, points[i]);
                        });
    }
    return report;
}

std::size_t
McCrashSweepReport::violationCount() const
{
    std::size_t n = 0;
    for (const auto &p : points)
        n += p.violations.size();
    return n;
}

std::uint64_t
McCrashSweepReport::replayedRecordsTotal() const
{
    std::uint64_t n = 0;
    for (const auto &p : points)
        n += p.replayedRecords;
    return n;
}

std::string
McCrashSweepReport::violationsText() const
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
McCrashSweepReport::summaryText() const
{
    std::size_t fired = 0;
    for (const auto &p : points)
        fired += p.fired ? 1 : 0;
    std::string text;
    text += "mc-crash-sweep scheme=" + schemeName(config.scheme) +
            " style=" + styleName(config.style) +
            " workload=" + config.run.workload +
            " cores=" + std::to_string(config.run.numCores) +
            " seed=" + std::to_string(config.run.seed) + "\n";
    text += "  trace_stores=" + std::to_string(traceStores) +
            " points=" + std::to_string(pointsExplored()) +
            " fired=" + std::to_string(fired) +
            " replayed_records=" +
            std::to_string(replayedRecordsTotal()) +
            " violations=" + std::to_string(violationCount()) + "\n";
    text += violationsText();
    return text;
}

std::string
McCrashSweepReport::toJson() const
{
    // Sum the per-point stats into one sweep-level view (addition
    // commutes, so this is worker-count independent).
    StatsSnapshot aggregate;
    std::size_t fired = 0;
    for (const auto &p : points) {
        fired += p.fired ? 1 : 0;
        for (const auto &[name, value] : p.stats)
            aggregate[name] += value;
    }

    JsonWriter w;
    w.beginObject();
    w.key("scheme").value(schemeName(config.scheme));
    w.key("style").value(styleName(config.style));
    w.key("workload").value(config.run.workload);
    w.key("cores").value(config.run.numCores);
    w.key("seed").value(config.run.seed);
    w.key("tiny_cache").value(config.tinyCache);
    w.key("trace_stores").value(traceStores);
    w.key("points_explored").value(pointsExplored());
    w.key("points_fired").value(fired);
    w.key("violations").value(violationCount());
    w.key("replayed_records").value(replayedRecordsTotal());
    w.key("ckpt_interval").value(config.checkpointInterval);

    w.key("violation_lines").beginArray();
    for (const auto &p : points) {
        for (const auto &v : p.violations)
            w.value(v);
    }
    w.endArray();

    w.key("stats").beginObject();
    for (const auto &[name, value] : aggregate)
        w.key(name).value(value);
    w.endObject();

    w.key("points").beginArray();
    for (const auto &p : points) {
        w.beginObject();
        w.key("crash_point").value(p.crashPoint);
        w.key("fired").value(p.fired);
        w.key("committed_ops").value(p.committedOps);
        w.key("replayed_records").value(p.replayedRecords);
        w.key("violations").value(p.violations.size());
        w.endObject();
    }
    w.endArray();

    w.endObject();
    return w.str();
}

} // namespace slpmt
