#include "validate/crash_explorer.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "checkpoint/checkpoint.hh"
#include "common/work_queue.hh"
#include "core/pm_system.hh"
#include "sim/json.hh"
#include "workloads/factory.hh"

namespace slpmt
{
namespace
{

/** Committed state the durable structure must match after recovery. */
using Shadow = std::map<std::uint64_t, std::vector<std::uint8_t>>;

/** Cap per check phase so one broken point cannot flood the report. */
constexpr std::size_t maxViolationsPerPhase = 4;

SystemConfig
systemFor(const CrashSweepConfig &cfg)
{
    SystemConfig sc;
    sc.scheme = SchemeConfig::forKind(cfg.scheme);
    sc.style = cfg.style;
    sc.layoutAudit = cfg.layoutAudit;
    if (cfg.tinyCache) {
        sc.hierarchy.l1 = CacheConfig{"L1", 1024, 2, 4};
        sc.hierarchy.l2 = CacheConfig{"L2", 2048, 2, 12};
        sc.hierarchy.l3 = CacheConfig{"L3", 4096, 4, 40};
    }
    return sc;
}

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

/** The printed handle that reproduces a failure in isolation. The
 *  checkpoint interval is part of the tuple (it selects which sweep
 *  found the violation) but never changes the outcome — restores are
 *  bit-exact, so runCrashPoint replays from scratch. */
std::string
reproTuple(const CrashSweepConfig &cfg, std::uint64_t crash_point)
{
    return "(scheme=" + schemeName(cfg.scheme) +
           " style=" + styleName(cfg.style) +
           " workload=" + cfg.workload +
           " seed=" + std::to_string(cfg.mix.seed) +
           std::string(cfg.tinyCache ? " tiny_cache=1" : "") +
           " ckpt_interval=" + std::to_string(cfg.checkpointInterval) +
           " crash_point=" + std::to_string(crash_point) + ")";
}

/**
 * Apply one trace op, updating the oracle only when the structure
 * reports the op took effect (removes/updates of absent keys and
 * unsupported removes run no transaction).
 */
void
applyOp(PmSystem &sys, Workload &wl, const YcsbMixedOp &op,
        Shadow &shadow)
{
    switch (op.kind) {
      case YcsbOpKind::Insert:
        wl.insert(sys, op.key, op.value);
        shadow[op.key] = op.value;
        break;
      case YcsbOpKind::Update:
        if (wl.update(sys, op.key, op.value))
            shadow[op.key] = op.value;
        break;
      case YcsbOpKind::Remove:
        if (wl.remove(sys, op.key))
            shadow.erase(op.key);
        break;
    }
}

/** The oracle: compare the recovered structure against the shadow. */
void
checkState(PmSystem &sys, Workload &wl, const Shadow &shadow,
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
    if (!wl.checkConsistency(sys, &why))
        add("structure invariant violated: " + why);

    const std::size_t n = wl.count(sys);
    if (n != shadow.size())
        add("count mismatch: structure holds " + std::to_string(n) +
            ", oracle expects " + std::to_string(shadow.size()));

    auto it = shadow.begin();
    wl.lookupAll(sys, keysOf(shadow), true,
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

    wl.lookupAll(sys, absent_keys, false,
                 [&](std::size_t i, bool found,
                     const std::vector<std::uint8_t> &) {
                     if (found)
                         add("uncommitted or removed key " +
                             hexKey(absent_keys[i]) + " visible");
                     return true;
                 });
}

/**
 * Finish one crash point on a machine already advanced to trace op
 * @p start_op (op 0 with an empty shadow for a from-scratch run, a
 * restored checkpoint otherwise). @p arm_stores is the store count at
 * which the crash fires, relative to the machine's current position
 * (0 = never, i.e. the post-completion point).
 */
CrashPointOutcome
explorePoint(const CrashSweepConfig &cfg,
             const std::vector<YcsbMixedOp> &trace,
             std::uint64_t crash_point, PmSystem &sys, Workload &wl,
             Shadow shadow, std::size_t start_op,
             std::uint64_t arm_stores)
{
    CrashPointOutcome out;
    out.crashPoint = crash_point;
    const std::string tuple = reproTuple(cfg, crash_point);

    try {
        out.committedOps = start_op;
        if (arm_stores > 0)
            sys.armCrashAfterStores(arm_stores);
        bool crashed = false;
        for (std::size_t i = start_op; i < trace.size(); ++i) {
            try {
                applyOp(sys, wl, trace[i], shadow);
            } catch (const CrashInjected &) {
                crashed = true;
                break;
            }
            ++out.committedOps;
        }
        sys.armCrashAfterStores(0);
        out.fired = crashed;

        // A point past the last store (or the explicit post-completion
        // point 0): power off after the trace, with any lazily
        // persistent data still volatile in the caches.
        if (!crashed)
            sys.crash();

        // Keys the trace touched that must NOT be visible: removed
        // keys and the interrupted op's fresh insert.
        std::vector<std::uint64_t> absent;
        {
            std::set<std::uint64_t> keys;
            for (const auto &op : trace)
                keys.insert(op.key);
            for (std::uint64_t key : keys) {
                if (!shadow.count(key))
                    absent.push_back(key);
            }
        }

        // Hardware-level recovery (log replay), then the workload's
        // user-level recovery of log-free and lazy data.
        if (!cfg.skipHardwareReplay)
            out.replayedRecords = sys.recoverHardware();
        if (!cfg.skipUserRecovery)
            wl.recover(sys);
        checkState(sys, wl, shadow, absent, tuple, "post-recovery",
                   out.violations);

        // Recovery must be idempotent: a second replay finds an empty
        // log and a second user-level pass changes nothing.
        if (cfg.checkIdempotence) {
            const std::size_t again =
                cfg.skipHardwareReplay ? 0 : sys.recoverHardware();
            if (again != 0)
                out.violations.push_back(
                    tuple + " idempotence: second hardware recovery "
                            "replayed " +
                    std::to_string(again) + " records");
            if (!cfg.skipUserRecovery)
                wl.recover(sys);
            checkState(sys, wl, shadow, absent, tuple, "idempotence",
                       out.violations);
        }

        // The recovered structure must keep working: a few fresh
        // inserts with per-point deterministic keys. Trace keys are
        // odd, continuation keys even, so they can never collide.
        if (cfg.continuationOps > 0) {
            Rng rng(mix64(cfg.mix.seed) ^ (crash_point + 1));
            for (std::size_t i = 0; i < cfg.continuationOps; ++i) {
                std::uint64_t key;
                do {
                    key = ((rng.next() >> 1) | 2ULL) &
                          ~static_cast<std::uint64_t>(1);
                } while (shadow.count(key));
                const auto value =
                    ycsbValueFor(key, cfg.mix.valueBytes);
                wl.insert(sys, key, value);
                shadow[key] = value;
            }
            checkState(sys, wl, shadow, absent, tuple, "continuation",
                       out.violations);
        }

        out.stats = sys.stats().snapshot();
    } catch (const std::exception &e) {
        out.violations.push_back(tuple + " exception: " + e.what());
    }
    return out;
}

/** Run one crash point from scratch: fresh machine, full replay. */
CrashPointOutcome
runPointOnTrace(const CrashSweepConfig &cfg,
                const std::vector<YcsbMixedOp> &trace,
                std::uint64_t crash_point)
{
    CrashPointOutcome out;
    out.crashPoint = crash_point;
    try {
        PmSystem sys(systemFor(cfg));
        auto wl = makeWorkload(cfg.workload);
        wl->setup(sys);
        return explorePoint(cfg, trace, crash_point, sys, *wl,
                            Shadow{}, 0, crash_point);
    } catch (const std::exception &e) {
        out.violations.push_back(reproTuple(cfg, crash_point) +
                                 " exception: " + e.what());
    }
    return out;
}

/**
 * One node of the master run's checkpoint chain. Immutable after
 * capture; any number of workers fork from it concurrently (the
 * machine checkpoint shares pages copy-on-write, the workload is
 * cloned per fork, the shadow is copied per fork).
 */
struct TraceCheckpoint
{
    std::shared_ptr<const MachineCheckpoint> machine;
    std::shared_ptr<const Workload> workload;
    Shadow shadow;
    std::size_t nextOp = 0;      //!< first trace op not yet applied
    std::uint64_t storesAt = 0;  //!< trace stores executed at capture
};

struct CheckpointChain
{
    std::vector<TraceCheckpoint> entries;
    std::uint64_t traceStores = 0;
};

/**
 * The master run: apply the trace once, dropping a checkpoint at
 * every op boundary that completes another checkpointInterval stores
 * (plus one at the trace start, so every point has a base). Also
 * yields the total store count, absorbing the dry run the
 * from-scratch path needs.
 */
CheckpointChain
buildCheckpointChain(const CrashSweepConfig &cfg,
                     const std::vector<YcsbMixedOp> &trace)
{
    CheckpointChain chain;
    PmSystem sys(systemFor(cfg));
    auto wl = makeWorkload(cfg.workload);
    wl->setup(sys);
    const std::uint64_t base = sys.engine().storesExecuted();

    Shadow shadow;
    auto drop = [&](std::size_t next_op) {
        TraceCheckpoint t;
        t.machine = std::make_shared<const MachineCheckpoint>(
            MachineCheckpoint::capture(sys));
        t.workload = wl->clone();
        t.shadow = shadow;
        t.nextOp = next_op;
        t.storesAt = sys.engine().storesExecuted() - base;
        chain.entries.push_back(std::move(t));
    };

    drop(0);
    const std::uint64_t interval =
        std::max<std::uint64_t>(cfg.checkpointInterval, 1);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        applyOp(sys, *wl, trace[i], shadow);
        const std::uint64_t stores =
            sys.engine().storesExecuted() - base;
        if (i + 1 < trace.size() &&
            stores - chain.entries.back().storesAt >= interval)
            drop(i + 1);
    }
    chain.traceStores = sys.engine().storesExecuted() - base;
    return chain;
}

/**
 * Fork checkpoint @p ckpt and replay the tail up to @p crash_point
 * (0 = run the trace out and power off after completion).
 */
CrashPointOutcome
runPointFromBase(const CrashSweepConfig &cfg,
                 const std::vector<YcsbMixedOp> &trace,
                 const TraceCheckpoint &ckpt, std::uint64_t crash_point)
{
    CrashPointOutcome out;
    out.crashPoint = crash_point;
    try {
        PmSystem sys(systemFor(cfg));
        ckpt.machine->restore(sys);
        auto wl = ckpt.workload->clone();
        const std::uint64_t arm =
            crash_point > 0 ? crash_point - ckpt.storesAt : 0;
        return explorePoint(cfg, trace, crash_point, sys, *wl,
                            ckpt.shadow, ckpt.nextOp, arm);
    } catch (const std::exception &e) {
        out.violations.push_back(reproTuple(cfg, crash_point) +
                                 " exception: " + e.what());
    }
    return out;
}

/**
 * Run one crash point by forking the nearest checkpoint strictly
 * below it and replaying only the tail. Point 0 (post-completion)
 * forks the last checkpoint and runs the trace out.
 */
CrashPointOutcome
runPointFromChain(const CrashSweepConfig &cfg,
                  const std::vector<YcsbMixedOp> &trace,
                  const CheckpointChain &chain,
                  std::uint64_t crash_point)
{
    // Entries are in increasing storesAt order; the base for a
    // firing point must be strictly below it so the armed
    // countdown sees at least one store.
    const TraceCheckpoint *ckpt = &chain.entries.front();
    for (const auto &entry : chain.entries) {
        if (crash_point == 0 || entry.storesAt < crash_point)
            ckpt = &entry;
        else
            break;
    }
    return runPointFromBase(cfg, trace, *ckpt, crash_point);
}

/**
 * Shared state of the pipelined exhaustive sweep: the master run
 * publishes checkpoints and its store frontier as it goes, and tail
 * workers replay crash points concurrently with the build. Entries
 * live in a deque (never erased, so references stay stable while the
 * master keeps appending). Point k only needs the nearest checkpoint
 * strictly below k, and that choice is final as soon as the frontier
 * reaches k — every later checkpoint lands at a store count >= the
 * frontier — so a worker may start point k the moment frontier >= k,
 * and its base (hence its outcome) is identical to the two-phase
 * sweep's.
 */
struct TailPipeline
{
    std::mutex mtx;
    std::condition_variable cv;
    std::deque<TraceCheckpoint> entries;
    std::uint64_t frontier = 0;     //!< trace stores the master applied
    std::uint64_t traceStores = 0;  //!< final count, valid once done
    bool done = false;
    std::exception_ptr error;
};

/** The master run of the pipelined sweep (same checkpoint-drop rule
 *  as buildCheckpointChain, published incrementally). */
void
runPipelineMaster(const CrashSweepConfig &cfg,
                  const std::vector<YcsbMixedOp> &trace,
                  TailPipeline &pipe)
{
    try {
        PmSystem sys(systemFor(cfg));
        auto wl = makeWorkload(cfg.workload);
        wl->setup(sys);
        const std::uint64_t base = sys.engine().storesExecuted();

        Shadow shadow;
        std::uint64_t last_drop_stores = 0;
        auto drop = [&](std::size_t next_op) {
            TraceCheckpoint t;
            t.machine = std::make_shared<const MachineCheckpoint>(
                MachineCheckpoint::capture(sys));
            t.workload = wl->clone();
            t.shadow = shadow;
            t.nextOp = next_op;
            t.storesAt = sys.engine().storesExecuted() - base;
            last_drop_stores = t.storesAt;
            std::lock_guard<std::mutex> lock(pipe.mtx);
            pipe.entries.push_back(std::move(t));
        };

        drop(0);
        const std::uint64_t interval =
            std::max<std::uint64_t>(cfg.checkpointInterval, 1);
        for (std::size_t i = 0; i < trace.size(); ++i) {
            applyOp(sys, *wl, trace[i], shadow);
            const std::uint64_t stores =
                sys.engine().storesExecuted() - base;
            if (i + 1 < trace.size() &&
                stores - last_drop_stores >= interval)
                drop(i + 1);
            {
                std::lock_guard<std::mutex> lock(pipe.mtx);
                pipe.frontier = stores;
            }
            pipe.cv.notify_all();
        }
        {
            std::lock_guard<std::mutex> lock(pipe.mtx);
            pipe.traceStores = sys.engine().storesExecuted() - base;
            pipe.done = true;
        }
    } catch (...) {
        std::lock_guard<std::mutex> lock(pipe.mtx);
        pipe.error = std::current_exception();
        pipe.done = true;
    }
    pipe.cv.notify_all();
}

std::vector<std::uint64_t> enumeratePoints(const CrashSweepConfig &cfg,
                                           std::uint64_t total_stores);

/**
 * The pipelined exhaustive sweep (maxPoints == 0): overlap the master
 * checkpoint-chain build with the point tail replays. Exhaustive
 * sweeps visit every store 1..traceStores in order, so workers can
 * claim points from an atomic ticket and block only until the master
 * frontier passes their point — no need to know the total up front.
 * Sampled sweeps keep the two-phase shape: stratification needs the
 * total store count before any point can be enumerated.
 */
void
runPipelinedSweep(const CrashSweepConfig &cfg,
                  const std::vector<YcsbMixedOp> &trace,
                  CrashSweepReport &report)
{
    TailPipeline pipe;
    std::mutex results_mtx;
    std::map<std::uint64_t, CrashPointOutcome> results;
    std::atomic<std::uint64_t> ticket{1};

    auto worker = [&]() {
        for (;;) {
            const std::uint64_t k = ticket.fetch_add(1);
            const TraceCheckpoint *ckpt = nullptr;
            std::uint64_t point = k;
            {
                std::unique_lock<std::mutex> lock(pipe.mtx);
                pipe.cv.wait(lock, [&] {
                    return pipe.done || pipe.frontier >= k;
                });
                if (pipe.done && pipe.error)
                    return;
                if (pipe.done && k > pipe.traceStores) {
                    // Exactly one ticket past the last store runs the
                    // post-completion point; later tickets are spent.
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
            CrashPointOutcome out =
                runPointFromBase(cfg, trace, *ckpt, point);
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
    runPipelineMaster(cfg, trace, pipe);
    // The master is finished; its thread joins the replay pool until
    // the remaining tails drain.
    worker();
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

/**
 * Enumerate the crash points to explore: every store when the budget
 * allows, otherwise one deterministically drawn point per stratum
 * (always covering the first and last store). Sentinel 0 appended
 * last stands for the post-completion crash.
 */
std::vector<std::uint64_t>
enumeratePoints(const CrashSweepConfig &cfg, std::uint64_t total_stores)
{
    std::vector<std::uint64_t> points;
    const std::uint64_t total = total_stores;
    if (total > 0) {
        if (cfg.maxPoints == 0 || total <= cfg.maxPoints) {
            for (std::uint64_t k = 1; k <= total; ++k)
                points.push_back(k);
        } else {
            Rng rng(mix64(cfg.mix.seed ^ 0xc5a5c5a5c5a5c5a5ULL));
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
countTraceStores(const CrashSweepConfig &cfg)
{
    const auto trace = ycsbMixedLoad(cfg.mix);
    PmSystem sys(systemFor(cfg));
    auto wl = makeWorkload(cfg.workload);
    wl->setup(sys);
    const std::uint64_t base = sys.engine().storesExecuted();
    Shadow shadow;
    for (const auto &op : trace)
        applyOp(sys, *wl, op, shadow);
    return sys.engine().storesExecuted() - base;
}

CrashPointOutcome
runCrashPoint(const CrashSweepConfig &cfg, std::uint64_t crash_point)
{
    return runPointOnTrace(cfg, ycsbMixedLoad(cfg.mix), crash_point);
}

CrashSweepReport
runCrashSweep(const CrashSweepConfig &cfg)
{
    CrashSweepReport report;
    report.config = cfg;

    const auto trace = ycsbMixedLoad(cfg.mix);
    report.traceOps = trace.size();

    const auto t0 = std::chrono::steady_clock::now();
    if (cfg.useCheckpoints && cfg.maxPoints == 0) {
        // Exhaustive sweep: every store is a point, so the tail
        // replays can start while the master run is still building
        // the checkpoint chain.
        runPipelinedSweep(cfg, trace, report);
    } else if (cfg.useCheckpoints) {
        const CheckpointChain chain = buildCheckpointChain(cfg, trace);
        report.traceStores = chain.traceStores;
        const auto points = enumeratePoints(cfg, report.traceStores);
        report.points.resize(points.size());
        runWorkStealing(std::max<std::size_t>(cfg.workers, 1),
                        points.size(), [&](std::size_t i) {
                            report.points[i] = runPointFromChain(
                                cfg, trace, chain, points[i]);
                        });
    } else {
        report.traceStores = countTraceStores(cfg);
        const auto points = enumeratePoints(cfg, report.traceStores);
        report.points.resize(points.size());
        runWorkStealing(std::max<std::size_t>(cfg.workers, 1),
                        points.size(), [&](std::size_t i) {
                            report.points[i] = runPointOnTrace(
                                cfg, trace, points[i]);
                        });
    }
    const auto t1 = std::chrono::steady_clock::now();
    report.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return report;
}

std::size_t
CrashSweepReport::violationCount() const
{
    std::size_t n = 0;
    for (const auto &p : points)
        n += p.violations.size();
    return n;
}

std::uint64_t
CrashSweepReport::replayedRecordsTotal() const
{
    std::uint64_t n = 0;
    for (const auto &p : points)
        n += p.replayedRecords;
    return n;
}

std::string
CrashSweepReport::violationsText() const
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
CrashSweepReport::toJson() const
{
    // Sum the per-point stats registries into one sweep-level view
    // (addition commutes, so this is worker-count independent).
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
    w.key("workload").value(config.workload);
    w.key("seed").value(config.mix.seed);
    w.key("tiny_cache").value(config.tinyCache);
    w.key("trace_ops").value(traceOps);
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
