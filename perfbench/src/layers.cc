#include "layers.hh"

#include <cctype>
#include <utility>
#include <vector>

#include "multicore/machine.hh"

namespace perfbench
{

namespace
{

/** Host per-layer metrics in report order, with units. */
const std::vector<std::pair<const char *, const char *>> hostCatalogue = {
    {"sim.cell_ms.p50", "ms"},
    {"sim.cell_ms.p90", "ms"},
    {"sim.mcycles_per_host_s", "Mcycles/s"},
    {"workloads.generate_s", "s"},
    {"workloads.preload_s", "s"},
    {"workloads.verify_s", "s"},
    {"service.route_s", "s"},
    {"service.request_us.p50", "us"},
    {"service.request_us.p99", "us"},
    {"service.request_us.p999", "us"},
    {"service.fingerprint_ms", "ms"},
    {"multicore.construct_ms", "ms"},
    {"checkpoint.capture_ms", "ms"},
    {"checkpoint.restore_ms", "ms"},
    {"checkpoint.pages_held", "count"},
    {"validate.single.points_per_s", "1/s"},
    {"validate.mc.points_per_s", "1/s"},
    {"validate.service.points_per_s", "1/s"},
    {"validate.single.fixed_s", "s"},
    {"validate.mc.fixed_s", "s"},
    {"validate.service.fixed_s", "s"},
    {"validate.replayed_records_per_point", "count"},
    {"validate.violating_points", "count"},
    {"stats.snapshot_us", "us"},
};

/** "shard12." / "core3." style component length, 0 if none. */
std::size_t
indexedPrefix(const std::string &name, std::size_t at, const char *word)
{
    std::size_t i = at;
    for (const char *w = word; *w; ++w, ++i)
        if (i >= name.size() || name[i] != *w)
            return 0;
    const std::size_t digits = i;
    while (i < name.size() && std::isdigit(static_cast<unsigned char>(name[i])))
        ++i;
    if (i == digits || i >= name.size() || name[i] != '.')
        return 0;
    return i + 1 - at;
}

} // namespace

void
foldInto(slpmt::StatsSnapshot &acc, const slpmt::StatsSnapshot &snapshot)
{
    for (const auto &[name, value] : snapshot) {
        std::size_t at = 0;
        for (;;) {
            std::size_t n = indexedPrefix(name, at, "shard");
            if (!n)
                n = indexedPrefix(name, at, "core");
            if (!n)
                break;
            at += n;
        }
        acc[name.substr(at)] += value;
    }
}

double
stat(const slpmt::StatsSnapshot &folded, const std::string &name)
{
    const auto it = folded.find(name);
    return it == folded.end() ? 0.0 : static_cast<double>(it->second);
}

void
addLayerMetrics(RunResult &result, const HostLayerValues &host,
                const slpmt::StatsSnapshot &folded, const SimTotals &totals)
{
    for (const auto &[name, unit] : hostCatalogue) {
        const auto it = host.find(name);
        result.add(name, it == host.end() ? 0.0 : it->second, unit);
    }

    auto s = [&](const char *name) { return stat(folded, name); };
    const double ops = totals.ops;
    const double txns = s("txn.committed");
    auto perTxn = [&](const char *name) { return ratio(s(name), txns); };
    auto perOp = [&](const char *name) { return ratio(s(name), ops); };

    result.add("multicore.probes_per_txn", perTxn("multicore.probes"),
               "count");
    result.add("multicore.remote_drains_per_txn",
               ratio(s("multicore.remoteDrains.sigHit") +
                         s("multicore.remoteDrains.idObserved"),
                     txns),
               "count");
    result.add("multicore.conflict_abort_ratio",
               ratio(s("multicore.conflictAborts"), s("txn.begun")),
               "ratio");

    result.add("cache.l1_miss_ratio",
               ratio(s("cache.l1Misses"),
                     s("cache.l1Hits") + s("cache.l1Misses")),
               "ratio");
    result.add("cache.l2_hit_ratio",
               ratio(s("cache.l2Hits"),
                     s("cache.l2Hits") + s("cache.l2Misses")),
               "ratio");
    result.add("cache.l3_hit_ratio",
               ratio(s("cache.l3Hits"),
                     s("cache.l3Hits") + s("cache.l3Misses")),
               "ratio");
    result.add("cache.l3_misses_per_op", perOp("cache.l3Misses"), "count");
    result.add("cache.writebacks_per_op", perOp("cache.writebacks"),
               "count");
    result.add("cache.evictions_per_op", perOp("cache.privateEvictions"),
               "count");
    result.add("cache.meta_walks_per_txn", perTxn("cache.metaWalks"),
               "count");

    result.add("mem.pm_reads_per_op", perOp("pm.reads"), "count");
    result.add("mem.pm_data_bytes_per_op", perOp("pm.dataBytesWritten"),
               "B");
    result.add("mem.pm_log_bytes_per_op", perOp("pm.logBytesWritten"),
               "B");
    result.add("mem.wpq_stall_share",
               ratio(s("pm.wpqStallCycles"), totals.cycles), "ratio");
    result.add("mem.wpq_coalesce_ratio",
               ratio(s("pm.wpqCoalesced"), s("pm.lineWrites")), "ratio");

    result.add("logbuf.records_per_txn", perTxn("logbuf.inserts"), "count");
    result.add("logbuf.coalesce_ratio",
               ratio(s("logbuf.coalesces"), s("logbuf.inserts")), "ratio");
    result.add("logbuf.tier_drains_per_txn", perTxn("logbuf.tierDrains"),
               "count");
    result.add("logbuf.discard_ratio",
               ratio(s("logbuf.recordsDiscarded"), s("logbuf.inserts")),
               "ratio");

    result.add("txn.commit_cycle_share",
               ratio(s("txn.commitCycles.sum"), totals.cycles), "ratio");
    result.add("txn.log_records_per_txn", perTxn("txn.logRecordsCreated"),
               "count");
    result.add("txn.log_free_words_per_txn",
               perTxn("txn.logFreeWordsElided"), "count");
    result.add("txn.lazy_deferred_per_txn", perTxn("txn.lazyLinesDeferred"),
               "count");
    result.add("txn.lazy_forced_ratio",
               ratio(s("txn.lazyForcedPersists"), s("txn.lazyLinesDeferred")),
               "ratio");
    result.add("txn.lazy_drain.sig_hit_per_txn",
               perTxn("txn.lazyDrain.sigHit"), "count");
    result.add("txn.lazy_drain.line_owner_per_txn",
               perTxn("txn.lazyDrain.lineOwner"), "count");
    result.add("txn.lazy_drain.id_wrap_per_txn",
               perTxn("txn.lazyDrain.idWrap"), "count");
    result.add("txn.lazy_drain.eviction_per_txn",
               perTxn("txn.lazyDrain.eviction"), "count");
    result.add("txn.abort_ratio", ratio(s("txn.aborted"), s("txn.begun")),
               "ratio");
    result.add("txn.undolog_bytes_per_txn", perTxn("undolog.wireBytes"),
               "B");

    result.add("core.heap_allocs_per_op", perOp("heap.allocs"), "count");
}

void
probeMachineCosts(Tracer &tracer, HostLayerValues &host)
{
    constexpr int constructs = 5;
    constexpr int snapshots = 200;
    const slpmt::SystemConfig cfg;
    for (int i = 0; i < constructs; ++i) {
        Tracer::Span span(tracer, "multicore.construct");
        slpmt::McMachine machine(cfg);
    }
    slpmt::McMachine machine(cfg);
    for (int i = 0; i < snapshots; ++i) {
        Tracer::Span span(tracer, "stats.snapshot");
        machine.snapshot();
    }

    std::vector<double> ms;
    for (double d : tracer.durations("multicore.construct"))
        ms.push_back(d * 1e3);
    host["multicore.construct_ms"] = median(ms);
    std::vector<double> us;
    for (double d : tracer.durations("stats.snapshot"))
        us.push_back(d * 1e6);
    host["stats.snapshot_us"] = median(us);
}

} // namespace perfbench
