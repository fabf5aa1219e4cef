/**
 * @file
 * Per-layer metric catalogue and the simulated-counter derivations.
 *
 * Every run prints the full per-layer list (a layer the workload never
 * enters reads 0). Simulated per-layer metrics are ratios of exact
 * measured-window counter deltas taken from the public stats
 * snapshots, folded over the shardN./coreN. prefixes.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <map>
#include <string>

#include "common.hh"
#include "stats/stats.hh"
#include "trace.hh"

namespace perfbench
{

/** Host-side per-layer values a workload measured (name -> value);
 *  names not set are reported as 0. */
using HostLayerValues = std::map<std::string, double>;

/** Simulated work the counter ratios are normalised by. */
struct SimTotals
{
    double ops = 0;     //!< the workload's operations
    double cycles = 0;  //!< simulated cycles summed over machines
};

/**
 * Sum @p snapshot into @p acc with every leading "shardN." and
 * "coreN." component removed, so per-shard and per-core copies of a
 * counter add up under one name.
 */
void foldInto(slpmt::StatsSnapshot &acc, const slpmt::StatsSnapshot &snapshot);

/** Value of @p name in a folded snapshot (0 when absent). */
double stat(const slpmt::StatsSnapshot &folded, const std::string &name);

/**
 * Append every per-layer metric, in catalogue order: host values from
 * @p host, simulated ratios from the folded counters @p folded.
 */
void addLayerMetrics(RunResult &result, const HostLayerValues &host,
                     const slpmt::StatsSnapshot &folded,
                     const SimTotals &totals);

/**
 * Time McMachine construction and McMachine::snapshot() on a machine
 * of the default configuration (multicore.construct_ms,
 * stats.snapshot_us), under spans of those names. A workload that
 * also constructs machines under "multicore.construct" spans shares
 * the median.
 */
void probeMachineCosts(Tracer &tracer, HostLayerValues &host);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
