#include "sim/experiment.hh"

#include "multicore/mc_ycsb.hh"
#include "service/service.hh"

namespace slpmt
{

ExperimentResult
runExperiment(const std::string &workload_name,
              const ExperimentConfig &cfg)
{
    // Service cells route the generated request stream over shard
    // machines (src/service/).
    if (cfg.service.shards > 0)
        return runServiceExperiment(workload_name, cfg);

    // Multicore cells run through the interleaved machine; mcDriver
    // forces that path even for one core so scaling baselines share
    // the scheduler and workload layer of the scaled cells.
    if (cfg.numCores > 1 || cfg.mcDriver)
        return runMcExperiment(workload_name, cfg);

    SystemConfig sys_cfg;
    sys_cfg.scheme = SchemeConfig::forKind(cfg.scheme);
    sys_cfg.scheme.speculativeRounding = cfg.speculativeRounding;
    sys_cfg.scheme.numTxnIds = cfg.numTxnIds;
    sys_cfg.style = cfg.style;
    sys_cfg.pm.writeLatencyNs = cfg.pmWriteLatencyNs;
    sys_cfg.useMetaIndex = cfg.useMetaIndex;
    sys_cfg.layoutAudit = cfg.layoutAudit;

    PmSystem sys(sys_cfg);
    auto workload = makeWorkload(workload_name);

    static const NullAnnotationPolicy null_policy;
    static const ManualAnnotationPolicy manual_policy;
    static const CompilerAnnotationPolicy compiler_policy;
    switch (cfg.annotations) {
      case AnnotationMode::None:
        sys.setAnnotationPolicy(&null_policy);
        break;
      case AnnotationMode::Manual:
        sys.setAnnotationPolicy(&manual_policy);
        break;
      case AnnotationMode::Compiler:
        sys.setAnnotationPolicy(&compiler_policy);
        break;
    }

    workload->setup(sys);

    const auto ops = ycsbLoad(cfg.ycsb);

    // Measured window: the insert phase only.
    const Cycles cycles_before = sys.cycles();
    const StatsSnapshot before = sys.stats().snapshot();
    for (const auto &op : ops)
        workload->insert(sys, op.key, op.value);
    const StatsSnapshot after = sys.stats().snapshot();

    ExperimentResult result;
    result.workload = workload_name;
    result.scheme = cfg.scheme;
    result.cycles = sys.cycles() - cycles_before;
    const StatsSnapshot delta = StatsRegistry::delta(before, after);
    auto get = [&](const char *name) {
        auto it = delta.find(name);
        return it == delta.end() ? 0ULL : it->second;
    };
    result.pmWriteBytes = get("pm.bytesWritten");
    result.pmDataBytes = get("pm.dataBytesWritten");
    result.pmLogBytes = get("pm.logBytesWritten");
    result.commits = get("txn.committed");
    result.logRecords = get("txn.logRecordsCreated");
    result.stats = delta;

    // Verification phase (outside the measured window).
    result.verified = true;
    std::string why;
    if (!workload->checkConsistency(sys, &why)) {
        result.verified = false;
        result.failure = "consistency: " + why;
        return result;
    }
    std::vector<std::uint64_t> keys;
    keys.reserve(ops.size());
    for (const auto &op : ops)
        keys.push_back(op.key);
    workload->lookupAll(sys, keys, true,
                        [&](std::size_t i, bool found,
                            const std::vector<std::uint8_t> &got) {
                            if (found && got == ops[i].value)
                                return true;
                            result.verified = false;
                            result.failure = "lookup mismatch";
                            return false;
                        });
    if (!result.verified)
        return result;
    if (workload->count(sys) != ops.size()) {
        result.verified = false;
        result.failure = "count mismatch";
    }
    return result;
}

} // namespace slpmt
