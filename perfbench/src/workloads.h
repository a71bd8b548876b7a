// The workload runners. Each reads the generated inputs from
// config.dir, measures, checks exactness, and fills `report`.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <vector>

#include "bench_common.h"

namespace perfbench {

/// wdc-scale and opendata-verify: one closed-loop client submitting to an
/// in-process QueryEngine (1 worker; 4 shards on wdc-scale).
bool RunEngineWorkload(const RunConfig& config,
                       const std::vector<Query>& queries, Report* report);

/// serve-churn: a loopback net::Server over an EngineSlot, an open-loop
/// phase with hot swaps, then a closed-loop phase.
bool RunServeChurn(const RunConfig& config, const std::vector<Query>& queries,
                   Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
