// Seeded input generation for the three benchmark workloads. The
// measuring process reads only what this writes: a v4 repository file
// (plus, for serve-churn, a byte-identical second copy to swap between)
// and a query list.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"

namespace perfbench {

inline constexpr const char* kRepoFile = "repo.v4";
inline constexpr const char* kRepoCopyFile = "repo_copy.v4";
inline constexpr const char* kQueryFile = "queries.txt";

/// True for "wdc-scale", "opendata-verify" and "serve-churn".
bool KnownWorkload(const std::string& workload);

/// Writes the workload's inputs for `seed` into `dir` (which must exist).
/// `toy` shrinks every size so the self-test runs in seconds. Returns
/// false (after printing why) on any failure.
bool GenerateInputs(const std::string& workload, uint64_t seed, bool toy,
                    const std::string& dir);

/// Reads a query list written by GenerateInputs.
bool ReadQueries(const std::string& path, std::vector<Query>* out);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
