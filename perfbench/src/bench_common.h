// Shared helpers of the Koios benchmark program: the query list format,
// clocks, process memory, and the metric report written as JSON for
// perfbench/run.py.
#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "koios/core/search_types.h"
#include "koios/util/types.h"

namespace perfbench {

using koios::Score;
using koios::SetId;
using koios::TokenId;

/// One benchmark query as stored in the generated query list.
struct Query {
  uint32_t k = 10;
  double alpha = 0.8;
  std::vector<TokenId> tokens;
};

/// Seconds on the steady clock since an arbitrary process-local epoch.
inline double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Resident set size of this process in MB (VmRSS).
double RssMb();
/// Returns freed heap pages to the OS so RSS deltas measure live memory.
void TrimHeap();

/// True when both top-k lists are bit-identical (set, score, exact flag).
bool SameTopK(const std::vector<koios::core::ResultEntry>& a,
              const std::vector<koios::core::ResultEntry>& b);

/// Metrics and verdict of one run, serialized for run.py.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong_results = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Free-form numeric details (sample counts, shares, predictions).
  std::map<std::string, double> info;
  std::vector<std::string> notes;

  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  /// Records a wrong answer: the run is no longer correct.
  void Wrong(const std::string& what);

  bool WriteJson(const std::string& path) const;
};

/// Set-ups timed per run; setup_s and the io/serve set-up layers report
/// their medians.
inline constexpr size_t kSetupReps = 21;

/// One run's arguments. The workload constants come from
/// perfbench/workloads.json through run.py, their only source: the
/// program has no defaults for them and refuses a run missing one it needs.
struct RunConfig {
  std::string workload;
  std::string dir;       // generated inputs
  std::string out;       // report JSON
  std::string trace_out; // Chrome trace JSON (traced runs only)
  double seconds = 0.0;
  /// Toy inputs (self-test): closed-loop passes run over the whole query
  /// list instead of a time window, so their work counters are exact.
  bool toy = false;
  bool trace = false;
  uint64_t seed = 0;
  double tail_percentile = 0.0;
  size_t oracle_sample = 0;
  size_t traced_queries = 0;
  // serve-churn only
  double offered_qps = 0.0;
  double latency_limit_ms = 0.0;
  double lag_bound_ms = 0.0;
  double swap_interval_s = 0.0;
  double open_loop_share = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
