// Pieces shared by the workload runners: timed set-up and verified loads,
// client latency percentiles, counter windows over the engine's
// SearchStats, EngineCounters and cursor caches, the traced pass's
// per-layer summary and overhead, and the oracle pass over recorded
// answers.
#ifndef PERFBENCH_WORKLOAD_COMMON_H_
#define PERFBENCH_WORKLOAD_COMMON_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "koios/core/stats.h"
#include "koios/index/inverted_index.h"
#include "koios/serve/query_engine.h"
#include "koios/serve/snapshot.h"
#include "koios/sim/batched_neighbor_index.h"
#include "span_tracer.h"

namespace perfbench {

/// Snapshot::Load timed (and spanned under `span_name` when tracing).
std::shared_ptr<const koios::serve::Snapshot> LoadSnapshot(
    const std::string& path, bool verify, SpanTracer* tracer,
    const char* span_name, double* seconds);

/// Runs `setup` kSetupReps times, each after `teardown` and a heap trim;
/// `setup` stores the seconds its Snapshot::Load took and returns false on
/// failure. Reports the medians: setup_s, io.load_ms and
/// serve.engine_build_ms (the rest of the set-up).
bool TimeSetups(const std::function<void()>& teardown,
                const std::function<bool(double* load_s)>& setup,
                Report* report);

/// Times eager (verified) loads of `repo`, the swap path's load, and
/// reports their median as io.verify_load_ms.
bool ReportVerifyLoad(const std::string& repo, SpanTracer* tracer,
                      Report* report);

/// Reports latency_p50_ms and latency_tail_ms of the client latencies
/// (seconds). The tail needs at least kTailSamplesBeyond samples beyond its
/// percentile; with fewer the run is marked invalid.
inline constexpr size_t kTailSamplesBeyond = 10;
void ReportClientLatency(const koios::serve::LatencyRecorder& latency,
                         double tail_percentile, Report* report);

/// serve.rejected: queue-full, wait-exceeds-deadline and deadline-exceeded
/// rejections between two counter readings.
void ReportRejected(const koios::serve::EngineCounters& before,
                    const koios::serve::EngineCounters& after, Report* report);

/// Cursor-cache hits and lookups of the served indexes over a window in
/// which swaps retire indexes (a swap discards its snapshot's cache).
class CursorTally {
 public:
  /// Starts the window at the served index's current counters.
  explicit CursorTally(koios::sim::SimilarityIndex* served);
  /// Counts an index a swap is about to retire, or the served one at the
  /// window's end.
  void Retire(koios::sim::SimilarityIndex* index);
  /// Reports sim.cursor_hit_ratio, and sim.cursor_cache_mb of `served`.
  void AddTo(koios::sim::SimilarityIndex* served, Report* report) const;

 private:
  void Add(koios::sim::SimilarityIndex* index, int64_t sign);
  int64_t hits_ = 0;
  int64_t lookups_ = 0;
};

/// Untraced against traced time of the same calls: trace.overhead_ratio.
class OverheadTally {
 public:
  /// Runs `untraced` before `traced` for even `j` and after it for odd
  /// `j`, so cache warmth favours neither; each returns its own seconds.
  void Time(size_t j, const std::function<double()>& untraced,
            const std::function<double()>& traced);
  void AddTo(Report* report) const;

 private:
  double untraced_s_ = 0.0;
  double traced_s_ = 0.0;
};

/// Per-query means of the refinement and post-processing work counters
/// accumulated between two engine search_stats() readings.
void ReportSearchCounters(const koios::core::SearchStats& before,
                          const koios::core::SearchStats& after,
                          uint64_t queries, Report* report);

/// Per-layer timings from the traced replays with query ids in [lo, hi):
/// sim.cursor_build_ms, refine.ms, post.ms (per-query means of span self
/// time); and the coverage of `engine_service_s` by the replays with ids
/// in [cover_lo, cover_hi), the queries the engine served with the same
/// work.
void ReportReplayLayers(const SpanTracer& tracer, uint64_t lo, uint64_t hi,
                        uint64_t cover_lo, uint64_t cover_hi,
                        double engine_service_s, Report* report);

/// Self-time share of each replay layer over query ids [lo, hi), keyed by
/// layer metric name; written into report->info under `prefix`.
std::string LargestReplayLayer(const SpanTracer& tracer, uint64_t lo,
                               uint64_t hi, const std::string& prefix,
                               Report* report);

/// Answers recorded during a measured window, first answer per query
/// index; later answers to the same index must be bit-identical.
class AnswerBook {
 public:
  void Record(size_t query_index,
              const std::vector<koios::core::ResultEntry>& topk,
              Report* report);
  const std::map<size_t, std::vector<koios::core::ResultEntry>>& answers()
      const {
    return answers_;
  }

 private:
  std::map<size_t, std::vector<koios::core::ResultEntry>> answers_;
};

/// Runs the exactness oracle over every recorded answer, plus Baseline+
/// and the serial replay on a seeded sample of them.
void RunOracle(const koios::serve::Snapshot& snapshot,
               const koios::index::InvertedIndex& inverted,
               const std::vector<Query>& queries, const AnswerBook& book,
               const RunConfig& config, Report* report);

/// Engine service-time sum (seconds) over completed queries, for
/// per-query differencing of the engine's latency recorders.
double ServiceSum(const koios::serve::LatencyRecorder& recorder);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_COMMON_H_
