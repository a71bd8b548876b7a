// Exactness oracle, run outside every timed window: each reported score
// must equal matching::SemanticOverlap of the query and that set, and on a
// seeded sample the k-th score must equal Baseline+ (iUB filter, sparse
// verification) θ*k. Mismatches are recorded in the Report as wrong
// results.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "koios/baselines/brute_force.h"
#include "koios/serve/snapshot.h"

namespace perfbench {

class ExactnessOracle {
 public:
  explicit ExactnessOracle(const koios::serve::Snapshot& snapshot);

  /// Every entry's score against a fresh exact semantic overlap.
  /// Thread-safe (concurrent callers pass distinct reports).
  void CheckScores(const Query& query,
                   const std::vector<koios::core::ResultEntry>& topk,
                   const std::string& label, Report* report) const;

  /// The k-th score against Baseline+'s θ*k (and the result count).
  void CheckBaseline(const Query& query,
                     const std::vector<koios::core::ResultEntry>& topk,
                     const std::string& label, Report* report);

  size_t scores_checked() const { return scores_checked_; }
  size_t baseline_checked() const { return baseline_checked_; }

 private:
  const koios::serve::Snapshot& snapshot_;
  std::unique_ptr<koios::sim::SimilarityIndex> session_;
  std::unique_ptr<koios::baselines::BruteForceBaseline> baseline_;
  mutable std::atomic<size_t> scores_checked_{0};
  size_t baseline_checked_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
