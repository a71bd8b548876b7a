#include "oracle.h"

#include <cmath>
#include <cstdio>

#include "koios/matching/semantic_overlap.h"

namespace perfbench {

using namespace koios;

namespace {

// Batched and scalar similarity kernels differ in accumulation order, so
// two exact computations of one overlap agree to ~1e-15, not bit for bit.
bool SameScore(Score a, Score b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

std::string Describe(const std::string& label, Score got, Score want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: got %.17g, want %.17g", label.c_str(),
                got, want);
  return buf;
}

}  // namespace

ExactnessOracle::ExactnessOracle(const serve::Snapshot& snapshot)
    : snapshot_(snapshot) {
  session_ = snapshot.index()->NewSession();
  baseline_ = std::make_unique<baselines::BruteForceBaseline>(
      &snapshot.sets(), session_ ? session_.get() : snapshot.index());
}

void ExactnessOracle::CheckScores(const Query& query,
                                  const std::vector<core::ResultEntry>& topk,
                                  const std::string& label,
                                  Report* report) const {
  for (const core::ResultEntry& e : topk) {
    ++scores_checked_;
    if (e.set >= snapshot_.sets().size()) {
      report->Wrong(label + ": set id out of range");
      continue;
    }
    const Score truth = matching::SemanticOverlap(
        query.tokens, snapshot_.sets().Tokens(e.set), snapshot_.similarity(),
        query.alpha);
    // A No-EM admission may report its certified lower bound instead.
    const bool ok = e.exact ? SameScore(e.score, truth)
                            : e.score <= truth + 1e-9 * std::max(1.0, truth);
    if (!ok) report->Wrong(Describe(label + " score", e.score, truth));
  }
}

void ExactnessOracle::CheckBaseline(const Query& query,
                                    const std::vector<core::ResultEntry>& topk,
                                    const std::string& label,
                                    Report* report) {
  baselines::BaselineOptions options;
  options.k = query.k;
  options.alpha = query.alpha;
  options.use_iub_filter = true;        // Baseline+
  options.dense_verification = false;   // sparse verification
  const core::SearchResult want = baseline_->Search(query.tokens, options);
  ++baseline_checked_;
  if (want.topk.size() != topk.size()) {
    report->Wrong(label + ": result count differs from Baseline+");
    return;
  }
  const Score got = topk.empty() ? 0.0 : topk.back().score;
  if (!SameScore(got, want.KthScore())) {
    report->Wrong(Describe(label + " k-th score vs Baseline+", got,
                           want.KthScore()));
  }
}

}  // namespace perfbench
