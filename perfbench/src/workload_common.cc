#include "workload_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "koios/util/rng.h"
#include "oracle.h"
#include "replay.h"

namespace perfbench {

using namespace koios;

std::shared_ptr<const serve::Snapshot> LoadSnapshot(const std::string& path,
                                                    bool verify,
                                                    SpanTracer* tracer,
                                                    const char* span_name,
                                                    double* seconds) {
  serve::SnapshotOptions options;
  options.mmap_verify = verify;
  const double t0 = NowSec();
  util::StatusOr<std::shared_ptr<const serve::Snapshot>> loaded =
      [&] {
        ScopedSpan span(tracer, span_name, 0);
        return serve::Snapshot::Load(path, options);
      }();
  *seconds = NowSec() - t0;
  if (!loaded.ok()) {
    std::fprintf(stderr, "loading %s failed: %s\n", path.c_str(),
                 loaded.status().ToString().c_str());
    return nullptr;
  }
  return std::move(loaded).value();
}

bool TimeSetups(const std::function<void()>& teardown,
                const std::function<bool(double* load_s)>& setup,
                Report* report) {
  serve::LatencyRecorder total, load, build;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    teardown();
    TrimHeap();
    const double t0 = NowSec();
    double load_s = 0.0;
    if (!setup(&load_s)) return false;
    const double dt = NowSec() - t0;
    total.Record(dt);
    load.Record(load_s);
    build.Record(dt - load_s);
  }
  report->E2e("setup_s", total.Percentile(50), "s");
  report->Layer("io.load_ms", load.Percentile(50) * 1e3, "ms");
  report->Layer("serve.engine_build_ms", build.Percentile(50) * 1e3, "ms");
  return true;
}

bool ReportVerifyLoad(const std::string& repo, SpanTracer* tracer,
                      Report* report) {
  serve::LatencyRecorder verify;
  for (size_t rep = 0; rep < 3; ++rep) {
    double s = 0.0;
    if (LoadSnapshot(repo, /*verify=*/true, tracer, "io.verify_load", &s) ==
        nullptr) {
      return false;
    }
    verify.Record(s);
  }
  report->Layer("io.verify_load_ms", verify.Percentile(50) * 1e3, "ms");
  return true;
}

void ReportClientLatency(const serve::LatencyRecorder& latency,
                         double tail_percentile, Report* report) {
  const size_t n = latency.count();
  const auto rank =
      static_cast<size_t>(std::ceil(tail_percentile / 100.0 * n));
  const size_t beyond = n - std::min(n, rank);
  report->E2e("latency_p50_ms", latency.Percentile(50) * 1e3, "ms");
  report->E2e("latency_tail_ms", latency.Percentile(tail_percentile) * 1e3,
              "ms");
  report->info["samples"] = static_cast<double>(n);
  report->info["tail_percentile"] = tail_percentile;
  report->info["tail_samples_beyond"] = static_cast<double>(beyond);
  if (beyond < kTailSamplesBeyond) {
    // Too few samples to define this percentile's tail: not scored.
    report->correct = false;
    report->notes.push_back("latency_tail_ms invalid: " +
                            std::to_string(beyond) +
                            " samples beyond its percentile");
  }
}

void ReportRejected(const serve::EngineCounters& before,
                    const serve::EngineCounters& after, Report* report) {
  report->Layer(
      "serve.rejected",
      static_cast<double>(
          (after.rejected_queue_full - before.rejected_queue_full) +
          (after.rejected_wait_exceeds_deadline -
           before.rejected_wait_exceeds_deadline) +
          (after.deadline_exceeded - before.deadline_exceeded)),
      "count");
}

namespace {

sim::CursorCacheStats CursorStats(sim::SimilarityIndex* index) {
  const auto* batched = dynamic_cast<const sim::BatchedNeighborIndex*>(index);
  return batched != nullptr ? batched->cursor_cache_stats()
                            : sim::CursorCacheStats{};
}

}  // namespace

CursorTally::CursorTally(sim::SimilarityIndex* served) { Add(served, -1); }

void CursorTally::Retire(sim::SimilarityIndex* index) { Add(index, +1); }

void CursorTally::Add(sim::SimilarityIndex* index, int64_t sign) {
  const sim::CursorCacheStats s = CursorStats(index);
  hits_ += sign * static_cast<int64_t>(s.hits);
  lookups_ += sign * static_cast<int64_t>(s.hits + s.misses);
}

void CursorTally::AddTo(sim::SimilarityIndex* served, Report* report) const {
  report->Layer("sim.cursor_hit_ratio",
                lookups_ > 0 ? static_cast<double>(hits_) / lookups_ : 0.0,
                "ratio");
  report->Layer("sim.cursor_cache_mb",
                static_cast<double>(CursorStats(served).bytes) / (1 << 20),
                "MB");
}

void OverheadTally::Time(size_t j, const std::function<double()>& untraced,
                         const std::function<double()>& traced) {
  if (j % 2 == 0) untraced_s_ += untraced();
  traced_s_ += traced();
  if (j % 2 == 1) untraced_s_ += untraced();
}

void OverheadTally::AddTo(Report* report) const {
  report->Layer("trace.overhead_ratio",
                untraced_s_ > 0 ? traced_s_ / untraced_s_ : 0.0, "ratio");
}

void ReportSearchCounters(const core::SearchStats& before,
                          const core::SearchStats& after, uint64_t queries,
                          Report* report) {
  const double n = static_cast<double>(std::max<uint64_t>(1, queries));
  auto per_query = [n](size_t a, size_t b) {
    return static_cast<double>(b - a) / n;
  };
  const double candidates = per_query(before.candidates, after.candidates);
  const double iub = per_query(before.iub_filtered, after.iub_filtered);
  const double post_sets =
      per_query(before.postprocess_sets, after.postprocess_sets);
  const double no_em = per_query(before.no_em_skipped, after.no_em_skipped);
  const double early =
      per_query(before.em_early_terminated, after.em_early_terminated);
  report->Layer("refine.stream_tuples",
                per_query(before.stream_tuples, after.stream_tuples), "count");
  report->Layer("refine.tuples_produced",
                per_query(before.stream_tuples_produced,
                          after.stream_tuples_produced),
                "count");
  report->Layer("refine.candidates", candidates, "count");
  report->Layer("refine.iub_filtered", iub, "count");
  report->Layer("refine.bucket_moves",
                per_query(before.bucket_moves, after.bucket_moves), "count");
  report->Layer("refine.prune_ratio", candidates > 0 ? iub / candidates : 0.0,
                "ratio");
  report->Layer("post.sets", post_sets, "count");
  report->Layer("post.verify_ratio",
                candidates > 0 ? post_sets / candidates : 0.0, "ratio");
  report->Layer("post.no_em_skipped", no_em, "count");
  report->Layer("post.em_early_terminated", early, "count");
  report->Layer("post.em_computed",
                per_query(before.em_computed, after.em_computed), "count");
  report->Layer("post.em_avoided_ratio",
                post_sets > 0 ? (no_em + early) / post_sets : 0.0, "ratio");
  report->Layer("post.verification_ems",
                per_query(before.result_verification_ems,
                          after.result_verification_ems),
                "count");
}

namespace {

const char* const kReplayLayers[] = {kSpanCursorBuild, kSpanRefine,
                                     kSpanFinish, kSpanPost, kSpanMerge,
                                     kSpanReplay};

}  // namespace

void ReportReplayLayers(const SpanTracer& tracer, uint64_t lo, uint64_t hi,
                        uint64_t cover_lo, uint64_t cover_hi,
                        double engine_service_s, Report* report) {
  const auto self = tracer.SelfSeconds(lo, hi);
  const double n = static_cast<double>(std::max<uint64_t>(1, hi - lo));
  auto ms = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second * 1e3 / n;
  };
  report->Layer("sim.cursor_build_ms", ms(kSpanCursorBuild), "ms");
  report->Layer("refine.ms", ms(kSpanRefine), "ms");
  report->Layer("post.ms", ms(kSpanPost), "ms");
  report->info["replay.finish_production_ms"] = ms(kSpanFinish);
  report->info["replay.merge_ms"] = ms(kSpanMerge);
  report->info["replay.unattributed_ms"] = ms(kSpanReplay);
  double covered = 0.0;
  for (const auto& s : tracer.Named(kSpanReplay)) {
    if (s.query >= cover_lo && s.query < cover_hi) covered += s.end - s.start;
  }
  const double cover_n =
      static_cast<double>(std::max<uint64_t>(1, cover_hi - cover_lo));
  report->info["replay.total_ms"] = covered * 1e3 / cover_n;
  report->info["replay.engine_service_ms"] = engine_service_s * 1e3 / cover_n;
  report->Layer("trace.replay_coverage",
                engine_service_s > 0 ? covered / engine_service_s : 0.0,
                "ratio");
}

std::string LargestReplayLayer(const SpanTracer& tracer, uint64_t lo,
                               uint64_t hi, const std::string& prefix,
                               Report* report) {
  const auto self = tracer.SelfSeconds(lo, hi);
  double total = 0.0;
  for (const char* layer : kReplayLayers) {
    const auto it = self.find(layer);
    if (it != self.end()) total += it->second;
  }
  std::string largest;
  double largest_s = -1.0;
  for (const char* layer : kReplayLayers) {
    const auto it = self.find(layer);
    const double s = it == self.end() ? 0.0 : it->second;
    report->info[prefix + ".share." + layer] = total > 0 ? s / total : 0.0;
    if (s > largest_s) {
      largest_s = s;
      largest = layer;
    }
  }
  return largest;
}

void AnswerBook::Record(size_t query_index,
                        const std::vector<core::ResultEntry>& topk,
                        Report* report) {
  const auto [it, inserted] = answers_.emplace(query_index, topk);
  if (!inserted && !SameTopK(it->second, topk)) {
    report->Wrong("query " + std::to_string(query_index) +
                  ": repeated answer differs");
  }
}

void RunOracle(const serve::Snapshot& snapshot,
               const index::InvertedIndex& inverted,
               const std::vector<Query>& queries, const AnswerBook& book,
               const RunConfig& config, Report* report) {
  const double t0 = NowSec();
  ExactnessOracle oracle(snapshot);
  std::vector<size_t> answered;
  for (const auto& [qi, topk] : book.answers()) answered.push_back(qi);
  // Exact overlaps of large sets are cubic: spread them over the cores,
  // each thread recording into its own report.
  {
    const size_t threads = std::max(1u, std::thread::hardware_concurrency());
    std::vector<Report> partial(threads);
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (size_t i = t; i < answered.size(); i += threads) {
          const size_t qi = answered[i];
          oracle.CheckScores(queries[qi], book.answers().at(qi),
                             "query " + std::to_string(qi), &partial[t]);
        }
      });
    }
    for (auto& w : workers) w.join();
    for (const Report& p : partial) {
      report->correct = report->correct && p.correct;
      report->wrong_results += p.wrong_results;
      report->notes.insert(report->notes.end(), p.notes.begin(), p.notes.end());
    }
  }
  // Seeded sample for the expensive references.
  util::Rng rng(config.seed * 7919 + 17);
  for (size_t i = 0; i < answered.size() && i < config.oracle_sample; ++i) {
    std::swap(answered[i], answered[i + rng.NextBounded(answered.size() - i)]);
    const size_t qi = answered[i];
    const auto& topk = book.answers().at(qi);
    const std::string label = "query " + std::to_string(qi);
    oracle.CheckBaseline(queries[qi], topk, label, report);
    const core::SearchResult replay = ReplayQuery(
        snapshot.sets(), inverted, snapshot.index(), queries[qi], nullptr, 0);
    if (!SameTopK(replay.topk, topk)) {
      report->Wrong(label + ": engine top-k differs from the serial replay");
    }
  }
  report->info["oracle.scores_checked"] =
      static_cast<double>(oracle.scores_checked());
  report->info["oracle.baseline_checked"] =
      static_cast<double>(oracle.baseline_checked());
  report->info["oracle.seconds"] = NowSec() - t0;
}

double ServiceSum(const serve::LatencyRecorder& recorder) {
  return recorder.Mean() * static_cast<double>(recorder.count());
}

}  // namespace perfbench
