// wdc-scale and opendata-verify: a single closed-loop client drives an
// in-process QueryEngine through Submit()→future, as an embedding
// application would.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "inputs.h"
#include "koios/serve/query_engine.h"
#include "replay.h"
#include "workload_common.h"
#include "workloads.h"

namespace perfbench {

using namespace koios;

namespace {

core::SearchParams ParamsOf(const Query& q) {
  core::SearchParams params;
  params.k = q.k;
  params.alpha = q.alpha;
  params.num_threads = 1;
  return params;
}

std::vector<double> ShardSums(const serve::QueryEngine& engine) {
  std::vector<double> sums(engine.num_shards());
  for (size_t s = 0; s < sums.size(); ++s) {
    sums[s] = ServiceSum(engine.shard_latency(s));
  }
  return sums;
}

}  // namespace

bool RunEngineWorkload(const RunConfig& config,
                       const std::vector<Query>& queries, Report* report) {
  const bool wdc = config.workload == "wdc-scale";
  serve::EngineOptions options;
  options.num_threads = 1;
  options.num_shards = wdc ? 4 : 1;
  const std::string repo = config.dir + "/" + kRepoFile;
  SpanTracer tracer_storage;
  SpanTracer* tracer = config.trace ? &tracer_storage : nullptr;

  // ---- set-up, repeated; the last one serves -----------------------------
  const double rss_base = RssMb();
  std::shared_ptr<const serve::Snapshot> snapshot;
  std::unique_ptr<serve::QueryEngine> engine;
  const bool set_up = TimeSetups(
      [&] {
        engine.reset();
        snapshot.reset();
      },
      [&](double* load_s) {
        snapshot = LoadSnapshot(repo, /*verify=*/false, tracer, "io.load",
                                load_s);
        if (snapshot == nullptr) return false;
        ScopedSpan span(tracer, "serve.engine_build", 0);
        engine = std::make_unique<serve::QueryEngine>(snapshot, options);
        return true;
      },
      report);
  if (!set_up) return false;

  // ---- warm-up: lazy set-up finishes before timing -----------------------
  const size_t warmup = wdc ? 2 : 6;
  AnswerBook book;
  for (size_t i = 0; i < warmup; ++i) {
    const Query& q = queries[i % queries.size()];
    auto res = engine->Submit(q.tokens, ParamsOf(q)).get();
    if (res.ok()) book.Record(i % queries.size(), res.value().topk, report);
  }

  // Hot swaps of the served repository, timed between queries while the
  // engine is idle: pass 1 swaps at even steps of its progress, passes 2
  // and 3 before the same queries, so every pass sees the same cursor-cache
  // state (a swap discards the cache).
  serve::LatencyRecorder swap_s;
  CursorTally cursors(engine->snapshot()->index());
  auto swap = [&] {
    cursors.Retire(engine->snapshot()->index());
    const double t0 = NowSec();
    const util::Status s = [&] {
      ScopedSpan span(tracer, "serve.swap", 0);
      return engine->TrySwapFromRepository(repo);
    }();
    swap_s.Record(NowSec() - t0);
    if (!s.ok()) {
      std::fprintf(stderr, "swap failed: %s\n", s.ToString().c_str());
    }
    return s.ok();
  };

  // ---- measured closed loop: three passes over one query prefix ---------
  // Pass 1 runs for a third of the window (toy inputs: over the whole
  // query list); passes 2 and 3 repeat exactly its queries. Every
  // successful sample of the three passes counts.
  constexpr size_t kPasses = 3;
  constexpr size_t kSwapsPerPass = 7;
  const double pass_s = config.seconds / kPasses;
  std::vector<size_t> swap_before;  // query positions, fixed by pass 1
  const core::SearchStats stats_before = engine->search_stats();
  const serve::EngineCounters counters_before = engine->counters();
  // Client latency, engine service time and their difference (seconds).
  serve::LatencyRecorder client, service, wait;
  // Per pass and query, the client latency; NaN for a failed attempt.
  std::vector<std::vector<double>> latency(kPasses);
  size_t measured = 0;  // queries per pass, fixed by pass 1
  const double start = NowSec();
  for (size_t pass = 0; pass < kPasses; ++pass) {
    const double pass_start = NowSec();
    size_t next_swap = 0;
    for (size_t j = 0;; ++j) {
      const double progress =
          config.toy ? static_cast<double>(j) / queries.size()
                     : (NowSec() - pass_start) / pass_s;
      if (pass == 0 ? progress >= 1.0 : j >= measured) break;
      const bool swap_now =
          pass == 0 ? swap_before.size() < kSwapsPerPass &&
                          progress >= static_cast<double>(swap_before.size()) /
                                          kSwapsPerPass
                    : next_swap < swap_before.size() &&
                          swap_before[next_swap] == j;
      if (swap_now) {
        if (pass == 0) swap_before.push_back(j);
        ++next_swap;
        if (!swap()) return false;
      }
      const size_t qi = (warmup + j) % queries.size();
      const Query& q = queries[qi];
      const double service_before = ServiceSum(engine->latency());
      const double t0 = NowSec();
      auto res = engine->Submit(q.tokens, ParamsOf(q)).get();
      const double dt = NowSec() - t0;
      ++report->attempted;
      if (!res.ok()) {
        ++report->failed;
        latency[pass].push_back(NAN);
        continue;
      }
      const double svc = ServiceSum(engine->latency()) - service_before;
      latency[pass].push_back(dt);
      client.Record(dt);
      service.Record(svc);
      wait.Record(dt - svc);
      book.Record(qi, res.value().topk, report);
    }
    if (pass == 0) measured = latency[0].size();
  }
  const double rss_mb = RssMb() - rss_base;
  const core::SearchStats stats_after = engine->search_stats();
  const serve::EngineCounters counters_after = engine->counters();
  cursors.Retire(engine->snapshot()->index());

  const double tail = config.tail_percentile;
  // One client in a closed loop: completions over the time spent in them.
  report->E2e("qps", client.Mean() > 0 ? 1.0 / client.Mean() : 0.0, "1/s");
  ReportClientLatency(client, tail, report);
  report->E2e("rss_mb", rss_mb, "MB");
  report->E2e("swap_ms", swap_s.Percentile(50) * 1e3, "ms");
  report->info["measured_wall_s"] = NowSec() - start;
  report->info["swaps"] = static_cast<double>(swap_s.count());
  // Noise diagnostic, not scored: each query's fastest pass.
  serve::LatencyRecorder fastest;
  for (size_t j = 0; j < measured; ++j) {
    double best = INFINITY;
    for (size_t p = 0; p < kPasses; ++p) {
      if (!std::isnan(latency[p][j])) best = std::min(best, latency[p][j]);
    }
    if (std::isfinite(best)) fastest.Record(best);
  }
  report->info["fastest_of_3.p50_ms"] = fastest.Percentile(50) * 1e3;
  report->info["fastest_of_3.tail_ms"] = fastest.Percentile(tail) * 1e3;

  // ---- per-layer counters of the measured window -------------------------
  report->Layer("serve.service_ms.p50", service.Percentile(50) * 1e3, "ms");
  report->Layer("serve.service_ms.tail", service.Percentile(tail) * 1e3, "ms");
  report->Layer("serve.wait_ms.p50", wait.Percentile(50) * 1e3, "ms");
  report->Layer("serve.wait_ms.tail", wait.Percentile(tail) * 1e3, "ms");
  ReportRejected(counters_before, counters_after, report);
  report->Layer("net.ping_rtt_ms", 0.0, "ms");
  report->Layer("net.errors", 0.0, "count");
  report->Layer("loadgen.lag_ms.max", 0.0, "ms");
  cursors.AddTo(engine->snapshot()->index(), report);
  ReportSearchCounters(stats_before, stats_after,
                       report->attempted - report->failed, report);

  // ---- exactness oracle (untimed) ----------------------------------------
  const index::InvertedIndex inverted(snapshot->sets());
  report->Layer("index.inverted_mb",
                static_cast<double>(inverted.MemoryUsageBytes()) / (1 << 20),
                "MB");
  RunOracle(*snapshot, inverted, queries, book, config, report);

  // ---- traced pass -------------------------------------------------------
  if (tracer != nullptr) {
    if (!ReportVerifyLoad(repo, tracer, report)) return false;

    const size_t traced = std::min(config.traced_queries, queries.size());
    OverheadTally overhead;
    double service_s = 0.0, skew_sum = 0.0;
    for (size_t j = 0; j < traced; ++j) {
      const size_t qi = (warmup + j) % queries.size();
      const Query& q = queries[qi];
      const uint64_t id = j + 1;
      bool ok = false;
      std::vector<core::ResultEntry> topk;
      overhead.Time(
          j,
          [&] {
            const double t0 = NowSec();
            engine->Submit(q.tokens, ParamsOf(q)).get();
            return NowSec() - t0;
          },
          [&] {
            const double svc_before = ServiceSum(engine->latency());
            const std::vector<double> shard_before = ShardSums(*engine);
            const double t0 = NowSec();
            serve::QueryEngine::Result res = [&] {
              ScopedSpan span(tracer, "serve.submit", id);
              return engine->Submit(q.tokens, ParamsOf(q)).get();
            }();
            const double dt = NowSec() - t0;
            service_s += ServiceSum(engine->latency()) - svc_before;
            const std::vector<double> shard_after = ShardSums(*engine);
            double slowest = 0.0, total = 0.0;
            for (size_t s = 0; s < shard_after.size(); ++s) {
              const double d = shard_after[s] - shard_before[s];
              slowest = std::max(slowest, d);
              total += d;
            }
            skew_sum +=
                total > 0 ? slowest / (total / static_cast<double>(
                                                   shard_after.size()))
                          : 1.0;
            ok = res.ok();
            if (ok) topk = res.value().topk;
            return dt;
          });
      const core::SearchResult replay =
          ReplayQuery(snapshot->sets(), inverted,
                      engine->snapshot()->index(), q, tracer, id);
      if (!ok || !SameTopK(replay.topk, topk)) {
        report->Wrong("traced query " + std::to_string(qi) +
                      ": replay differs from the engine");
      }
    }
    report->Layer("serve.shard_skew",
                  traced > 0 ? skew_sum / static_cast<double>(traced) : 1.0,
                  "ratio");
    overhead.AddTo(report);
    ReportReplayLayers(*tracer, 1, traced + 1, 1, traced + 1, service_s,
                       report);
    const std::string largest =
        LargestReplayLayer(*tracer, 1, traced + 1, "trace", report);
    if (wdc) {
      const double share = report->info["trace.share." + std::string(kSpanRefine)];
      report->info["prediction.refine_share_ge_0.9"] = share >= 0.9 ? 1 : 0;
      if (share < 0.9) {
        report->notes.push_back("prediction failed: refinement is below 90% "
                                "of the replay on wdc-scale");
      }
    } else {
      report->info["prediction.post_largest"] = largest == kSpanPost ? 1 : 0;
      if (largest != kSpanPost) {
        report->notes.push_back("prediction failed: post-processing is not "
                                "the largest layer on opendata-verify (" +
                                largest + " is)");
      }
    }
  }

  if (tracer != nullptr && !config.trace_out.empty()) {
    tracer->WriteChromeTrace(config.trace_out);
  }
  return true;
}

}  // namespace perfbench
