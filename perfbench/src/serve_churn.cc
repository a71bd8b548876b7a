// serve-churn: the daemon's own objects (net::Server over an EngineSlot
// holding a 4-worker QueryEngine) on loopback TCP, driven by at most four
// binary-protocol client connections.
//
//  Phase 1 — open loop at a fixed absolute rate: Poisson arrivals from the
//    seed; latency runs from each request's scheduled send time. Meanwhile
//    TrySwapFromRepository alternates between two byte-identical v4
//    copies every swap interval (each swap discards the cursor cache).
//  Phase 2 — closed loop on the same connections, no swaps.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "inputs.h"
#include "koios/net/client.h"
#include "koios/net/engine_slot.h"
#include "koios/net/server.h"
#include "koios/util/rng.h"
#include "replay.h"
#include "workload_common.h"
#include "workloads.h"

namespace perfbench {

using namespace koios;

namespace {

constexpr size_t kConnections = 4;
constexpr size_t kWarmupPerConnection = 64;

// Declaration order is teardown order in reverse: the server stops before
// the engine it serves goes away.
struct ServingStack {
  std::shared_ptr<const serve::Snapshot> snapshot;
  net::EngineSlot slot;
  std::unique_ptr<net::Server> server;
  std::shared_ptr<serve::QueryEngine> engine() const { return slot.Get(); }
};

struct Answer {
  size_t query = 0;
  double latency = 0.0;  // seconds
  double lag = 0.0;      // seconds the send ran behind schedule
  double done = 0.0;     // completion time, NowSec() clock
  bool ok = false;
  std::vector<core::ResultEntry> topk;
};

void SleepUntil(double t) {
  const double now = NowSec();
  if (t > now) {
    std::this_thread::sleep_for(std::chrono::duration<double>(t - now));
  }
}

serve::EngineOptions ServeOptions() {
  serve::EngineOptions options;
  options.num_threads = 4;
  options.cursor_cache_bytes = 64u << 20;  // koios_serverd's default
  return options;
}

// Builds the stack the way the daemon does; returns null on failure.
std::unique_ptr<ServingStack> StartStack(const std::string& repo,
                                         SpanTracer* tracer, double* load_s) {
  auto stack = std::make_unique<ServingStack>();
  stack->snapshot = LoadSnapshot(repo, false, tracer, "io.load", load_s);
  if (stack->snapshot == nullptr) return nullptr;
  {
    ScopedSpan span(tracer, "serve.engine_build", 0);
    stack->slot.Set(
        std::make_shared<serve::QueryEngine>(stack->snapshot, ServeOptions()));
  }
  ScopedSpan span(tracer, "net.server_start", 0);
  stack->server = std::make_unique<net::Server>(&stack->slot, nullptr);
  if (util::Status s = stack->server->Start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return nullptr;
  }
  const double give_up = NowSec() + 10.0;
  while (!stack->server->ready()) {
    if (NowSec() > give_up) return nullptr;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return stack;
}

}  // namespace

bool RunServeChurn(const RunConfig& config, const std::vector<Query>& queries,
                   Report* report) {
  const std::string repo = config.dir + "/" + kRepoFile;
  const std::string repo_copy = config.dir + "/" + kRepoCopyFile;
  SpanTracer tracer_storage;
  SpanTracer* tracer = config.trace ? &tracer_storage : nullptr;

  // ---- set-up, repeated: open file → engine → Server::ready() -----------
  const double rss_base = RssMb();
  std::unique_ptr<ServingStack> stack;
  const bool set_up = TimeSetups([&] { stack.reset(); },
                                 [&](double* load_s) {
                                   stack = StartStack(repo, tracer, load_s);
                                   return stack != nullptr;
                                 },
                                 report);
  if (!set_up) return false;
  std::shared_ptr<serve::QueryEngine> engine = stack->engine();

  std::vector<net::BlockingClient> clients;
  for (size_t c = 0; c < kConnections; ++c) {
    auto client = net::BlockingClient::Connect("127.0.0.1", stack->server->port());
    if (!client.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   client.status().ToString().c_str());
      return false;
    }
    clients.push_back(std::move(client).value());
  }
  auto send = [&](size_t c, size_t qi, Answer* a) {
    const Query& q = queries[qi % queries.size()];
    a->query = qi % queries.size();
    auto res = clients[c].Search(q.tokens, q.k, q.alpha, /*deadline_ms=*/0);
    a->ok = res.ok();
    if (a->ok) a->topk = std::move(res).value();
  };

  // ---- warm-up: one swap, then closed-loop traffic on every connection,
  // so phase 1 starts from the steady state its swaps return to ---------
  if (util::Status s = engine->TrySwapFromRepository(repo_copy); !s.ok()) {
    std::fprintf(stderr, "warm-up swap failed: %s\n", s.ToString().c_str());
    return false;
  }
  AnswerBook book;
  {
    std::vector<std::vector<Answer>> warm(kConnections);
    std::vector<std::thread> senders;
    for (size_t c = 0; c < kConnections; ++c) {
      senders.emplace_back([&, c] {
        for (size_t i = 0; i < kWarmupPerConnection; ++i) {
          warm[c].emplace_back();
          send(c, i * kConnections + c, &warm[c].back());
        }
      });
    }
    for (auto& t : senders) t.join();
    for (const auto& per_conn : warm) {
      for (const Answer& a : per_conn) {
        if (a.ok) book.Record(a.query, a.topk, report);
      }
    }
  }

  // The measured engine: a fresh QueryEngine on the warm snapshot, installed
  // the way the daemon installs one, so its service-time recorder holds the
  // phase-1 queries only.
  engine = std::make_shared<serve::QueryEngine>(engine->snapshot(),
                                                ServeOptions());
  stack->slot.Set(engine);

  const core::SearchStats stats_before = engine->search_stats();
  const serve::EngineCounters counters_before = engine->counters();
  const net::ServerStats server_before = stack->server->stats();
  CursorTally cursors(engine->snapshot()->index());

  // ---- phase 1: open loop at a fixed rate, swaps alongside ---------------
  const double phase1_s = config.seconds * config.open_loop_share;
  std::vector<double> arrivals;
  {
    util::Rng rng(config.seed * 1000003 + 11);
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng.NextDouble()) / config.offered_qps;
      if (t >= phase1_s) break;
      arrivals.push_back(t);
    }
  }
  const size_t phase1_base = kConnections * kWarmupPerConnection;
  std::vector<std::vector<Answer>> phase1(kConnections);
  serve::LatencyRecorder swap_s;
  const double phase1_start = NowSec() + 0.01;
  {
    std::atomic<size_t> next{0};
    std::vector<std::thread> senders;
    for (size_t c = 0; c < kConnections; ++c) {
      senders.emplace_back([&, c] {
        for (size_t i = next++; i < arrivals.size(); i = next++) {
          const double due = phase1_start + arrivals[i];
          SleepUntil(due);
          Answer a;
          a.lag = std::max(0.0, NowSec() - due);
          send(c, phase1_base + i, &a);
          a.latency = NowSec() - due;
          phase1[c].push_back(std::move(a));
        }
      });
    }
    std::thread swapper([&] {
      bool to_copy = false;  // the warm-up swap went to the copy
      for (double at = config.swap_interval_s; at < phase1_s;
           at += config.swap_interval_s) {
        SleepUntil(phase1_start + at);
        cursors.Retire(engine->snapshot()->index());
        const double t0 = NowSec();
        const util::Status s =
            engine->TrySwapFromRepository(to_copy ? repo_copy : repo);
        swap_s.Record(NowSec() - t0);
        if (!s.ok()) {
          std::fprintf(stderr, "swap failed: %s\n", s.ToString().c_str());
        }
        to_copy = !to_copy;
      }
    });
    for (auto& t : senders) t.join();
    swapper.join();
  }
  const serve::LatencyRecorder phase1_service = engine->latency();

  // ---- phase 2: closed loop on the same connections ----------------------
  std::vector<std::vector<Answer>> phase2(kConnections);
  const size_t phase2_base = phase1_base + arrivals.size();
  const double phase2_start = NowSec();
  const double phase2_end = phase2_start + (config.seconds - phase1_s);
  {
    std::atomic<size_t> next{0};
    std::vector<std::thread> senders;
    for (size_t c = 0; c < kConnections; ++c) {
      senders.emplace_back([&, c] {
        while (NowSec() < phase2_end) {
          Answer a;
          const double t0 = NowSec();
          send(c, phase2_base + next++, &a);
          a.done = NowSec();
          a.latency = a.done - t0;
          phase2[c].push_back(std::move(a));
        }
      });
    }
    for (auto& t : senders) t.join();
  }
  const double rss_mb = RssMb() - rss_base;
  cursors.Retire(engine->snapshot()->index());

  // ---- end-to-end metrics ------------------------------------------------
  serve::LatencyRecorder p1_latency;
  double lag_max = 0.0;
  uint64_t p1_failed = 0, p1_slow = 0;
  for (const auto& per_conn : phase1) {
    for (const Answer& a : per_conn) {
      ++report->attempted;
      lag_max = std::max(lag_max, a.lag);
      if (!a.ok) {
        ++report->failed;
        ++p1_failed;
        continue;
      }
      p1_latency.Record(a.latency);
      if (a.latency * 1e3 > config.latency_limit_ms) ++p1_slow;
      book.Record(a.query, a.topk, report);
    }
  }
  // Phase 2 throughput: the median over equal windows of each window's
  // completion rate (completions between its first and last one, over that
  // span), so a slow spell of the shared host inside one or two windows
  // does not move it.
  constexpr size_t kWindows = 5;
  const double window_s = (phase2_end - phase2_start) / kWindows;
  std::vector<std::vector<double>> window_done(kWindows);
  uint64_t p2_ok = 0;
  for (const auto& per_conn : phase2) {
    for (const Answer& a : per_conn) {
      ++report->attempted;
      if (!a.ok) {
        ++report->failed;
        continue;
      }
      ++p2_ok;
      book.Record(a.query, a.topk, report);
      if (a.done < phase2_end) {
        const auto w = static_cast<size_t>((a.done - phase2_start) / window_s);
        window_done[std::min(w, kWindows - 1)].push_back(a.done);
      }
    }
  }
  const double tail = config.tail_percentile;
  const double p1_attempted = static_cast<double>(arrivals.size());
  serve::LatencyRecorder window_qps;
  for (const std::vector<double>& done : window_done) {
    const auto [first, last] = std::minmax_element(done.begin(), done.end());
    if (done.size() >= 2 && *last > *first) {
      window_qps.Record((done.size() - 1) / (*last - *first));
    }
  }
  report->E2e("qps", window_qps.Percentile(50), "1/s");
  ReportClientLatency(p1_latency, tail, report);
  report->E2e("slo_miss_ratio",
              p1_attempted > 0 ? (p1_failed + p1_slow) / p1_attempted : 0.0,
              "ratio");
  report->E2e("swap_ms", swap_s.Percentile(50) * 1e3, "ms");
  report->E2e("rss_mb", rss_mb, "MB");
  report->info["offered_qps"] = config.offered_qps;
  report->info["achieved_open_loop_qps"] = p1_attempted / phase1_s;
  report->info["latency_limit_ms"] = config.latency_limit_ms;
  report->info["swaps"] = static_cast<double>(swap_s.count());
  report->info["phase2_queries"] = static_cast<double>(p2_ok);
  report->Layer("loadgen.lag_ms.max", lag_max * 1e3, "ms");
  report->info["loadgen.lag_bound_ms"] = config.lag_bound_ms;
  if (lag_max * 1e3 > config.lag_bound_ms) {
    // The generator could not keep its schedule: phase 1 measured the
    // load generator, not the server. Not scored.
    report->correct = false;
    report->notes.push_back("phase 1 invalid: generator ran late beyond the "
                            "lag bound");
  }

  // ---- per-layer counters ------------------------------------------------
  const net::ServerStats server_after = stack->server->stats();
  ReportSearchCounters(stats_before, engine->search_stats(),
                       p1_latency.count() + p2_ok, report);
  const double svc_p50 = phase1_service.Percentile(50) * 1e3;
  const double svc_tail = phase1_service.Percentile(tail) * 1e3;
  report->Layer("serve.service_ms.p50", svc_p50, "ms");
  report->Layer("serve.service_ms.tail", svc_tail, "ms");
  report->Layer("serve.wait_ms.p50",
                report->end_to_end["latency_p50_ms"].value - svc_p50, "ms");
  report->Layer("serve.wait_ms.tail",
                report->end_to_end["latency_tail_ms"].value - svc_tail, "ms");
  ReportRejected(counters_before, engine->counters(), report);
  report->Layer("serve.shard_skew", 1.0, "ratio");
  report->Layer(
      "net.errors",
      static_cast<double>(
          (server_after.read_errors - server_before.read_errors) +
          (server_after.write_errors - server_before.write_errors) +
          (server_after.protocol_errors - server_before.protocol_errors)),
      "count");
  cursors.AddTo(engine->snapshot()->index(), report);
  {
    serve::LatencyRecorder rtt;
    for (int i = 0; i < 50; ++i) {
      const double t0 = NowSec();
      if (clients[0].Ping().ok()) rtt.Record(NowSec() - t0);
    }
    report->Layer("net.ping_rtt_ms", rtt.Percentile(50) * 1e3, "ms");
  }

  // ---- exactness oracle (untimed) ----------------------------------------
  const index::InvertedIndex inverted(stack->snapshot->sets());
  report->Layer("index.inverted_mb",
                static_cast<double>(inverted.MemoryUsageBytes()) / (1 << 20),
                "MB");
  RunOracle(*stack->snapshot, inverted, queries, book, config, report);

  // ---- traced pass -------------------------------------------------------
  if (tracer != nullptr) {
    if (!ReportVerifyLoad(repo, tracer, report)) return false;

    // Replays right after a swap see a cold cursor cache; the same queries
    // replayed again are warm. Query ids: [1, n] after the swap, [n+1, 2n]
    // warm.
    {
      ScopedSpan span(tracer, "serve.swap", 0);
      engine->TrySwapFromRepository(repo_copy);
    }
    const size_t n = std::min(config.traced_queries, queries.size());
    OverheadTally overhead;
    double service_warm_s = 0.0;
    for (size_t pass = 0; pass < 2; ++pass) {
      for (size_t j = 0; j < n; ++j) {
        const size_t qi = (phase1_base + j) % queries.size();
        const uint64_t id = pass * n + j + 1;
        const std::shared_ptr<const serve::Snapshot> current = engine->snapshot();
        const core::SearchResult replay =
            ReplayQuery(stack->snapshot->sets(), inverted, current->index(),
                        queries[qi], tracer, id);
        Answer traced;
        auto send_traced = [&] {
          const double svc_before = ServiceSum(engine->latency());
          const double t0 = NowSec();
          {
            ScopedSpan span(tracer, "net.client_search", id);
            send(0, qi, &traced);
          }
          const double dt = NowSec() - t0;
          if (pass == 1) {
            service_warm_s += ServiceSum(engine->latency()) - svc_before;
          }
          return dt;
        };
        if (pass == 0) {
          send_traced();
        } else {
          // Warm pass: an untraced send of the same query beside each one.
          overhead.Time(j,
                        [&] {
                          Answer untraced;
                          const double t0 = NowSec();
                          send(0, qi, &untraced);
                          return NowSec() - t0;
                        },
                        send_traced);
        }
        if (!traced.ok || !SameTopK(replay.topk, traced.topk)) {
          report->Wrong("traced query " + std::to_string(qi) +
                        ": replay differs from the served answer");
        }
        if (traced.ok) book.Record(qi, traced.topk, report);
      }
    }
    overhead.AddTo(report);
    ReportReplayLayers(*tracer, 1, 2 * n + 1, n + 1, 2 * n + 1, service_warm_s,
                       report);
    LargestReplayLayer(*tracer, n + 1, 2 * n + 1, "trace.warm", report);
    const std::string largest =
        LargestReplayLayer(*tracer, 1, n + 1, "trace.after_swap", report);
    report->info["prediction.cursor_build_largest_after_swap"] =
        largest == kSpanCursorBuild ? 1 : 0;
    if (largest != kSpanCursorBuild) {
      report->notes.push_back("prediction failed: cursor build is not the "
                              "largest layer after a swap on serve-churn (" +
                              largest + " is)");
    }
  }

  if (tracer != nullptr && !config.trace_out.empty()) {
    tracer->WriteChromeTrace(config.trace_out);
  }
  clients.clear();
  stack->server->Drain();
  return true;
}

}  // namespace perfbench
