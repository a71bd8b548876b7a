// koios_perfbench — the benchmark's measuring program.
//
//   koios_perfbench gen --workload W --seed N --dir D [--toy]
//       writes the workload's seeded inputs (v4 repository + query list).
//   koios_perfbench run --workload W --dir D --out report.json
//       --seconds S --trace 0|1 --seed N [--toy] --<constant> V ...
//       measures one run and writes its report; the constants of
//       perfbench/workloads.json are all required (see ParseRun).
//
// perfbench/run.py drives both halves; generation runs in its own process
// so the measuring process's memory holds only what Koios allocates.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "inputs.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: koios_perfbench gen --workload W --seed N --dir D "
               "[--toy]\n"
               "       koios_perfbench run --workload W --dir D --out F "
               "--seconds S --trace 0|1 --seed N [...]\n");
  return 2;
}

// Returns the flag's value or null (after reporting) when missing.
const char* Value(int argc, char** argv, int* i) {
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "%s needs a value\n", argv[*i]);
    return nullptr;
  }
  return argv[++*i];
}

bool ParseRun(int argc, char** argv, RunConfig* c) {
  const std::map<std::string, double*> reals = {
      {"--seconds", &c->seconds},
      {"--tail-percentile", &c->tail_percentile},
      {"--offered-qps", &c->offered_qps},
      {"--latency-limit-ms", &c->latency_limit_ms},
      {"--lag-bound-ms", &c->lag_bound_ms},
      {"--swap-interval-s", &c->swap_interval_s},
      {"--open-loop-share", &c->open_loop_share}};
  const std::map<std::string, size_t*> counts = {
      {"--oracle-sample", &c->oracle_sample},
      {"--traced-queries", &c->traced_queries}};
  std::set<std::string> seen;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    seen.insert(flag);
    if (flag == "--toy") {
      c->toy = true;
      continue;
    }
    const char* v = Value(argc, argv, &i);
    if (v == nullptr) return false;
    if (flag == "--workload") c->workload = v;
    else if (flag == "--dir") c->dir = v;
    else if (flag == "--out") c->out = v;
    else if (flag == "--trace-out") c->trace_out = v;
    else if (flag == "--trace") c->trace = std::atoi(v) != 0;
    else if (flag == "--seed") c->seed = std::strtoull(v, nullptr, 10);
    else if (reals.count(flag)) *reals.at(flag) = std::atof(v);
    else if (counts.count(flag)) *counts.at(flag) = std::strtoull(v, nullptr, 10);
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  std::vector<std::string> required = {
      "--workload", "--dir", "--out", "--seconds", "--trace", "--seed",
      "--tail-percentile", "--oracle-sample", "--traced-queries"};
  if (c->workload == "serve-churn") {
    required.insert(required.end(),
                    {"--offered-qps", "--latency-limit-ms", "--lag-bound-ms",
                     "--swap-interval-s", "--open-loop-share"});
  }
  for (const std::string& flag : required) {
    if (!seen.count(flag)) {
      std::fprintf(stderr, "run: %s is required\n", flag.c_str());
      return false;
    }
  }
  if (!KnownWorkload(c->workload) || c->seconds <= 0) {
    std::fprintf(stderr, "run: invalid workload or seconds\n");
    return false;
  }
  return true;
}

int Gen(int argc, char** argv) {
  std::string workload, dir;
  uint64_t seed = 1;
  bool toy = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--toy") {
      toy = true;
      continue;
    }
    const char* v = Value(argc, argv, &i);
    if (v == nullptr) return Usage();
    if (flag == "--workload") workload = v;
    else if (flag == "--dir") dir = v;
    else if (flag == "--seed") seed = std::strtoull(v, nullptr, 10);
    else return Usage();
  }
  if (dir.empty()) return Usage();
  return GenerateInputs(workload, seed, toy, dir) ? 0 : 1;
}

int Run(int argc, char** argv) {
  RunConfig config;
  if (!ParseRun(argc, argv, &config)) return Usage();
  std::vector<Query> queries;
  if (!ReadQueries(config.dir + "/" + kQueryFile, &queries)) {
    std::fprintf(stderr, "cannot read the query list in %s\n",
                 config.dir.c_str());
    return 1;
  }
  Report report;
  const bool ran = config.workload == "serve-churn"
                       ? RunServeChurn(config, queries, &report)
                       : RunEngineWorkload(config, queries, &report);
  if (!ran) return 1;
  report.E2e("failed_ratio",
             report.attempted > 0
                 ? static_cast<double>(report.failed) / report.attempted
                 : 0.0,
             "ratio");
  report.info["wrong_results"] = static_cast<double>(report.wrong_results);
  report.info["hardware_concurrency"] = std::thread::hardware_concurrency();
  if (!report.WriteJson(config.out)) {
    std::fprintf(stderr, "cannot write %s\n", config.out.c_str());
    return 1;
  }
  return report.correct ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) return perfbench::Usage();
  const std::string cmd = argv[1];
  if (cmd == "gen") return perfbench::Gen(argc, argv);
  if (cmd == "run") return perfbench::Run(argc, argv);
  return perfbench::Usage();
}
