#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "koios/data/corpus.h"
#include "koios/data/query_benchmark.h"
#include "koios/embedding/synthetic_model.h"
#include "koios/io/repository_v4.h"
#include "koios/text/dictionary.h"
#include "koios/util/rng.h"

namespace perfbench {
namespace {

using namespace koios;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Shape {
  data::CorpusSpec corpus;
  embedding::SyntheticModelSpec model;
};

// The scale suite's WDC-shaped 100k-set tier: 25k vocabulary, sets capped
// at 200 tokens, 32-d synthetic embeddings, the suite's corpus seed.
Shape WdcScaleShape(bool toy) {
  Shape s;
  s.corpus = data::WdcSpec(1.0);
  s.corpus.num_sets = toy ? 3000 : 100000;
  s.corpus.vocab_size = toy ? 1000 : 25000;
  s.corpus.max_set_size = 200;
  s.corpus.seed = 20260808;
  s.model.vocab_size = s.corpus.vocab_size;
  s.model.dim = 32;
  s.model.avg_cluster_size = 16.0;
  s.model.noise_sigma = 0.38;
  s.model.coverage = 0.9;
  s.model.seed = s.corpus.seed + 1;
  return s;
}

// bench/bench_util.h's OpenData replica: 2,345 Pareto-sized sets capped at
// 800 tokens over a 7,193-token vocabulary, with its corpus seed.
Shape OpenDataShape(bool toy) {
  Shape s;
  s.corpus = data::OpenDataSpec(1.0);
  s.corpus.num_sets = toy ? 400 : 2345;
  s.corpus.vocab_size = toy ? 1500 : 7193;
  s.corpus.max_set_size = toy ? 200 : 800;
  s.model.vocab_size = s.corpus.vocab_size;
  s.model.dim = 32;
  s.model.avg_cluster_size = 16.0;
  s.model.noise_sigma = 0.38;
  s.model.coverage = 0.8;
  s.model.seed = s.corpus.seed * 31 + 1;
  return s;
}

// bench_serve_throughput's set shape and corpus seed (2,500 sets, ~18
// tokens) over a 20,000-token vocabulary with 300-d embeddings (fastText's
// dimension).
Shape ServeChurnShape(bool toy) {
  Shape s;
  s.corpus.name = "serve-churn";
  s.corpus.num_sets = toy ? 300 : 2500;
  s.corpus.vocab_size = toy ? 2000 : 20000;
  s.corpus.element_skew = 0.7;
  s.corpus.size_distribution = data::SizeDistribution::kNormal;
  s.corpus.min_set_size = 6;
  s.corpus.max_set_size = 40;
  s.corpus.avg_set_size = 18.0;
  s.corpus.size_stddev = 8.0;
  s.corpus.seed = 20260731;
  s.model.vocab_size = s.corpus.vocab_size;
  s.model.dim = toy ? 32 : 300;
  s.model.avg_cluster_size = 12.0;
  s.model.noise_sigma = 0.38;
  s.model.coverage = 0.92;
  s.model.seed = s.corpus.seed + 1;
  return s;
}

// Visit order of `n` strata such that every prefix spreads evenly over
// them (van der Corput / bit-reversal order).
std::vector<size_t> LowDiscrepancyOrder(size_t n) {
  size_t bits = 0;
  while ((size_t{1} << bits) < n) ++bits;
  std::vector<size_t> order;
  order.reserve(n);
  for (size_t i = 0; i < (size_t{1} << bits); ++i) {
    size_t r = 0;
    for (size_t b = 0; b < bits; ++b) {
      if (i & (size_t{1} << b)) r |= size_t{1} << (bits - 1 - b);
    }
    if (r < n) order.push_back(r);
  }
  return order;
}

// Sorts `ids` by set size and draws one set uniformly from each of
// `count` equal-count size strata, visited in low-discrepancy order: every
// set stays equally likely, but any prefix of the draw covers the size
// distribution evenly, so a time-bounded run sees the same size mix under
// every seed.
std::vector<SetId> StratifiedDraw(const data::Corpus& corpus,
                                  std::vector<SetId> ids, size_t count,
                                  util::Rng* rng) {
  std::sort(ids.begin(), ids.end(), [&](SetId a, SetId b) {
    const size_t sa = corpus.sets.SetSize(a), sb = corpus.sets.SetSize(b);
    return sa != sb ? sa < sb : a < b;
  });
  count = std::min(count, ids.size());
  std::vector<SetId> out;
  for (const size_t stratum : LowDiscrepancyOrder(count)) {
    const size_t lo = stratum * ids.size() / count;
    const size_t hi = (stratum + 1) * ids.size() / count;
    out.push_back(ids[lo + rng->NextBounded(hi - lo)]);
  }
  return out;
}

Query StoredSetQuery(const data::Corpus& corpus, SetId id, uint32_t k,
                     double alpha) {
  const auto tokens = corpus.sets.Tokens(id);
  return {k, alpha, {tokens.begin(), tokens.end()}};
}

// Uniform stored-set queries, stratified by size.
std::vector<Query> StratifiedUniform(const data::Corpus& corpus, size_t count,
                                     uint32_t k, double alpha, util::Rng* rng) {
  std::vector<SetId> ids(corpus.sets.size());
  for (SetId i = 0; i < ids.size(); ++i) ids[i] = i;
  std::vector<Query> out;
  for (const SetId id : StratifiedDraw(corpus, std::move(ids), count, rng)) {
    out.push_back(StoredSetQuery(corpus, id, k, alpha));
  }
  return out;
}

// The paper's cardinality-interval sampling (§VIII-A2) — up to
// `per_interval` sets per interval, stratified by size inside each —
// interleaved so any prefix of the list holds every interval in equal
// share.
std::vector<Query> IntervalSampled(const data::Corpus& corpus,
                                   size_t per_interval, util::Rng* rng) {
  const auto intervals = data::OpenDataIntervals(corpus.sets.MaxSetSize());
  std::vector<std::vector<SetId>> by_interval;
  size_t total = 0;
  for (const data::CardinalityInterval& iv : intervals) {
    std::vector<SetId> pool;
    for (SetId id = 0; id < corpus.sets.size(); ++id) {
      const size_t size = corpus.sets.SetSize(id);
      if (size >= iv.lo && size < iv.hi) pool.push_back(id);
    }
    by_interval.push_back(
        StratifiedDraw(corpus, std::move(pool), per_interval, rng));
    total += by_interval.back().size();
  }
  std::vector<Query> out;
  for (size_t round = 0; out.size() < total; ++round) {
    for (const auto& drawn : by_interval) {
      if (round < drawn.size()) {
        out.push_back(StoredSetQuery(corpus, drawn[round], 10, 0.7));
      }
    }
  }
  return out;
}

// Uniform stored-set queries cycling the serving mix k × α.
std::vector<Query> ServeMix(const data::Corpus& corpus, size_t count,
                            util::Rng* rng) {
  static constexpr uint32_t kKs[] = {1, 5, 10, 20};
  static constexpr double kAlphas[] = {0.7, 0.8, 0.9};
  std::vector<Query> out;
  for (size_t i = 0; i < count; ++i) {
    const SetId id = static_cast<SetId>(rng->NextBounded(corpus.sets.size()));
    out.push_back(StoredSetQuery(corpus, id, kKs[i % 4], kAlphas[i % 3]));
  }
  return out;
}

bool WriteQueries(const std::string& path, const std::vector<Query>& queries) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%zu\n", queries.size());
  for (const Query& q : queries) {
    std::fprintf(f, "%u %.17g %zu", q.k, q.alpha, q.tokens.size());
    for (const TokenId t : q.tokens) std::fprintf(f, " %u", t);
    std::fprintf(f, "\n");
  }
  return std::fclose(f) == 0;
}

bool CopyFile(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  std::ofstream out(to, std::ios::binary);
  out << in.rdbuf();
  return in.good() && out.good();
}

}  // namespace

bool KnownWorkload(const std::string& workload) {
  return workload == "wdc-scale" || workload == "opendata-verify" ||
         workload == "serve-churn";
}

bool GenerateInputs(const std::string& workload, uint64_t seed, bool toy,
                    const std::string& dir) {
  if (!KnownWorkload(workload)) {
    std::fprintf(stderr, "unknown workload %s\n", workload.c_str());
    return false;
  }
  // The repositories are the named replicas, fixed; the seed draws the
  // queries (and, in the measuring run, the arrival schedule).
  const Shape shape = workload == "wdc-scale"         ? WdcScaleShape(toy)
                      : workload == "opendata-verify" ? OpenDataShape(toy)
                                                      : ServeChurnShape(toy);
  const data::Corpus corpus = data::GenerateCorpus(shape.corpus);
  embedding::SyntheticEmbeddingModel model(shape.model);
  model.mutable_store().Finalize();  // the v4 file carries the int8 tier
  text::Dictionary dict;
  for (size_t t = 0; t < shape.corpus.vocab_size; ++t) {
    dict.Intern("token_" + std::to_string(t));
  }

  util::Rng rng(Mix(seed, 7));
  std::vector<Query> queries;
  if (workload == "wdc-scale") {
    queries = StratifiedUniform(corpus, toy ? 48 : 1024, 10, 0.8, &rng);
  } else if (workload == "opendata-verify") {
    queries = IntervalSampled(corpus, toy ? 24 : 128, &rng);
  } else {
    queries = ServeMix(corpus, toy ? 400 : 12000, &rng);
  }

  const std::string repo = dir + "/" + kRepoFile;
  const util::Status saved =
      io::SaveRepositoryV4(dict, corpus.sets, &model.store(), repo);
  if (!saved.ok()) {
    std::fprintf(stderr, "saving %s failed: %s\n", repo.c_str(),
                 saved.ToString().c_str());
    return false;
  }
  if (workload == "serve-churn" &&
      !CopyFile(repo, dir + "/" + kRepoCopyFile)) {
    std::fprintf(stderr, "copying %s failed\n", repo.c_str());
    return false;
  }
  if (!WriteQueries(dir + "/" + kQueryFile, queries)) {
    std::fprintf(stderr, "writing the query list failed\n");
    return false;
  }
  std::fprintf(stderr, "[gen] %s seed %llu: %zu sets, %zu vocab, %zu queries\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               corpus.NumSets(), shape.corpus.vocab_size, queries.size());
  return true;
}

bool ReadQueries(const std::string& path, std::vector<Query>* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  size_t count = 0;
  bool ok = std::fscanf(f, "%zu", &count) == 1;
  out->clear();
  for (size_t i = 0; ok && i < count; ++i) {
    Query q;
    size_t n = 0;
    ok = std::fscanf(f, "%u %lf %zu", &q.k, &q.alpha, &n) == 3 && q.k >= 1;
    q.tokens.resize(ok ? n : 0);
    for (size_t j = 0; ok && j < n; ++j) {
      ok = std::fscanf(f, "%u", &q.tokens[j]) == 1;
    }
    if (ok) out->push_back(std::move(q));
  }
  std::fclose(f);
  return ok && !out->empty();
}

}  // namespace perfbench
