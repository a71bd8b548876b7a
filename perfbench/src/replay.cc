#include "replay.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "koios/core/edge_cache.h"
#include "koios/core/postprocess.h"
#include "koios/core/refinement.h"
#include "koios/sim/token_stream.h"

namespace perfbench {

using namespace koios;

core::SearchResult ReplayQuery(const index::SetCollection& sets,
                               const index::InvertedIndex& inverted,
                               sim::SimilarityIndex* shared_index,
                               const Query& query, SpanTracer* tracer,
                               uint64_t query_id) {
  core::SearchParams params;
  params.k = query.k;
  params.alpha = query.alpha;
  core::SearchResult result;
  if (query.tokens.empty() || sets.size() == 0) return result;

  ScopedSpan root(tracer, kSpanReplay, query_id);
  std::unique_ptr<sim::SimilarityIndex> session = shared_index->NewSession();
  sim::SimilarityIndex* index = session ? session.get() : shared_index;
  core::SearchContext ctx;
  ctx.BeginSearch(/*num_consumers=*/1);

  std::optional<sim::TokenStream> stream;
  {
    ScopedSpan span(tracer, kSpanCursorBuild, query_id);
    stream.emplace(query.tokens, index, params.alpha,
                   [&inverted](TokenId t) { return inverted.InVocabulary(t); });
  }
  const sim::SimilarityFunction* completer = index->similarity();
  core::EdgeCache::StopSimFn stop_fn;
  if (params.use_stream_feedback && completer != nullptr &&
      index->exact_neighbors()) {
    stop_fn = [&ctx]() -> Score { return ctx.stop_controller().ProducerStop(); };
  }
  core::EdgeCache cache(&*stream, core::EdgeCache::InlineProducer{}, completer,
                        stop_fn, &ctx);

  core::SearchStats stats;
  core::RefinementOutput refined;
  {
    ScopedSpan span(tracer, kSpanRefine, query_id);
    core::EdgeCache::ConsumerGuard consumer(&cache);
    core::RefinementPhase refinement(&sets, &inverted, query.tokens.size(),
                                     params);
    refined = refinement.Run(&cache, &stats, &ctx, &consumer);
  }
  {
    ScopedSpan span(tracer, kSpanFinish, query_id);
    cache.FinishProduction();
  }
  std::vector<core::ResultEntry> topk;
  {
    ScopedSpan span(tracer, kSpanPost, query_id);
    core::PostProcessor post(&sets, &cache, params, &ctx, /*pool=*/nullptr);
    topk = post.Run(std::move(refined), &stats);
  }
  {
    ScopedSpan span(tracer, kSpanMerge, query_id);
    std::sort(topk.begin(), topk.end(),
              [](const core::ResultEntry& a, const core::ResultEntry& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.set < b.set;
              });
    if (topk.size() > params.k) topk.resize(params.k);
  }
  stats.stream_tuples_produced = cache.produced();
  stats.stream_stop_sim = cache.stop_sim();
  result.topk = std::move(topk);
  result.stats = std::move(stats);
  return result;
}

}  // namespace perfbench
