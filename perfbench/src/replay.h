// Serial replay of one query through Koios' public phase functions — the
// unpartitioned, single-threaded path of KoiosSearcher::Search spelled out
// call by call so the traced pass can time each layer from outside the
// library: sim::TokenStream (cursor build) on a NewSession() → inline
// core::EdgeCache with the θlb feedback stop wired from a SearchContext →
// core::RefinementPhase::Run → FinishProduction → core::PostProcessor::Run
// → merge. The answer must equal the engine's top-k bit for bit.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>

#include "bench_common.h"
#include "koios/core/search_types.h"
#include "koios/index/inverted_index.h"
#include "koios/index/set_collection.h"
#include "koios/sim/similarity.h"
#include "span_tracer.h"

namespace perfbench {

/// `inverted` indexes every set of `sets`; `index` is the shared neighbor
/// index (the replay probes a fresh session of it). `tracer` may be null.
koios::core::SearchResult ReplayQuery(const koios::index::SetCollection& sets,
                                      const koios::index::InvertedIndex& inverted,
                                      koios::sim::SimilarityIndex* index,
                                      const Query& query, SpanTracer* tracer,
                                      uint64_t query_id);

/// Span names of the replay, one per layer boundary.
inline constexpr const char* kSpanReplay = "replay.query";
inline constexpr const char* kSpanCursorBuild = "sim.cursor_build";
inline constexpr const char* kSpanRefine = "core.refinement";
inline constexpr const char* kSpanFinish = "sim.finish_production";
inline constexpr const char* kSpanPost = "core.postprocess";
inline constexpr const char* kSpanMerge = "core.merge";

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
