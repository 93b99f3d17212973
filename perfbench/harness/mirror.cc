#include "mirror.h"

#include <algorithm>

namespace perfbench {

using magicrecs::DiamondOptions;
using magicrecs::DynamicGraphOptions;
using magicrecs::Recommendation;
using magicrecs::Status;
using magicrecs::StaticGraph;
using magicrecs::ThresholdAlgorithm;
using magicrecs::ThresholdMatch;
using magicrecs::Timestamp;
using magicrecs::TimestampedInEdge;
using magicrecs::VertexId;

namespace {

DynamicGraphOptions DynamicOptions(const DiamondOptions& options) {
  DynamicGraphOptions dyn;
  dyn.window = options.window;
  dyn.max_in_edges_per_vertex = options.max_in_edges_per_vertex;
  dyn.strict_time_order = options.strict_time_order;
  return dyn;
}

}  // namespace

MirrorDetector::MirrorDetector(const StaticGraph* follower_index,
                               const DiamondOptions& options, Tracer* tracer)
    : follower_index_(follower_index),
      options_(options),
      dynamic_index_(DynamicOptions(options)),
      tracer_(tracer) {}

Status MirrorDetector::OnEdge(VertexId src, VertexId dst, Timestamp t,
                              std::vector<Recommendation>* out) {
  ScopedSpan root(tracer_, SpanName::kMirrorOnEdge);
  {
    ScopedSpan span(tracer_, SpanName::kDInsert);
    MAGICRECS_RETURN_IF_ERROR(dynamic_index_.Insert(src, dst, t));
  }
  ++counters_.events;
  {
    ScopedSpan span(tracer_, SpanName::kDWindow);
    dynamic_index_.GetRecentInEdges(dst, t, &actors_);
  }
  counters_.actors += actors_.size();
  if (actors_.size() < options_.k) return Status::OK();
  ++counters_.threshold_queries;

  if (options_.max_witnesses_per_query > 0 &&
      actors_.size() > options_.max_witnesses_per_query) {
    std::nth_element(
        actors_.begin(),
        actors_.begin() +
            static_cast<std::ptrdiff_t>(options_.max_witnesses_per_query),
        actors_.end(),
        [](const TimestampedInEdge& a, const TimestampedInEdge& b) {
          return a.created_at > b.created_at;
        });
    actors_.resize(options_.max_witnesses_per_query);
  }

  const bool use_bitsets =
      options_.use_hub_bitsets && follower_index_->has_hub_index();
  {
    ScopedSpan span(tracer_, SpanName::kSGather);
    lists_.clear();
    bitsets_.clear();
    list_sources_.clear();
    for (const TimestampedInEdge& actor : actors_) {
      const auto followers = follower_index_->Neighbors(actor.src);
      if (followers.empty()) continue;
      lists_.push_back(followers);
      if (use_bitsets) {
        bitsets_.push_back(follower_index_->HubBitset(actor.src));
      }
      list_sources_.push_back(actor.src);
      counters_.gather_elems += followers.size();
    }
  }
  if (lists_.size() < options_.k) return Status::OK();

  {
    ScopedSpan span(tracer_, SpanName::kThreshold);
    const ThresholdAlgorithm chosen =
        options_.algorithm == ThresholdAlgorithm::kAuto
            ? magicrecs::SelectThresholdAlgorithm(lists_, options_.k)
            : options_.algorithm;
    ++counters_.algorithm[static_cast<size_t>(chosen)];
    magicrecs::ThresholdIntersect(lists_, options_.k, &matches_, chosen,
                                  use_bitsets ? &bitsets_ : nullptr);
  }
  ++counters_.threshold_calls;
  for (const auto& list : lists_) counters_.threshold_elems += list.size();
  counters_.threshold_matches += matches_.size();

  // The detector checks and emits each match in one loop; splitting the
  // loop keeps the emit order and lets each half carry its own span.
  kept_.clear();
  {
    ScopedSpan span(tracer_, SpanName::kSuppress);
    for (const ThresholdMatch& match : matches_) {
      const VertexId user = match.id;
      if (user == dst) continue;
      if (options_.exclude_existing_followers) {
        ++counters_.suppress_calls;
        if (follower_index_->HasEdge(dst, user) ||
            std::any_of(actors_.begin(), actors_.end(),
                        [user](const TimestampedInEdge& e) {
                          return e.src == user;
                        })) {
          continue;
        }
      }
      kept_.push_back(match);
    }
  }

  ScopedSpan span(tracer_, SpanName::kEmit);
  for (const ThresholdMatch& match : kept_) {
    Recommendation rec;
    rec.user = match.id;
    rec.item = dst;
    rec.witness_count = match.count;
    rec.event_time = t;
    rec.trigger = src;
    if (options_.max_reported_witnesses > 0) {
      for (size_t i = 0;
           i < list_sources_.size() &&
           rec.witnesses.size() < options_.max_reported_witnesses;
           ++i) {
        if (std::binary_search(lists_[i].begin(), lists_[i].end(), match.id)) {
          rec.witnesses.push_back(list_sources_[i]);
        }
      }
      std::sort(rec.witnesses.begin(), rec.witnesses.end());
    }
    out->push_back(std::move(rec));
    ++counters_.recommendations;
  }
  return Status::OK();
}

}  // namespace perfbench
