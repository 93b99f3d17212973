// A harness-side copy of DiamondDetector::OnEdge built only from the
// public functions of the graph and intersect layers, with a span around
// each layer's step. It runs beside a real DiamondDetector on the same
// stream; the traced run fails unless both emit identical recommendations
// and counters, so the per-layer times describe the code users run.

#ifndef PERFBENCH_HARNESS_MIRROR_H_
#define PERFBENCH_HARNESS_MIRROR_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/diamond_detector.h"
#include "core/recommendation.h"
#include "graph/dynamic_graph.h"
#include "graph/static_graph.h"
#include "intersect/threshold.h"
#include "trace.h"
#include "util/status.h"

namespace perfbench {

/// Work counted at the layer boundaries of the mirror.
struct MirrorCounters {
  uint64_t events = 0;
  uint64_t actors = 0;              ///< in-window actors over all events
  uint64_t threshold_queries = 0;   ///< events with >= k actors
  uint64_t gather_elems = 0;        ///< S entries handed to the kernel
  uint64_t threshold_calls = 0;
  uint64_t threshold_elems = 0;     ///< list entries the kernel was given
  uint64_t threshold_matches = 0;   ///< raw candidates
  uint64_t suppress_calls = 0;      ///< StaticGraph::HasEdge probes
  uint64_t recommendations = 0;
  /// Kernel choices of SelectThresholdAlgorithm, indexed by
  /// ThresholdAlgorithm.
  std::array<uint64_t, 4> algorithm = {};
};

class MirrorDetector {
 public:
  /// Same contract as DiamondDetector's constructor.
  MirrorDetector(const magicrecs::StaticGraph* follower_index,
                 const magicrecs::DiamondOptions& options, Tracer* tracer);

  MirrorDetector(const MirrorDetector&) = delete;
  MirrorDetector& operator=(const MirrorDetector&) = delete;

  /// DiamondDetector::OnEdge, step for step.
  magicrecs::Status OnEdge(magicrecs::VertexId src, magicrecs::VertexId dst,
                           magicrecs::Timestamp t,
                           std::vector<magicrecs::Recommendation>* out);

  /// DiamondDetector::Ingest: D only, no query, no spans, no counters.
  magicrecs::Status Ingest(magicrecs::VertexId src, magicrecs::VertexId dst,
                           magicrecs::Timestamp t) {
    return dynamic_index_.Insert(src, dst, t);
  }

  const MirrorCounters& counters() const { return counters_; }

 private:
  const magicrecs::StaticGraph* follower_index_;
  magicrecs::DiamondOptions options_;
  magicrecs::DynamicInEdgeIndex dynamic_index_;
  Tracer* tracer_;
  MirrorCounters counters_;

  std::vector<magicrecs::TimestampedInEdge> actors_;
  std::vector<std::span<const magicrecs::VertexId>> lists_;
  std::vector<magicrecs::BitsetView> bitsets_;
  std::vector<magicrecs::VertexId> list_sources_;
  std::vector<magicrecs::ThresholdMatch> matches_;
  std::vector<magicrecs::ThresholdMatch> kept_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_MIRROR_H_
