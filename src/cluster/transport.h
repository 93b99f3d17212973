// The transport seam between stream producers and the partitioned cluster.
//
// The paper's production deployment is ~20 partition servers on separate
// machines behind a fan-out broker; this repo started with a single-process
// Cluster object whose "distributed" mode was std::thread. ClusterTransport
// abstracts the boundary so the same driver code — tests, benches, examples,
// the stream simulator — can run against
//
//   * LocalClusterTransport(kInline)   — synchronous, deterministic,
//   * LocalClusterTransport(kThreaded) — one worker thread per replica,
//   * FanoutCluster (src/net/)         — one or more magicrecsd processes
//                                        over TCP,
//
// without knowing which one it has. The contract is publish/drain/gather:
// Publish delivers an event to every partition, Drain blocks until all
// published events are fully processed, TakeRecommendations moves out what
// the motif queries emitted since the last call.

#ifndef MAGICRECS_CLUSTER_TRANSPORT_H_
#define MAGICRECS_CLUSTER_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/recommendation.h"
#include "health/health_engine.h"
#include "stream/event.h"
#include "util/result.h"
#include "util/status.h"
#include "util/trace.h"
#include "util/types.h"

namespace magicrecs {

/// Broker-side liveness of one partition's daemon across gathers. A
/// consecutive count of 0 means the daemon answered the most recent
/// TakeRecommendations; anything else is how stale that partition's
/// recommendations currently are, measured in missed gathers.
struct PartitionHealth {
  /// Global partition id, or UINT32_MAX for an all-hosting daemon.
  uint32_t partition = 0;
  uint64_t gathers_missed_total = 0;
  uint64_t gathers_missed_consecutive = 0;

  friend bool operator==(const PartitionHealth&,
                         const PartitionHealth&) = default;

  /// e.g. "p3 missed=2 (consecutive=1)".
  std::string ToString() const;
};

/// Coverage of one gather: which partitions the merged recommendations
/// actually came from. A degraded-mode broker (net/fanout_cluster.h,
/// FanoutPolicy::kQuorum / kBestEffort) returns merged results while some
/// daemons are down; this report names what is missing so callers can tell
/// a complete gather from a degraded one. Travels as a tail extension of
/// the recommendations-reply wire message when (and only when) incomplete.
struct GatherReport {
  uint32_t daemons_total = 0;
  uint32_t daemons_answered = 0;

  /// Sorted, deduplicated global partition ids whose recommendations are
  /// NOT in the merged result. UINT32_MAX marks a missing all-hosting
  /// daemon (every partition is missing).
  std::vector<uint32_t> missing_partitions;

  /// True iff every daemon answered — also the state a transport with no
  /// fan-out (local) always reports.
  bool complete() const {
    return daemons_answered == daemons_total && missing_partitions.empty();
  }

  friend bool operator==(const GatherReport&, const GatherReport&) = default;

  /// e.g. "3/4 daemons answered, missing partitions: 2".
  std::string ToString() const;
};

/// Counters from the RPC server loop serving a daemon's stats request —
/// the event-driven reactor's observability surface. Rides the stats wire
/// as a negotiated tail (net/wire.h), so only hello-speaking peers see it;
/// a fan-out broker sums the daemons' counters into its merged view.
struct ServerLoopStats {
  /// 0 = none/unknown (in-process transport), 2 = epoll reactor.
  uint8_t loop = 0;

  uint32_t connections_open = 0;   ///< currently-accepted connections
  uint64_t requests_served = 0;    ///< responses sent, errors included
  uint64_t partial_reads = 0;      ///< reads that left a frame incomplete
  uint64_t partial_writes = 0;     ///< writes cut short by a full buffer
  uint64_t inflight_stalls = 0;    ///< reads paused at the in-flight cap
  uint64_t mux_connections = 0;    ///< connections that negotiated mux

  bool any() const {
    return loop != 0 || connections_open != 0 || requests_served != 0 ||
           partial_reads != 0 || partial_writes != 0 ||
           inflight_stalls != 0 || mux_connections != 0;
  }

  friend bool operator==(const ServerLoopStats&,
                         const ServerLoopStats&) = default;
};

std::string_view ServerLoopName(uint8_t loop);

/// Cluster-wide counters as reported over the stats RPC. A flat POD rather
/// than DiamondStats so it has a stable wire encoding.
struct ClusterStats {
  uint32_t num_partitions = 0;       ///< deployment-wide (full group)
  uint32_t replicas_per_partition = 0;
  uint64_t events_published = 0;     ///< broker-side publish count
  uint64_t detector_events = 0;      ///< ingests summed over all replicas
  uint64_t threshold_queries = 0;    ///< motif queries summed over replicas
  uint64_t recommendations = 0;      ///< emitted recommendations (sum)
  uint64_t static_memory_bytes = 0;  ///< all S shards
  uint64_t dynamic_memory_bytes = 0; ///< all D copies

  /// Identity-tagged counters, one entry per hosted replica, ordered by
  /// (partition, replica). A partition-group daemon reports only its own
  /// shard here, so stats merged from many daemons stay attributable.
  std::vector<ReplicaStats> per_replica;

  /// The hash-partitioner salt placement was computed with. Lets a fan-out
  /// broker detect a daemon whose placement disagrees with its own
  /// (FanoutCluster::Ping verifies it).
  uint64_t partitioner_salt = 0;

  // --- degraded-mode broker counters -----------------------------------------
  // Filled only by a fan-out broker (net/fanout_cluster.h); always zero on
  // in-process transports and daemons, and deliberately NOT carried on the
  // stats wire — they describe the broker, not the cluster behind it.

  /// Gathers that returned successfully with >= 1 partition missing.
  uint64_t degraded_gathers = 0;

  /// Publish lanes re-sent on a fresh connection after the hedge threshold.
  uint64_t hedged_publishes = 0;

  /// Events delivered from a replay buffer after a daemon came back.
  uint64_t replayed_events = 0;

  /// Events dropped because a daemon's replay buffer overflowed (or the
  /// daemon rejected a replayed frame).
  uint64_t replay_dropped_events = 0;

  /// Recommendations currently parked in the partial-gather rescue buffer.
  uint64_t rescued_recommendations = 0;

  /// Recommendations dropped because the rescue buffer overflowed.
  uint64_t rescue_dropped = 0;

  /// Per-partition gather staleness, ordered by partition (broker only).
  std::vector<PartitionHealth> partition_health;

  /// Counters of the RPC server loop that served this stats request (zero
  /// for in-process transports). A fan-out broker's merged view sums the
  /// counters across daemons; `loop` takes any daemon's value (Ping
  /// verifies deployments are homogeneous enough for that to be useful).
  ServerLoopStats server;

  friend bool operator==(const ClusterStats&, const ClusterStats&) = default;

  /// The aggregate counters on one line (per_replica not included).
  std::string ToString() const;

  /// One line per per_replica entry, e.g. for an operator stats dump.
  std::string PerReplicaString() const;
};

/// Abstract cluster endpoint. Implementations are thread-safe: the RPC
/// server drives one transport from several connection handler threads.
class ClusterTransport {
 public:
  virtual ~ClusterTransport() = default;

  /// Delivers one edge-creation event to every partition. The transport
  /// assigns the sequence number; any caller-provided value is ignored.
  virtual Status Publish(const EdgeEvent& event) = 0;

  /// Delivers a batch in order. Default implementation loops Publish; the
  /// fan-out broker overrides it with pipelined framed round trips.
  virtual Status PublishBatch(std::span<const EdgeEvent> events);

  /// Blocks until every event published so far is fully processed.
  virtual Status Drain() = 0;

  /// Moves out all recommendations gathered since the last call. Ordering
  /// across partitions is unspecified.
  virtual Result<std::vector<Recommendation>> TakeRecommendations() = 0;

  /// Same gather, also filling `*report` (if non-null) with THIS call's
  /// coverage — the race-free form for concurrent callers, since
  /// LastGatherReport() is a shared last-call slot that another thread's
  /// gather may overwrite in between. The default implementation forwards
  /// to the report-less overload and copies LastGatherReport(), which is
  /// exact for transports whose gathers are always complete; transports
  /// that can degrade (the fan-out broker) override it.
  virtual Result<std::vector<Recommendation>> TakeRecommendations(
      GatherReport* report);

  /// Snapshots the durable state (see Cluster::Checkpoint). Call quiesced.
  virtual Status Checkpoint(Timestamp created_at) = 0;

  /// Failure injection (see Cluster::KillReplica / RecoverReplica).
  virtual Status KillReplica(uint32_t partition, uint32_t replica) = 0;
  virtual Status RecoverReplica(uint32_t partition, uint32_t replica) = 0;

  virtual Result<ClusterStats> GetStats() = 0;

  /// The text exposition of every metric this endpoint knows (see
  /// docs/observability.md for the format). The default renders the
  /// process-wide MetricsRegistry; transports that sit in front of other
  /// processes (the fan-out broker) override it to pull the remote surface
  /// too. Serves the kStatsText RPC.
  virtual Result<std::string> GetStatsText();

  /// Health of this endpoint and its constituent parties, as last
  /// evaluated by a health engine (src/health/health_engine.h). The
  /// default reconstructs party states from the process registry's
  /// `health{party="..."}` gauges — the ones a HealthMonitor publishes —
  /// so any transport in a monitored process answers for free; the fan-out
  /// broker overrides with its own engine's full report (reasons and
  /// details included). An empty report means no health engine has
  /// evaluated yet.
  virtual Result<HealthReport> GetHealth();

  /// Moves out the completed end-to-end traces collected since the last
  /// call (bounded; oldest dropped first). Only a transport that
  /// originates sampled traces (the fan-out broker) returns anything; the
  /// default is empty.
  virtual std::vector<TraceContext> TakeTraces();

  /// Coverage of the most recent TakeRecommendations on this transport. A
  /// transport that cannot partially fail (local) reports a complete
  /// GatherReport; the fan-out broker reports which
  /// partitions were missing from the last merge. Callers that care about
  /// degraded results read this right after a successful gather.
  virtual GatherReport LastGatherReport() const;

  /// The user -> partition placement this transport routes by. Local
  /// transports report their cluster's partitioner; the fan-out broker
  /// (net/fanout_cluster.h) reports the group partitioner it routes replica
  /// ops with. A transport with no client-side placement knowledge reports
  /// Unimplemented.
  virtual Result<HashPartitioner> Partitioner() const;

  /// Releases the transport's resources (joins workers, closes the
  /// connection). Idempotent; called by the destructor.
  virtual Status Close() = 0;
};

/// In-process transport over a Cluster, in either execution mode.
class LocalClusterTransport : public ClusterTransport {
 public:
  enum class Mode {
    kInline,    ///< single-threaded, deterministic ordering
    kThreaded,  ///< one worker per replica; Start() on creation
  };

  /// Builds the cluster from the follow graph and wraps it.
  static Result<std::unique_ptr<LocalClusterTransport>> Create(
      const StaticGraph& follow_graph, const ClusterOptions& options,
      Mode mode);

  /// Wraps an existing cluster (must not be running yet in kThreaded mode).
  static Result<std::unique_ptr<LocalClusterTransport>> Adopt(
      std::unique_ptr<Cluster> cluster, Mode mode);

  ~LocalClusterTransport() override;

  Status Publish(const EdgeEvent& event) override;
  Status PublishBatch(std::span<const EdgeEvent> events) override;
  Status Drain() override;
  Result<std::vector<Recommendation>> TakeRecommendations() override;
  Status Checkpoint(Timestamp created_at) override;
  Status KillReplica(uint32_t partition, uint32_t replica) override;
  Status RecoverReplica(uint32_t partition, uint32_t replica) override;
  Result<ClusterStats> GetStats() override;
  Result<std::string> GetStatsText() override;
  Result<HashPartitioner> Partitioner() const override;
  Status Close() override;

  Mode mode() const { return mode_; }
  Cluster& cluster() { return *cluster_; }
  const Cluster& cluster() const { return *cluster_; }

 private:
  LocalClusterTransport(std::unique_ptr<Cluster> cluster, Mode mode)
      : cluster_(std::move(cluster)), mode_(mode) {}

  std::unique_ptr<Cluster> cluster_;
  const Mode mode_;
  std::atomic<bool> closed_{false};

  // Concurrency: several RPC connection handlers drive one transport. Data-
  // plane calls (Publish, Drain, TakeRecommendations, KillReplica — all
  // safe to run concurrently through the cluster's own synchronization)
  // hold state_mu_ shared; control-plane calls that read or rewrite raw
  // detector state (GetStats, Checkpoint, RecoverReplica) hold it exclusive
  // and quiesce first, so they never observe a detector mid-mutation.
  std::shared_mutex state_mu_;

  // kInline state: Cluster::OnEdgeEvent is not thread-safe and returns
  // recommendations synchronously, so the transport serializes calls and
  // buffers the results to honor the publish/gather contract.
  std::mutex inline_mu_;
  std::vector<Recommendation> inline_results_;
};

}  // namespace magicrecs

#endif  // MAGICRECS_CLUSTER_TRANSPORT_H_
