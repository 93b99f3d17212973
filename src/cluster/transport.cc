#include "cluster/transport.h"

#include <utility>

#include "util/clock.h"
#include "util/metrics.h"
#include "util/str_format.h"

namespace magicrecs {

std::string GatherReport::ToString() const {
  std::string out = StrFormat("%u/%u daemons answered", daemons_answered,
                              daemons_total);
  if (!missing_partitions.empty()) {
    out += ", missing partitions:";
    for (const uint32_t partition : missing_partitions) {
      out += partition == UINT32_MAX ? " all" : StrFormat(" %u", partition);
    }
  }
  return out;
}

std::string_view ServerLoopName(uint8_t loop) {
  return loop == 2 ? "epoll" : "none";
}

std::string ClusterStats::ToString() const {
  std::string out = StrFormat(
      "partitions=%u replicas=%u published=%llu ingests=%llu queries=%llu "
      "recs=%llu S=%s D=%s",
      num_partitions, replicas_per_partition,
      static_cast<unsigned long long>(events_published),
      static_cast<unsigned long long>(detector_events),
      static_cast<unsigned long long>(threshold_queries),
      static_cast<unsigned long long>(recommendations),
      HumanBytes(static_memory_bytes).c_str(),
      HumanBytes(dynamic_memory_bytes).c_str());
  // Broker-only counters ride along only when something degraded actually
  // happened, so healthy output stays identical to what operators already
  // grep for.
  if (degraded_gathers != 0 || hedged_publishes != 0 || replayed_events != 0 ||
      replay_dropped_events != 0 || rescued_recommendations != 0 ||
      rescue_dropped != 0) {
    out += StrFormat(
        " degraded_gathers=%llu hedged=%llu replayed=%llu replay_dropped=%llu "
        "rescued=%llu rescue_dropped=%llu",
        static_cast<unsigned long long>(degraded_gathers),
        static_cast<unsigned long long>(hedged_publishes),
        static_cast<unsigned long long>(replayed_events),
        static_cast<unsigned long long>(replay_dropped_events),
        static_cast<unsigned long long>(rescued_recommendations),
        static_cast<unsigned long long>(rescue_dropped));
  }
  // Same stance for the server-loop counters: silent unless a daemon-side
  // RPC loop actually reported them.
  if (server.any()) {
    out += StrFormat(
        " loop=%s conns=%u served=%llu partial_reads=%llu "
        "partial_writes=%llu inflight_stalls=%llu mux_conns=%llu",
        std::string(ServerLoopName(server.loop)).c_str(),
        server.connections_open,
        static_cast<unsigned long long>(server.requests_served),
        static_cast<unsigned long long>(server.partial_reads),
        static_cast<unsigned long long>(server.partial_writes),
        static_cast<unsigned long long>(server.inflight_stalls),
        static_cast<unsigned long long>(server.mux_connections));
  }
  return out;
}

std::string ClusterStats::PerReplicaString() const {
  std::string out;
  for (const ReplicaStats& entry : per_replica) {
    if (!out.empty()) out += '\n';
    out += entry.ToString();
  }
  return out;
}

Status ClusterTransport::PublishBatch(std::span<const EdgeEvent> events) {
  for (const EdgeEvent& event : events) {
    MAGICRECS_RETURN_IF_ERROR(Publish(event));
  }
  return Status::OK();
}

GatherReport ClusterTransport::LastGatherReport() const {
  return GatherReport{};  // no fan-out: every gather is complete
}

Result<std::vector<Recommendation>> ClusterTransport::TakeRecommendations(
    GatherReport* report) {
  Result<std::vector<Recommendation>> recs = TakeRecommendations();
  if (report != nullptr) *report = LastGatherReport();
  return recs;
}

Result<HashPartitioner> ClusterTransport::Partitioner() const {
  return Status::Unimplemented(
      "this transport carries no client-side partition placement");
}

Result<std::string> ClusterTransport::GetStatsText() {
  return MetricsRegistry::Default()->RenderText();
}

Result<HealthReport> ClusterTransport::GetHealth() {
  return HealthReportFromRegistry(*MetricsRegistry::Default(),
                                  SystemClock::Default()->Now());
}

std::vector<TraceContext> ClusterTransport::TakeTraces() { return {}; }

// --- LocalClusterTransport ---------------------------------------------------

Result<std::unique_ptr<LocalClusterTransport>> LocalClusterTransport::Create(
    const StaticGraph& follow_graph, const ClusterOptions& options,
    Mode mode) {
  MAGICRECS_ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster,
                             Cluster::Create(follow_graph, options));
  return Adopt(std::move(cluster), mode);
}

Result<std::unique_ptr<LocalClusterTransport>> LocalClusterTransport::Adopt(
    std::unique_ptr<Cluster> cluster, Mode mode) {
  if (cluster == nullptr) {
    return Status::InvalidArgument("cluster must be non-null");
  }
  std::unique_ptr<LocalClusterTransport> transport(
      new LocalClusterTransport(std::move(cluster), mode));
  if (mode == Mode::kThreaded) {
    MAGICRECS_RETURN_IF_ERROR(transport->cluster_->Start());
  }
  return transport;
}

LocalClusterTransport::~LocalClusterTransport() {
  const Status s = Close();
  (void)s;  // destructor cannot propagate
}

Status LocalClusterTransport::Publish(const EdgeEvent& event) {
  std::shared_lock<std::shared_mutex> state_lock(state_mu_);
  if (closed_) return Status::FailedPrecondition("transport is closed");
  if (mode_ == Mode::kThreaded) return cluster_->Publish(event);
  std::lock_guard<std::mutex> lock(inline_mu_);
  return cluster_->OnEdgeEvent(event, &inline_results_);
}

Status LocalClusterTransport::PublishBatch(std::span<const EdgeEvent> events) {
  // One lock round trip for the whole batch: a wire batch from the RPC
  // server sequences and applies under a single wal_mu_ (and, inline, a
  // single inline_mu_) acquisition instead of one per event.
  std::shared_lock<std::shared_mutex> state_lock(state_mu_);
  if (closed_) return Status::FailedPrecondition("transport is closed");
  if (mode_ == Mode::kThreaded) return cluster_->PublishBatch(events);
  std::lock_guard<std::mutex> lock(inline_mu_);
  return cluster_->OnEdgeEventBatch(events, &inline_results_);
}

Status LocalClusterTransport::Drain() {
  std::shared_lock<std::shared_mutex> state_lock(state_mu_);
  if (closed_) return Status::FailedPrecondition("transport is closed");
  if (mode_ == Mode::kThreaded) cluster_->Drain();
  return Status::OK();  // inline publishes are synchronous: always drained
}

Result<std::vector<Recommendation>> LocalClusterTransport::TakeRecommendations() {
  std::shared_lock<std::shared_mutex> state_lock(state_mu_);
  if (closed_) return Status::FailedPrecondition("transport is closed");
  if (mode_ == Mode::kThreaded) return cluster_->TakeRecommendations();
  std::lock_guard<std::mutex> lock(inline_mu_);
  std::vector<Recommendation> out;
  out.swap(inline_results_);
  return out;
}

Status LocalClusterTransport::Checkpoint(Timestamp created_at) {
  // Exclusive: blocks publishers, then quiesces the workers, so the
  // snapshot serializes a detector no thread is mutating.
  std::unique_lock<std::shared_mutex> state_lock(state_mu_);
  if (closed_) return Status::FailedPrecondition("transport is closed");
  if (mode_ == Mode::kThreaded) cluster_->Drain();
  return cluster_->Checkpoint(created_at);
}

Status LocalClusterTransport::KillReplica(uint32_t partition,
                                          uint32_t replica) {
  std::shared_lock<std::shared_mutex> state_lock(state_mu_);
  if (closed_) return Status::FailedPrecondition("transport is closed");
  return cluster_->KillReplica(partition, replica);  // one atomic bit flip
}

Status LocalClusterTransport::RecoverReplica(uint32_t partition,
                                             uint32_t replica) {
  std::unique_lock<std::shared_mutex> state_lock(state_mu_);
  if (closed_) return Status::FailedPrecondition("transport is closed");
  if (mode_ == Mode::kThreaded) cluster_->Drain();  // recover quiesced
  return cluster_->RecoverReplica(partition, replica);
}

Result<ClusterStats> LocalClusterTransport::GetStats() {
  // Exclusive + drained: the per-detector counters and histograms are plain
  // fields the worker threads mutate, so stats reads must be quiesced too.
  std::unique_lock<std::shared_mutex> state_lock(state_mu_);
  if (closed_) return Status::FailedPrecondition("transport is closed");
  if (mode_ == Mode::kThreaded) cluster_->Drain();
  const DiamondStats detector = cluster_->AggregatedStats();
  ClusterStats stats;
  stats.num_partitions = cluster_->num_partitions();
  stats.replicas_per_partition = cluster_->replicas_per_partition();
  stats.events_published = cluster_->events_published();
  stats.detector_events = detector.events;
  stats.threshold_queries = detector.threshold_queries;
  stats.recommendations = detector.recommendations;
  stats.static_memory_bytes = cluster_->TotalStaticMemory();
  stats.dynamic_memory_bytes = cluster_->TotalDynamicMemory();
  stats.per_replica = cluster_->PerReplicaStats();
  stats.partitioner_salt = cluster_->partitioner().salt();
  return stats;
}

Result<std::string> LocalClusterTransport::GetStatsText() {
  // Scrape-time collector: the detector counters and histograms are plain
  // fields the workers mutate, so quiesce (as GetStats does), then mirror
  // the aggregates into the process registry. ReplaceWith/RaiseTo — not
  // Merge/Increment — because the mirror re-runs wholesale on every scrape.
  {
    std::unique_lock<std::shared_mutex> state_lock(state_mu_);
    if (closed_) return Status::FailedPrecondition("transport is closed");
    if (mode_ == Mode::kThreaded) cluster_->Drain();
    const DiamondStats detector = cluster_->AggregatedStats();
    MetricsRegistry* registry = MetricsRegistry::Default();
    registry->GetCounter("detector_events")->RaiseTo(detector.events);
    registry->GetCounter("detector_threshold_queries")
        ->RaiseTo(detector.threshold_queries);
    registry->GetCounter("detector_recommendations")
        ->RaiseTo(detector.recommendations);
    registry->GetCounter("detector_suppressed_existing")
        ->RaiseTo(detector.suppressed_existing);
    registry->GetCounter("detector_suppressed_self")
        ->RaiseTo(detector.suppressed_self);
    registry->GetHistogram("detector_query_us")
        ->ReplaceWith(detector.query_micros);
    registry->GetHistogram("detector_intersection_size")
        ->ReplaceWith(detector.intersection_sizes);
    registry->GetCounter("events_published")
        ->RaiseTo(cluster_->events_published());
  }
  return MetricsRegistry::Default()->RenderText();
}

Result<HashPartitioner> LocalClusterTransport::Partitioner() const {
  return cluster_->partitioner();
}

Status LocalClusterTransport::Close() {
  std::unique_lock<std::shared_mutex> state_lock(state_mu_);
  if (closed_.exchange(true)) return Status::OK();
  if (mode_ == Mode::kThreaded) cluster_->Stop();
  return Status::OK();
}

}  // namespace magicrecs
