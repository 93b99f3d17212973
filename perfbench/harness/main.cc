// perfbench: one run of one benchmark workload against the real stack.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR --set key=value ...
//
// run.py builds this binary, passes the workload's shape from
// workloads.json as --set pairs, and validates the JSON report this binary
// prints as the last line of its standard output. Progress goes to
// standard error.
//
// One run:
//   1. generate the graph and the event stream (untimed; the program only
//      ever receives the generated events);
//   2. set the deployment up `setup_repeats` times (setup_s) and keep the
//      last one;
//   3. warm D up with the first events (untimed);
//   4. one round per rung of a fixed rate ladder, each round publishing the
//      next slices of the stream: a closed-loop slice, as fast as the
//      transport takes it and drained on its own clock (ingest_eps), then
//      the rung's open-loop slot, each batch sent when its last event is
//      due (sustainable_eps, and the recommendation latency at the
//      workload's named rung). Interleaving spreads both figures over the
//      whole run, so a slow stretch of a shared host weighs on them alike;
//   5. recover one replica from snapshot + WAL, `recovery_repeats` times,
//      each timed between two steps of 6 (recovery_s);
//   6. an inline single-threaded Cluster per partition over the same events,
//      whose recommendation digest must equal the gathered one (untimed);
//   7. traced runs only: a mirror of DiamondDetector::OnEdge beside a real
//      detector, the wire codec and a harness-owned WAL, for the per-layer
//      metrics.
// A gatherer thread takes recommendations on a fixed cadence through every
// timed phase; there is no single take at the end of a run.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/partition_server.h"
#include "cluster/transport.h"
#include "core/diamond_detector.h"
#include "gen/activity_stream.h"
#include "gen/social_graph.h"
#include "graph/static_graph.h"
#include "mirror.h"
#include "net/fanout_cluster.h"
#include "net/rpc_server.h"
#include "net/wire.h"
#include "persist/recovery.h"
#include "persist/wal.h"
#include "trace.h"
#include "util/random.h"

namespace perfbench {
namespace {

namespace mr = magicrecs;
namespace net = magicrecs::net;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

void CheckOk(const mr::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

template <typename T>
T TakeOrDie(mr::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Millis(int64_t ns) { return static_cast<double>(ns) / 1e6; }

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

/// Progress line on standard error, stamped with seconds since start.
void Progress(const char* format, ...) __attribute__((format(printf, 1, 2)));
void Progress(const char* format, ...) {
  static const int64_t start = NowNs();
  std::fprintf(stderr, "perfbench [%6.2fs] ", Seconds(NowNs() - start));
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
}

// --- configuration -----------------------------------------------------------

/// The workload's --set pairs. Every key must be read exactly as spelled,
/// and every key given must be used, so a typo in workloads.json fails the
/// run instead of silently falling back to a default.
class Config {
 public:
  void Set(const std::string& pair) {
    const size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0) Die("bad --set " + pair);
    values_[pair.substr(0, eq)] = pair.substr(eq + 1);
  }

  const std::string& Text(const std::string& key) {
    auto it = values_.find(key);
    if (it == values_.end()) Die("workload config lacks " + key);
    used_.insert(key);
    return it->second;
  }

  double Number(const std::string& key) {
    const std::string& text = Text(key);
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !std::isfinite(value)) {
      Die("workload config " + key + " is not a number: " + text);
    }
    return value;
  }

  std::vector<double> List(const std::string& key) {
    const std::string text = Text(key);
    std::vector<double> values;
    size_t pos = 0;
    while (pos <= text.size()) {
      const size_t comma = std::min(text.find(',', pos), text.size());
      const std::string item = text.substr(pos, comma - pos);
      char* end = nullptr;
      const double value = std::strtod(item.c_str(), &end);
      if (item.empty() || *end != '\0') Die("bad list item in " + key);
      values.push_back(value);
      pos = comma + 1;
    }
    return values;
  }

  void RequireAllUsed() const {
    for (const auto& [key, value] : values_) {
      if (used_.count(key) == 0) Die("unknown workload config key " + key);
    }
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> used_;
};

// Harness settings shared by every workload; workloads.json holds only what
// differs between them.
constexpr uint64_t kStructureSeed = 1;  ///< graph and stream; --seed relabels
constexpr double kMeanFollowees = 30;
constexpr double kBurstFraction = 0.02;
constexpr double kMeanBurstSize = 3;
constexpr double kClosedLoopShare = 0.35;  ///< of --seconds; the ladder gets
                                           ///< the rest
constexpr int kGatherCadenceMs = 5;
constexpr size_t kFsyncBatch = 1024;       ///< group commit of durable
                                           ///< deployments
constexpr int kRpcWorkersPerDaemon = 1;
constexpr uint32_t kReferencePartitions = 4;  ///< untimed; one thread each

/// A workload's shape. Everything not named here is the program's default.
struct Spec {
  // Follow graph (gen/social_graph.h).
  uint32_t users = 0;
  double popularity_exponent = 0;
  // Event stream (gen/activity_stream.h), in events/s of stream time.
  double stream_eps = 0;
  // Deployment.
  bool fanout = false;  ///< broker over loopback vs in-process threaded
  uint32_t partitions = 0;
  uint32_t replicas = 0;
  bool durable = false;
  // Load.
  size_t warmup_events = 0;    ///< published untimed before the closed loop
  size_t batch_events = 0;
  double closed_loop_eps = 0;  ///< sizes the closed-loop phase
  std::vector<double> rungs_eps;
  double latency_rung_eps = 0;
  double latency_limit_ms = 0;
  int setup_repeats = 0;
  int recovery_repeats = 0;
  size_t mirror_events = 0;
};

Spec ReadSpec(Config* config) {
  Spec s;
  s.users = static_cast<uint32_t>(config->Number("users"));
  s.popularity_exponent = config->Number("popularity_exponent");
  s.stream_eps = config->Number("stream_eps");
  const std::string& transport = config->Text("transport");
  if (transport != "threaded" && transport != "fanout") {
    Die("transport must be threaded or fanout");
  }
  s.fanout = transport == "fanout";
  s.partitions = static_cast<uint32_t>(config->Number("partitions"));
  s.replicas = static_cast<uint32_t>(config->Number("replicas"));
  s.durable = config->Number("durable") != 0;
  s.warmup_events = static_cast<size_t>(config->Number("warmup_events"));
  s.batch_events = static_cast<size_t>(config->Number("batch_events"));
  s.closed_loop_eps = config->Number("closed_loop_eps");
  s.rungs_eps = config->List("rungs_eps");
  s.latency_rung_eps = config->Number("latency_rung_eps");
  s.latency_limit_ms = config->Number("latency_limit_ms");
  s.setup_repeats = static_cast<int>(config->Number("setup_repeats"));
  s.recovery_repeats = static_cast<int>(config->Number("recovery_repeats"));
  s.mirror_events = static_cast<size_t>(config->Number("mirror_events"));
  config->RequireAllUsed();

  if (s.partitions == 0 || s.replicas == 0 || s.batch_events == 0 ||
      s.warmup_events == 0 || s.rungs_eps.empty() || s.setup_repeats < 1 ||
      s.recovery_repeats < 1) {
    Die("workload config out of range");
  }
  if (!std::is_sorted(s.rungs_eps.begin(), s.rungs_eps.end())) {
    Die("rungs_eps must ascend");
  }
  if (std::find(s.rungs_eps.begin(), s.rungs_eps.end(), s.latency_rung_eps) ==
      s.rungs_eps.end()) {
    Die("latency_rung_eps must be one of rungs_eps");
  }
  if (s.durable && s.fanout) Die("durable workloads run in-process");
  return s;
}

// --- inputs ------------------------------------------------------------------

constexpr size_t kWarmupPhase = 0;
constexpr size_t kClosedPhase = 1;
constexpr size_t kFirstRungPhase = 2;

/// Which slice of the stream each phase publishes, in stream order. Phase 0
/// warms D up (untimed), phase 1 is the closed loop and phase 2 + r is rung
/// r of the ladder. After the warm-up come the rounds: round r is a
/// closed-loop slice, then rung r's slot. Every rung gets a slot of the
/// same length, so an overload of a given share leaves the same backlog at
/// every rate: the rung at which the backlog first outgrows the latency
/// limit scales with the capacity.
struct Segment {
  size_t phase = 0;
  size_t begin = 0;
  size_t end = 0;
};

struct Plan {
  std::vector<Segment> segments;  ///< segments[0] is the warm-up, then
                                  ///< (closed slice, rung) per round
  double slot_seconds = 0;        ///< each rung's open-loop slot
  size_t total() const { return segments.back().end; }
  size_t rounds() const { return segments.size() / 2; }
  size_t phases() const { return kFirstRungPhase + rounds(); }
  const Segment& warmup() const { return segments[0]; }
  const Segment& closed(size_t round) const {
    return segments[1 + 2 * round];
  }
  const Segment& rung(size_t round) const { return segments[2 + 2 * round]; }
};

Plan MakePlan(const Spec& spec, double seconds) {
  Plan plan;
  const size_t rounds = spec.rungs_eps.size();
  const size_t closed = static_cast<size_t>(
      std::llround(spec.closed_loop_eps * seconds * kClosedLoopShare));
  plan.slot_seconds =
      seconds * (1 - kClosedLoopShare) / static_cast<double>(rounds);
  auto append = [&plan](size_t phase, size_t n) {
    const size_t begin = plan.segments.empty() ? 0 : plan.total();
    plan.segments.push_back(Segment{phase, begin, begin + n});
  };
  append(kWarmupPhase, spec.warmup_events);
  for (size_t r = 0; r < rounds; ++r) {
    append(kClosedPhase, closed * (r + 1) / rounds - closed * r / rounds);
    append(kFirstRungPhase + r, static_cast<size_t>(std::llround(
                                    spec.rungs_eps[r] * plan.slot_seconds)));
  }
  return plan;
}

struct Inputs {
  mr::StaticGraph follow_graph;
  std::vector<mr::EdgeEvent> events;
};

/// The workload's graph and stream come from its fixed structure seed;
/// --seed then relabels every user id with a seeded permutation. Runs on
/// different seeds get different ids, hence a different user -> partition
/// placement, different hash-table and memory layouts and different
/// recommendation bytes, over the same heavy-tailed structure: on the
/// celebrity shape, the detector's cost differs by up to 2x between
/// structure seeds (a few bursts among celebrities dominate it), more than
/// any run this benchmark can afford would average out.
Inputs Generate(const Spec& spec, uint64_t seed, size_t num_events) {
  mr::SocialGraphOptions gopt;
  gopt.num_users = spec.users;
  gopt.mean_followees = kMeanFollowees;
  gopt.popularity_exponent = spec.popularity_exponent;
  gopt.seed = kStructureSeed;
  const mr::StaticGraph graph =
      TakeOrDie(mr::SocialGraphGenerator(gopt).Generate(), "graph generation");

  mr::ActivityStreamOptions sopt;
  sopt.num_events = num_events;
  sopt.events_per_second = spec.stream_eps;
  sopt.burst_fraction = kBurstFraction;
  sopt.mean_burst_size = kMeanBurstSize;
  sopt.start_time = mr::Hours(12);
  sopt.seed = kStructureSeed + 1;
  mr::ActivityStream stream = TakeOrDie(
      mr::ActivityStreamGenerator(&graph, sopt).Generate(),
      "stream generation");
  if (stream.events.size() < num_events) Die("stream generator came up short");

  // Fisher-Yates with the program's own generator, so a seed means the same
  // permutation on every platform.
  std::vector<mr::VertexId> id(graph.num_vertices());
  for (size_t v = 0; v < id.size(); ++v) id[v] = static_cast<mr::VertexId>(v);
  mr::Rng rng(seed);
  for (size_t v = id.size(); v > 1; --v) {
    std::swap(id[v - 1], id[rng.UniformInt(v)]);
  }
  mr::StaticGraphBuilder builder(graph.num_vertices());
  graph.ForEachEdge([&](mr::VertexId src, mr::VertexId dst) {
    CheckOk(builder.AddEdge(id[src], id[dst]), "relabel edge");
  });
  Inputs inputs;
  inputs.follow_graph = TakeOrDie(builder.Build(), "relabel graph");
  inputs.events.reserve(num_events);
  for (size_t i = 0; i < num_events; ++i) {
    mr::EdgeEvent event;
    event.edge = stream.events[i];
    event.edge.src = id[event.edge.src];
    event.edge.dst = id[event.edge.dst];
    event.sequence = i;
    inputs.events.push_back(event);
  }
  return inputs;
}

/// Maps a recommendation back to the event that completed it, by
/// (item, trigger, event_time). A repeated key keeps its first event, so a
/// duplicate's latency is measured from the earlier due time.
class EventIndex {
 public:
  explicit EventIndex(const std::vector<mr::EdgeEvent>& events) {
    index_.reserve(events.size());
    for (size_t i = 0; i < events.size(); ++i) {
      const mr::TimestampedEdge& e = events[i].edge;
      index_.emplace(Key{e.dst, e.src, e.created_at}, i);
    }
  }

  /// Event index, or SIZE_MAX when no event has this key.
  size_t Find(const mr::Recommendation& rec) const {
    auto it = index_.find(Key{rec.item, rec.trigger, rec.event_time});
    return it == index_.end() ? SIZE_MAX : it->second;
  }

 private:
  struct Key {
    mr::VertexId item;
    mr::VertexId trigger;
    mr::Timestamp time;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = (uint64_t{k.item} << 32) ^ k.trigger;
      h ^= static_cast<uint64_t>(k.time) * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 29;
      return static_cast<size_t>(h * 0xbf58476d1ce4e5b9ULL);
    }
  };
  std::unordered_map<Key, size_t, KeyHash> index_;
};

// --- deployment --------------------------------------------------------------

/// A daemon's in-process transport with a span around every call the RPC
/// server makes into it (traced wire runs only): the cluster layer as the
/// daemon sees it.
class SpanTransport : public mr::ClusterTransport {
 public:
  SpanTransport(mr::ClusterTransport* inner, LockedTracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  mr::Status Publish(const mr::EdgeEvent& event) override {
    const int64_t start = NowNs();
    mr::Status status = inner_->Publish(event);
    tracer_->Add(SpanName::kDaemonPublish, start, NowNs());
    return status;
  }
  mr::Status PublishBatch(std::span<const mr::EdgeEvent> events) override {
    const int64_t start = NowNs();
    mr::Status status = inner_->PublishBatch(events);
    tracer_->Add(SpanName::kDaemonPublish, start, NowNs());
    return status;
  }
  mr::Status Drain() override {
    const int64_t start = NowNs();
    mr::Status status = inner_->Drain();
    tracer_->Add(SpanName::kDaemonDrain, start, NowNs());
    return status;
  }
  mr::Result<std::vector<mr::Recommendation>> TakeRecommendations() override {
    return TakeRecommendations(nullptr);
  }
  mr::Result<std::vector<mr::Recommendation>> TakeRecommendations(
      mr::GatherReport* report) override {
    const int64_t start = NowNs();
    auto recs = inner_->TakeRecommendations(report);
    tracer_->Add(SpanName::kDaemonTake, start, NowNs());
    if (recs.ok()) {
      taken_.fetch_add(recs->size(), std::memory_order_relaxed);
    }
    return recs;
  }
  mr::Status Checkpoint(mr::Timestamp created_at) override {
    return inner_->Checkpoint(created_at);
  }
  mr::Status KillReplica(uint32_t partition, uint32_t replica) override {
    return inner_->KillReplica(partition, replica);
  }
  mr::Status RecoverReplica(uint32_t partition, uint32_t replica) override {
    return inner_->RecoverReplica(partition, replica);
  }
  mr::Result<mr::ClusterStats> GetStats() override {
    return inner_->GetStats();
  }
  mr::Result<std::string> GetStatsText() override {
    return inner_->GetStatsText();
  }
  mr::Result<mr::HealthReport> GetHealth() override {
    return inner_->GetHealth();
  }
  std::vector<mr::TraceContext> TakeTraces() override {
    return inner_->TakeTraces();
  }
  mr::GatherReport LastGatherReport() const override {
    return inner_->LastGatherReport();
  }
  mr::Result<mr::HashPartitioner> Partitioner() const override {
    return inner_->Partitioner();
  }
  mr::Status Close() override { return inner_->Close(); }

  uint64_t taken() const { return taken_.load(std::memory_order_relaxed); }

 private:
  mr::ClusterTransport* inner_;
  LockedTracer* tracer_;
  std::atomic<uint64_t> taken_{0};
};

/// The system under test plus whatever keeps it alive. Members are
/// destroyed bottom-up: broker, servers, span wrappers, clusters.
struct Deployment {
  mr::ClusterTransport* transport = nullptr;  ///< what the load talks to
  std::vector<std::unique_ptr<mr::LocalClusterTransport>> clusters;
  std::vector<std::unique_ptr<LockedTracer>> daemon_tracers;
  std::vector<std::unique_ptr<SpanTransport>> daemon_spans;
  std::vector<std::unique_ptr<net::RpcServer>> servers;
  std::unique_ptr<net::FanoutCluster> broker;

  /// The in-process Cluster hosting global partition `p`.
  mr::Cluster& ClusterOf(uint32_t p) {
    return clusters.size() == 1 ? clusters[0]->cluster()
                                : clusters[p]->cluster();
  }
};

mr::ClusterOptions MakeClusterOptions(const Spec& spec) {
  mr::ClusterOptions copt;
  copt.num_partitions = spec.partitions;
  copt.replicas_per_partition = spec.replicas;
  return copt;
}

std::unique_ptr<Deployment> Deploy(const Spec& spec, const Inputs& inputs,
                                   const std::string& persist_dir,
                                   bool traced) {
  auto d = std::make_unique<Deployment>();
  mr::ClusterOptions copt = MakeClusterOptions(spec);
  if (spec.durable) {
    copt.persist.dir = persist_dir;
    copt.persist.sync_each_append = true;
    copt.persist.fsync_batch = kFsyncBatch;
  }
  if (!spec.fanout) {
    d->clusters.push_back(TakeOrDie(
        mr::LocalClusterTransport::Create(
            inputs.follow_graph, copt,
            mr::LocalClusterTransport::Mode::kThreaded),
        "cluster create"));
    d->transport = d->clusters.back().get();
    return d;
  }
  net::FanoutClusterOptions fopt;
  fopt.group_size = spec.partitions;
  for (uint32_t p = 0; p < spec.partitions; ++p) {
    mr::ClusterOptions member = copt;
    member.group_size = spec.partitions;
    member.group_partition = p;
    d->clusters.push_back(TakeOrDie(
        mr::LocalClusterTransport::Create(
            inputs.follow_graph, member,
            mr::LocalClusterTransport::Mode::kThreaded),
        "daemon cluster create"));
    mr::ClusterTransport* served = d->clusters.back().get();
    if (traced) {
      d->daemon_tracers.push_back(std::make_unique<LockedTracer>(true));
      d->daemon_spans.push_back(std::make_unique<SpanTransport>(
          served, d->daemon_tracers.back().get()));
      served = d->daemon_spans.back().get();
    }
    net::RpcServerOptions sopt;
    sopt.worker_threads = kRpcWorkersPerDaemon;
    sopt.trace_party = p;
    d->servers.push_back(
        TakeOrDie(net::RpcServer::Start(served, sopt), "daemon start"));
    net::FanoutEndpoint endpoint;
    endpoint.port = d->servers.back()->port();
    endpoint.partition = p;
    fopt.endpoints.push_back(endpoint);
  }
  d->broker = TakeOrDie(net::FanoutCluster::Connect(fopt), "broker connect");
  CheckOk(d->broker->Ping(), "broker ping");
  d->transport = d->broker.get();
  return d;
}

// --- gatherer ----------------------------------------------------------------

long PageBytes() { return ::sysconf(_SC_PAGESIZE); }

/// Resident set size of this process now, in bytes (0 if unreadable).
uint64_t CurrentRss() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident * static_cast<uint64_t>(PageBytes()) : 0;
}

/// Takes recommendations every kGatherCadenceMs through the timed phases,
/// folds them into the multiset digest and, for open-loop events, records
/// the time from the completing event's due time to the take that returned
/// it. It also samples the resident set size after every take.
class Gatherer {
 public:
  Gatherer(const EventIndex* index,
           const std::vector<std::atomic<int64_t>>* due_ns,
           const std::vector<uint8_t>* phase_of, size_t phases,
           Tracer* tracer)
      : cadence_ns_(int64_t{kGatherCadenceMs} * 1'000'000),
        index_(index),
        due_ns_(due_ns),
        phase_of_(phase_of),
        tracer_(tracer),
        latency_ms_(phases) {}

  ~Gatherer() {
    if (thread_.joinable()) StopAfterNextTick();
  }

  Gatherer(const Gatherer&) = delete;
  Gatherer& operator=(const Gatherer&) = delete;

  void Start(mr::ClusterTransport* transport) {
    transport_ = transport;
    thread_ = std::thread([this] { Loop(); });
  }

  /// Blocks until a take that started after this call has been folded in.
  /// Called after a Drain, it returns once the gatherer holds everything
  /// the drained events produced, so one phase's backlog of
  /// recommendations never delays the takes of the next.
  void AwaitFreshTake() {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t after = ticks_started_;
    ticks_cv_.wait(lock, [&] { return ticks_done_ > after; });
  }

  /// AwaitFreshTake, then stops the thread. Called after the final Drain,
  /// so every recommendation of the run is gathered on the regular cadence.
  void StopAfterNextTick() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_after_tick_ = ticks_started_;
      stopping_ = true;
    }
    thread_.join();
  }

  const RecDigest& digest() const { return digest_; }
  uint64_t takes() const { return takes_; }
  uint64_t failed_takes() const { return failed_takes_; }
  uint64_t unmatched() const { return unmatched_; }
  uint64_t rss_peak() const { return rss_peak_; }
  const LogHistogram& latency_ms(size_t phase) const {
    return latency_ms_[phase];
  }
  double mean_interval_ms() const {
    return intervals_ == 0 ? std::nan("")
                           : Millis(interval_sum_ns_) /
                                 static_cast<double>(intervals_);
  }

 private:
  void Loop() {
    int64_t next = NowNs();
    int64_t last_start = 0;
    for (;;) {
      next += cadence_ns_;
      const int64_t now = NowNs();
      if (next > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
      } else {
        next = now;  // fell behind: restart the cadence, do not burst
      }
      uint64_t tick;
      {
        std::lock_guard<std::mutex> lock(mu_);
        tick = ++ticks_started_;
      }
      const int64_t start = NowNs();
      if (last_start != 0) {
        interval_sum_ns_ += start - last_start;
        ++intervals_;
      }
      last_start = start;
      tracer_->Begin(SpanName::kTake);
      auto recs = transport_->TakeRecommendations();
      tracer_->End();
      const int64_t held = NowNs();
      ++takes_;
      if (!recs.ok()) {
        ++failed_takes_;
      } else {
        for (const mr::Recommendation& rec : *recs) {
          digest_.Add(rec);
          const size_t event = index_->Find(rec);
          if (event == SIZE_MAX) {
            ++unmatched_;
            continue;
          }
          const uint8_t phase = (*phase_of_)[event];
          if (phase < kFirstRungPhase) continue;  // closed loop: no due time
          const int64_t due = (*due_ns_)[event].load(std::memory_order_relaxed);
          latency_ms_[phase].Add(Millis(held - due));
        }
      }
      rss_peak_ = std::max(rss_peak_, CurrentRss());
      std::lock_guard<std::mutex> lock(mu_);
      ticks_done_ = tick;
      ticks_cv_.notify_all();
      if (stopping_ && tick > stop_after_tick_) return;
    }
  }

  mr::ClusterTransport* transport_ = nullptr;
  const int64_t cadence_ns_;
  const EventIndex* index_;
  const std::vector<std::atomic<int64_t>>* due_ns_;
  const std::vector<uint8_t>* phase_of_;
  Tracer* tracer_;

  // Owned by the gatherer thread until it is joined.
  RecDigest digest_;
  uint64_t takes_ = 0;
  uint64_t failed_takes_ = 0;
  uint64_t unmatched_ = 0;
  uint64_t rss_peak_ = 0;
  int64_t interval_sum_ns_ = 0;
  uint64_t intervals_ = 0;
  std::vector<LogHistogram> latency_ms_;  ///< sized up front, per phase

  std::mutex mu_;
  std::condition_variable ticks_cv_;
  uint64_t ticks_started_ = 0;   // guarded by mu_
  uint64_t ticks_done_ = 0;      // guarded by mu_
  uint64_t stop_after_tick_ = 0; // guarded by mu_
  bool stopping_ = false;        // guarded by mu_
  std::thread thread_;
};

// --- report ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples = 0;  ///< for percentiles: the sample they come from
  double quantile = -1;  ///< >= 0 marks a percentile
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "\"nan\"";  // run.py rejects it by name
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// --- the run -----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string workdir;
  Config config;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--set") {
      args.config.Set(value);
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || !(args.seconds > 0) ||
      args.workdir.empty()) {
    Die("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "--workdir DIR --set key=value ...");
  }
  return args;
}

/// Counts calls the load generator and gatherer made, and those that
/// failed or were refused.
struct CallCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(const mr::Status& status) {
    ++attempted;
    if (!status.ok()) ++failed;
  }
};

/// One rung of the ladder.
struct RungResult {
  double rate = 0;
  double drain_ms = 0;
  LogHistogram late_us;  ///< per event: its batch's send minus its due time
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t samples = 0;  ///< recommendations the latencies come from
  double load = 0;       ///< worst of the three latency-limited figures,
                         ///< over the limit
  bool sustainable = false;
};

/// Publishes events [begin, end) in batches of `batch`; open loop at `rate`
/// events/s when rate > 0 (each batch sent when its last event is due),
/// closed loop otherwise.
void PublishSlice(mr::ClusterTransport* transport,
                  const std::vector<mr::EdgeEvent>& events, size_t begin,
                  size_t end, size_t batch, double rate,
                  std::vector<std::atomic<int64_t>>* due_ns,
                  LogHistogram* late_us, Tracer* tracer, CallCounts* calls) {
  if (rate > 0) {
    const int64_t t0 = NowNs() + 2'000'000;
    for (size_t i = begin; i < end; ++i) {
      (*due_ns)[i].store(
          t0 + static_cast<int64_t>(static_cast<double>(i - begin) * 1e9 /
                                    rate),
          std::memory_order_relaxed);
    }
  }
  for (size_t i = begin; i < end; i += batch) {
    const size_t n = std::min(batch, end - i);
    if (rate > 0) {
      const int64_t due =
          (*due_ns)[i + n - 1].load(std::memory_order_relaxed);
      const int64_t now = NowNs();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      // One sample per event: each is sent this late against its batch's
      // schedule.
      late_us->Add(static_cast<double>(NowNs() - due) / 1e3, n);
    }
    tracer->Begin(SpanName::kPublish);
    const mr::Status status =
        transport->PublishBatch(std::span(events.data() + i, n));
    tracer->End();
    calls->Add(status);
  }
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

std::string EncodeDynamic(const mr::PartitionServer& server) {
  std::string out;
  server.EncodeDynamicState(&out);
  return out;
}

/// Reference: an inline, single-threaded Cluster per partition of a
/// kReferencePartitions-wide partition group, all run over the same events,
/// one thread each. A user's recommendations come from the partition that
/// owns the user, whatever the partition count, so their union must equal
/// the deployment's output however that cuts its users; the threads only
/// shorten the wait. It advances in steps, so the recoveries can be timed
/// between them.
class Reference {
 public:
  Reference(const Spec& spec, const Inputs& inputs, size_t window_begin,
            size_t window_end)
      : inputs_(inputs),
        window_begin_(window_begin),
        window_end_(window_end),
        parts_(kReferencePartitions) {
    for (uint32_t p = 0; p < kReferencePartitions; ++p) {
      mr::ClusterOptions copt = MakeClusterOptions(spec);
      copt.replicas_per_partition = 1;  // replicas never change the output
      copt.group_size = kReferencePartitions;
      copt.group_partition = p;
      parts_[p].cluster = TakeOrDie(
          mr::Cluster::Create(inputs.follow_graph, copt), "reference");
    }
  }

  /// Runs every partition over the events up to `end`.
  void Advance(size_t end) {
    std::vector<std::thread> threads;
    for (Part& part : parts_) {
      threads.emplace_back([&, end] {
        std::vector<mr::Recommendation> out;
        for (size_t i = next_; i < end; ++i) {
          out.clear();
          CheckOk(part.cluster->OnEdgeEvent(inputs_.events[i], &out),
                  "reference OnEdge");
          const bool in_window = i >= window_begin_ && i < window_end_;
          for (const mr::Recommendation& rec : out) {
            part.all.Add(rec);
            if (in_window) part.window.Add(rec);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    next_ = end;
  }

  RecDigest all() const {
    RecDigest merged;
    for (const Part& part : parts_) merged.Merge(part.all);
    return merged;
  }
  /// Over events [window_begin, window_end).
  RecDigest window() const {
    RecDigest merged;
    for (const Part& part : parts_) merged.Merge(part.window);
    return merged;
  }

 private:
  struct Part {
    std::unique_ptr<mr::Cluster> cluster;
    RecDigest all;
    RecDigest window;
  };
  const Inputs& inputs_;
  const size_t window_begin_;
  const size_t window_end_;
  std::vector<Part> parts_;
  size_t next_ = 0;
};

/// Per-layer results of the mirror pass.
struct MirrorResult {
  MirrorCounters counters;
  double s_build_ms = 0;
  RecDigest digest;
  uint64_t mismatched_events = 0;
  bool stats_match = true;
};

/// The detector and its mirror, on every partition's shard, traced over
/// events [begin, end) after ingesting the events before `begin` into both
/// (the warm-up, so the traced events see the run's D). The two alternate
/// which runs first per event so that neither always finds the other's
/// lists in cache.
MirrorResult RunMirror(const Spec& spec, const Inputs& inputs, size_t begin,
                       size_t end, Tracer* tracer) {
  MirrorResult result;
  const int64_t build_start = NowNs();
  const mr::StaticGraph full_index = inputs.follow_graph.Transpose();
  const mr::HashPartitioner partitioner(spec.partitions);
  std::vector<std::unique_ptr<mr::StaticGraph>> shards;
  for (uint32_t p = 0; p < spec.partitions; ++p) {
    shards.push_back(std::make_unique<mr::StaticGraph>(TakeOrDie(
        mr::BuildPartitionShard(full_index, partitioner, p), "shard")));
    shards.back()->BuildHubIndex();
  }
  result.s_build_ms = Millis(NowNs() - build_start);

  const mr::DiamondOptions options;  // the program's defaults
  std::vector<std::unique_ptr<mr::DiamondDetector>> detectors;
  std::vector<std::unique_ptr<MirrorDetector>> mirrors;
  for (const auto& shard : shards) {
    detectors.push_back(
        std::make_unique<mr::DiamondDetector>(shard.get(), options));
    mirrors.push_back(
        std::make_unique<MirrorDetector>(shard.get(), options, tracer));
  }
  std::vector<mr::DiamondStats> before;
  for (size_t p = 0; p < shards.size(); ++p) {
    for (size_t i = 0; i < begin; ++i) {
      const mr::TimestampedEdge& e = inputs.events[i].edge;
      CheckOk(detectors[p]->Ingest(e.src, e.dst, e.created_at),
              "detector Ingest");
      CheckOk(mirrors[p]->Ingest(e.src, e.dst, e.created_at), "mirror Ingest");
    }
    before.push_back(detectors[p]->stats());
  }
  std::vector<mr::Recommendation> real_out;
  std::vector<mr::Recommendation> mirror_out;
  for (size_t i = begin; i < end; ++i) {
    const mr::TimestampedEdge& e = inputs.events[i].edge;
    bool mismatch = false;
    for (size_t p = 0; p < shards.size(); ++p) {
      real_out.clear();
      mirror_out.clear();
      auto run_real = [&] {
        const int64_t start = NowNs();
        CheckOk(detectors[p]->OnEdge(e.src, e.dst, e.created_at, &real_out),
                "detector OnEdge");
        tracer->Add(SpanName::kOnEdge, start, NowNs());
      };
      auto run_mirror = [&] {
        CheckOk(mirrors[p]->OnEdge(e.src, e.dst, e.created_at, &mirror_out),
                "mirror OnEdge");
      };
      if (i % 2 == 0) {
        run_real();
        run_mirror();
      } else {
        run_mirror();
        run_real();
      }
      if (real_out != mirror_out) mismatch = true;
      for (const mr::Recommendation& rec : mirror_out) result.digest.Add(rec);
    }
    if (mismatch) ++result.mismatched_events;
  }
  for (size_t p = 0; p < shards.size(); ++p) {
    const mr::DiamondStats& real = detectors[p]->stats();
    const mr::DiamondStats& base = before[p];
    const MirrorCounters& mirror = mirrors[p]->counters();
    if (real.events - base.events != mirror.events ||
        real.threshold_queries - base.threshold_queries !=
            mirror.threshold_queries ||
        real.raw_candidates - base.raw_candidates !=
            mirror.threshold_matches ||
        real.recommendations - base.recommendations !=
            mirror.recommendations) {
      result.stats_match = false;
    }
    MirrorCounters& sum = result.counters;
    sum.events += mirror.events;
    sum.actors += mirror.actors;
    sum.threshold_queries += mirror.threshold_queries;
    sum.gather_elems += mirror.gather_elems;
    sum.threshold_elems += mirror.threshold_elems;
    sum.threshold_calls += mirror.threshold_calls;
    sum.threshold_matches += mirror.threshold_matches;
    sum.suppress_calls += mirror.suppress_calls;
    sum.recommendations += mirror.recommendations;
    for (size_t a = 0; a < sum.algorithm.size(); ++a) {
      sum.algorithm[a] += mirror.algorithm[a];
    }
  }
  return result;
}

/// Persistence measured beside a deployment whose serving path has no WAL,
/// and the per-layer WAL append cost on every workload. Construction logs
/// the run's events with a harness-owned WalWriter and, when asked to,
/// snapshots partition 0's D where the warm-up ends; each Recover() then
/// recovers a fresh replica of partition 0 from that snapshot + WAL.
class PersistProbe {
 public:
  PersistProbe(const Spec& spec, const Inputs& inputs, size_t checkpoint_at,
               const std::string& dir, const mr::Cluster* live, bool recover,
               Tracer* tracer)
      : tracer_(tracer) {
    popt_.dir = dir;
    if (spec.durable) {
      popt_.sync_each_append = true;
      popt_.fsync_batch = kFsyncBatch;
    }
    auto wal = TakeOrDie(mr::WalWriter::Open(popt_), "probe WAL open");
    constexpr size_t kChunk = 256;
    for (size_t i = 0; i < inputs.events.size(); i += kChunk) {
      const size_t n = std::min(kChunk, inputs.events.size() - i);
      const int64_t start = NowNs();
      for (size_t j = i; j < i + n; ++j) {
        CheckOk(wal->Append(inputs.events[j]), "probe WAL append");
      }
      const int64_t end = NowNs();
      tracer_->Add(SpanName::kWalAppend, start, end);
      append_ns += end - start;
      appends += n;
    }
    CheckOk(wal->Sync(), "probe WAL sync");
    wal_stats = wal->stats();
    CheckOk(wal->Close(), "probe WAL close");
    if (!recover) return;

    partition_ = live->owned_partitions().front();
    const mr::PartitionServer& live_server = live->server(partition_, 0);
    live_state_ = EncodeDynamic(live_server);
    // The shard stays owned by the live cluster, which outlives the probe.
    shard_ = std::shared_ptr<const mr::StaticGraph>(
        std::shared_ptr<const mr::StaticGraph>(), &live_server.shard());
    mr::DiamondDetector cut(&live_server.shard(), options_);
    for (size_t i = 0; i < checkpoint_at; ++i) {
      const mr::TimestampedEdge& e = inputs.events[i].edge;
      CheckOk(cut.Ingest(e.src, e.dst, e.created_at), "probe ingest");
    }
    const int64_t start = NowNs();
    CheckOk(mr::RecoveryManager(popt_).Checkpoint(
                cut, nullptr, partition_, checkpoint_at,
                inputs.events[checkpoint_at - 1].edge.created_at),
            "probe checkpoint");
    const int64_t end = NowNs();
    tracer_->Add(SpanName::kCheckpoint, start, end);
    checkpoint_ms = Millis(end - start);
  }

  /// One timed recovery. The WAL holds the whole run, so every recovery
  /// must rebuild the live replica's state.
  void Recover() {
    auto fresh =
        mr::PartitionServer::CreateWithShard(shard_, partition_, options_);
    const int64_t start = NowNs();
    CheckOk(mr::RecoveryManager(popt_).RecoverPartitionServer(fresh.get(),
                                                              &recovery),
            "probe recovery");
    const int64_t end = NowNs();
    tracer_->Add(SpanName::kRecover, start, end);
    recovery_s.push_back(Seconds(end - start));
    if (EncodeDynamic(*fresh) != live_state_) state_match = false;
  }

  uint64_t appends = 0;
  int64_t append_ns = 0;
  mr::WalWriterStats wal_stats;
  double checkpoint_ms = 0;
  std::vector<double> recovery_s;
  mr::RecoveryStats recovery;
  bool state_match = true;

 private:
  Tracer* tracer_;
  mr::PersistOptions popt_;
  const mr::DiamondOptions options_;
  uint32_t partition_ = 0;
  std::string live_state_;
  std::shared_ptr<const mr::StaticGraph> shard_;
};

/// The wire codec on the run's publish batches, timed on the harness side:
/// what every broker -> daemon lane encodes and every daemon decodes.
struct CodecProbe {
  int64_t encode_ns = 0;
  int64_t decode_ns = 0;
  uint64_t frame_bytes = 0;
  bool round_trip = true;
};

CodecProbe RunCodecProbe(const std::vector<mr::EdgeEvent>& events,
                         const Plan& plan, size_t batch, Tracer* tracer) {
  CodecProbe probe;
  std::string frame;
  std::vector<mr::EdgeEvent> decoded;
  for (size_t i = 0; i < plan.total(); i += batch) {
    const size_t n = std::min(batch, plan.total() - i);
    const std::span<const mr::EdgeEvent> slice(events.data() + i, n);
    frame.clear();
    int64_t start = NowNs();
    net::AppendPublishBatch(slice, &frame);
    int64_t end = NowNs();
    tracer->Add(SpanName::kEncode, start, end);
    probe.encode_ns += end - start;
    probe.frame_bytes += frame.size();

    decoded.clear();
    start = NowNs();
    uint32_t body_len = 0;
    uint32_t crc = 0;
    net::MessageTag tag;
    mr::Status status = net::DecodeFrameHeader(
        reinterpret_cast<const uint8_t*>(frame.data()), &body_len, &crc);
    if (status.ok()) {
      status = net::DecodeFrameBody(
          reinterpret_cast<const uint8_t*>(frame.data()) +
              net::kFrameHeaderBytes,
          body_len, crc, &tag);
    }
    if (status.ok()) {
      status = net::DecodePublishBatch(
          std::string_view(frame).substr(net::kFrameHeaderBytes + 1),
          &decoded);
    }
    end = NowNs();
    tracer->Add(SpanName::kDecode, start, end);
    probe.decode_ns += end - start;
    if (!status.ok() || decoded.size() != n) {
      probe.round_trip = false;
      continue;
    }
    for (size_t j = 0; j < n; ++j) {
      if (decoded[j].edge.src != slice[j].edge.src ||
          decoded[j].edge.dst != slice[j].edge.dst ||
          decoded[j].edge.created_at != slice[j].edge.created_at) {
        probe.round_trip = false;
      }
    }
  }
  return probe;
}

int Run(Args args) {
  // The only environment variable src/ reads; CI's server-loop matrix sets
  // it. The benchmark measures the loop users get by default.
  ::unsetenv("MAGICRECS_SERVER_LOOP");
  const std::string server_loop(
      net::ServerLoopFlag(net::ResolveServerLoop(net::ServerLoop::kAuto)));

  const Spec spec = ReadSpec(&args.config);
  const Plan plan = MakePlan(spec, args.seconds);
  std::filesystem::create_directories(args.workdir);
  Progress("%s seed=%llu seconds=%g trace=%d server_loop=%s events=%zu",
           args.workload.c_str(), static_cast<unsigned long long>(args.seed),
           args.seconds, args.trace ? 1 : 0, server_loop.c_str(),
           plan.total());

  // 1. Inputs (untimed).
  const Inputs inputs = Generate(spec, args.seed, plan.total());
  const EventIndex event_index(inputs.events);
  std::vector<uint8_t> phase_of(plan.total(), 0);
  for (const Segment& segment : plan.segments) {
    for (size_t i = segment.begin; i < segment.end; ++i) {
      phase_of[i] = static_cast<uint8_t>(segment.phase);
    }
  }
  std::vector<std::atomic<int64_t>> due_ns(plan.total());
  Progress("generated %zu users, %zu edges, %zu events",
           inputs.follow_graph.num_vertices(), inputs.follow_graph.num_edges(),
           inputs.events.size());
  Tracer main_tracer(args.trace);
  Tracer gather_tracer(args.trace);
  CallCounts calls;
  std::vector<RungResult> rungs(spec.rungs_eps.size());
  Gatherer gatherer(&event_index, &due_ns, &phase_of, plan.phases(),
                    &gather_tracer);

  // rss_peak_mb is the program's memory: the peak resident set size while
  // it serves, less what the process holds before the first set-up. Every
  // harness structure the timed phases write to is allocated by now, and
  // the generator's freed temporaries go back to the system first so the
  // program cannot reuse their pages unseen.
  ::malloc_trim(0);
  const uint64_t rss_base = CurrentRss();

  // 2. Set-up, repeated; the last deployment serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> deployment;
  for (int s = 0; s < spec.setup_repeats; ++s) {
    deployment.reset();
    const std::string persist_dir =
        args.workdir + "/cluster-" + std::to_string(s);
    RemoveTree(persist_dir);
    const int64_t start = NowNs();
    deployment = Deploy(spec, inputs, persist_dir, args.trace);
    setup_s.push_back(Seconds(NowNs() - start));
  }
  mr::ClusterTransport* transport = deployment->transport;
  Progress("set up %d times, median %.3f s", spec.setup_repeats,
           Median(setup_s));

  // 3-4. Timed phases, with the gatherer on its cadence throughout.
  gatherer.Start(transport);

  PublishSlice(transport, inputs.events, plan.warmup().begin,
               plan.warmup().end, spec.batch_events, 0, &due_ns, nullptr,
               &main_tracer, &calls);
  main_tracer.Begin(SpanName::kDrain);
  calls.Add(transport->Drain());
  main_tracer.End();
  gatherer.AwaitFreshTake();
  Progress("warm-up: %zu events", plan.warmup().end);
  double cluster_checkpoint_ms = 0;
  if (spec.durable) {
    // Mid-stream checkpoint: the WAL keeps growing behind it through the
    // timed phases, and recovery later replays that tail.
    main_tracer.Begin(SpanName::kCheckpoint);
    const int64_t start = NowNs();
    calls.Add(transport->Checkpoint(
        inputs.events[plan.warmup().end - 1].edge.created_at));
    cluster_checkpoint_ms = Millis(NowNs() - start);
    main_tracer.End();
  }

  // The rounds. ingest_eps is the closed loop's events over its time, summed
  // over the rounds' slices, each published and drained on its own clock.
  size_t closed_events = 0;
  int64_t closed_ns = 0;
  for (size_t r = 0; r < plan.rounds(); ++r) {
    const Segment& closed = plan.closed(r);
    int64_t start = NowNs();
    PublishSlice(transport, inputs.events, closed.begin, closed.end,
                 spec.batch_events, 0, &due_ns, nullptr, &main_tracer, &calls);
    main_tracer.Begin(SpanName::kDrain);
    calls.Add(transport->Drain());
    main_tracer.End();
    closed_ns += NowNs() - start;
    closed_events += closed.end - closed.begin;
    gatherer.AwaitFreshTake();

    const Segment& slot = plan.rung(r);
    RungResult& rung = rungs[r];
    rung.rate = spec.rungs_eps[r];
    PublishSlice(transport, inputs.events, slot.begin, slot.end,
                 spec.batch_events, rung.rate, &due_ns, &rung.late_us,
                 &main_tracer, &calls);
    main_tracer.Begin(SpanName::kDrain);
    start = NowNs();
    calls.Add(transport->Drain());
    rung.drain_ms = Millis(NowNs() - start);
    main_tracer.End();
    gatherer.AwaitFreshTake();
  }
  const double ingest_eps =
      static_cast<double>(closed_events) / Seconds(closed_ns);
  Progress("closed loop: %zu events in %zu slices, %.1f events/s",
           closed_events, plan.rounds(), ingest_eps);
  Progress("ladder: %zu rungs", rungs.size());
  gatherer.StopAfterNextTick();
  calls.attempted += gatherer.takes();
  calls.failed += gatherer.failed_takes();

  main_tracer.Begin(SpanName::kGetStats);
  const mr::ClusterStats stats =
      TakeOrDie(transport->GetStats(), "cluster stats");
  main_tracer.End();
  const uint64_t dropped = stats.replay_dropped_events + stats.rescue_dropped;

  // Sustainability and latency per rung: a rung is sustainable when its
  // backlog drains, its recommendations arrive and its generator keeps its
  // schedule, each within the workload's latency limit (load <= 1).
  size_t named = 0;
  LogHistogram late_us;  // over every rung
  for (size_t r = 0; r < rungs.size(); ++r) {
    RungResult& rung = rungs[r];
    const LogHistogram& lat = gatherer.latency_ms(kFirstRungPhase + r);
    rung.samples = lat.count();
    rung.p50_ms = lat.Quantile(0.5);
    rung.p99_ms = lat.Quantile(0.99);
    late_us.Merge(rung.late_us);
    rung.load = std::max({rung.p99_ms, rung.drain_ms,
                          rung.late_us.Quantile(0.99) / 1e3}) /
                spec.latency_limit_ms;
    rung.sustainable = rung.samples > 0 && rung.load <= 1;
    if (rung.rate == spec.latency_rung_eps) named = r;
  }
  // sustainable_eps: every rung that failed tells the rate at which it
  // would just have held. Past the capacity c, a slot of T seconds at rate
  // r leaves a backlog that drains in T (r / c - 1), and the latencies grow
  // with it; so a rung whose load is l would have met the limit L at
  // r (T + L) / (T + l L). The figure is the median of these over the rungs
  // that failed, or the top rung when none did. The stream's slices differ
  // in cost (on celebrity-ingest a light slice holds at 1.7 times the rate a
  // heavy one fails at), so which rung is the highest to hold, or how many
  // hold, flips from run to run; each failing rung's estimate moves only
  // with the capacity on its own slice, and their median with the capacity
  // over the whole ladder.
  const double slot_s = plan.slot_seconds;
  const double limit_s = spec.latency_limit_ms / 1e3;
  std::vector<double> would_hold_eps;
  for (const RungResult& rung : rungs) {
    if (rung.load > 1) {
      would_hold_eps.push_back(rung.rate * (slot_s + limit_s) /
                               (slot_s + rung.load * limit_s));
    }
  }
  const double sustainable_eps = would_hold_eps.empty()
                                     ? rungs.back().rate
                                     : Median(would_hold_eps);

  // 5. Recovery, timed between the steps of the reference (6), so the
  // repeats spread over a stretch of the run as long as the timed phases.
  const size_t mirror_begin = plan.warmup().end;  // the mirror traces the
  const size_t mirror_end =                       // events after the warm-up
      std::min(mirror_begin + spec.mirror_events, plan.total());
  Reference reference(spec, inputs, mirror_begin, mirror_end);
  Tracer persist_tracer(args.trace);
  std::unique_ptr<PersistProbe> probe;
  if (args.trace || !spec.durable) {
    const std::string probe_dir = args.workdir + "/probe";
    RemoveTree(probe_dir);
    probe = std::make_unique<PersistProbe>(
        spec, inputs, plan.warmup().end, probe_dir, &deployment->ClusterOf(0),
        !spec.durable, &persist_tracer);
  }
  std::vector<double> recovery_s;
  mr::RecoveryStats recovery_stats;
  bool recovery_state_match = true;
  const size_t repeats = static_cast<size_t>(spec.recovery_repeats);
  for (size_t k = 0; k < repeats; ++k) {
    reference.Advance(plan.total() * k / repeats);
    if (spec.durable) {
      mr::Cluster& cluster = deployment->ClusterOf(0);
      const uint32_t victim = spec.replicas - 1;
      CheckOk(transport->KillReplica(0, victim), "kill replica");
      main_tracer.Begin(SpanName::kRecover);
      const int64_t start = NowNs();
      CheckOk(cluster.RecoverReplica(0, victim, &recovery_stats),
              "recover replica");
      recovery_s.push_back(Seconds(NowNs() - start));
      main_tracer.End();
      if (EncodeDynamic(cluster.server(0, victim)) !=
          EncodeDynamic(cluster.server(0, 0))) {
        recovery_state_match = false;
      }
    } else {
      probe->Recover();
    }
  }
  reference.Advance(plan.total());
  if (!spec.durable) {
    recovery_s = probe->recovery_s;
    recovery_stats = probe->recovery;
    recovery_state_match = probe->state_match;
  }
  Progress("recovery median %.6f s", Median(recovery_s));

  // Per-layer results that need the deployment, then tear it down. The
  // daemon tracers move out first so their spans outlive the servers.
  std::vector<std::unique_ptr<LockedTracer>> daemon_tracers =
      std::move(deployment->daemon_tracers);
  uint64_t daemon_taken = 0;
  for (const auto& wrapper : deployment->daemon_spans) {
    daemon_taken += wrapper->taken();
  }
  mr::WalWriterStats cluster_wal;
  if (spec.durable) cluster_wal = deployment->ClusterOf(0).wal()->stats();
  deployment.reset();  // joins every server and worker thread
  std::vector<const Tracer*> tracers = {&main_tracer, &gather_tracer,
                                        &persist_tracer};
  for (const auto& daemon : daemon_tracers) {
    tracers.push_back(&daemon->tracer());
  }

  Progress("reference digest %s, gathered %s",
           reference.all().ToString().c_str(),
           gatherer.digest().ToString().c_str());
  // Report.
  std::vector<Metric> metrics;
  auto add = [&metrics](const std::string& name, double value,
                        const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  };
  auto add_pct = [&metrics](const std::string& name, double value,
                            const std::string& unit, uint64_t samples,
                            double q) {
    metrics.push_back(Metric{name, value, unit, samples, q});
  };
  const RungResult& at = rungs[named];
  std::map<std::string, bool> checks;
  checks["digest_match"] = gatherer.digest() == reference.all();
  checks["every_rec_mapped"] = gatherer.unmatched() == 0;
  checks["recovered_state_match"] = recovery_state_match;
  checks["no_failed_calls"] = calls.failed == 0 && dropped == 0;

  if (!args.trace) {
    add("ingest_eps", ingest_eps, "events/s");
    add("sustainable_eps", sustainable_eps, "events/s");
    add_pct("rec_latency_p50_ms", at.p50_ms, "ms", at.samples, 0.5);
    add_pct("rec_latency_p99_ms", at.p99_ms, "ms", at.samples, 0.99);
    add("setup_s", Median(setup_s), "s");
    add("rss_peak_mb",
        static_cast<double>(gatherer.rss_peak() - rss_base) / (1024.0 * 1024.0),
        "MB");
    add("recovery_s", Median(recovery_s), "s");
  } else {
    // 7. Traced-only layers.
    Tracer mirror_tracer(true);
    const MirrorResult mirror =
        RunMirror(spec, inputs, mirror_begin, mirror_end, &mirror_tracer);
    Tracer codec_tracer(true);
    const CodecProbe codec =
        RunCodecProbe(inputs.events, plan, spec.batch_events, &codec_tracer);
    Progress("mirror: %llu detector calls traced, %llu events mismatched",
             static_cast<unsigned long long>(mirror.counters.events),
             static_cast<unsigned long long>(mirror.mismatched_events));
    checks["mirror_recs_match"] = mirror.mismatched_events == 0;
    checks["mirror_stats_match"] = mirror.stats_match;
    checks["mirror_digest_match"] = mirror.digest == reference.window();
    checks["codec_round_trip"] = codec.round_trip;
    tracers.push_back(&mirror_tracer);
    tracers.push_back(&codec_tracer);

    std::array<SpanTotals, static_cast<size_t>(SpanName::kCount)> t;
    for (const Tracer* tracer : tracers) tracer->MergeInto(&t);
    auto T = [&t](SpanName name) -> SpanTotals& {
      return t[static_cast<size_t>(name)];
    };
    const MirrorCounters& c = mirror.counters;
    const double events = static_cast<double>(c.events);

    auto count = [&add](const std::string& name, uint64_t value) {
      add(name, static_cast<double>(value), "count");
    };
    auto self_ms = [&add, &T](const std::string& name, SpanName span) {
      add(name, Millis(T(span).self_ns), "ms");
    };
    auto pct_us = [&add_pct](const std::string& name, const SpanTotals& span,
                             double q) {
      add_pct(name, Quantile(span.durations_us, q), "us",
              span.durations_us.size(), q);
    };
    auto ratio = [&add](const std::string& name, double num, double den) {
      add(name, den == 0 ? 0.0 : num / den, "ratio");
    };

    // graph
    count("graph.d_insert.calls", T(SpanName::kDInsert).calls);
    self_ms("graph.d_insert.self_ms", SpanName::kDInsert);
    self_ms("graph.d_window.self_ms", SpanName::kDWindow);
    add("graph.d_window.actors_mean", static_cast<double>(c.actors) / events,
        "count");
    self_ms("graph.s_gather.self_ms", SpanName::kSGather);
    count("graph.s_gather.elems", c.gather_elems);
    count("graph.suppress.calls", c.suppress_calls);
    self_ms("graph.suppress.self_ms", SpanName::kSuppress);
    add("graph.d_bytes", static_cast<double>(stats.dynamic_memory_bytes),
        "bytes");
    add("graph.s_bytes", static_cast<double>(stats.static_memory_bytes),
        "bytes");
    add("graph.s_build_ms", mirror.s_build_ms, "ms");
    // intersect
    const SpanTotals& th = T(SpanName::kThreshold);
    count("intersect.threshold.calls", th.calls);
    self_ms("intersect.threshold.self_ms", SpanName::kThreshold);
    pct_us("intersect.threshold.p99_us", th, 0.99);
    count("intersect.threshold.elems_in", c.threshold_elems);
    count("intersect.threshold.matches", c.threshold_matches);
    auto algo = [&c](mr::ThresholdAlgorithm a) {
      return c.algorithm[static_cast<size_t>(a)];
    };
    count("intersect.algo.scan_count",
          algo(mr::ThresholdAlgorithm::kScanCount));
    count("intersect.algo.heap_merge",
          algo(mr::ThresholdAlgorithm::kHeapMerge));
    count("intersect.algo.candidate_verify",
          algo(mr::ThresholdAlgorithm::kCandidateVerify));
    // core
    const SpanTotals& oe = T(SpanName::kOnEdge);
    count("core.on_edge.calls", oe.calls);
    self_ms("core.on_edge.self_ms", SpanName::kOnEdge);
    pct_us("core.on_edge.p50_us", oe, 0.5);
    pct_us("core.on_edge.p99_us", oe, 0.99);
    self_ms("core.emit.self_ms", SpanName::kEmit);
    ratio("core.query_ratio", static_cast<double>(c.threshold_queries), events);
    ratio("core.yield", static_cast<double>(c.recommendations),
          static_cast<double>(c.threshold_matches));
    count("core.recs", c.recommendations);
    const int64_t layers_ns =
        T(SpanName::kDInsert).self_ns + T(SpanName::kDWindow).self_ns +
        T(SpanName::kSGather).self_ns + th.self_ns +
        T(SpanName::kSuppress).self_ns + T(SpanName::kEmit).self_ns;
    add("core.mirror_coverage",
        static_cast<double>(layers_ns) / static_cast<double>(oe.self_ns),
        "ratio");
    // cluster: the calls into the cluster's own transport, made by the
    // load generator in-process or by the daemons on the wire workload.
    const SpanName c_publish =
        spec.fanout ? SpanName::kDaemonPublish : SpanName::kPublish;
    const SpanName c_drain =
        spec.fanout ? SpanName::kDaemonDrain : SpanName::kDrain;
    const SpanName c_take =
        spec.fanout ? SpanName::kDaemonTake : SpanName::kTake;
    const SpanTotals& cp = T(c_publish);
    count("cluster.publish.calls", cp.calls);
    add("cluster.publish.busy_ms", Millis(cp.total_ns), "ms");
    pct_us("cluster.publish.p99_us", cp, 0.99);
    add("cluster.drain.wait_ms", Millis(T(c_drain).total_ns), "ms");
    const SpanTotals& ct = T(c_take);
    count("cluster.take.calls", ct.calls);
    add("cluster.take.busy_ms", Millis(ct.total_ns), "ms");
    add("cluster.take.recs_mean",
        static_cast<double>(spec.fanout ? daemon_taken
                                        : gatherer.digest().count()) /
            static_cast<double>(std::max<uint64_t>(ct.calls, 1)),
        "count");
    double backlog_max = 0;
    for (const RungResult& rung : rungs) {
      backlog_max = std::max(backlog_max, rung.drain_ms / 1e3 * ingest_eps);
    }
    add("cluster.backlog_max", backlog_max, "events");
    ratio("cluster.ingest_amplification",
          static_cast<double>(stats.detector_events),
          static_cast<double>(stats.events_published));
    // persist
    count("persist.wal_append.calls", probe->appends);
    add("persist.wal_append.self_ms", Millis(probe->append_ns), "ms");
    const mr::WalWriterStats& wal =
        spec.durable ? cluster_wal : probe->wal_stats;
    add("persist.wal.bytes", static_cast<double>(wal.bytes_appended), "bytes");
    count("persist.wal.fsyncs", wal.fsyncs);
    add("persist.checkpoint.ms",
        spec.durable ? cluster_checkpoint_ms : probe->checkpoint_ms, "ms");
    add("persist.snapshot.bytes",
        static_cast<double>(recovery_stats.snapshot_bytes), "bytes");
    count("persist.recover.replayed", recovery_stats.events_replayed);
    add("persist.recover.wal_bytes_read",
        static_cast<double>(recovery_stats.wal_bytes_read), "bytes");
    // net: the load generator's and gatherer's transport calls (the broker
    // on the wire workload; in-process calls elsewhere) and the codec.
    const SpanTotals& np = T(SpanName::kPublish);
    count("net.publish_batch.calls", np.calls);
    add("net.publish_batch.busy_ms", Millis(np.total_ns), "ms");
    pct_us("net.publish_batch.p99_us", np, 0.99);
    pct_us("net.take.rtt_p50_us", T(SpanName::kTake), 0.5);
    pct_us("net.take.rtt_p99_us", T(SpanName::kTake), 0.99);
    const SpanTotals& nd = T(SpanName::kDrain);
    add("net.drain.rtt_us",
        static_cast<double>(nd.total_ns) / 1e3 /
            static_cast<double>(std::max<uint64_t>(nd.calls, 1)),
        "us");
    add("net.encode.self_ms", Millis(codec.encode_ns), "ms");
    add("net.decode.self_ms", Millis(codec.decode_ns), "ms");
    add("net.wire_bytes",
        static_cast<double>(codec.frame_bytes) *
            (spec.fanout ? spec.partitions : 1),
        "bytes");
    count("net.server.requests_served", stats.server.requests_served);
    count("net.server.partial_writes", stats.server.partial_writes);
    count("net.server.inflight_stalls", stats.server.inflight_stalls);
    count("net.retries", stats.hedged_publishes);
    count("net.dropped", dropped);
    // harness
    add_pct("harness.gen_late_p99_us", late_us.Quantile(0.99), "us",
            late_us.count(), 0.99);
    add("harness.gather_cadence_ms", gatherer.mean_interval_ms(), "ms");
    add("harness.trace_overhead",
        static_cast<double>(T(SpanName::kMirrorOnEdge).total_ns) /
                static_cast<double>(oe.total_ns) -
            1.0,
        "ratio");
  }

  for (const RungResult& rung : rungs) {
    Progress("rung %6.0f events/s: latency p50 %8.2f p99 %8.2f ms (%llu "
             "samples), late p99 %8.1f us, drain %8.2f ms%s",
             rung.rate, rung.p50_ms, rung.p99_ms,
             static_cast<unsigned long long>(rung.samples),
             rung.late_us.Quantile(0.99), rung.drain_ms,
             rung.sustainable ? "" : "  UNSUSTAINABLE");
  }

  std::string json = "{\"workload\":" + JsonString(args.workload) +
                     ",\"seed\":" + std::to_string(args.seed) +
                     ",\"trace\":" + (args.trace ? "1" : "0") +
                     ",\"server_loop\":" + JsonString(server_loop) +
                     ",\"attempted\":" + std::to_string(calls.attempted) +
                     ",\"failed\":" + std::to_string(calls.failed + dropped) +
                     ",\"checks\":{";
  bool first = true;
  for (const auto& [name, ok] : checks) {
    json += (first ? "" : ",") + JsonString(name) + (ok ? ":true" : ":false");
    first = false;
  }
  json += "},\"metrics\":{";
  first = true;
  for (const Metric& m : metrics) {
    json += (first ? "" : ",") + JsonString(m.name) +
            ":{\"value\":" + JsonNumber(m.value) +
            ",\"unit\":" + JsonString(m.unit);
    if (m.quantile >= 0) {
      json += ",\"samples\":" + std::to_string(m.samples) +
              ",\"quantile\":" + JsonNumber(m.quantile);
    }
    json += "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  RemoveTree(args.workdir);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
