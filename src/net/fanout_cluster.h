// The broker side of the paper's production deployment: ~20 partition
// servers on separate machines, each consuming the entire edge stream,
// behind a broker that fans events out and gathers recommendations back.
// FanoutCluster is that broker as a ClusterTransport — drivers written
// against the seam (tests, benches, the stream simulator) run unchanged
// against N magicrecsd processes, one per partition.
//
// Topology: each endpoint is one daemon. Either
//   * one endpoint hosting the whole cluster (partition = kAllPartitions):
//     the single-daemon deployment, and the way to drive any one daemon
//     over TCP (examples/remote_quickstart.cpp), or
//   * N endpoints, each a partition-group member hosting exactly one global
//     partition (magicrecsd --partition-group=N --partition-id=p), covering
//     partitions 0..N-1.
//
// Routing: Publish/PublishBatch/Drain/TakeRecommendations/Checkpoint/Stats
// broadcast to every daemon — every partition must ingest the full stream
// (each holds a complete D copy), and a gather is the union of the per-
// partition results. KillReplica/RecoverReplica route to the one daemon
// hosting that partition. The group HashPartitioner is exposed through
// ClusterTransport::Partitioner() so callers can attribute a user (and its
// recommendations) to the daemon that owns it.
//
// Wire mechanics per daemon: ONE multiplexed connection
// (net/mux_connection.h), shared by every broker caller. Each logical call
// is a request_id on that socket; replies demultiplex to their callers, so
// concurrent gathers, stats probes, and publish pipelines coexist on the
// same connection without a leased-socket pool. A PublishBatch splits into
// chunked kPublishBatch frames and keeps up to max_inflight_frames of them
// outstanding (distinct request_ids) per daemon before awaiting acks,
// while the same bytes stream to every other daemon; daemons process
// concurrently, the client never blocks on one daemon before writing to
// the next.
//
// Failure handling per daemon: replies are bounded by a per-call recv
// timeout, a connection failure fails only that daemon's lane, and every
// error Status names the daemon (host:port and hosted partition) that
// produced it. A failed daemon opens a circuit-breaker window (doubling
// from reconnect_backoff_ms up to a cap): calls inside the window fail
// fast with Unavailable instead of stalling the healthy daemons, and the
// first call after it redials. A daemon kill mid-pipeline surfaces as a
// Status error on the call — never a crash or a wedged broker — and
// retrying after the daemon returns reconnects without rebuilding the
// broker (tests/net/fanout_cluster_test.cc). Recommendations already
// gathered when a gather fails — from healthy daemons, and any partial
// share a daemon streamed before dying mid-reply — are buffered (bounded;
// overflow is counted in ClusterStats::rescue_dropped) and delivered by
// the next successful TakeRecommendations: the take is destructive
// server-side, so dropping them would lose them, and a partial share must
// not sit in a merge whose report names its partition missing.
//
// Degraded-mode policy (FanoutClusterOptions::policy): the paper's
// deployment keeps serving recommendations while individual partition
// hosts fail. Under kQuorum / kBestEffort the broker trades the strict
// all-or-nothing contract for availability:
//   * gathers return the merged recommendations of whichever daemons
//     answered, as long as at least the quorum did; the partitions missing
//     from the merge are named by LastGatherReport() (and forwarded on the
//     wire when this broker itself sits behind an RpcServer);
//   * publishes to a daemon in reconnect backoff are queued in a bounded
//     per-daemon replay buffer and re-sent — in order, ahead of newer
//     traffic — once the daemon answers again; overflow is an explicit
//     ResourceExhausted, never a silent drop;
//   * a publish lane silent for hedge_after_ms is hedged: the unacked
//     frames are re-sent under fresh request_ids — on the same multiplexed
//     connection when it still stands (a server-side stall), or on a
//     redialed one when it died. Frames carry a batch sequence in degraded
//     mode, so the daemon suppresses the duplicate if the original did
//     land (RpcServer's dedup window); a duplicate racing the original's
//     still-in-flight apply is held until that apply resolves — an ack
//     always means the events landed — so a hedge routes around slowness,
//     while a stall that outlives the hedge window too fails the lane over
//     to the replay buffer;
//   * Drain and GetStats tolerate missing daemons under the same quorum;
//     Checkpoint, replica ops, and Ping stay strict under every policy —
//     durability and topology verification must not silently degrade.
// Degraded semantics are eventual, not exact: events parked in a replay
// buffer are invisible to Drain until flushed, so recommendations can
// trail into a later gather. Strict mode keeps the all-or-nothing
// contract.

#ifndef MAGICRECS_NET_FANOUT_CLUSTER_H_
#define MAGICRECS_NET_FANOUT_CLUSTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cluster/partitioner.h"
#include "cluster/transport.h"
#include "health/health_engine.h"
#include "health/health_monitor.h"
#include "net/frame_buf.h"
#include "net/mux_connection.h"
#include "net/wire.h"
#include "util/event_log.h"
#include "util/result.h"
#include "util/status.h"

namespace magicrecs::net {

/// One partition daemon behind the broker.
struct FanoutEndpoint {
  /// The daemon hosts every partition (single-daemon deployment).
  static constexpr uint32_t kAllPartitions = UINT32_MAX;

  std::string host = "127.0.0.1";
  uint16_t port = 0;

  /// Global partition this daemon hosts (magicrecsd --partition-id), or
  /// kAllPartitions.
  uint32_t partition = kAllPartitions;
};

/// How the broker behaves when some daemons are down (see the class
/// comment for the full contract).
enum class FanoutPolicy {
  kStrict,      ///< any daemon failure fails the call (PR 3 behavior)
  kQuorum,      ///< succeed when >= gather_quorum daemons answer
  kBestEffort,  ///< succeed with whatever answered, even nothing
};

std::string_view FanoutPolicyName(FanoutPolicy policy);

struct FanoutClusterOptions {
  std::vector<FanoutEndpoint> endpoints;

  /// Deployment-wide partition count, used to build the routing
  /// partitioner and validate endpoint coverage. 0 derives it from the
  /// endpoint list (endpoints.size() when partitions are explicit).
  uint32_t group_size = 0;

  /// Must match the daemons' partitioner salt (magicrecsd default: 0).
  uint64_t partitioner_salt = 0;

  /// Events per pipelined kPublishBatch frame.
  size_t publish_chunk_events = 256;

  /// Publish frames (request_ids) in flight per daemon before acks are
  /// awaited. The effective window also honors the cap an upgraded daemon
  /// advertises in its hello reply.
  size_t max_inflight_frames = 32;

  /// Reply timeout per logical call (0 = block forever).
  int recv_timeout_ms = 30'000;

  /// Dial timeout (0 = kernel default, which can be minutes against a
  /// silently dropping host).
  int connect_timeout_ms = 5'000;

  /// Reconnect backoff after a daemon failure: starts at the first value,
  /// doubles per consecutive failure, capped at the second.
  int reconnect_backoff_ms = 50;
  int max_reconnect_backoff_ms = 2'000;

  bool tcp_nodelay = true;

  /// Sample one publish in this many for end-to-end tracing (util/trace.h):
  /// the sampled batch's FIRST frame carries a trace tail toward every
  /// trace-negotiated daemon, the daemons' ack echoes fold back into one
  /// context, and the next gather stamps it complete. 0 disables tracing.
  /// Unsampled publishes emit bytes identical to a pre-trace broker.
  uint64_t trace_sample_every = 1024;

  /// When > 0, any logical call (publish ack, gather, stats) slower than
  /// this logs one stderr line — with the per-stage trace breakdown when
  /// the reply echoed one (MuxConnectionOptions::slow_call_us). 0 = off.
  int64_t slow_call_us = 0;

  // --- degraded-mode policy --------------------------------------------------

  FanoutPolicy policy = FanoutPolicy::kStrict;

  /// Daemons that must answer for a kQuorum gather/drain/stats to succeed.
  /// 0 = majority (endpoints/2 + 1). Ignored by the other policies.
  uint32_t gather_quorum = 0;

  /// Hedge threshold: a publish lane silent for this long has its unacked
  /// frames re-sent under fresh request_ids (once per daemon per call).
  /// 0 disables hedging. Strict mode never hedges.
  int hedge_after_ms = 0;

  /// Per-daemon replay buffer bound, in events. Publishes that cannot
  /// reach a daemon (backoff, connect failure, mid-pipeline death) are
  /// queued up to this bound and replayed when the daemon answers again;
  /// beyond it the publish returns ResourceExhausted and counts the
  /// overflow in ClusterStats::replay_dropped_events.
  size_t replay_buffer_events = 1 << 16;

  /// Bound on the partial-gather rescue buffer (recommendations already
  /// taken from healthy daemons when a gather failed, owed to the next
  /// successful take). Overflow drops the newest rescued entries and
  /// counts them in ClusterStats::rescue_dropped.
  size_t max_pending_recommendations = 1 << 16;

  // --- health autopilot ------------------------------------------------------

  /// Run the broker-side health engine: a monitor thread samples the
  /// registry every health_interval_ms, scores every daemon plus the
  /// broker itself (src/health/health_engine.h), publishes
  /// `health{party=...}` gauges, journals transitions — and flips the
  /// ACTIVE policy strict→quorum while any daemon is unhealthy, then back
  /// once every party has been healthy through the engine's dwell +
  /// recovery hysteresis AND every replay buffer has drained (flipping to
  /// strict with frames still parked would strand them). Only meaningful
  /// when `policy` is kStrict: a configured degraded policy is already at
  /// or past what the autopilot would flip to, so it is left alone.
  bool autopilot = false;

  /// Evaluation cadence of the broker health engine.
  int health_interval_ms = 250;

  /// Rule thresholds + anti-flap tuning (docs/observability.md).
  HealthThresholds health;

  /// JSONL journal for health transitions, policy flips, and load-shed
  /// events ("" = in-memory ring only; see EventLog::Recent()).
  std::string event_journal_path;

  /// Operator override: keep evaluating and journaling health, but never
  /// flip the active policy (docs/operations.md's "pin the policy").
  bool pin_policy = false;

  /// Load shedding: while any daemon's replay buffer is at least this
  /// full, PublishBatch fails fast with ResourceExhausted instead of
  /// pushing the buffer to its hard bound and dropping events. Shedding
  /// clears once every buffer is back below half this fraction
  /// (hysteresis). 0 disables. Requires autopilot (the monitor is what
  /// evaluates it).
  double shed_replay_frac = 0.9;
};

/// The fan-out/gather broker endpoint. Thread-safe; concurrent callers
/// multiplex over one shared connection per daemon.
class FanoutCluster : public ClusterTransport {
 public:
  /// Validates the topology (either one all-hosting daemon, or explicit
  /// partitions exactly covering 0..group_size-1). Connections are opened
  /// lazily on first use; call Ping() for an eager liveness sweep.
  static Result<std::unique_ptr<FanoutCluster>> Connect(
      const FanoutClusterOptions& options);

  ~FanoutCluster() override;

  Status Publish(const EdgeEvent& event) override;
  Status PublishBatch(std::span<const EdgeEvent> events) override;
  Status Drain() override;

  /// Union of every answering daemon's gather, subject to the policy: a
  /// failure below quorum returns the error and rescues everything already
  /// taken from healthy daemons into a bounded client-side buffer,
  /// prepended to the next successful call (server-side takes are
  /// destructive; see the class comment). A quorum/best-effort success with
  /// daemons missing returns the partial merge; the report overload (or,
  /// single-threaded, LastGatherReport()) names the missing partitions.
  Result<std::vector<Recommendation>> TakeRecommendations() override;
  Result<std::vector<Recommendation>> TakeRecommendations(
      GatherReport* report) override;

  /// Coverage of the most recent gather (complete until one has run).
  GatherReport LastGatherReport() const override;

  Status Checkpoint(Timestamp created_at) override;
  Status KillReplica(uint32_t partition, uint32_t replica) override;
  Status RecoverReplica(uint32_t partition, uint32_t replica) override;

  /// Merged view: identity-tagged per_replica entries are concatenated from
  /// all daemons (sorted by partition, replica); detector counters, memory,
  /// and server-loop reactor counters sum; events_published is the
  /// per-daemon maximum, since every daemon counts the same fanned-out
  /// stream.
  Result<ClusterStats> GetStats() override;

  /// The broker's own registry exposition followed by one `# source`-headed
  /// section per daemon (its kStatsText reply). A daemon that cannot answer
  /// — down, or pre-kStatsText — degrades to an annotated header instead of
  /// failing the whole scrape: an observability probe into a degraded
  /// cluster is exactly when partial output matters most.
  Result<std::string> GetStatsText() override;

  /// Drains the completed-trace ring (bounded; oldest dropped on
  /// overflow). A trace completes when a gather ran after its publish.
  std::vector<TraceContext> TakeTraces() override;

  /// The group partitioner replica ops are routed with.
  Result<HashPartitioner> Partitioner() const override;

  /// The broker engine's latest report: the broker party plus one party
  /// per daemon, with reasons and triggering values. Falls back to the
  /// registry-gauge reconstruction when the autopilot is off.
  Result<HealthReport> GetHealth() override;

  /// The policy currently steering gathers/hedging/replay — the autopilot
  /// may have flipped it away from options.policy.
  FanoutPolicy active_policy() const {
    return active_policy_.load(std::memory_order_relaxed);
  }

  /// True while admission control is rejecting publishes (see
  /// FanoutClusterOptions::shed_replay_frac).
  bool shedding() const { return shedding_.load(std::memory_order_relaxed); }

  /// The event journal (never null once Connect returns; in-memory only
  /// when no path was configured). Transitions, flips, and shed events.
  EventLog* journal() { return journal_.get(); }

  /// Round-trips every daemon AND verifies each actually hosts what the
  /// endpoint list claims — group size, hosted partition, partitioner salt
  /// — via its stats reply. A swapped PORT:PARTITION pair, a daemon
  /// missing its --partition-group flags, or a salt mismatch would
  /// silently duplicate or drop recommendations; Ping makes it fail
  /// loudly. Returns the first dead or misconfigured daemon's error.
  Status Ping();

  uint32_t group_size() const { return group_size_; }

  Status Close() override;

 private:
  /// One encoded publish frame parked for a daemon that could not take it,
  /// plus how many events it carries (the unit the buffer bound counts).
  /// The frame is a refcounted view of the batch's canonical encoding —
  /// parking it costs segment references, not a byte copy.
  struct ReplayFrame {
    FrameBuf frame;
    size_t events = 0;
  };

  /// Per-daemon shared connection + reconnect/backoff state.
  struct Daemon {
    FanoutEndpoint endpoint;
    std::mutex mu;
    std::condition_variable cv;  ///< waits out a concurrent dial

    /// The one multiplexed connection every caller shares. Null until the
    /// first use (or after a failure dropped it).
    std::shared_ptr<MuxConnection> conn;
    bool dialing = false;

    int backoff_ms = 0;  ///< 0 = healthy
    std::chrono::steady_clock::time_point next_attempt{};

    /// Gather staleness (guarded by mu): bumped when this daemon misses a
    /// TakeRecommendations, zeroed when it answers one.
    uint64_t gathers_missed_total = 0;
    uint64_t gathers_missed_consecutive = 0;

    /// Queue-and-replay state. replay_mu is held across the replay
    /// exchanges of a flush so replayed frames reach the daemon in publish
    /// order ahead of any caller's new frames (every broker call flushes —
    /// and therefore queues behind an in-progress flush — before sending
    /// its own traffic); it never nests with mu.
    std::mutex replay_mu;
    std::deque<ReplayFrame> replay;
    size_t replay_events = 0;  ///< sum over replay (guarded by replay_mu)
  };

  /// One daemon's slice of a broker call: the connection snapshot, the
  /// first error it produced, and the pipelining bookkeeping.
  struct Slot {
    Daemon* daemon = nullptr;
    std::shared_ptr<MuxConnection> conn;
    Status status;

    /// First kError REPLY the daemon sent (as opposed to a transport
    /// failure): preserved across a hedge or a queue-to-replay, which clear
    /// the transport error but must not hide a server-side rejection.
    Status server_error;

    bool poisoned = false;  ///< lane unusable for the rest of this call
    bool hedged = false;    ///< this lane already used its one hedge

    /// Publish pipeline: calls[i] is frame i's in-flight handle; the first
    /// `acked` frames are confirmed (ack or server error).
    std::vector<MuxConnection::CallHandle> calls;
    size_t acked = 0;

    /// Single-exchange broadcasts (drain, stats, gather) park their one
    /// handle here between the start and await passes.
    MuxConnection::CallHandle call;

    /// THIS call's request/reply exchange completed on this lane (gather:
    /// every chunk decoded; ack broadcasts: kAck read). Deliberately
    /// distinct from `status`: a replay-flush failure carried over from
    /// AcquireAll lands in status, and keying "did this daemon answer"
    /// off status would report a daemon as missing a gather whose
    /// recommendations it fully delivered into the merge.
    bool answered = false;

    /// Lane usable for IO.
    bool live() const { return conn != nullptr && !poisoned; }
  };

  explicit FanoutCluster(const FanoutClusterOptions& options);

  /// The daemon's shared connection, dialing it if absent. Inside a
  /// daemon's reconnect-backoff window this fails fast with Unavailable
  /// (circuit breaker) — one dead daemon must not stall calls touching
  /// the healthy ones. Errors name the daemon.
  Result<std::shared_ptr<MuxConnection>> AcquireConn(Daemon* daemon);

  /// Severs `conn` and forgets it as the daemon's shared connection (a
  /// newer one is left alone). `start_backoff` opens the circuit-breaker
  /// window; a hedge redial passes false — the daemon dialed, it is slow.
  void DropConn(Daemon* daemon, const std::shared_ptr<MuxConnection>& conn,
                bool start_backoff);

  /// Opens/extends the daemon's circuit-breaker window after a failure.
  /// Caller holds daemon->mu.
  void StartBackoffLocked(Daemon* daemon);

  /// Prefixes `status` with the daemon's identity.
  Status TagError(const Daemon& daemon, const Status& status) const;

  // Broadcast plumbing shared by every fan-out call: snapshot one
  // connection per daemon (failures land in the slot's status), start the
  // request on every live slot BEFORE awaiting any reply (daemons process
  // concurrently), then surface the first error in daemon order.
  // AcquireAll also flushes any replay buffer owed to a daemon that just
  // became reachable again (degraded policies only), so every broker call
  // is a replay opportunity.
  std::vector<Slot> AcquireAll();
  void StartAll(std::vector<Slot>* slots, const FrameBuf& request);
  Status FirstError(const std::vector<Slot>& slots) const;

  /// Awaits the slot's single-exchange reply. On success the reply frames
  /// land in *frames and true returns; failures poison the slot, drop the
  /// connection, and record the tagged error.
  bool AwaitReply(Slot* slot, std::vector<Frame>* frames);

  /// True under a degraded ACTIVE policy (anything but kStrict). The
  /// active policy starts as options.policy and is flipped by the
  /// autopilot; every degraded-mode gate (replay, hedging, sequence
  /// tagging, quorum tolerance) keys off it, never off the configured one.
  bool degraded() const {
    return active_policy_.load(std::memory_order_relaxed) !=
           FanoutPolicy::kStrict;
  }

  /// Next idempotent batch sequence (never 0, the "no dedup" marker).
  uint64_t NextBatchSequence();

  /// Daemons that must answer for a broadcast to succeed under the policy.
  size_t RequiredQuorum() const;

  /// First replay-flush rejection recorded on the slots (Status::OK when
  /// none): a daemon took a replayed frame and refused it, so its events
  /// are permanently lost — the observing call must fail loudly even when
  /// the quorum is met.
  Status FirstReplayRejection(const std::vector<Slot>& slots) const;

  /// Parks recommendations (moved out of *recs) in the bounded pending_
  /// rescue buffer for the next successful gather; overflow is counted in
  /// rescue_dropped_, never silent.
  void RescuePending(std::vector<Recommendation>* recs);

  /// Re-sends the daemon's parked replay frames on the slot's connection
  /// (serial request/ack; this is the recovery path, not the hot path).
  /// A failure poisons the slot; frames stay queued for next time.
  void FlushReplayOn(Slot* slot);

  /// Parks frames [slot->acked, frames.size()) in the daemon's replay
  /// buffer after a lane failure, clearing the slot's transport error.
  /// Overflow queues nothing more, counts the dropped events, and sets the
  /// explicit ResourceExhausted status instead.
  void QueueUnsent(Slot* slot, const std::vector<FrameBuf>& frames,
                   const std::vector<size_t>& frame_events);

  /// One hedge attempt for a failed publish lane: re-issues every unacked
  /// frame under fresh request_ids — on the standing connection when it
  /// survived (server-side stall), on a redial (without opening the
  /// backoff window) when it died. True iff the lane is live again with
  /// slot->calls realigned to the frame list. `sequenced` says whether the
  /// frames carry batch sequences (the call entered under a degraded
  /// policy): hedging an unsequenced frame could double-apply it, so the
  /// hedge only fires when they do — a mid-call autopilot flip must not
  /// change that.
  bool TryHedgePublish(Slot* slot, const std::vector<FrameBuf>& frames,
                       bool sequenced);

  /// Awaits the oldest unacked publish frame on the lane, hedging once on
  /// failure when the policy allows (see TryHedgePublish on `sequenced`).
  /// kError replies record the first server error but keep the lane (the
  /// session is still usable). A non-null `trace` folds the stamps echoed
  /// on an ack's trace tail into the publish's originating context.
  void ReapOneAck(Slot* slot, const std::vector<FrameBuf>& frames,
                  bool sequenced, TraceContext* trace);

  /// Awaits and decodes one kStatsReply on a slot; false on any failure
  /// (recorded in the slot's status).
  bool AwaitStatsReply(Slot* slot, ClusterStats* stats);

  /// Stats sweep checking every daemon's reported group size, hosted
  /// partitions, and partitioner salt against this broker's endpoint list.
  Status VerifyTopology();

  /// Sends `request` to every daemon and expects one kAck each; kError
  /// replies decode to their Status. `require_all` demands every daemon
  /// answer regardless of policy (Checkpoint, Ping); otherwise failures are
  /// tolerated down to RequiredQuorum(). Returns the first failure (tagged)
  /// when the bar is missed.
  Status BroadcastForAck(const std::string& request, bool require_all);

  /// Single-daemon request/ack exchange (replica ops routed by partition).
  Status ExchangeForAckOn(Daemon* daemon, const std::string& request);

  /// The daemon hosting `partition`, or null.
  Daemon* RouteToPartition(uint32_t partition);

  // --- health autopilot plumbing (see StartHealthMonitor in the .cc) --------

  /// Gauge/party label for a daemon: "pN" for a partition-group member,
  /// "host:port" for an all-hosting daemon.
  std::string PartyName(const Daemon& daemon) const;

  /// Spawns journal_ + monitor_ (Connect tail, after topology validation).
  void StartHealthMonitor();

  /// Monitor pre-sample hook: mirrors the broker's degraded-mode atomics
  /// into the registry so windowed rate queries see them (the same
  /// mirroring GetStatsText performs at scrape time).
  void MirrorBrokerCounters();

  /// Monitor collector: one HealthInputs party per daemon plus "broker".
  /// Also evaluates the load-shed hysteresis, since it already holds the
  /// replay depths.
  void CollectHealthInputs(const MetricsTimeSeries& series, int64_t window_us,
                           HealthInputs* inputs);

  /// Monitor observer: decides the desired active policy from the report
  /// and flips (journaled) unless pinned.
  void OnHealthReport(const HealthReport& report,
                      const std::vector<HealthTransition>& transitions);

  FanoutClusterOptions options_;
  std::vector<std::unique_ptr<Daemon>> daemons_;
  uint32_t group_size_ = 0;
  std::atomic<bool> closed_{false};

  /// Every broker call holds this shared; Close() severs the shared
  /// connections (unblocking stalled awaits) and then takes it exclusive,
  /// so the destructor can never free Daemon state under an in-flight
  /// call.
  std::shared_mutex lifecycle_mu_;

  /// Recommendations rescued from a partially failed gather, owed to the
  /// next successful TakeRecommendations. Bounded by
  /// max_pending_recommendations; cleared by Close().
  std::mutex pending_mu_;
  std::vector<Recommendation> pending_;

  /// Coverage of the most recent gather.
  mutable std::mutex report_mu_;
  GatherReport last_report_;

  /// Source of the idempotent batch sequences hedged frames carry. Seeded
  /// with a random epoch per broker incarnation (see the constructor): the
  /// daemons' dedup window is keyed by the raw sequence and outlives this
  /// broker, so a restarted or second broker must not reuse values an
  /// earlier incarnation already burned. NextBatchSequence() never hands
  /// out 0, the wire's "no dedup" marker.
  std::atomic<uint64_t> next_batch_sequence_{1};

  // Degraded-mode counters surfaced through GetStats() (and mirrored into
  // the process registry at GetStatsText() scrape time via RaiseTo).
  std::atomic<uint64_t> degraded_gathers_{0};
  std::atomic<uint64_t> hedged_publishes_{0};
  std::atomic<uint64_t> replayed_events_{0};
  std::atomic<uint64_t> replay_dropped_events_{0};
  std::atomic<uint64_t> rescue_dropped_{0};

  // --- health autopilot state ------------------------------------------------

  /// The policy actually steering this broker. Equals options_.policy
  /// until the autopilot flips it.
  std::atomic<FanoutPolicy> active_policy_{FanoutPolicy::kStrict};

  /// Admission control: set/cleared by the monitor's shed hysteresis,
  /// checked at the top of PublishBatch.
  std::atomic<bool> shedding_{false};

  std::atomic<uint64_t> policy_flips_{0};
  std::atomic<uint64_t> shed_publishes_{0};

  /// Journal + monitor. Created by Connect (journal always, monitor only
  /// with autopilot on); the monitor is torn down at the top of Close(),
  /// before daemon state is severed, since its collector reads daemon
  /// mutexes and replay depths.
  std::unique_ptr<EventLog> journal_;
  std::unique_ptr<HealthMonitor> monitor_;

  /// Publishes seen, for the 1-in-trace_sample_every sampling decision.
  std::atomic<uint64_t> publish_count_{0};

  /// Trace-id source; like batch sequences, seeded with a random epoch per
  /// incarnation so two brokers' traces stay distinguishable. Never 0.
  std::atomic<uint64_t> next_trace_id_{1};

  /// Traces whose publish finished, awaiting (or holding) their kGather
  /// stamp. Bounded to kMaxParkedTraces; oldest dropped on overflow — a
  /// trace is a diagnostic, never backpressure.
  static constexpr size_t kMaxParkedTraces = 64;
  std::mutex traces_mu_;
  std::deque<TraceContext> traces_;
};

}  // namespace magicrecs::net

#endif  // MAGICRECS_NET_FANOUT_CLUSTER_H_
