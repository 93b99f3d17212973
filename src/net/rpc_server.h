// The daemon side of the RPC layer: a TCP listener and the epoll server
// loop, dispatching decoded frames onto a ClusterTransport. This is the
// fan-out broker boundary of the paper's deployment — magicrecsd is a thin
// main() around this class.
//
// Serving: one reactor thread multiplexes every connection through epoll
// (net/epoll_reactor.h): non-blocking reads feed an incremental
// FrameAssembler, decoded requests are dispatched onto a small ThreadPool,
// responses drain through per-connection write buffers with partial-write
// state machines. Connection count is bounded by fds, not threads — the
// shape the paper's "millions of users behind a handful of hosts"
// deployment needs. A connection that opens with the hello/mux session
// extension (net/wire.h) carries many logical calls, identified by
// request_id; a peer that never sends kHello is served bare frames in
// request order.
//
// Ordering and backpressure: requests that mutate the event stream
// (IsOrderSensitive) are applied in per-connection arrival order; on a
// muxed connection order-free reads may overtake a stalled write. Each
// connection caps dispatched-but-unanswered requests at
// max_inflight_per_conn — at the cap the reactor stops reading that
// connection, the kernel's TCP window fills, and the peer blocks:
// end-to-end backpressure without a thread pinned per peer.
//
// Protocol-error policy (exercised by tests/net/rpc_robustness_test.cc and
// tests/net/epoll_server_test.cc):
//   * well-framed but unknown/unsupported tag -> kError response, the
//     connection stays usable;
//   * transport-level failure -> kError response carrying the Status, the
//     connection stays usable;
//   * oversized length prefix or CRC mismatch -> kError response, then the
//     connection is closed: the byte stream can no longer be trusted to be
//     frame-aligned;
//   * truncated frame / dropped connection -> the connection is reaped.
// None of these touch the other connections or the daemon's lifetime.

#ifndef MAGICRECS_NET_RPC_SERVER_H_
#define MAGICRECS_NET_RPC_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "cluster/transport.h"
#include "health/health_engine.h"
#include "net/frame_buf.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/result.h"
#include "util/status.h"

namespace magicrecs {
class Counter;
class EventLog;
class Gauge;
class HealthMonitor;
class HistogramMetric;
}  // namespace magicrecs

namespace magicrecs::net {

class EpollReactor;

/// The concurrency model serving the connections. There is one: the epoll
/// reactor. The enum and its two helpers remain so that callers that
/// report the resolved loop (the benchmark harness) keep compiling.
enum class ServerLoop {
  kAuto,   ///< resolves to kEpoll
  kEpoll,  ///< event-driven reactor + worker pool
};

/// Resolves kAuto to kEpoll.
ServerLoop ResolveServerLoop(ServerLoop requested);

/// "epoll" (or "auto" for the unresolved value).
std::string_view ServerLoopFlag(ServerLoop loop);

struct RpcServerOptions {
  /// Numeric IPv4 listen address.
  std::string host = "127.0.0.1";

  /// 0 picks an ephemeral port (see RpcServer::port()).
  uint16_t port = 0;

  int backlog = 64;

  /// Disable Nagle on accepted connections (request/response traffic).
  bool tcp_nodelay = true;

  /// How many recently seen publish-batch sequences to remember for
  /// idempotent-batch dedup (hedged publishes re-send the same sequence on
  /// a second request; see wire.h). Shared across connections. 0 turns
  /// dedup off — every batch is applied, sequence or not.
  size_t publish_dedup_window = 4096;

  /// Cap on dispatched-but-unanswered requests per connection; at the cap
  /// the reactor stops reading that peer (backpressure). Also advertised
  /// to hello-speaking clients as their pipelining budget.
  size_t max_inflight_per_conn = 64;

  /// Worker threads the reactor dispatches requests onto.
  int worker_threads = 4;

  /// Log any request whose handler runs at least this long (stderr, plus
  /// the rpc_slow_requests registry counter). 0 disables.
  int64_t slow_request_us = 0;

  /// Identity this server stamps into trace contexts (util/trace.h): a
  /// partition-group daemon passes its global partition id, an all-hosting
  /// daemon keeps the sentinel.
  uint32_t trace_party = kTracePartyAllHosting;

  /// > 0 runs a self-health monitor (health/health_monitor.h) on this
  /// interval: windowed rates of this server's own in-flight stalls,
  /// protocol errors, and slow requests feed the rule engine, whose state
  /// lands in the `health{party=...}` gauge the kStatsText scrape renders.
  /// 0 (the default) runs no monitor thread.
  int health_interval_ms = 0;

  /// Rule thresholds for the self-health monitor. Only the rate rules
  /// apply — a daemon has no replay buffers or gather staleness of its
  /// own; those are the broker's view of it.
  HealthThresholds health;

  /// Where health transitions are journaled (JSONL, util/event_log.h).
  /// Borrowed, may be null, must outlive the server when set.
  EventLog* event_journal = nullptr;

  /// Party name the monitor reports under. Empty derives one: "pN" when
  /// trace_party names a partition, else "host:port".
  std::string health_party;
};

/// Lifetime counters, readable while the server runs. Since PR 6 these are
/// views over the process-wide MetricsRegistry (labeled server="host:port")
/// minus a Start()-time baseline, so stats() stays per-server-lifetime even
/// when a port is reused by sequential servers in one process while the
/// kStatsText scrape surface sees the same counters with no extra plumbing.
struct RpcServerStats {
  uint64_t connections_accepted = 0;
  uint64_t requests_served = 0;   ///< responses sent, errors included
  uint64_t protocol_errors = 0;   ///< malformed frames / unknown tags
  uint64_t duplicate_batches = 0; ///< hedged re-sends suppressed by dedup

  // Reactor / session counters (see ServerLoopStats in cluster/transport.h
  // for the wire-visible form).
  uint32_t connections_open = 0;
  uint64_t partial_reads = 0;     ///< reads that left a frame incomplete
  uint64_t partial_writes = 0;    ///< writes cut short by a full buffer
  uint64_t inflight_stalls = 0;   ///< reads paused at the in-flight cap
  uint64_t mux_connections = 0;   ///< connections that negotiated mux
  uint64_t slow_requests = 0;     ///< handlers past slow_request_us
};

class RpcServer {
 public:
  /// Binds, listens, and spawns the serving loop. `transport` must be
  /// thread-safe and outlive the server; the server never owns it, so one
  /// daemon process can host several servers over distinct transports.
  static Result<std::unique_ptr<RpcServer>> Start(
      ClusterTransport* transport, const RpcServerOptions& options);

  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// The bound port (resolves an ephemeral request).
  uint16_t port() const { return listener_.port(); }
  const std::string& host() const { return options_.host; }

  /// Stops accepting, severs open connections, joins every thread.
  /// Idempotent.
  void Stop();

  RpcServerStats stats() const;

 private:
  friend class EpollReactor;

  RpcServer(ClusterTransport* transport, const RpcServerOptions& options);

  /// Appends the response frame(s) for one well-framed request to
  /// *response. Framing-level errors (which do close the connection) are
  /// handled by the reactor before dispatch reaches here. `features` is
  /// the hello-granted feature mask for the connection (0 for a peer that
  /// never spoke hello): kFeatureMux gates the stats server-loop tail,
  /// kFeatureTrace gates trace tails on replies. Thread-safe: the reactor
  /// calls it from several workers at once. Also the slow-request timing
  /// point.
  void HandleRequest(const Frame& request, uint32_t features,
                     std::string* response);

  /// The untimed handler body behind HandleRequest.
  void DispatchRequest(const Frame& request, uint32_t features,
                       std::string* response);

  /// Negotiates a kHello. Appends the reply frame and ORs the granted
  /// feature bits into *features (a later hello can only widen the grant).
  void HandleHello(const Frame& request, std::string* response,
                   uint32_t* features);

  /// Unwraps one kMuxRequest envelope, handles the inner request, and
  /// sets *response to the id-wrapped reply frames (or a bare error for a
  /// mangled envelope payload — the stream itself is still aligned). The
  /// inner reply frames are encoded once and every kMuxResponse envelope
  /// shares that block — no per-chunk body copy; byte-identical to the
  /// string encoders (locked by the egress tests). Thread-safe like
  /// HandleRequest.
  void HandleMuxEnvelope(const Frame& envelope, uint32_t features,
                         FrameBuf* response);

  /// Snapshot of the wire-visible server-loop counters.
  ServerLoopStats SnapshotLoopStats() const;

  /// Idempotent-batch admission. True iff `sequence` was already APPLIED
  /// inside the dedup window — the caller acks without applying. Otherwise
  /// marks the sequence in flight and returns false; the caller MUST
  /// follow up with FinishBatch(sequence, applied). A duplicate arriving
  /// while the original's apply is still in flight blocks here until that
  /// apply resolves: suppressing it immediately would ack events that may
  /// yet fail to land (the original's failure would then be silent loss),
  /// so it is suppressed only on the original's success and claims the
  /// sequence itself on the original's failure.
  bool BeginBatch(uint64_t sequence);

  /// Resolves an in-flight sequence. `applied` records it in the dedup
  /// window; a failed apply leaves no trace, so a broker replay of the
  /// same frame is applied instead of dup-acked. Wakes racing duplicates
  /// blocked in BeginBatch either way.
  void FinishBatch(uint64_t sequence, bool applied);

  ClusterTransport* transport_;
  RpcServerOptions options_;
  TcpListener listener_;
  std::unique_ptr<EpollReactor> reactor_;
  bool stopped_ = false;

  /// Outcome record for a sequence whose apply is in flight. Shared with
  /// every duplicate waiting on it: the outcome is handed to waiters
  /// through this record, NOT re-read from the evictable dedup window — a
  /// success evicted from the window between the resolve and a waiter's
  /// wake-up must still suppress that waiter, never double-apply.
  struct InflightBatch {
    bool resolved = false;
    bool applied = false;
  };

  // Publish-batch idempotency window: the set for O(1) lookup, the deque
  // for FIFO eviction once the window is full, plus the in-flight records
  // (applied sequences enter the window only on success; dedup_cv_ wakes
  // duplicates waiting on an in-flight original).
  std::mutex dedup_mu_;
  std::condition_variable dedup_cv_;
  std::unordered_set<uint64_t> seen_batch_sequences_;
  std::unordered_map<uint64_t, std::shared_ptr<InflightBatch>>
      inflight_batches_;
  std::deque<uint64_t> seen_batch_order_;

  /// Registry-backed counters (util/metrics.h), labeled with this server's
  /// "host:port" and resolved once in Start() after the listen socket is
  /// bound (an ephemeral port is only known then). The registry entries
  /// are process-lifetime and monotonic; baseline_ records their values at
  /// Start() so stats() can report per-server-lifetime deltas even when
  /// sequential servers in one process reuse a port.
  Counter* connections_accepted_metric_ = nullptr;
  Counter* requests_served_metric_ = nullptr;
  Counter* protocol_errors_metric_ = nullptr;
  Counter* duplicate_batches_metric_ = nullptr;
  Gauge* connections_open_metric_ = nullptr;
  Counter* partial_reads_metric_ = nullptr;
  Counter* partial_writes_metric_ = nullptr;
  Counter* inflight_stalls_metric_ = nullptr;
  Counter* mux_connections_metric_ = nullptr;
  Counter* slow_requests_metric_ = nullptr;

  // Zero-copy egress counters: writev (sendmsg) calls issued, bytes they
  // moved, and a histogram of whole frames each call retired — the
  // coalescing the iovec chain buys over one-write-per-response.
  Counter* writev_calls_metric_ = nullptr;
  Counter* egress_bytes_metric_ = nullptr;
  HistogramMetric* frames_per_writev_metric_ = nullptr;
  RpcServerStats baseline_;

  /// Self-health monitor (present only when health_interval_ms > 0).
  /// Created last in Start(), destroyed first in Stop(): its collector
  /// reads this server's registry counters, which outlive both.
  std::unique_ptr<HealthMonitor> health_monitor_;
};

}  // namespace magicrecs::net

#endif  // MAGICRECS_NET_RPC_SERVER_H_
