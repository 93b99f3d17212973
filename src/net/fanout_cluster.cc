#include "net/fanout_cluster.h"

#include <algorithm>
#include <random>
#include <utility>

#include "util/clock.h"
#include "util/metrics.h"
#include "util/str_format.h"

namespace magicrecs::net {
namespace {

Status UnexpectedReply(MessageTag got, const char* expected) {
  return Status::Internal(StrFormat("server replied %s where %s was expected",
                                    std::string(MessageTagName(got)).c_str(),
                                    expected));
}

}  // namespace

std::string_view FanoutPolicyName(FanoutPolicy policy) {
  switch (policy) {
    case FanoutPolicy::kStrict: return "strict";
    case FanoutPolicy::kQuorum: return "quorum";
    case FanoutPolicy::kBestEffort: return "best-effort";
  }
  return "unknown";
}

Result<std::unique_ptr<FanoutCluster>> FanoutCluster::Connect(
    const FanoutClusterOptions& options) {
  if (options.endpoints.empty()) {
    return Status::InvalidArgument("fan-out cluster needs >= 1 endpoint");
  }
  if (options.gather_quorum > options.endpoints.size()) {
    return Status::InvalidArgument(StrFormat(
        "gather_quorum %u exceeds the %zu configured endpoints",
        options.gather_quorum, options.endpoints.size()));
  }

  uint32_t group_size = options.group_size;
  const bool single_all_hosting =
      options.endpoints.size() == 1 &&
      options.endpoints[0].partition == FanoutEndpoint::kAllPartitions;
  if (!single_all_hosting) {
    // Explicit partition-group topology: every daemon names its partition
    // and together they cover 0..group_size-1 exactly once.
    if (group_size == 0) {
      group_size = static_cast<uint32_t>(options.endpoints.size());
    }
    if (options.endpoints.size() != group_size) {
      return Status::InvalidArgument(StrFormat(
          "a %u-partition group needs exactly %u endpoints, got %zu",
          group_size, group_size, options.endpoints.size()));
    }
    std::vector<bool> covered(group_size, false);
    for (const FanoutEndpoint& endpoint : options.endpoints) {
      if (endpoint.partition == FanoutEndpoint::kAllPartitions) {
        return Status::InvalidArgument(
            "an all-hosting endpoint cannot be mixed with partition-group "
            "endpoints");
      }
      if (endpoint.partition >= group_size) {
        return Status::InvalidArgument(
            StrFormat("endpoint partition %u out of range for a "
                      "%u-partition group",
                      endpoint.partition, group_size));
      }
      if (covered[endpoint.partition]) {
        return Status::InvalidArgument(StrFormat(
            "partition %u is hosted by two endpoints", endpoint.partition));
      }
      covered[endpoint.partition] = true;
    }
  }

  std::unique_ptr<FanoutCluster> cluster(new FanoutCluster(options));
  cluster->group_size_ = group_size;
  cluster->StartHealthMonitor();
  return cluster;
}

FanoutCluster::FanoutCluster(const FanoutClusterOptions& options)
    : options_(options) {
  active_policy_.store(options.policy, std::memory_order_relaxed);
  // Batch sequences must be unique across broker incarnations, not just
  // within one: the daemons' dedup window is keyed by the raw u64 and
  // outlives any one broker's connections, so a counter restarting at 1
  // after a broker restart (or a second broker publishing to the same
  // daemons) would reuse sequences already in the window and have its
  // genuinely new batches acked without being applied — silent event loss
  // reported as success. A random 64-bit epoch per incarnation puts
  // distinct brokers in disjoint sequence ranges with overwhelming
  // probability (a window of W sequences collides with a fresh epoch with
  // probability ~W/2^64).
  std::random_device rd;
  uint64_t epoch =
      (static_cast<uint64_t>(rd()) << 32) | static_cast<uint64_t>(rd());
  if (epoch == 0) epoch = 1;  // 0 is the wire's "no dedup" marker
  next_batch_sequence_.store(epoch, std::memory_order_relaxed);
  // Trace ids get their own epoch for the same cross-incarnation reason
  // (two brokers' traces must not collide in a shared log).
  uint64_t trace_epoch =
      (static_cast<uint64_t>(rd()) << 32) | static_cast<uint64_t>(rd());
  if (trace_epoch == 0) trace_epoch = 1;  // 0 is the wire's "no trace"
  next_trace_id_.store(trace_epoch, std::memory_order_relaxed);
  for (const FanoutEndpoint& endpoint : options.endpoints) {
    auto daemon = std::make_unique<Daemon>();
    daemon->endpoint = endpoint;
    daemons_.push_back(std::move(daemon));
  }
}

uint64_t FanoutCluster::NextBatchSequence() {
  uint64_t sequence =
      next_batch_sequence_.fetch_add(1, std::memory_order_relaxed);
  while (sequence == 0) {  // wrapped onto the "no dedup" marker: skip it
    sequence = next_batch_sequence_.fetch_add(1, std::memory_order_relaxed);
  }
  return sequence;
}

FanoutCluster::~FanoutCluster() {
  const Status s = Close();
  (void)s;  // destructor cannot propagate
}

Status FanoutCluster::TagError(const Daemon& daemon,
                               const Status& status) const {
  const FanoutEndpoint& e = daemon.endpoint;
  const std::string where =
      e.partition == FanoutEndpoint::kAllPartitions
          ? StrFormat("daemon %s:%u", e.host.c_str(), e.port)
          : StrFormat("daemon %s:%u (partition %u)", e.host.c_str(), e.port,
                      e.partition);
  return Status(status.code(),
                StrFormat("%s: %s", where.c_str(),
                          std::string(status.message()).c_str()));
}

void FanoutCluster::StartBackoffLocked(Daemon* daemon) {
  daemon->backoff_ms =
      daemon->backoff_ms == 0
          ? options_.reconnect_backoff_ms
          : std::min(daemon->backoff_ms * 2,
                     options_.max_reconnect_backoff_ms);
  daemon->next_attempt = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(daemon->backoff_ms);
}

Result<std::shared_ptr<MuxConnection>> FanoutCluster::AcquireConn(
    Daemon* daemon) {
  std::unique_lock<std::mutex> lock(daemon->mu);
  while (true) {
    if (closed_.load(std::memory_order_acquire)) {
      return Status::FailedPrecondition("fan-out cluster is closed");
    }
    if (daemon->conn != nullptr) {
      if (!daemon->conn->broken()) return daemon->conn;
      daemon->conn.reset();  // died while idle; fall through to redial
    }
    if (daemon->dialing) {
      // Another caller is mid-dial: share its outcome instead of racing a
      // second connection to the same daemon.
      daemon->cv.wait(lock);
      continue;
    }
    // Circuit breaker: inside the reconnect-backoff window fail fast
    // instead of sleeping — one dead daemon must not stall every broker
    // call (the healthy daemons are acquired in the same loop). The
    // first call after the window redials.
    if (daemon->next_attempt > std::chrono::steady_clock::now()) {
      return TagError(*daemon, Status::Unavailable("in reconnect backoff"));
    }
    daemon->dialing = true;
    lock.unlock();
    MuxConnectionOptions mopt;
    mopt.tcp_nodelay = options_.tcp_nodelay;
    mopt.connect_timeout_ms = options_.connect_timeout_ms;
    // A host whose kernel accepts while the daemon is wedged must fail
    // the dial inside the reply-silence bound, not pin every caller
    // behind the dialing flag.
    mopt.hello_timeout_ms = options_.recv_timeout_ms;
    mopt.slow_call_us = options_.slow_call_us;
    Result<std::unique_ptr<MuxConnection>> dialed =
        MuxConnection::Dial(daemon->endpoint.host, daemon->endpoint.port,
                            mopt);
    lock.lock();
    daemon->dialing = false;
    daemon->cv.notify_all();
    if (!dialed.ok()) {
      StartBackoffLocked(daemon);
      return TagError(*daemon, dialed.status());
    }
    if (closed_.load(std::memory_order_acquire)) {
      (*dialed)->Shutdown();
      return Status::FailedPrecondition("fan-out cluster is closed");
    }
    daemon->backoff_ms = 0;  // healthy again
    daemon->conn = std::shared_ptr<MuxConnection>(std::move(dialed).value());
    return daemon->conn;
  }
}

void FanoutCluster::DropConn(Daemon* daemon,
                             const std::shared_ptr<MuxConnection>& conn,
                             bool start_backoff) {
  if (conn == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(daemon->mu);
    // Only the FIRST observer of this connection's death opens (or
    // extends) the breaker window: every concurrent caller whose await
    // just failed lands here with the same dead connection, and counting
    // each as a fresh failure would double the backoff once per caller —
    // or worse, re-penalize a daemon a later caller already redialed
    // successfully (daemon->conn has moved on by then).
    if (daemon->conn == conn) {
      daemon->conn.reset();
      if (start_backoff) StartBackoffLocked(daemon);
    }
  }
  // Sever outside the lock: failing the other callers' in-flight awaits
  // takes the connection's own mutex.
  conn->Shutdown();
}

size_t FanoutCluster::RequiredQuorum() const {
  const size_t n = daemons_.size();
  switch (active_policy_.load(std::memory_order_relaxed)) {
    case FanoutPolicy::kStrict: return n;
    case FanoutPolicy::kQuorum:
      return options_.gather_quorum == 0
                 ? n / 2 + 1
                 : static_cast<size_t>(options_.gather_quorum);
    case FanoutPolicy::kBestEffort: return 0;
  }
  return n;
}

FanoutCluster::Daemon* FanoutCluster::RouteToPartition(uint32_t partition) {
  Daemon* all_hosting = nullptr;
  for (const auto& daemon : daemons_) {
    if (daemon->endpoint.partition == partition) return daemon.get();
    if (daemon->endpoint.partition == FanoutEndpoint::kAllPartitions) {
      all_hosting = daemon.get();
    }
  }
  return all_hosting;
}

// --- broadcast plumbing ------------------------------------------------------

std::vector<FanoutCluster::Slot> FanoutCluster::AcquireAll() {
  std::vector<Slot> slots;
  slots.reserve(daemons_.size());
  for (const auto& daemon : daemons_) {
    Slot slot;
    slot.daemon = daemon.get();
    Result<std::shared_ptr<MuxConnection>> conn = AcquireConn(daemon.get());
    if (conn.ok()) {
      slot.conn = std::move(conn).value();
      // A reachable daemon is first owed whatever a degraded policy parked
      // for it while it was away — replay preserves publish order. Frames
      // can also be owed AFTER the autopilot flipped back to strict (the
      // flip-back gate requires empty buffers, but a racing publish can
      // park between the check and the flip), so any non-empty buffer
      // flushes regardless of the active policy.
      bool owed = false;
      {
        std::lock_guard<std::mutex> replay_lock(slot.daemon->replay_mu);
        owed = !slot.daemon->replay.empty();
      }
      if (degraded() || owed) FlushReplayOn(&slot);
    } else {
      slot.status = conn.status();
    }
    slots.push_back(std::move(slot));
  }
  return slots;
}

void FanoutCluster::FlushReplayOn(Slot* slot) {
  Daemon* daemon = slot->daemon;
  // replay_mu is held across the flush exchanges so a concurrent caller
  // cannot interleave its own traffic between two replayed frames — every
  // broker call flushes (and therefore queues here) before sending its
  // own.
  std::lock_guard<std::mutex> lock(daemon->replay_mu);
  while (!daemon->replay.empty() && slot->live()) {
    const ReplayFrame& frame = daemon->replay.front();
    std::vector<Frame> reply;
    const Status status = slot->conn->CallOne(
        frame.frame, options_.recv_timeout_ms, &reply);
    if (!status.ok()) {
      // The daemon went away again mid-replay: fail the lane, keep the
      // unacked frames parked for the next attempt.
      if (slot->status.ok()) slot->status = TagError(*daemon, status);
      slot->poisoned = true;
      DropConn(daemon, slot->conn, /*start_backoff=*/true);
      return;
    }
    const MessageTag tag =
        reply.empty() ? MessageTag::kMuxResponse : reply.front().tag;
    if (tag == MessageTag::kAck) {
      replayed_events_.fetch_add(frame.events, std::memory_order_relaxed);
    } else if (tag == MessageTag::kError) {
      // The daemon took the frame but rejected it; replaying it again
      // would just re-fail. Count the loss and surface the rejection.
      replay_dropped_events_.fetch_add(frame.events,
                                       std::memory_order_relaxed);
      const Status err = TagError(*daemon, DecodeError(reply.front().payload));
      if (slot->server_error.ok()) slot->server_error = err;
      if (slot->status.ok()) slot->status = err;
    } else {
      // Neither ack nor error: version skew or a protocol bug. Fail the
      // lane and keep the frame parked for the next attempt — consuming it
      // here would lose its events without counting them anywhere.
      if (slot->status.ok()) {
        slot->status = TagError(*daemon, UnexpectedReply(tag, "replay ack"));
      }
      slot->poisoned = true;
      DropConn(daemon, slot->conn, /*start_backoff=*/true);
      return;
    }
    daemon->replay_events -= frame.events;
    daemon->replay.pop_front();
  }
}

void FanoutCluster::StartAll(std::vector<Slot>* slots,
                             const FrameBuf& request) {
  // Every lane's Start copies the FrameBuf — segment references onto the
  // same payload block, never the bytes.
  for (Slot& slot : *slots) {
    if (!slot.live()) continue;
    Result<MuxConnection::CallHandle> started =
        slot.conn->Start(request, options_.recv_timeout_ms);
    if (started.ok()) {
      slot.call = std::move(started).value();
      continue;
    }
    if (slot.status.ok()) {
      slot.status = TagError(*slot.daemon, started.status());
    }
    slot.poisoned = true;
    DropConn(slot.daemon, slot.conn, /*start_backoff=*/true);
  }
}

Status FanoutCluster::FirstError(const std::vector<Slot>& slots) const {
  for (const Slot& slot : slots) {
    if (!slot.status.ok()) return slot.status;
  }
  return Status::OK();
}

bool FanoutCluster::AwaitReply(Slot* slot, std::vector<Frame>* frames) {
  if (slot->call == nullptr || !slot->live()) return false;
  const Status status =
      slot->conn->Await(slot->call, options_.recv_timeout_ms, frames);
  if (status.ok()) return true;
  // Timed out or the connection died. Either way this call treats the
  // daemon as failed: drop the shared connection and open the breaker
  // window. (Frames that did arrive stay in *frames for rescue.)
  if (slot->status.ok()) slot->status = TagError(*slot->daemon, status);
  slot->poisoned = true;
  DropConn(slot->daemon, slot->conn, /*start_backoff=*/true);
  return false;
}

Status FanoutCluster::FirstReplayRejection(
    const std::vector<Slot>& slots) const {
  // In the broadcast calls, Slot::server_error can only have been set by
  // AcquireAll's replay flush (ReapOneAck's setter runs on the publish
  // path, which finalizes its own statuses): a daemon took a replayed
  // frame and REJECTED it, so those parked events are permanently lost
  // and were dropped from the buffer. That loss must fail the observing
  // call loudly — quorum tolerance is for daemons that are absent, not
  // for events that are gone.
  for (const Slot& slot : slots) {
    if (!slot.server_error.ok()) return slot.server_error;
  }
  return Status::OK();
}

void FanoutCluster::RescuePending(std::vector<Recommendation>* recs) {
  std::lock_guard<std::mutex> lock(pending_mu_);
  const size_t cap = options_.max_pending_recommendations;
  const size_t room = cap > pending_.size() ? cap - pending_.size() : 0;
  const size_t keep = std::min(room, recs->size());
  pending_.insert(pending_.end(), std::make_move_iterator(recs->begin()),
                  std::make_move_iterator(recs->begin() + keep));
  if (keep < recs->size()) {
    rescue_dropped_.fetch_add(recs->size() - keep,
                              std::memory_order_relaxed);
  }
}

Status FanoutCluster::BroadcastForAck(const std::string& request,
                                      bool require_all) {
  std::shared_lock<std::shared_mutex> lifecycle(lifecycle_mu_);
  if (closed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("fan-out cluster is closed");
  }
  std::vector<Slot> slots = AcquireAll();
  StartAll(&slots, FrameBuf::Wrap(request));
  for (Slot& slot : slots) {
    std::vector<Frame> reply;
    if (!AwaitReply(&slot, &reply)) continue;
    const MessageTag tag =
        reply.empty() ? MessageTag::kMuxResponse : reply.front().tag;
    if (tag == MessageTag::kAck) {
      slot.answered = true;
    } else if (tag == MessageTag::kError) {
      if (slot.status.ok()) {
        slot.status =
            TagError(*slot.daemon, DecodeError(reply.front().payload));
      }
    } else if (slot.status.ok()) {
      slot.status = TagError(*slot.daemon, UnexpectedReply(tag, "ack"));
    }
  }
  // Quorum counts daemons that acked THIS request; an error carried over
  // from a replay flush (surfaced below) must not shrink the answering
  // set.
  size_t answered = 0;
  for (const Slot& slot : slots) {
    if (slot.answered) answered++;
  }
  const Status replay_rejection = FirstReplayRejection(slots);
  const Status first = FirstError(slots);
  if (first.ok()) return first;
  // Degraded policies tolerate missing daemons down to the quorum, except
  // for the calls that must never silently degrade (require_all). A
  // replay-flush rejection still surfaces: it is permanent event loss,
  // not a coverage gap.
  if (!require_all && degraded() && answered >= RequiredQuorum()) {
    return replay_rejection;
  }
  return first;
}

// --- ClusterTransport --------------------------------------------------------

Status FanoutCluster::Publish(const EdgeEvent& event) {
  return PublishBatch(std::span<const EdgeEvent>(&event, 1));
}

void FanoutCluster::ReapOneAck(Slot* slot,
                               const std::vector<FrameBuf>& frames,
                               bool sequenced, TraceContext* trace) {
  // On a kError reply the session stays usable (the server answered; later
  // acks still arrive) so only the first error is recorded; a transport
  // failure or silence past the deadline fails the lane — after, under a
  // degraded policy, one hedge attempt re-issues the unacked frames under
  // fresh request_ids.
  const bool hedging = sequenced && options_.hedge_after_ms > 0;
  while (slot->live() && slot->acked < slot->calls.size()) {
    // With hedging on, acks are awaited only for the hedge threshold —
    // both before the hedge (so it can fire) and after it (so a server
    // stalled past two windows fails over to the replay buffer instead of
    // pinning the publish for the full recv timeout).
    const int timeout_ms =
        hedging ? options_.hedge_after_ms : options_.recv_timeout_ms;
    std::vector<Frame> reply;
    const Status status =
        slot->conn->Await(slot->calls[slot->acked], timeout_ms, &reply);
    if (status.ok()) {
      const MessageTag tag =
          reply.empty() ? MessageTag::kMuxResponse : reply.front().tag;
      if (tag == MessageTag::kAck || tag == MessageTag::kError) {
        // Ack or server rejection: either way the server answered THIS
        // frame and the lane stays usable.
        slot->acked++;
        if (tag == MessageTag::kAck && trace != nullptr) {
          // A traced frame's ack echoes the daemon's stamps; fold them into
          // the originating context (MergeStampsFrom drops the repeated
          // broker-encode stamp). Stale echoes for some other trace — a
          // hedge's plain duplicate, a dedup-suppressed ack — stay out.
          TraceContext echoed;
          if (DecodeAck(reply.front().payload, &echoed).ok() &&
              echoed.trace_id == trace->trace_id) {
            trace->MergeStampsFrom(echoed);
          }
        }
        if (tag == MessageTag::kError) {
          const Status err =
              TagError(*slot->daemon, DecodeError(reply.front().payload));
          if (slot->server_error.ok()) slot->server_error = err;
          if (slot->status.ok()) slot->status = err;
        }
        return;
      }
      // Any other tag is a protocol violation: counting it as an ack would
      // mark events applied that never were. Fail the lane without
      // hedging — re-sending to a daemon that violates the protocol
      // invites worse; the normal failure path (replay parking under a
      // degraded policy, an error under strict) takes over.
      if (slot->status.ok()) {
        slot->status = TagError(*slot->daemon, UnexpectedReply(tag, "ack"));
      }
      slot->poisoned = true;
      DropConn(slot->daemon, slot->conn, /*start_backoff=*/true);
      return;
    }
    if (slot->status.ok()) slot->status = TagError(*slot->daemon, status);
    if (!TryHedgePublish(slot, frames, sequenced)) {
      slot->poisoned = true;
      DropConn(slot->daemon, slot->conn, /*start_backoff=*/true);
      return;
    }
    // Hedged: the unacked frames are back in flight under fresh ids; loop
    // to await their acks.
  }
}

bool FanoutCluster::TryHedgePublish(Slot* slot,
                                    const std::vector<FrameBuf>& frames,
                                    bool sequenced) {
  if (!sequenced || options_.hedge_after_ms <= 0 || slot->hedged) {
    return false;
  }
  if (closed_.load(std::memory_order_acquire)) return false;
  slot->hedged = true;
  // Forget the unacked originals: late replies to abandoned ids are
  // discarded by the session, and the batch sequences make each duplicate
  // below a suppressed re-send of a frame the daemon may already have
  // applied (server-side dedup, rpc_server.h).
  for (size_t f = slot->acked; f < slot->calls.size(); ++f) {
    if (slot->calls[f] != nullptr) slot->conn->Abandon(slot->calls[f]);
  }
  // A standing connection means the daemon is slow, not gone: the hedge is
  // a plain second request_id on the same socket. A broken one is dropped
  // WITHOUT opening the circuit-breaker window (the daemon dialed; it may
  // be merely slow) and replaced.
  if (slot->conn->broken()) {
    DropConn(slot->daemon, slot->conn, /*start_backoff=*/false);
    Result<std::shared_ptr<MuxConnection>> fresh = AcquireConn(slot->daemon);
    if (!fresh.ok()) {
      if (slot->status.ok()) slot->status = fresh.status();
      return false;  // lane stays down: QueueUnsent parks the whole tail
    }
    slot->conn = std::move(fresh).value();
  }
  hedged_publishes_.fetch_add(1, std::memory_order_relaxed);
  slot->poisoned = false;
  slot->status = slot->server_error;  // transport error superseded
  for (size_t f = slot->acked; f < slot->calls.size(); ++f) {
    Result<MuxConnection::CallHandle> dup =
        slot->conn->Start(frames[f], options_.recv_timeout_ms);
    if (!dup.ok()) {
      if (slot->status.ok()) {
        slot->status = TagError(*slot->daemon, dup.status());
      }
      slot->poisoned = true;
      DropConn(slot->daemon, slot->conn, /*start_backoff=*/true);
      return false;
    }
    slot->calls[f] = std::move(dup).value();
  }
  return true;
}

void FanoutCluster::QueueUnsent(Slot* slot,
                                const std::vector<FrameBuf>& frames,
                                const std::vector<size_t>& frame_events) {
  // Only an unreachable lane parks frames: no connection at all (circuit
  // breaker / connect failure) or a transport failure mid-call. A healthy
  // lane whose server rejected a frame keeps that error — a rejection is
  // not an availability problem and must surface, not retry forever.
  if (slot->live()) return;
  size_t queue_events = 0;
  for (size_t f = slot->acked; f < frames.size(); ++f) {
    queue_events += frame_events[f];
  }
  if (queue_events == 0) return;
  Daemon* daemon = slot->daemon;
  std::lock_guard<std::mutex> lock(daemon->replay_mu);
  if (daemon->replay_events + queue_events > options_.replay_buffer_events) {
    replay_dropped_events_.fetch_add(queue_events, std::memory_order_relaxed);
    slot->status = TagError(
        *daemon,
        Status::ResourceExhausted(StrFormat(
            "replay buffer full (%zu events parked, %zu more would exceed "
            "the %zu-event bound): %zu events dropped",
            daemon->replay_events, queue_events,
            options_.replay_buffer_events, queue_events)));
    return;
  }
  for (size_t f = slot->acked; f < frames.size(); ++f) {
    daemon->replay.push_back(ReplayFrame{frames[f], frame_events[f]});
    daemon->replay_events += frame_events[f];
  }
  // Parked is success: the events will be replayed, in order, once the
  // daemon answers again. A server-side rejection still surfaces.
  slot->status = slot->server_error;
}

Status FanoutCluster::PublishBatch(std::span<const EdgeEvent> events) {
  if (events.empty()) return Status::OK();
  std::shared_lock<std::shared_mutex> lifecycle(lifecycle_mu_);
  if (closed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("fan-out cluster is closed");
  }
  // Admission control: when the health monitor flagged replay saturation,
  // fail fast instead of pushing a buffer to its hard bound and dropping
  // events mid-frame. The journal has the shed_start event with the
  // triggering depths.
  if (shedding_.load(std::memory_order_relaxed)) {
    shed_publishes_.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        "broker is shedding publishes: replay buffers near capacity (see "
        "the health journal's shed_start event)");
  }
  // One policy snapshot steers this whole call: a concurrent autopilot
  // flip must not leave some frames sequence-tagged and others not.
  const bool entered_degraded = degraded();
  // Sampling decision for end-to-end tracing: 1 in trace_sample_every
  // publishes originates a TraceContext. Unsampled publishes never touch a
  // clock and their frames are byte-identical to a pre-trace broker's.
  TraceContext trace;
  if (options_.trace_sample_every > 0 &&
      publish_count_.fetch_add(1, std::memory_order_relaxed) %
              options_.trace_sample_every ==
          0) {
    uint64_t id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
    while (id == 0) {  // wrapped onto the "no trace" marker: skip it
      id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
    }
    trace.trace_id = id;
    trace.origin_us = SystemClock::Default()->Now();
  }

  // Encode once: the same chunked kPublishBatch frames stream to every
  // daemon (each partition ingests the full stream). Each frame becomes a
  // refcounted FrameBuf, so the N lanes (and all their pipeline slots, the
  // hedge re-sends, and the replay buffer) share ONE payload block per
  // frame — fan-out costs segment references, never a byte copy. Degraded
  // policies tag every frame with a batch sequence so hedged re-sends are
  // idempotent; strict mode emits the untagged (pre-extension) bytes. A
  // sampled publish additionally encodes a traced VARIANT of the first
  // frame: the trace tail rides only toward trace-negotiated lanes, while
  // hedges and the replay buffer reuse the canonical plain bytes (a
  // replayed trace would stamp a long-finished pipeline).
  const size_t chunk = std::max<size_t>(1, options_.publish_chunk_events);
  std::vector<FrameBuf> frames;
  std::vector<size_t> frame_events;
  FrameBuf traced_first_frame;
  frames.reserve((events.size() + chunk - 1) / chunk);
  frame_events.reserve(frames.capacity());
  for (size_t i = 0; i < events.size(); i += chunk) {
    const size_t n = std::min(chunk, events.size() - i);
    const uint64_t sequence = entered_degraded ? NextBatchSequence() : 0;
    std::string frame;
    AppendPublishBatch(events.subspan(i, n), &frame, sequence);
    if (i == 0 && trace.active()) {
      trace.Stamp(TraceStage::kBrokerEncode, kTracePartyBroker,
                  SystemClock::Default()->Now());
      std::string traced;
      AppendPublishBatch(events.subspan(i, n), &traced, sequence, &trace);
      traced_first_frame = FrameBuf::Wrap(std::move(traced));
    }
    frames.push_back(FrameBuf::Wrap(std::move(frame)));
    frame_events.push_back(n);
  }

  std::vector<Slot> slots = AcquireAll();
  TraceContext* trace_out = trace.active() ? &trace : nullptr;

  // The pipeline: keep up to max_inflight_frames outstanding request_ids
  // per daemon, starting frame f on every lane before frame f+1 so all
  // daemons chew on the same prefix of the stream concurrently. (The
  // session additionally honors the cap the daemon advertised in its hello
  // reply — MuxConnection::Start blocks there.)
  const size_t window = std::max<size_t>(1, options_.max_inflight_frames);
  for (size_t f = 0; f < frames.size(); ++f) {
    for (Slot& slot : slots) {
      if (!slot.live()) continue;
      if (slot.calls.size() - slot.acked >= window) {
        ReapOneAck(&slot, frames, entered_degraded, trace_out);
      }
      if (!slot.live()) continue;
      // The traced variant of frame 0 rides only to lanes whose hello
      // granted kFeatureTrace; everyone else gets the canonical bytes.
      const FrameBuf& buf =
          (f == 0 && trace.active() && slot.conn->trace_negotiated())
              ? traced_first_frame
              : frames[f];
      Result<MuxConnection::CallHandle> started =
          slot.conn->Start(buf, options_.recv_timeout_ms);
      if (started.ok()) {
        slot.calls.push_back(std::move(started).value());
        continue;
      }
      if (slot.status.ok()) {
        slot.status = TagError(*slot.daemon, started.status());
      }
      slot.poisoned = true;
      // One hedge may revive the lane; the current frame then still needs
      // to go out under its own fresh id so slot.calls stays aligned with
      // the frame list.
      if (TryHedgePublish(&slot, frames, entered_degraded)) {
        Result<MuxConnection::CallHandle> retry =
            slot.conn->Start(frames[f], options_.recv_timeout_ms);
        if (retry.ok()) {
          slot.calls.push_back(std::move(retry).value());
        } else {
          if (slot.status.ok()) {
            slot.status = TagError(*slot.daemon, retry.status());
          }
          slot.poisoned = true;
          DropConn(slot.daemon, slot.conn, /*start_backoff=*/true);
        }
      } else {
        DropConn(slot.daemon, slot.conn, /*start_backoff=*/true);
      }
    }
  }
  for (Slot& slot : slots) {
    while (slot.live() && slot.acked < slot.calls.size()) {
      ReapOneAck(&slot, frames, entered_degraded, trace_out);
    }
  }
  // Queue-to-replay only for calls that ENTERED degraded: their frames
  // carry batch sequences, so a frame that was applied but never acked
  // dedups on replay. Untagged strict-mode frames must fail instead —
  // replaying one that half-landed would double-apply it.
  if (entered_degraded) {
    for (Slot& slot : slots) QueueUnsent(&slot, frames, frame_events);
  }
  // Park the trace for the gather stamp only if at least one daemon echoed
  // its stamps back (one lone broker-encode stamp says nothing). The ring
  // is bounded: a broker nobody scrapes must not grow without bound.
  if (trace.active() && trace.stamps.size() > 1) {
    std::lock_guard<std::mutex> lock(traces_mu_);
    traces_.push_back(std::move(trace));
    while (traces_.size() > kMaxParkedTraces) traces_.pop_front();
  }
  return FirstError(slots);
}

Status FanoutCluster::Drain() {
  std::string request;
  AppendEmptyRequest(MessageTag::kDrain, &request);
  return BroadcastForAck(request, /*require_all=*/false);
}

Result<std::vector<Recommendation>> FanoutCluster::TakeRecommendations() {
  return TakeRecommendations(nullptr);
}

Result<std::vector<Recommendation>> FanoutCluster::TakeRecommendations(
    GatherReport* caller_report) {
  std::shared_lock<std::shared_mutex> lifecycle(lifecycle_mu_);
  if (closed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("fan-out cluster is closed");
  }
  std::string request;
  AppendEmptyRequest(MessageTag::kTakeRecommendations, &request);

  // Start from whatever a previous partially-failed gather rescued.
  std::vector<Recommendation> recs;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    recs.swap(pending_);
  }

  std::vector<Slot> slots = AcquireAll();
  StartAll(&slots, FrameBuf::Wrap(std::move(request)));
  // Gather: each daemon streams its share as chunked reply frames; the
  // merged result is their concatenation (cross-partition ordering is
  // unspecified, exactly as with the in-process broker). A daemon that is
  // itself a degraded broker forwards its own gaps as a GatherReport tail;
  // those fold into this merge's report. Each daemon's chunks are STAGED
  // and merged only when its stream completes: a daemon that dies
  // mid-stream is reported missing, and recommendations it did deliver
  // must not sit in a merge whose report names their partition absent — a
  // caller compensating per the report would double-count them. The
  // partial share is rescued instead (the server-side take was
  // destructive) and rides with the next successful gather, like any
  // other rescued share.
  std::vector<uint32_t> downstream_missing;
  for (Slot& slot : slots) {
    std::vector<Frame> reply;
    const bool replied = AwaitReply(&slot, &reply);
    std::vector<Recommendation> staged;
    std::vector<uint32_t> staged_missing;
    bool complete = replied && !reply.empty();
    for (size_t i = 0; i < reply.size() && complete; ++i) {
      const Frame& frame = reply[i];
      if (frame.tag == MessageTag::kError) {
        slot.status = TagError(*slot.daemon, DecodeError(frame.payload));
        complete = false;
        break;
      }
      if (frame.tag != MessageTag::kRecommendationsReply) {
        slot.status = TagError(
            *slot.daemon,
            UnexpectedReply(frame.tag, "recommendations-reply"));
        complete = false;
        break;
      }
      bool has_more = false;
      GatherReport chunk_report;
      const Status decoded = DecodeRecommendationsReply(
          frame.payload, &staged, &has_more, &chunk_report);
      if (!decoded.ok()) {
        slot.status = TagError(*slot.daemon, decoded);
        complete = false;
        break;
      }
      staged_missing.insert(staged_missing.end(),
                            chunk_report.missing_partitions.begin(),
                            chunk_report.missing_partitions.end());
      if (i + 1 == reply.size() && has_more) {
        // The session said "last frame" while the chunking protocol
        // promised more: the reply stream is broken.
        slot.status = TagError(
            *slot.daemon,
            Status::Internal("chunked reply ended with has_more set"));
        complete = false;
      }
    }
    // A timed-out or died-mid-stream lane may still have decodable chunks
    // in `reply`: decode what arrived so the partial share is rescued,
    // never dropped (the server-side take was destructive).
    if (!replied && !reply.empty() && staged.empty()) {
      bool more = true;
      for (const Frame& frame : reply) {
        if (frame.tag != MessageTag::kRecommendationsReply || !more) break;
        GatherReport ignored;
        if (!DecodeRecommendationsReply(frame.payload, &staged, &more,
                                        &ignored)
                 .ok()) {
          break;
        }
      }
      complete = false;
    }
    if (complete) {
      slot.answered = true;
      recs.insert(recs.end(), std::make_move_iterator(staged.begin()),
                  std::make_move_iterator(staged.end()));
      downstream_missing.insert(downstream_missing.end(),
                                staged_missing.begin(),
                                staged_missing.end());
    } else if (!staged.empty()) {
      RescuePending(&staged);
    }
  }

  // Build the coverage report and the per-daemon staleness counters. A
  // daemon answered iff THIS gather's chunk stream completed on its lane —
  // a replay-flush error carried in slot.status must not mark a daemon
  // missing when its recommendations are in the merge.
  GatherReport report;
  report.daemons_total = static_cast<uint32_t>(slots.size());
  for (const Slot& slot : slots) {
    const bool missed = !slot.answered;
    Daemon* daemon = slot.daemon;
    {
      std::lock_guard<std::mutex> lock(daemon->mu);
      if (missed) {
        daemon->gathers_missed_total++;
        daemon->gathers_missed_consecutive++;
      } else {
        daemon->gathers_missed_consecutive = 0;
      }
    }
    if (!missed) {
      report.daemons_answered++;
      continue;
    }
    const uint32_t partition = daemon->endpoint.partition;
    if (partition == FanoutEndpoint::kAllPartitions && group_size_ > 0) {
      for (uint32_t p = 0; p < group_size_; ++p) {
        report.missing_partitions.push_back(p);
      }
    } else {
      report.missing_partitions.push_back(partition);
    }
  }
  report.missing_partitions.insert(report.missing_partitions.end(),
                                   downstream_missing.begin(),
                                   downstream_missing.end());
  std::sort(report.missing_partitions.begin(),
            report.missing_partitions.end());
  report.missing_partitions.erase(
      std::unique(report.missing_partitions.begin(),
                  report.missing_partitions.end()),
      report.missing_partitions.end());

  const Status replay_rejection = FirstReplayRejection(slots);
  const Status first = FirstError(slots);
  if (caller_report != nullptr) *caller_report = report;
  {
    std::lock_guard<std::mutex> lock(report_mu_);
    last_report_ = report;
  }
  // Quorum tolerance covers ABSENT daemons, not data loss: a replay-flush
  // rejection (permanent loss of parked events, surfaced exactly once)
  // fails the call even when enough daemons answered this gather.
  const bool covered =
      first.ok() ||
      (degraded() && report.daemons_answered >= RequiredQuorum());
  if (covered && replay_rejection.ok()) {
    if (!report.complete()) {
      degraded_gathers_.fetch_add(1, std::memory_order_relaxed);
    }
    // A successful gather closes every parked trace that was still waiting
    // for one: this is the merge that carries the traced batch's
    // recommendations (or would have, had it produced any).
    {
      std::lock_guard<std::mutex> lock(traces_mu_);
      for (TraceContext& parked : traces_) {
        if (parked.Find(TraceStage::kGather) == nullptr) {
          parked.Stamp(TraceStage::kGather, kTracePartyBroker,
                       SystemClock::Default()->Now());
        }
      }
    }
    return recs;
  }
  // Below quorum (or strict, or a replay rejection): the healthy daemons
  // already surrendered their share and a server-side take is
  // destructive, so park it — bounded — for the next successful call
  // instead of dropping it on the floor. Overflow is counted, never
  // silent.
  RescuePending(&recs);
  return covered ? replay_rejection : first;
}

Status FanoutCluster::Checkpoint(Timestamp created_at) {
  std::string request;
  AppendCheckpoint(created_at, &request);
  // Durability never degrades: a checkpoint that silently skipped a daemon
  // would leave that shard unrecoverable.
  return BroadcastForAck(request, /*require_all=*/true);
}

Status FanoutCluster::KillReplica(uint32_t partition, uint32_t replica) {
  std::string request;
  AppendReplicaOp(MessageTag::kKillReplica, partition, replica, &request);
  Daemon* daemon = RouteToPartition(partition);
  if (daemon == nullptr) {
    return Status::InvalidArgument(
        StrFormat("no daemon hosts partition %u", partition));
  }
  return ExchangeForAckOn(daemon, request);
}

Status FanoutCluster::RecoverReplica(uint32_t partition, uint32_t replica) {
  std::string request;
  AppendReplicaOp(MessageTag::kRecoverReplica, partition, replica, &request);
  Daemon* daemon = RouteToPartition(partition);
  if (daemon == nullptr) {
    return Status::InvalidArgument(
        StrFormat("no daemon hosts partition %u", partition));
  }
  return ExchangeForAckOn(daemon, request);
}

Status FanoutCluster::ExchangeForAckOn(Daemon* daemon,
                                       const std::string& request) {
  std::shared_lock<std::shared_mutex> lifecycle(lifecycle_mu_);
  if (closed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("fan-out cluster is closed");
  }
  MAGICRECS_ASSIGN_OR_RETURN(std::shared_ptr<MuxConnection> conn,
                             AcquireConn(daemon));
  std::vector<Frame> reply;
  const Status status =
      conn->CallOne(request, options_.recv_timeout_ms, &reply);
  if (!status.ok()) {
    DropConn(daemon, conn, /*start_backoff=*/true);
    return TagError(*daemon, status);
  }
  const MessageTag tag =
      reply.empty() ? MessageTag::kMuxResponse : reply.front().tag;
  if (tag == MessageTag::kError) {
    return TagError(*daemon, DecodeError(reply.front().payload));
  }
  if (tag != MessageTag::kAck) {
    return TagError(*daemon, UnexpectedReply(tag, "ack"));
  }
  return Status::OK();
}

Result<ClusterStats> FanoutCluster::GetStats() {
  std::shared_lock<std::shared_mutex> lifecycle(lifecycle_mu_);
  if (closed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("fan-out cluster is closed");
  }
  std::string request;
  AppendEmptyRequest(MessageTag::kStats, &request);

  // Start-all-then-await-all like every other broadcast, so the per-daemon
  // snapshots are taken concurrently (minimally skewed in time) instead of
  // one round trip after another.
  std::vector<Slot> slots = AcquireAll();
  StartAll(&slots, FrameBuf::Wrap(std::move(request)));
  ClusterStats merged;
  size_t answered = 0;
  for (Slot& slot : slots) {
    ClusterStats stats;
    if (!AwaitStatsReply(&slot, &stats)) continue;
    answered++;
    // Merge: shape fields take the widest daemon view; detector counters,
    // memory, and server-loop counters sum across daemons;
    // events_published takes the max (every daemon counts the same
    // fanned-out stream, so summing would multiply the broker-side publish
    // count by the daemon count).
    merged.num_partitions = std::max(merged.num_partitions,
                                     stats.num_partitions);
    merged.replicas_per_partition =
        std::max(merged.replicas_per_partition, stats.replicas_per_partition);
    merged.events_published =
        std::max(merged.events_published, stats.events_published);
    merged.detector_events += stats.detector_events;
    merged.threshold_queries += stats.threshold_queries;
    merged.recommendations += stats.recommendations;
    merged.static_memory_bytes += stats.static_memory_bytes;
    merged.dynamic_memory_bytes += stats.dynamic_memory_bytes;
    merged.partitioner_salt = stats.partitioner_salt;  // equal; Ping checks
    if (stats.server.loop != 0) merged.server.loop = stats.server.loop;
    merged.server.connections_open += stats.server.connections_open;
    merged.server.requests_served += stats.server.requests_served;
    merged.server.partial_reads += stats.server.partial_reads;
    merged.server.partial_writes += stats.server.partial_writes;
    merged.server.inflight_stalls += stats.server.inflight_stalls;
    merged.server.mux_connections += stats.server.mux_connections;
    merged.per_replica.insert(merged.per_replica.end(),
                              stats.per_replica.begin(),
                              stats.per_replica.end());
  }
  const Status replay_rejection = FirstReplayRejection(slots);
  const Status first = FirstError(slots);
  if (!first.ok() && !(degraded() && answered >= RequiredQuorum())) {
    return first;
  }
  // Quorum met: tolerated, unless a replay flush lost events for good.
  if (!replay_rejection.ok()) return replay_rejection;
  std::sort(merged.per_replica.begin(), merged.per_replica.end(),
            [](const ReplicaStats& a, const ReplicaStats& b) {
              return a.partition != b.partition ? a.partition < b.partition
                                                : a.replica < b.replica;
            });
  // Broker-side degraded-mode counters (never on the wire; see transport.h).
  merged.degraded_gathers = degraded_gathers_.load(std::memory_order_relaxed);
  merged.hedged_publishes = hedged_publishes_.load(std::memory_order_relaxed);
  merged.replayed_events = replayed_events_.load(std::memory_order_relaxed);
  merged.replay_dropped_events =
      replay_dropped_events_.load(std::memory_order_relaxed);
  merged.rescue_dropped = rescue_dropped_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    merged.rescued_recommendations = pending_.size();
  }
  for (const auto& daemon : daemons_) {
    PartitionHealth health;
    health.partition = daemon->endpoint.partition;
    {
      std::lock_guard<std::mutex> lock(daemon->mu);
      health.gathers_missed_total = daemon->gathers_missed_total;
      health.gathers_missed_consecutive = daemon->gathers_missed_consecutive;
    }
    merged.partition_health.push_back(health);
  }
  std::sort(merged.partition_health.begin(), merged.partition_health.end(),
            [](const PartitionHealth& a, const PartitionHealth& b) {
              return a.partition < b.partition;
            });
  return merged;
}

GatherReport FanoutCluster::LastGatherReport() const {
  std::lock_guard<std::mutex> lock(report_mu_);
  return last_report_;
}

std::vector<TraceContext> FanoutCluster::TakeTraces() {
  std::vector<TraceContext> out;
  std::lock_guard<std::mutex> lock(traces_mu_);
  out.assign(std::make_move_iterator(traces_.begin()),
             std::make_move_iterator(traces_.end()));
  traces_.clear();
  return out;
}

Result<std::string> FanoutCluster::GetStatsText() {
  std::shared_lock<std::shared_mutex> lifecycle(lifecycle_mu_);
  if (closed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("fan-out cluster is closed");
  }
  // Mirror the broker-side degraded-mode atomics into the process registry
  // at scrape time (the health monitor mirrors the same set each tick).
  MirrorBrokerCounters();

  std::string out = "# source broker\n";
  out += MetricsRegistry::Default()->RenderText();

  // Scrape every daemon concurrently. A daemon that cannot answer (down,
  // or a pre-kStatsText binary answering kError) degrades to an annotated
  // header line — an observability probe into a degraded cluster must
  // return the healthy daemons' text, not fail wholesale.
  std::string request;
  AppendEmptyRequest(MessageTag::kStatsText, &request);
  std::vector<Slot> slots = AcquireAll();
  StartAll(&slots, FrameBuf::Wrap(std::move(request)));
  for (Slot& slot : slots) {
    const FanoutEndpoint& e = slot.daemon->endpoint;
    std::string header =
        e.partition == FanoutEndpoint::kAllPartitions
            ? StrFormat("# source daemon %s:%u", e.host.c_str(), e.port)
            : StrFormat("# source daemon %s:%u partition %u", e.host.c_str(),
                        e.port, e.partition);
    std::vector<Frame> reply;
    if (!AwaitReply(&slot, &reply) || reply.empty()) {
      out += StrFormat("%s unreachable: %s\n", header.c_str(),
                       std::string(slot.status.message()).c_str());
      continue;
    }
    const Frame& frame = reply.front();
    if (frame.tag == MessageTag::kError) {
      const Status err = DecodeError(frame.payload);
      out += StrFormat("%s error: %s\n", header.c_str(),
                       std::string(err.message()).c_str());
      continue;
    }
    std::string text;
    if (frame.tag != MessageTag::kStatsTextReply ||
        !DecodeStatsTextReply(frame.payload, &text).ok()) {
      out += StrFormat("%s error: malformed stats-text reply\n",
                       header.c_str());
      continue;
    }
    out += header;
    out += '\n';
    out += text;
    if (!text.empty() && text.back() != '\n') out += '\n';
  }
  return out;
}

Result<HashPartitioner> FanoutCluster::Partitioner() const {
  if (group_size_ == 0) {
    return Status::Unimplemented(
        "single all-hosting daemon with no group_size configured: placement "
        "lives server-side");
  }
  return HashPartitioner(group_size_, options_.partitioner_salt);
}

bool FanoutCluster::AwaitStatsReply(Slot* slot, ClusterStats* stats) {
  std::vector<Frame> reply;
  if (!AwaitReply(slot, &reply) || reply.empty()) return false;
  const Frame& frame = reply.front();
  if (frame.tag == MessageTag::kError) {
    slot->status = TagError(*slot->daemon, DecodeError(frame.payload));
    return false;
  }
  if (frame.tag != MessageTag::kStatsReply) {
    slot->status =
        TagError(*slot->daemon, UnexpectedReply(frame.tag, "stats-reply"));
    return false;
  }
  const Status decoded = DecodeStatsReply(frame.payload, stats);
  if (!decoded.ok()) {
    slot->status = TagError(*slot->daemon, decoded);
    return false;
  }
  return true;
}

Status FanoutCluster::VerifyTopology() {
  std::shared_lock<std::shared_mutex> lifecycle(lifecycle_mu_);
  if (closed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("fan-out cluster is closed");
  }
  std::string request;
  AppendEmptyRequest(MessageTag::kStats, &request);
  std::vector<Slot> slots = AcquireAll();
  StartAll(&slots, FrameBuf::Wrap(std::move(request)));
  for (Slot& slot : slots) {
    ClusterStats stats;
    if (!AwaitStatsReply(&slot, &stats)) continue;
    const FanoutEndpoint& endpoint = slot.daemon->endpoint;
    if (group_size_ > 0 && stats.num_partitions != group_size_) {
      slot.status = TagError(
          *slot.daemon,
          Status::FailedPrecondition(StrFormat(
              "daemon spans %u partitions, this broker expects a "
              "%u-partition group (check --partition-group)",
              stats.num_partitions, group_size_)));
      continue;
    }
    if (stats.partitioner_salt != options_.partitioner_salt) {
      slot.status = TagError(
          *slot.daemon,
          Status::FailedPrecondition(StrFormat(
              "daemon partitioner salt %llu != broker salt %llu — "
              "placement would disagree (check --partitioner-salt)",
              static_cast<unsigned long long>(stats.partitioner_salt),
              static_cast<unsigned long long>(
                  options_.partitioner_salt))));
      continue;
    }
    if (endpoint.partition == FanoutEndpoint::kAllPartitions) continue;
    // An explicit-partition endpoint must host that partition and nothing
    // else: a daemon missing its --partition-group flags hosts EVERY
    // partition and would silently duplicate recommendations.
    for (const ReplicaStats& entry : stats.per_replica) {
      if (entry.partition != endpoint.partition) {
        slot.status = TagError(
            *slot.daemon,
            Status::FailedPrecondition(StrFormat(
                "daemon hosts partition %u but this endpoint is wired as "
                "partition %u (swapped endpoints, or the daemon is missing "
                "--partition-group/--partition-id?)",
                entry.partition, endpoint.partition)));
        break;
      }
    }
  }
  return FirstError(slots);
}

Status FanoutCluster::Ping() {
  std::string request;
  AppendEmptyRequest(MessageTag::kPing, &request);
  // Liveness/topology verification is strict under every policy: its whole
  // point is to find the daemon that is down or miswired.
  MAGICRECS_RETURN_IF_ERROR(BroadcastForAck(request, /*require_all=*/true));
  return VerifyTopology();
}

// --- health autopilot --------------------------------------------------------

std::string FanoutCluster::PartyName(const Daemon& daemon) const {
  const FanoutEndpoint& e = daemon.endpoint;
  return e.partition == FanoutEndpoint::kAllPartitions
             ? StrFormat("%s:%u", e.host.c_str(), e.port)
             : StrFormat("p%u", e.partition);
}

void FanoutCluster::MirrorBrokerCounters() {
  // RaiseTo (CAS-to-max) keeps concurrent mirrors (monitor tick, scrape)
  // and the monotone sources consistent without double-counting.
  MetricsRegistry* registry = MetricsRegistry::Default();
  registry->GetCounter("broker_degraded_gathers")
      ->RaiseTo(degraded_gathers_.load(std::memory_order_relaxed));
  registry->GetCounter("broker_hedged_publishes")
      ->RaiseTo(hedged_publishes_.load(std::memory_order_relaxed));
  registry->GetCounter("broker_replayed_events")
      ->RaiseTo(replayed_events_.load(std::memory_order_relaxed));
  registry->GetCounter("broker_replay_dropped_events")
      ->RaiseTo(replay_dropped_events_.load(std::memory_order_relaxed));
  registry->GetCounter("broker_rescue_dropped")
      ->RaiseTo(rescue_dropped_.load(std::memory_order_relaxed));
  registry->GetCounter("broker_policy_flips")
      ->RaiseTo(policy_flips_.load(std::memory_order_relaxed));
  registry->GetCounter("broker_shed_publishes")
      ->RaiseTo(shed_publishes_.load(std::memory_order_relaxed));
  registry->GetGauge("broker_policy")
      ->Set(static_cast<int64_t>(active_policy()));
  registry->GetGauge("broker_shedding")->Set(shedding() ? 1 : 0);
}

void FanoutCluster::StartHealthMonitor() {
  // The journal exists under every configuration (tests read its in-memory
  // ring; non-autopilot brokers can still be pointed at a path); the
  // monitor thread only spins up when the autopilot is on.
  journal_ = std::make_unique<EventLog>(options_.event_journal_path);
  if (!options_.autopilot) return;
  HealthMonitorOptions monitor_options;
  monitor_options.interval_ms = std::max(1, options_.health_interval_ms);
  monitor_options.thresholds = options_.health;
  monitor_ = std::make_unique<HealthMonitor>(
      MetricsRegistry::Default(), journal_.get(),
      [this](const MetricsTimeSeries& series, int64_t window_us,
             HealthInputs* inputs) {
        CollectHealthInputs(series, window_us, inputs);
      },
      monitor_options,
      [this](const HealthReport& report,
             const std::vector<HealthTransition>& transitions) {
        OnHealthReport(report, transitions);
      },
      [this] { MirrorBrokerCounters(); });
}

void FanoutCluster::CollectHealthInputs(const MetricsTimeSeries& series,
                                        int64_t window_us,
                                        HealthInputs* inputs) {
  // Permanent event loss in-window (replay rejections, rescue overflow) is
  // the broker's own failure to uphold the degraded contract — it scores
  // the "broker" party, not a daemon.
  const double loss_rate =
      series.CounterRate("broker_replay_dropped_events", window_us)
          .value_or(0) +
      series.CounterRate("broker_rescue_dropped", window_us).value_or(0);

  bool shed_raise = false;
  bool shed_all_clear = true;
  double worst_frac = 0;
  std::string worst_party;
  for (const auto& daemon : daemons_) {
    HealthInputs::Party party;
    party.name = PartyName(*daemon);
    {
      std::lock_guard<std::mutex> lock(daemon->mu);
      // backoff_ms resets to 0 on a successful dial, so nonzero means the
      // most recent attempt failed — the circuit breaker is (or was) open.
      party.unreachable = daemon->backoff_ms != 0;
      party.gathers_missed_consecutive = daemon->gathers_missed_consecutive;
    }
    {
      std::lock_guard<std::mutex> lock(daemon->replay_mu);
      party.replay_events = daemon->replay_events;
    }
    party.replay_capacity = options_.replay_buffer_events;
    if (options_.shed_replay_frac > 0 && party.replay_capacity > 0) {
      const double frac = static_cast<double>(party.replay_events) /
                          static_cast<double>(party.replay_capacity);
      if (frac >= options_.shed_replay_frac) shed_raise = true;
      if (frac >= options_.shed_replay_frac / 2) shed_all_clear = false;
      if (frac > worst_frac) {
        worst_frac = frac;
        worst_party = party.name;
      }
    }
    inputs->parties.push_back(std::move(party));
  }

  HealthInputs::Party broker;
  broker.name = "broker";
  broker.replay_loss_rate_per_s = loss_rate;
  inputs->parties.push_back(std::move(broker));

  // Load-shed hysteresis: raise at shed_replay_frac, clear only once every
  // buffer is back under half of it. Runs here (not in the observer)
  // because this is where the replay depths are already in hand.
  if (options_.shed_replay_frac > 0) {
    const bool was_shedding = shedding_.load(std::memory_order_relaxed);
    if (!was_shedding && shed_raise) {
      shedding_.store(true, std::memory_order_relaxed);
      if (journal_ != nullptr) {
        journal_->Append(
            SystemClock::Default()->Now(), "shed_start",
            {LogEvent::Str("party", worst_party),
             LogEvent::Num("replay_frac", worst_frac),
             LogEvent::Num("shed_replay_frac", options_.shed_replay_frac)});
      }
    } else if (was_shedding && shed_all_clear) {
      shedding_.store(false, std::memory_order_relaxed);
      if (journal_ != nullptr) {
        journal_->Append(SystemClock::Default()->Now(), "shed_stop",
                         {LogEvent::Num("replay_frac", worst_frac)});
      }
    }
  }
}

void FanoutCluster::OnHealthReport(
    const HealthReport& report,
    const std::vector<HealthTransition>& transitions) {
  (void)transitions;  // journaled by the monitor itself
  // The autopilot only manages a strict-configured broker: a configured
  // degraded policy is already at or past what a flip would grant.
  if (options_.policy != FanoutPolicy::kStrict) return;

  bool any_daemon_unhealthy = false;
  const PartyHealth* worst = nullptr;
  for (const PartyHealth& party : report.parties) {
    if (party.party == "broker") continue;
    if (party.state == HealthState::kHealthy) continue;
    any_daemon_unhealthy = true;
    if (worst == nullptr || party.state > worst->state) worst = &party;
  }

  const FanoutPolicy current = active_policy();
  FanoutPolicy desired = current;
  if (any_daemon_unhealthy) {
    desired = FanoutPolicy::kQuorum;
  } else {
    // Flip back only when every replay buffer has drained: AcquireAll
    // flushes owed frames under any policy, but strict gathers would
    // count still-parked events as missing, and the whole point of the
    // dwell was to be sure before tightening the contract again.
    bool replay_empty = true;
    for (const auto& daemon : daemons_) {
      std::lock_guard<std::mutex> lock(daemon->replay_mu);
      if (daemon->replay_events != 0) {
        replay_empty = false;
        break;
      }
    }
    if (replay_empty) desired = FanoutPolicy::kStrict;
  }

  if (desired == current || options_.pin_policy) {
    MetricsRegistry::Default()->GetGauge("broker_policy")
        ->Set(static_cast<int64_t>(current));
    return;
  }

  active_policy_.store(desired, std::memory_order_relaxed);
  policy_flips_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::Default()->GetGauge("broker_policy")
      ->Set(static_cast<int64_t>(desired));
  const std::string trigger_party = worst != nullptr ? worst->party : "";
  const std::string reason =
      worst != nullptr ? std::string(HealthReasonName(worst->reason))
                       : std::string(HealthReasonName(HealthReason::kRecovered));
  const std::string detail =
      worst != nullptr ? worst->detail
                       : "all parties healthy through dwell, replay drained";
  if (journal_ != nullptr) {
    journal_->Append(report.at_us, "policy_flip",
                     {LogEvent::Str("from", std::string(FanoutPolicyName(
                                                current))),
                      LogEvent::Str("to", std::string(FanoutPolicyName(
                                              desired))),
                      LogEvent::Str("trigger_party", trigger_party),
                      LogEvent::Str("reason", reason),
                      LogEvent::Str("detail", detail)});
  }
  std::fprintf(stderr, "fanout broker: policy %s -> %s%s%s%s\n",
               std::string(FanoutPolicyName(current)).c_str(),
               std::string(FanoutPolicyName(desired)).c_str(),
               trigger_party.empty() ? "" : " (",
               trigger_party.empty()
                   ? ""
                   : (trigger_party + ": " + reason + ", " + detail).c_str(),
               trigger_party.empty() ? "" : ")");
}

Result<HealthReport> FanoutCluster::GetHealth() {
  std::shared_lock<std::shared_mutex> lifecycle(lifecycle_mu_);
  if (closed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("fan-out cluster is closed");
  }
  if (monitor_ != nullptr) return monitor_->Latest();
  return ClusterTransport::GetHealth();
}

Status FanoutCluster::Close() {
  if (closed_.exchange(true)) return Status::OK();
  for (const auto& daemon : daemons_) {
    std::shared_ptr<MuxConnection> conn;
    {
      std::lock_guard<std::mutex> lock(daemon->mu);
      conn = std::move(daemon->conn);
      daemon->conn.reset();
      daemon->cv.notify_all();
    }
    // Sever outside the lock: in-flight calls fail their awaits and
    // return. The connection object itself dies when the last in-flight
    // slot drops its reference.
    if (conn != nullptr) conn->Shutdown();
  }
  // Barrier: wait out the in-flight calls (their awaits just failed) so
  // the destructor can never free Daemon state under one.
  std::unique_lock<std::shared_mutex> lifecycle(lifecycle_mu_);
  // Join the health monitor before daemon state is cleared: its collector
  // walks daemon mutexes and replay depths, and GetHealth() dereferences
  // it under the shared lifecycle lock this barrier just drained.
  monitor_.reset();
  // With no call in flight anymore, drop everything a degraded run parked:
  // rescued recommendations must not survive into a rebuilt broker's
  // gathers, and replay buffers must not pin memory after close.
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.clear();
    pending_.shrink_to_fit();
  }
  for (const auto& daemon : daemons_) {
    std::lock_guard<std::mutex> lock(daemon->replay_mu);
    daemon->replay.clear();
    daemon->replay_events = 0;
  }
  return Status::OK();
}

}  // namespace magicrecs::net
