// The magicrecs wire protocol: dependency-free, length-prefixed binary
// frames over a byte stream, reusing the persist/ codec primitives and the
// masked CRC-32C that already guards the WAL.
//
// Endianness: the wire format is DEFINED as little-endian and implemented
// with the persist/codec.h memcpy primitives, which are correct on every
// supported (LE) target; a big-endian port byte-swaps in codec.h and
// nowhere else — the same stance the on-disk formats take.
//
// Frame layout (little-endian, same framing discipline as a WAL record):
//
//   frame := body_len:u32  masked_crc32c(body):u32  body
//   body  := tag:u8  payload
//
// Request payloads (client -> server):
//   kPublish            src:u32 dst:u32 created_at:i64 action:u8
//   kPublishBatch       count:u32  (src dst created_at action)*
//                       [marker:u8=0x01 batch_seq:u64]
//     The bracketed batch_seq tail makes the frame idempotent: a broker
//     hedging a slow daemon re-sends the same frame (same sequence) on a
//     fresh connection, and the server suppresses the duplicate
//     (rpc_server.h publish_dedup_window). Absent tail = no dedup — the
//     pre-extension encoding, which strict-mode brokers still emit. The
//     marker byte means presence is never inferred from payload length
//     alone: a forged count that leaves tail-sized residue is rejected,
//     not silently decoded as a sequence.
//   kTakeRecommendations  (empty)
//   kDrain                (empty)
//   kCheckpoint         created_at:i64
//   kKillReplica        partition:u32 replica:u32
//   kRecoverReplica     partition:u32 replica:u32
//   kStats                (empty)
//   kPing                 (empty)
//   kStatsText            (empty)
//     Answered by kStatsTextReply: the serving process's metrics registry
//     rendered in the stable text exposition (docs/observability.md). A
//     pre-extension daemon answers kError(Unimplemented) — rule 3 of the
//     versioning discipline — so scrapers degrade gracefully.
//
// Response payloads (server -> client):
//   kAck                  (empty)
//                         [marker:u8=0x02 trace-tail]
//     The bracketed trace tail echoes a publish-batch's TraceContext back
//     with the daemon's stamps added (see "Trace propagation" below). It is
//     emitted only when the acked request itself carried a trace — trace in,
//     trace out — so a sender that cannot decode the tail never receives it.
//   kError              code:u8 message-bytes (to end of payload)
//   kRecommendationsReply has_more:u8 count:u32 rec*
//                         [marker:u8=0x01 daemons_total:u32
//                          daemons_answered:u32 missing_count:u32
//                          missing_partition:u32*]   where
//     rec := user:u32 item:u32 witness_count:u32 trigger:u32
//            event_time:i64  nwitnesses:u32 witness:u32*
//     A gather too large for one frame streams as several reply frames;
//     has_more != 0 on all but the last. One request, N ordered frames.
//     The bracketed GatherReport tail is appended to the LAST frame only
//     when the serving transport's gather was degraded (a fan-out broker
//     under quorum/best-effort policy with daemons down); a complete
//     gather omits it, keeping healthy-path bytes identical to the
//     pre-extension encoding.
//   kStatsReply         num_partitions:u32 replicas:u32 published:u64
//                       detector_events:u64 queries:u64 recs:u64
//                       static_bytes:u64 dynamic_bytes:u64
//                       [replica_count:u32 replica*  [salt:u64
//                        [marker:u8=0x01 loop:u8 conns_open:u32
//                         requests:u64 partial_reads:u64
//                         partial_writes:u64 inflight_stalls:u64
//                         mux_conns:u64]]]   where
//     replica := partition:u32 replica:u32 alive:u8
//                events:u64 queries:u64 recs:u64
//     The bracketed tails are extensions: the per-replica identity list (so
//     stats from many partition-group daemons stay attributable) and the
//     partitioner salt (so a fan-out broker can detect placement
//     disagreement). Decoders accept their absence — the pre-extension
//     encodings — as empty/zero. This is the protocol's versioning
//     discipline: payloads grow only at the tail, and a decoder treats a
//     missing tail as the field's empty/zero value. The converse does NOT
//     hold — a pre-extension decoder rejects an unfamiliar tail as
//     trailing garbage — so a grown payload must not be EMITTED until the
//     peer that decodes it is upgraded. The degraded-mode tails (batch_seq,
//     GatherReport) are therefore tied to explicit operator opt-in
//     (FanoutPolicy != strict): upgrade every binary first, enable the
//     policy second (docs/wire-protocol.md, "Versioning and compatibility").
//   kStatsTextReply       the registry text exposition, raw UTF-8 bytes
//
// Trace propagation (feature bit 1, kFeatureTrace):
//   trace-tail := marker:u8=0x02 trace_id:u64 origin_us:i64 count:u8
//                 (stage:u8 party:u32 at_us:i64)*
//     A sampled publish-batch appends the trace tail AFTER the batch_seq
//     tail (tails keep their introduction order; a 0x02 tail may appear
//     without a 0x01 tail but never before one). The daemon stamps
//     daemon-dequeue and detector-apply and echoes the context in the ack's
//     trace tail; the gather reply's LAST frame may carry one completed
//     context after the GatherReport tail. count is capped at
//     kMaxTraceStamps (64) — a forged count is rejected before allocating.
//     Emission is gated on the hello exchange: a client/broker requests
//     kFeatureTrace, and only a connection whose HelloReply granted the bit
//     ever carries a trace tail in either direction — unsampled batches and
//     legacy peers see byte-identical pre-extension frames.
//
// Session negotiation and multiplexing (protocol version 1):
//   kHello              marker:u8=0x01 proto_version:u32 features:u32
//   kHelloReply         proto_version:u32 features:u32 max_inflight:u32
//   kMuxRequest         request_id:u64 inner_tag:u8 inner_payload
//   kMuxResponse        request_id:u64 last:u8 inner_tag:u8 inner_payload
//     A client opens a session with kHello naming the features it wants
//     (bit 0, kFeatureMux: request-id multiplexing). The server answers
//     kHelloReply with the intersection of features it accepts plus the
//     per-connection in-flight request cap it will enforce. The clients in
//     this repository (MuxConnection, hence the fan-out broker) require
//     kFeatureMux in the reply and fail the dial otherwise — there is no
//     client-side in-order fallback. A peer that never sends kHello is
//     still served the bare encoding below, in request order. Once mux is
//     negotiated, many logical calls share the connection: each
//     request travels as a kMuxRequest envelope around the ordinary
//     request body, every reply frame comes back as a kMuxResponse
//     envelope carrying the same request_id, and replies for DIFFERENT
//     request_ids may arrive in any order (frames of one chunked reply
//     stay ordered; `last` marks its final frame). Request ids are chosen
//     by the client and opaque to the server; reusing an id while it is in
//     flight is a client bug. Hello payloads grow at the tail like every
//     other message; the leading marker byte keeps a hello distinguishable
//     from residue under the same discipline as the other tails.
//
// Without negotiation, every request is answered by exactly one response on
// the same connection, in request order. Clients MAY pipeline — write
// request N+1 before reading response N (the fan-out broker keeps a bounded
// window of publish frames in flight) — so servers must not assume at most
// one outstanding request per connection. Ordering: requests that mutate
// the event stream (publish, publish-batch, drain, checkpoint, replica
// ops) are applied in per-connection arrival order even on a multiplexed
// connection — out-of-order completion is only allowed for reads (gather,
// stats, ping), which may overtake a stalled write. Sequence numbers are
// NOT carried for published events: the server's broker assigns them at
// ingest, exactly as the in-process broker does.
//
// Robustness contract (tests/net/): a truncated frame, an oversized length
// prefix, a CRC mismatch, or an unknown tag decodes to a Status error —
// never a crash, an allocation bomb, or a hang.

#ifndef MAGICRECS_NET_WIRE_H_
#define MAGICRECS_NET_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cluster/transport.h"
#include "core/recommendation.h"
#include "stream/event.h"
#include "util/result.h"
#include "util/status.h"
#include "util/trace.h"
#include "util/types.h"

namespace magicrecs::net {

/// Message discriminator, first byte of every frame body. Requests occupy
/// the low range, responses have the top bit set.
enum class MessageTag : uint8_t {
  kPublish = 0x01,
  kPublishBatch = 0x02,
  kTakeRecommendations = 0x03,
  kDrain = 0x04,
  kCheckpoint = 0x05,
  kKillReplica = 0x06,
  kRecoverReplica = 0x07,
  kStats = 0x08,
  kPing = 0x09,
  kHello = 0x0A,
  kMuxRequest = 0x0B,
  kStatsText = 0x0C,

  kAck = 0x80,
  kError = 0x81,
  kRecommendationsReply = 0x82,
  kStatsReply = 0x83,
  kHelloReply = 0x84,
  kMuxResponse = 0x85,
  kStatsTextReply = 0x86,
};

/// Wire protocol version carried by the hello exchange.
inline constexpr uint32_t kProtocolVersion = 1;

/// Hello feature bits.
inline constexpr uint32_t kFeatureMux = 1u << 0;
inline constexpr uint32_t kFeatureTrace = 1u << 1;

/// True for requests that must be applied in per-connection arrival order
/// (they mutate the event stream or durable state); false for reads, which
/// a multiplexing server may run concurrently and answer out of order.
bool IsOrderSensitive(MessageTag tag);

std::string_view MessageTagName(MessageTag tag);

/// body_len:u32 + masked_crc:u32.
inline constexpr size_t kFrameHeaderBytes = 8;

/// Upper bound on a frame body. Guards the daemon against allocation bombs
/// from hostile or desynchronized peers: a length prefix above this is a
/// protocol error, not an allocation.
inline constexpr size_t kMaxFrameBodyBytes = 16u << 20;

/// One decoded frame.
struct Frame {
  MessageTag tag;
  std::string payload;  // body minus the tag byte
};

// --- frame assembly ----------------------------------------------------------

/// Appends a complete frame (header + tag + payload) to *out.
void AppendFrame(MessageTag tag, std::string_view payload, std::string* out);

/// Validates a frame header. On success *body_len / *masked_crc are set;
/// InvalidArgument for a zero-length body, ResourceExhausted for a length
/// above kMaxFrameBodyBytes (the caller must NOT allocate body_len first).
Status DecodeFrameHeader(const uint8_t header[kFrameHeaderBytes],
                         uint32_t* body_len, uint32_t* masked_crc);

/// Validates the body CRC and extracts the tag. Corruption on mismatch.
Status DecodeFrameBody(const uint8_t* body, size_t body_len,
                       uint32_t masked_crc, MessageTag* tag);

// --- request encoders / decoders ---------------------------------------------

void AppendPublish(const EdgeEvent& event, std::string* out);

/// `batch_sequence` != 0 appends the idempotency tail (see the payload
/// table); 0 emits the pre-extension encoding byte-identically. A non-null
/// active() `trace` appends the trace tail after it — emit that ONLY on a
/// connection whose hello granted kFeatureTrace.
void AppendPublishBatch(std::span<const EdgeEvent> events, std::string* out,
                        uint64_t batch_sequence = 0,
                        const TraceContext* trace = nullptr);
void AppendEmptyRequest(MessageTag tag, std::string* out);  // take/drain/...
void AppendCheckpoint(Timestamp created_at, std::string* out);
void AppendReplicaOp(MessageTag tag, uint32_t partition, uint32_t replica,
                     std::string* out);

Status DecodePublish(std::string_view payload, EdgeEvent* event);

/// `*batch_sequence` (optional) receives the idempotency tail, or 0 when
/// the payload carries the pre-extension encoding. `*trace` (optional)
/// receives the trace tail, or an inactive context when absent.
Status DecodePublishBatch(std::string_view payload,
                          std::vector<EdgeEvent>* events,
                          uint64_t* batch_sequence = nullptr,
                          TraceContext* trace = nullptr);
Status DecodeCheckpoint(std::string_view payload, Timestamp* created_at);
Status DecodeReplicaOp(std::string_view payload, uint32_t* partition,
                       uint32_t* replica);

// --- session negotiation / multiplexing ---------------------------------------

void AppendHello(uint32_t features, std::string* out);
Status DecodeHello(std::string_view payload, uint32_t* proto_version,
                   uint32_t* features);

void AppendHelloReply(uint32_t features, uint32_t max_inflight,
                      std::string* out);
Status DecodeHelloReply(std::string_view payload, uint32_t* proto_version,
                        uint32_t* features, uint32_t* max_inflight);

/// Wraps ONE complete frame (header + body, as produced by the Append*
/// encoders) into a kMuxRequest envelope frame. `frame` must hold exactly
/// one frame; violations are programming errors caught by assert.
void AppendMuxRequest(uint64_t request_id, std::string_view frame,
                      std::string* out);

/// Unwraps a kMuxRequest payload into the id and the inner frame.
Status DecodeMuxRequest(std::string_view payload, uint64_t* request_id,
                        Frame* inner);

/// Wraps one reply frame into a kMuxResponse envelope; `last` marks the
/// final frame of the logical reply.
void AppendMuxResponse(uint64_t request_id, bool last, std::string_view frame,
                       std::string* out);

/// Walks a buffer of complete reply frames (e.g. a chunked recommendations
/// reply) and wraps each into a kMuxResponse envelope, marking the final
/// one `last`. InvalidArgument if `frames` is empty or not frame-aligned.
Status WrapMuxResponses(uint64_t request_id, std::string_view frames,
                        std::string* out);

/// Unwraps a kMuxResponse payload.
Status DecodeMuxResponse(std::string_view payload, uint64_t* request_id,
                         bool* last, Frame* inner);

// --- response encoders / decoders --------------------------------------------

/// A non-null active() `trace` appends the ack's trace tail — echo a trace
/// ONLY when the acked request itself carried one.
void AppendAck(std::string* out, const TraceContext* trace = nullptr);
void AppendError(const Status& status, std::string* out);

/// `*trace` (optional) receives the ack's trace tail, or an inactive
/// context when absent (the pre-extension empty payload).
Status DecodeAck(std::string_view payload, TraceContext* trace = nullptr);

/// One reply frame holding exactly these recommendations. A non-null
/// `report` that is not complete() appends the GatherReport tail; a
/// non-null active() `trace` appends the trace tail after it (both only
/// meaningful on the final frame of a chunked reply, and the trace only
/// toward a kFeatureTrace peer).
void AppendRecommendationsReply(std::span<const Recommendation> recs,
                                bool has_more, std::string* out,
                                const GatherReport* report = nullptr,
                                const TraceContext* trace = nullptr);

/// Splits a gather across as many reply frames as its encoded size needs
/// (target payload <= max_payload_bytes, one oversized rec still ships
/// alone). Always emits at least one frame so an empty gather gets its
/// empty reply. The GatherReport and trace tails (if any) ride on the last
/// frame.
void AppendRecommendationsReplyChunked(std::span<const Recommendation> recs,
                                       size_t max_payload_bytes,
                                       std::string* out,
                                       const GatherReport* report = nullptr,
                                       const TraceContext* trace = nullptr);

/// The registry text exposition as a kStatsTextReply frame. The payload is
/// the raw text; DecodeStatsTextReply exists for symmetry.
void AppendStatsTextReply(std::string_view text, std::string* out);
Status DecodeStatsTextReply(std::string_view payload, std::string* text);

/// Default chunk budget: comfortably under kMaxFrameBodyBytes.
inline constexpr size_t kRecommendationsChunkBytes = 4u << 20;

/// `include_server_tail` appends the serving loop's reactor counters as a
/// marker-led tail after the salt (ClusterStats::server). Emit it ONLY to a
/// peer that completed the hello exchange: a pre-versioning decoder rejects
/// unfamiliar trailing bytes (see "Versioning" above), and the hello is how
/// the server knows the peer is not one.
void AppendStatsReply(const ClusterStats& stats, std::string* out,
                      bool include_server_tail = false);

/// Rebuilds the Status carried by a kError payload (always non-OK; a
/// mangled error payload decodes to Internal).
Status DecodeError(std::string_view payload);

/// APPENDS the frame's recommendations to *recs (the caller accumulates
/// across a chunked reply) and reports whether more frames follow.
/// `*report` (optional) receives the GatherReport tail when present, or a
/// complete report when absent (the pre-extension encoding). `*trace`
/// (optional) receives the trace tail, or an inactive context when absent.
Status DecodeRecommendationsReply(std::string_view payload,
                                  std::vector<Recommendation>* recs,
                                  bool* has_more,
                                  GatherReport* report = nullptr,
                                  TraceContext* trace = nullptr);
Status DecodeStatsReply(std::string_view payload, ClusterStats* stats);

}  // namespace magicrecs::net

#endif  // MAGICRECS_NET_WIRE_H_
