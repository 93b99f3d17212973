// The event-driven server loop behind RpcServer: one reactor thread
// multiplexes the listener and every connection fd through epoll, so
// connection count is bounded by file descriptors instead of OS threads.
// The data path per connection:
//
//   EPOLLIN -> non-blocking ReadChunk -> FrameAssembler (partial-read state
//   machine) -> classify (session frames inline; requests parked in arrival
//   order) -> dispatch onto the worker ThreadPool -> completion queue ->
//   reactor appends the response to the connection's outbox -> non-blocking
//   WriteChunk with partial-write carry + EPOLLOUT when the socket buffer
//   fills.
//
// Ordering: order-sensitive requests (publishes, drain, checkpoint, replica
// ops — IsOrderSensitive in wire.h) run strictly serially per connection,
// in arrival order; order-free reads (gather, stats, ping) on a muxed
// connection may overtake them. Bare (non-negotiated) connections are fully
// serial, which keeps their replies in request order — the bare protocol's
// contract.
//
// Backpressure: dispatched-but-unanswered requests per connection are
// capped at max_inflight_per_conn; at the cap the reactor drops the
// connection's EPOLLIN interest. The peer's writes then fill the TCP
// window and block — end-to-end backpressure without a thread per peer.
//
// Threading: the reactor thread owns all connection state; workers only see
// copies of decoded frames and push completed response bytes through a
// mutex-guarded queue, waking the reactor via eventfd. Teardown joins the
// reactor thread before the worker pool, so no worker outlives the queue.

#ifndef MAGICRECS_NET_EPOLL_REACTOR_H_
#define MAGICRECS_NET_EPOLL_REACTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame_buf.h"
#include "net/frame_io.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace magicrecs::net {

class RpcServer;

class EpollReactor {
 public:
  /// The server provides the listener, options, request handler, and the
  /// shared stats counters; it must outlive the reactor.
  explicit EpollReactor(RpcServer* server);
  ~EpollReactor();

  EpollReactor(const EpollReactor&) = delete;
  EpollReactor& operator=(const EpollReactor&) = delete;

  /// Creates the epoll instance and wake eventfd, flips the listener
  /// non-blocking, spawns the worker pool and the reactor thread.
  Status Start();

  /// Stops the reactor thread, drains the worker pool, and closes every
  /// connection. Idempotent.
  void Stop();

 private:
  /// One request waiting for (or blocked from) dispatch. For a mux
  /// envelope, `frame` is the whole envelope (unwrapped by the shared
  /// RpcServer::HandleMuxEnvelope on the worker); only the inner tag was
  /// peeked for the ordering classification.
  struct Parked {
    Frame frame;
    bool is_mux = false;
    bool order_sensitive = true;
  };

  /// Per-connection state. Owned and touched by the reactor thread only.
  struct Conn {
    uint64_t id = 0;
    TcpSocket socket;
    FrameAssembler assembler;

    /// Response frames owed to the peer: refcounted segments flushed via
    /// writev with a partial-write cursor — never concatenated, never
    /// compacted (the old string outbox memmoved up to 256 KiB per flush
    /// cycle under backpressure).
    OutboxChain outbox;

    std::deque<Parked> parked;
    size_t inflight = 0;       ///< dispatched, completion not yet drained
    bool serial_busy = false;  ///< an order-sensitive request is running
    uint32_t features = 0;     ///< hello-granted feature bits (kFeature*)
    bool read_paused = false;  ///< EPOLLIN dropped at the in-flight cap
    bool eof_seen = false;     ///< peer half-closed; serve what is parked
    bool drop_residue = false; ///< truncated tail at EOF: ignore buffer
    bool close_after_flush = false;  ///< reply queued; sever once flushed

    /// A framing violation waiting to be reported. The error reply is
    /// deferred until every earlier request has answered, so it never
    /// overtakes replies the peer is owed; reading stays paused forever.
    Status framing_error;
    uint32_t interest = 0;     ///< epoll events currently registered
  };

  /// One finished request, handed from a worker back to the reactor. The
  /// reply rides as a FrameBuf so appending it to the outbox splices
  /// segment references instead of copying bytes.
  struct Completion {
    uint64_t conn_id = 0;
    bool order_sensitive = false;
    FrameBuf buf;
  };

  void Run();
  void Wake();

  void AcceptReady();

  /// Transient accept failure (EMFILE flood): drops the listener's epoll
  /// interest for a short backoff instead of sleeping the reactor thread
  /// (it is the only I/O thread); Run()'s wait timeout re-arms it.
  void PauseAccept();
  void ResumeAccept();

  void HandleConnEvent(uint64_t id, uint32_t events);
  void ReadReady(Conn* conn);

  /// Pulls complete frames out of the assembler, classifying each:
  /// session frames are answered inline, requests are parked; a framing
  /// error pauses reading and records the deferred error reply.
  void DrainFrames(Conn* conn);
  void ParkFrame(Conn* conn, Frame frame);

  /// Emits the deferred framing-error reply once the connection owes
  /// nothing earlier, then marks it close-after-flush.
  void SettleFramingError(Conn* conn);

  /// Dispatches parked requests within the ordering and in-flight rules.
  void TryDispatch(Conn* conn);
  void Dispatch(Conn* conn, Parked parked);
  void DrainCompletions();

  /// Writes as much outbox as the socket takes; arms EPOLLOUT on a partial
  /// write. Returns false when the connection died and was destroyed.
  bool FlushOutbox(Conn* conn);

  /// Destroys the connection when it has nothing left to do (EOF drained,
  /// or a post-error flush completed). Returns false when destroyed.
  bool MaybeClose(Conn* conn);

  void UpdateInterest(Conn* conn);
  void DestroyConn(Conn* conn);

  RpcServer* server_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::unique_ptr<ThreadPool> pool_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;

  uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = wake eventfd
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;

  bool accept_paused_ = false;
  std::chrono::steady_clock::time_point accept_resume_{};

  std::mutex completions_mu_;
  std::vector<Completion> completions_;
};

}  // namespace magicrecs::net

#endif  // MAGICRECS_NET_EPOLL_REACTOR_H_
