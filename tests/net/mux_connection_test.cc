// Session-layer acceptance: the hello negotiation (and a clear dial error
// against a peer that will not multiplex), request-id multiplexing with
// out-of-order completion on one socket, timeout-abandon keeping the
// connection usable, and bounded waits at the server's in-flight cap.

#include "net/mux_connection.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "stub_transport.h"

#include "net/frame_io.h"
#include "net/rpc_server.h"
#include "net/socket.h"
#include "net/wire.h"

namespace magicrecs::net {
namespace {

using net_test::StubTransport;

std::string PingFrame() {
  std::string frame;
  AppendEmptyRequest(MessageTag::kPing, &frame);
  return frame;
}

std::string DrainFrame() {
  std::string frame;
  AppendEmptyRequest(MessageTag::kDrain, &frame);
  return frame;
}

struct Harness {
  StubTransport transport;
  std::unique_ptr<RpcServer> server;
};

std::unique_ptr<Harness> StartServer() {
  auto h = std::make_unique<Harness>();
  auto server = RpcServer::Start(&h->transport, RpcServerOptions{});
  EXPECT_TRUE(server.ok()) << server.status();
  h->server = std::move(server).value();
  return h;
}

TEST(MuxConnectionTest, NegotiatesWithTheServer) {
  auto h = StartServer();
  auto conn = MuxConnection::Dial("127.0.0.1", h->server->port(), {});
  ASSERT_TRUE(conn.ok()) << conn.status();
  EXPECT_NE((*conn)->features() & kFeatureMux, 0u);
  EXPECT_EQ((*conn)->server_max_inflight(), 64u);
  std::vector<Frame> reply;
  ASSERT_TRUE((*conn)->CallOne(PingFrame(), 0, &reply).ok());
  ASSERT_EQ(reply.size(), 1u);
  EXPECT_EQ(reply[0].tag, MessageTag::kAck);
  EXPECT_EQ(h->server->stats().mux_connections, 1u);
}

/// Runs Dial against a fake peer that reads the client's opening frame and
/// answers it with `hello_reply`, then waits for the client to hang up.
/// Returns the dial's Status; *opening_tag is the first frame's tag.
Status DialFakePeer(const std::string& hello_reply, MessageTag* opening_tag,
                    std::string* peer_name) {
  auto listener = TcpListener::Listen("127.0.0.1", 0);
  EXPECT_TRUE(listener.ok()) << listener.status();
  *peer_name = "127.0.0.1:" + std::to_string(listener->port());
  std::atomic<bool> client_hung_up{false};
  std::thread peer([&] {
    Result<TcpSocket> socket = listener->Accept();
    ASSERT_TRUE(socket.ok()) << socket.status();
    Frame opening;
    ASSERT_TRUE(ReadFrame(&*socket, &opening).ok());
    *opening_tag = opening.tag;
    ASSERT_TRUE(WriteFrames(&*socket, hello_reply).ok());
    Frame next;
    bool clean_eof = false;
    (void)ReadFrame(&*socket, &next, &clean_eof);
    client_hung_up.store(clean_eof, std::memory_order_release);
  });
  MuxConnectionOptions options;
  options.hello_timeout_ms = 10'000;  // a broken fake fails, not hangs
  auto conn = MuxConnection::Dial("127.0.0.1", listener->port(), options);
  const Status status = conn.status();
  peer.join();
  EXPECT_TRUE(client_hung_up.load(std::memory_order_acquire))
      << "a failed dial must release its socket, sending nothing more";
  return status;
}

TEST(MuxConnectionTest, DialFailsClearlyWhenThePeerRefusesHello) {
  // A peer that answers kHello with kError is not a protocol version to
  // downgrade to: the dial fails, naming the peer, before any reader
  // thread starts.
  std::string refusal;
  AppendError(Status::Unimplemented("unknown message tag 0x0a"), &refusal);
  MessageTag opening = MessageTag::kPing;
  std::string peer;
  const Status dialed = DialFakePeer(refusal, &opening, &peer);
  EXPECT_EQ(opening, MessageTag::kHello) << "clients always open with hello";
  ASSERT_TRUE(dialed.IsFailedPrecondition()) << dialed;
  EXPECT_NE(dialed.ToString().find(peer), std::string::npos) << dialed;
  EXPECT_NE(dialed.ToString().find("unknown message tag"), std::string::npos)
      << dialed;
}

TEST(MuxConnectionTest, DialFailsClearlyWhenHelloReplyLacksMux) {
  std::string trace_only;
  AppendHelloReply(kFeatureTrace, 64, &trace_only);
  MessageTag opening = MessageTag::kPing;
  std::string peer;
  const Status dialed = DialFakePeer(trace_only, &opening, &peer);
  EXPECT_EQ(opening, MessageTag::kHello);
  ASSERT_TRUE(dialed.IsFailedPrecondition()) << dialed;
  EXPECT_NE(dialed.ToString().find(peer), std::string::npos) << dialed;
  EXPECT_NE(dialed.ToString().find("multiplexing"), std::string::npos)
      << dialed;
}

TEST(MuxConnectionTest, OrderFreeReadOvertakesAStalledWriteOnOneSocket) {
  // The reason mux exists: a gated Drain holds its worker on the epoll
  // server while a Ping issued LATER on the SAME connection completes
  // first — out-of-order replies demultiplexed by request_id.
  auto h = StartServer();
  h->transport.GateDrains();
  auto conn = MuxConnection::Dial("127.0.0.1", h->server->port(), {});
  ASSERT_TRUE(conn.ok()) << conn.status();

  auto drain = (*conn)->Start(DrainFrame());
  ASSERT_TRUE(drain.ok()) << drain.status();
  for (int i = 0; i < 500 && !h->transport.drain_blocked(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(h->transport.drain_blocked());

  // The ping (order-free) must answer while the drain is still parked.
  std::vector<Frame> ping_reply;
  ASSERT_TRUE((*conn)->CallOne(PingFrame(), /*timeout_ms=*/5'000,
                               &ping_reply)
                  .ok())
      << "the ping should overtake the gated drain";
  EXPECT_EQ(ping_reply[0].tag, MessageTag::kAck);

  h->transport.Release();
  std::vector<Frame> drain_reply;
  ASSERT_TRUE((*conn)->Await(*drain, 5'000, &drain_reply).ok());
  EXPECT_EQ(drain_reply[0].tag, MessageTag::kAck);
}

TEST(MuxConnectionTest, TimedOutCallIsAbandonedAndTheConnectionSurvives) {
  // The property the old leased-socket pool could not offer: a deadline
  // miss forgets the request id instead of poisoning the stream. The late
  // reply is discarded and the SAME connection keeps serving.
  auto h = StartServer();
  h->transport.GateDrains();
  auto conn = MuxConnection::Dial("127.0.0.1", h->server->port(), {});
  ASSERT_TRUE(conn.ok()) << conn.status();

  std::vector<Frame> reply;
  const Status timed_out =
      (*conn)->CallOne(DrainFrame(), /*timeout_ms=*/50, &reply);
  ASSERT_TRUE(timed_out.IsUnavailable()) << timed_out;
  EXPECT_FALSE((*conn)->broken());

  h->transport.Release();  // the late ack will arrive and be discarded
  for (int i = 0; i < 20; ++i) {
    std::vector<Frame> ping_reply;
    ASSERT_TRUE((*conn)->CallOne(PingFrame(), 5'000, &ping_reply).ok())
        << "connection must stay usable after an abandoned call";
    EXPECT_EQ(ping_reply[0].tag, MessageTag::kAck);
  }
}

TEST(MuxConnectionTest, CapWaitIsBoundedAgainstASilentServer) {
  // A daemon that stops answering stops freeing in-flight slots. A Start
  // blocked at the cap must fail within its bound — without poisoning the
  // connection — instead of hanging ahead of every Await-side timeout.
  auto h = std::make_unique<Harness>();
  RpcServerOptions options;
  options.max_inflight_per_conn = 1;
  auto server = RpcServer::Start(&h->transport, options);
  ASSERT_TRUE(server.ok()) << server.status();
  h->server = std::move(server).value();
  h->transport.GateDrains();

  auto conn = MuxConnection::Dial("127.0.0.1", h->server->port(), {});
  ASSERT_TRUE(conn.ok()) << conn.status();
  ASSERT_EQ((*conn)->server_max_inflight(), 1u);
  auto drain = (*conn)->Start(DrainFrame());
  ASSERT_TRUE(drain.ok()) << drain.status();

  std::vector<Frame> reply;
  const Status capped = (*conn)->CallOne(PingFrame(), 200, &reply);
  ASSERT_TRUE(capped.IsUnavailable()) << capped;
  EXPECT_NE(capped.ToString().find("in-flight slot"), std::string::npos)
      << capped;
  EXPECT_FALSE((*conn)->broken())
      << "a cap-wait miss fails the call, not the connection";

  h->transport.Release();
  std::vector<Frame> drain_reply;
  ASSERT_TRUE((*conn)->Await(*drain, 5'000, &drain_reply).ok());
  ASSERT_TRUE((*conn)->CallOne(PingFrame(), 5'000, &reply).ok());
  EXPECT_EQ(reply[0].tag, MessageTag::kAck);
}

TEST(MuxConnectionTest, ManyThreadsShareOneConnection) {
  auto h = StartServer();
  auto conn = MuxConnection::Dial("127.0.0.1", h->server->port(), {});
  ASSERT_TRUE(conn.ok()) << conn.status();
  constexpr int kCallers = 8;
  constexpr int kCallsPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        std::vector<Frame> reply;
        if (!(*conn)->CallOne(PingFrame(), 10'000, &reply).ok() ||
            reply.size() != 1 || reply[0].tag != MessageTag::kAck) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(h->server->stats().requests_served,
            static_cast<uint64_t>(kCallers * kCallsPerThread) + 1)
      << "every call (plus the hello) answered exactly once";
}

TEST(MuxConnectionTest, ShutdownFailsInflightCallsAndFutureStarts) {
  auto h = StartServer();
  h->transport.GateDrains();
  auto conn = MuxConnection::Dial("127.0.0.1", h->server->port(), {});
  ASSERT_TRUE(conn.ok()) << conn.status();
  auto call = (*conn)->Start(DrainFrame());
  ASSERT_TRUE(call.ok());
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    (*conn)->Shutdown();
  });
  std::vector<Frame> reply;
  const Status awaited = (*conn)->Await(*call, 0, &reply);
  EXPECT_TRUE(awaited.IsUnavailable()) << awaited;
  closer.join();
  EXPECT_TRUE((*conn)->broken());
  EXPECT_TRUE((*conn)->Start(PingFrame()).status().IsFailedPrecondition());
  h->transport.Release();  // let the parked worker finish before teardown
}

TEST(MuxConnectionTest, FailedDialReturnsErrorNotCrash) {
  // Nothing listens on the reserved port: the dial must come back as a
  // Status, and tearing down the half-built connection must not crash.
  auto conn = MuxConnection::Dial("127.0.0.1", 1, {});
  EXPECT_FALSE(conn.ok());
  EXPECT_TRUE(conn.status().IsUnavailable()) << conn.status();
}

}  // namespace
}  // namespace magicrecs::net
