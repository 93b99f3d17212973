// The single-daemon deployment: one magicrecsd-style server hosting every
// partition, driven over real loopback TCP through a FanoutCluster with one
// kAllPartitions endpoint. fanout_cluster_test.cc covers the stream-level
// byte-identity of this shape (TenThousandEventStreamIdenticalAcrossAll-
// Transports); this file covers what only a single all-hosting daemon
// exercises: durability ops against its persist/ directory, an inline-mode
// daemon, and a server stop seen by the broker.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../persist/scoped_temp_dir.h"
#include "fanout_test_util.h"

#include "cluster/transport.h"
#include "gen/figure1.h"
#include "net/fanout_cluster.h"
#include "net/rpc_server.h"

namespace magicrecs {
namespace {

using fanout_test::MakeClusterOptions;
using fanout_test::ToEvents;
using net::FanoutCluster;
using net::FanoutClusterOptions;
using net::FanoutEndpoint;
using net::RpcServer;
using net::RpcServerOptions;

/// One all-hosting daemon plus a one-endpoint broker in front of it.
struct SingleDaemon {
  std::unique_ptr<LocalClusterTransport> hosted;
  std::unique_ptr<RpcServer> server;
  std::unique_ptr<FanoutCluster> broker;
};

SingleDaemon Start(const ClusterOptions& options,
                   LocalClusterTransport::Mode mode =
                       LocalClusterTransport::Mode::kThreaded) {
  SingleDaemon d;
  auto hosted =
      LocalClusterTransport::Create(figure1::FollowGraph(), options, mode);
  EXPECT_TRUE(hosted.ok()) << hosted.status();
  d.hosted = std::move(hosted).value();
  auto server = RpcServer::Start(d.hosted.get(), RpcServerOptions{});
  EXPECT_TRUE(server.ok()) << server.status();
  d.server = std::move(server).value();

  FanoutClusterOptions fopt;
  FanoutEndpoint endpoint;  // partition = kAllPartitions
  endpoint.port = d.server->port();
  fopt.endpoints.push_back(endpoint);
  auto broker = FanoutCluster::Connect(fopt);
  EXPECT_TRUE(broker.ok()) << broker.status();
  d.broker = std::move(broker).value();
  return d;
}

TEST(SingleDaemonTest, CheckpointAndRecoverOverTcpWithPersistence) {
  ScopedTempDir dir;
  ClusterOptions options = MakeClusterOptions(2, 2);
  options.persist.dir = dir.path();
  SingleDaemon d = Start(options);

  // Stream everything but the trigger, checkpoint, kill+recover a replica
  // (rebuilt from snapshot + WAL on the server side), then the trigger.
  const std::vector<EdgeEvent> events = ToEvents(figure1::DynamicEdges(0));
  for (size_t i = 0; i + 1 < events.size(); ++i) {
    ASSERT_TRUE(d.broker->Publish(events[i]).ok());
  }
  ASSERT_TRUE(d.broker->Checkpoint(Seconds(100)).ok());
  ASSERT_TRUE(d.broker->KillReplica(0, 0).ok());
  ASSERT_TRUE(d.broker->RecoverReplica(0, 0).ok());
  ASSERT_TRUE(d.broker->Publish(events.back()).ok());
  ASSERT_TRUE(d.broker->Drain().ok());

  auto recs = d.broker->TakeRecommendations();
  ASSERT_TRUE(recs.ok()) << recs.status();
  ASSERT_EQ(recs->size(), 1u);
  EXPECT_EQ((*recs)[0].user, figure1::kA2);
  EXPECT_EQ((*recs)[0].item, figure1::kC2);
}

TEST(SingleDaemonTest, CheckpointWithoutPersistenceIsFailedPrecondition) {
  SingleDaemon d = Start(MakeClusterOptions(2, 2));
  const Status checkpoint = d.broker->Checkpoint(0);
  EXPECT_TRUE(checkpoint.IsFailedPrecondition())
      << "no persistence configured on the hosted cluster: " << checkpoint;
}

TEST(SingleDaemonTest, InlineModeDaemonIsDeterministic) {
  // The daemon can host an inline (single-threaded) cluster too; ordering
  // over one connection is then fully deterministic.
  SingleDaemon d =
      Start(MakeClusterOptions(2), LocalClusterTransport::Mode::kInline);
  for (const EdgeEvent& event : ToEvents(figure1::DynamicEdges(0))) {
    ASSERT_TRUE(d.broker->Publish(event).ok());
  }
  ASSERT_TRUE(d.broker->Drain().ok());  // no-op, but must succeed
  auto recs = d.broker->TakeRecommendations();
  ASSERT_TRUE(recs.ok()) << recs.status();
  ASSERT_EQ(recs->size(), 1u);
  EXPECT_EQ((*recs)[0].user, figure1::kA2);
  EXPECT_EQ((*recs)[0].trigger, figure1::kB2);
}

TEST(SingleDaemonTest, ServerStopSeversTheBrokerWithAnError) {
  SingleDaemon d = Start(MakeClusterOptions(2));
  ASSERT_TRUE(d.broker->Ping().ok());
  const std::string daemon = "127.0.0.1:" + std::to_string(d.server->port());
  d.server->Stop();
  // The broker sees a connection error naming the daemon, not a hang or a
  // crash.
  const Status published =
      d.broker->Publish(ToEvents(figure1::DynamicEdges(0)).front());
  ASSERT_FALSE(published.ok());
  EXPECT_TRUE(published.IsUnavailable()) << published;
  EXPECT_NE(published.ToString().find(daemon), std::string::npos)
      << published;
}

}  // namespace
}  // namespace magicrecs
