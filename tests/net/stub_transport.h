// A scriptable ClusterTransport for server-loop and session tests: canned
// recommendations for gathers, canned completed traces, an optional gate
// that parks Drain calls until released (to hold a request in flight
// deliberately), and counters.
// Lets the net tests exercise scheduling, partial I/O, and multiplexing
// without hauling a real detector workload into every case.

#ifndef MAGICRECS_TESTS_NET_STUB_TRANSPORT_H_
#define MAGICRECS_TESTS_NET_STUB_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <utility>
#include <vector>

#include "cluster/transport.h"

namespace magicrecs::net_test {

class StubTransport : public ClusterTransport {
 public:
  StubTransport() = default;

  /// Every future TakeRecommendations returns a copy of `recs`.
  void set_recommendations(std::vector<Recommendation> recs) {
    std::lock_guard<std::mutex> lock(mu_);
    recs_ = std::move(recs);
  }

  /// Every future TakeTraces returns a copy of `traces`.
  void set_traces(std::vector<TraceContext> traces) {
    std::lock_guard<std::mutex> lock(mu_);
    traces_ = std::move(traces);
  }

  /// Once set, Drain calls block until Release().
  void GateDrains() { gate_drains_.store(true, std::memory_order_release); }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

  /// True once at least one Drain is parked at the gate.
  bool drain_blocked() const {
    return drains_blocked_.load(std::memory_order_acquire) > 0;
  }

  uint64_t publishes() const {
    return publishes_.load(std::memory_order_relaxed);
  }

  Status Publish(const EdgeEvent&) override {
    publishes_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  Status PublishBatch(std::span<const EdgeEvent> events) override {
    publishes_.fetch_add(events.size(), std::memory_order_relaxed);
    return Status::OK();
  }

  Status Drain() override {
    if (!gate_drains_.load(std::memory_order_acquire)) return Status::OK();
    drains_blocked_.fetch_add(1, std::memory_order_acq_rel);
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return released_; });
    return Status::OK();
  }

  Result<std::vector<Recommendation>> TakeRecommendations() override {
    std::lock_guard<std::mutex> lock(mu_);
    return recs_;
  }

  std::vector<TraceContext> TakeTraces() override {
    std::lock_guard<std::mutex> lock(mu_);
    return traces_;
  }

  Status Checkpoint(Timestamp) override { return Status::OK(); }
  Status KillReplica(uint32_t, uint32_t) override { return Status::OK(); }
  Status RecoverReplica(uint32_t, uint32_t) override { return Status::OK(); }

  Result<ClusterStats> GetStats() override {
    ClusterStats stats;
    stats.events_published = publishes_.load(std::memory_order_relaxed);
    return stats;
  }

  Status Close() override { return Status::OK(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
  std::atomic<bool> gate_drains_{false};
  std::atomic<int> drains_blocked_{0};
  std::atomic<uint64_t> publishes_{0};
  std::vector<Recommendation> recs_;
  std::vector<TraceContext> traces_;
};

}  // namespace magicrecs::net_test

#endif  // MAGICRECS_TESTS_NET_STUB_TRANSPORT_H_
