// Measurement primitives of the benchmark harness: a monotonic clock, exact
// sample percentiles, a fixed-size latency histogram, an order-independent
// digest of a recommendation multiset, and the span totals of traced runs.
//
// Spans are timed at the harness's own call sites, around calls into the
// program's public functions; nothing inside src/ is instrumented. A
// layer's self time is its span's duration minus the part covered by its
// child spans.

#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/recommendation.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Value at quantile q in [0, 1] of `values` (linear interpolation between
/// closest ranks). NaN for an empty sample, so a missing measurement can
/// never pass as a number.
double Quantile(std::vector<double> values, double q);

/// Counts of values in logarithmic buckets 1% wide from 1e-3 to 1e7; values
/// outside that range count in the end buckets. Its size is fixed, so
/// recording a sample never allocates: the harness keeps its per-event
/// samples here, and its own memory stays flat while it measures the
/// program's.
class LogHistogram {
 public:
  void Add(double value, uint64_t n = 1);
  void Merge(const LogHistogram& other);
  uint64_t count() const { return count_; }
  /// Value at quantile q in [0, 1], interpolated within its bucket; NaN
  /// when empty.
  double Quantile(double q) const;

 private:
  static constexpr double kMin = 1e-3;
  static constexpr double kGrowth = 1.01;
  static constexpr size_t kBuckets = 2315;  // kMin * kGrowth^kBuckets > 1e7

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
};

/// Multiset digest of recommendations: independent of arrival order and of
/// how recommendations were split across gathers, sensitive to every field.
class RecDigest {
 public:
  void Add(const magicrecs::Recommendation& rec);
  void Merge(const RecDigest& other) {
    sum_ += other.sum_;
    xor_ ^= other.xor_;
    count_ += other.count_;
  }
  uint64_t count() const { return count_; }
  bool operator==(const RecDigest& other) const {
    return sum_ == other.sum_ && xor_ == other.xor_ && count_ == other.count_;
  }
  std::string ToString() const;

 private:
  uint64_t sum_ = 0;
  uint64_t xor_ = 0;
  uint64_t count_ = 0;
};

/// Every span the harness times.
enum class SpanName : uint8_t {
  // graph / intersect / core: the mirror of DiamondDetector::OnEdge.
  kMirrorOnEdge,
  kDInsert,
  kDWindow,
  kSGather,
  kThreshold,
  kSuppress,
  kEmit,
  kOnEdge,  ///< the real DiamondDetector::OnEdge beside the mirror
  // cluster / net: transport calls made by the load generator and gatherer.
  kPublish,
  kDrain,
  kTake,
  kGetStats,
  // cluster: the same calls as a partition daemon makes them into its
  // in-process cluster (wire workloads only).
  kDaemonPublish,
  kDaemonDrain,
  kDaemonTake,
  // persist
  kCheckpoint,
  kRecover,
  kWalAppend,
  // net codec, timed on the harness side on the published batches
  kEncode,
  kDecode,
  kCount,
};

/// Totals of one span name.
struct SpanTotals {
  uint64_t calls = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  std::vector<double> durations_us;  ///< kept for percentile names only

  void Merge(const SpanTotals& other);
};

/// Per-name span totals for one thread. A disabled tracer records nothing
/// and costs one branch per call, so untraced runs share the call sites.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Begin(SpanName name) {
    if (!enabled_) return;
    stack_.push_back(Open{name, NowNs(), 0});
  }
  void End() {
    if (!enabled_) return;
    EndSlow();
  }

  /// Records a finished leaf span whose interval the caller measured.
  void Add(SpanName name, int64_t start_ns, int64_t end_ns);

  /// Totals per span name, merged into *out.
  void MergeInto(std::array<SpanTotals, static_cast<size_t>(SpanName::kCount)>*
                     out) const;

 private:
  struct Open {
    SpanName name;
    int64_t start_ns;
    int64_t child_ns;
  };

  void EndSlow();
  void Record(SpanName name, int64_t duration_ns, int64_t self_ns);

  bool enabled_;
  std::vector<Open> stack_;
  std::array<SpanTotals, static_cast<size_t>(SpanName::kCount)> totals_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name) : tracer_(tracer) {
    tracer_->Begin(name);
  }
  ~ScopedSpan() { tracer_->End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// A tracer shared by several threads (one partition daemon's RPC workers).
class LockedTracer {
 public:
  explicit LockedTracer(bool enabled) : tracer_(enabled) {}

  void Add(SpanName name, int64_t start_ns, int64_t end_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    tracer_.Add(name, start_ns, end_ns);
  }
  /// Read only after every thread that records here has stopped.
  const Tracer& tracer() const { return tracer_; }

 private:
  std::mutex mu_;
  Tracer tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
