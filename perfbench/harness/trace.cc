#include "trace.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool KeepsDurations(SpanName name) {
  switch (name) {
    case SpanName::kOnEdge:
    case SpanName::kThreshold:
    case SpanName::kPublish:
    case SpanName::kDaemonPublish:
    case SpanName::kTake:
      return true;
    default:
      return false;
  }
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void RecDigest::Add(const magicrecs::Recommendation& rec) {
  uint64_t h = Mix(rec.user);
  h = Mix(h ^ rec.item);
  h = Mix(h ^ rec.witness_count);
  h = Mix(h ^ static_cast<uint64_t>(rec.event_time));
  h = Mix(h ^ rec.trigger);
  for (const magicrecs::VertexId w : rec.witnesses) h = Mix(h ^ w);
  h = Mix(h ^ rec.witnesses.size());
  sum_ += h;
  xor_ ^= Mix(h);
  ++count_;
}

std::string RecDigest::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64 "%016" PRIx64 "/%" PRIu64,
                sum_, xor_, count_);
  return buf;
}

void LogHistogram::Add(double value, uint64_t n) {
  size_t bucket = 0;
  if (value > kMin) {
    bucket = std::min(kBuckets - 1, static_cast<size_t>(std::log(value / kMin) /
                                                        std::log(kGrowth)));
  }
  counts_[bucket] += n;
  count_ += n;
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  count_ += other.count_;
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  // The rank of the wanted sample, zero-based, as in the exact Quantile.
  const double rank = q * static_cast<double>(count_ - 1);
  uint64_t below = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) continue;
    if (static_cast<double>(below + counts_[b]) > rank) {
      const double within = (rank - static_cast<double>(below) + 0.5) /
                            static_cast<double>(counts_[b]);
      return kMin * std::pow(kGrowth, static_cast<double>(b) + within);
    }
    below += counts_[b];
  }
  return kMin * std::pow(kGrowth, static_cast<double>(kBuckets));
}

void SpanTotals::Merge(const SpanTotals& other) {
  calls += other.calls;
  total_ns += other.total_ns;
  self_ns += other.self_ns;
  durations_us.insert(durations_us.end(), other.durations_us.begin(),
                      other.durations_us.end());
}

void Tracer::Record(SpanName name, int64_t duration_ns, int64_t self_ns) {
  SpanTotals& totals = totals_[static_cast<size_t>(name)];
  ++totals.calls;
  totals.total_ns += duration_ns;
  totals.self_ns += self_ns;
  if (KeepsDurations(name)) {
    totals.durations_us.push_back(static_cast<double>(duration_ns) / 1e3);
  }
  if (!stack_.empty()) stack_.back().child_ns += duration_ns;
}

void Tracer::EndSlow() {
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t duration = NowNs() - open.start_ns;
  Record(open.name, duration, duration - open.child_ns);
}

void Tracer::Add(SpanName name, int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return;
  Record(name, end_ns - start_ns, end_ns - start_ns);
}

void Tracer::MergeInto(
    std::array<SpanTotals, static_cast<size_t>(SpanName::kCount)>* out) const {
  for (size_t i = 0; i < totals_.size(); ++i) (*out)[i].Merge(totals_[i]);
}

}  // namespace perfbench
