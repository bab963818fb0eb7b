// Lightweight statistics primitives used across the simulator.
//
// Counters and histograms are plain value types owned by the component that
// increments them; StatRegistry provides an optional flat name -> value view
// for reporting. Nothing here is thread-aware: each instance is owned and
// mutated by exactly one component on the thread running its simulation.
// Channel- or tenant-local histograms reconcile through Histogram::merge,
// which is exact and order-independent.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace lazydram {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Fixed-bucket histogram over small integer keys (e.g. RBL values). Keys
/// greater than `max_key` are clamped into the overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::uint64_t max_key = 64) : buckets_(max_key + 2, 0), max_key_(max_key) {}

  void add(std::uint64_t key, std::uint64_t count = 1) {
    const std::uint64_t idx = key <= max_key_ ? key : max_key_ + 1;
    buckets_[idx] += count;
    total_ += count;
    weighted_sum_ += key * count;
  }

  /// Count recorded at exactly `key` (keys > max_key are pooled); querying
  /// `max_key() + 1` returns the overflow bucket.
  std::uint64_t at(std::uint64_t key) const {
    LD_ASSERT(key <= max_key_ + 1);
    return buckets_[key];
  }

  /// Count of samples whose key fell in [lo, hi], inclusive.
  std::uint64_t in_range(std::uint64_t lo, std::uint64_t hi) const {
    std::uint64_t sum = 0;
    for (std::uint64_t k = lo; k <= hi && k <= max_key_; ++k) sum += buckets_[k];
    return sum;
  }

  std::uint64_t overflow() const { return buckets_[max_key_ + 1]; }
  std::uint64_t total() const { return total_; }
  std::uint64_t max_key() const { return max_key_; }

  /// Number of addressable buckets: keys 0..max_key plus the overflow bucket.
  std::size_t bucket_count() const { return buckets_.size(); }

  /// Smallest key whose cumulative count reaches fraction `p` of the total
  /// (p clamped to [0, 1]). Samples pooled in the overflow bucket report
  /// `max_key() + 1`. An empty histogram reports 0.
  std::uint64_t percentile(double p) const;

  /// Mean of recorded keys (overflowed samples contribute their true key to
  /// the weighted sum, so the mean remains exact).
  double mean() const { return total_ == 0 ? 0.0 : static_cast<double>(weighted_sum_) / static_cast<double>(total_); }

  /// Folds `other` into this histogram. Exact and order-independent: buckets
  /// (including overflow) and the true-key weighted sum add element-wise, so
  /// merging channel-local histograms in any order reproduces the
  /// serial percentiles AND the serial mean bit-for-bit. This is NOT the same
  /// as re-adding `other`'s buckets through add(): the overflow bucket would
  /// re-enter at the clamped key max_key()+1 and corrupt the weighted sum.
  /// Both histograms must share one geometry.
  void merge(const Histogram& other) {
    LD_ASSERT_MSG(max_key_ == other.max_key_, "merging histograms of different geometry");
    for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
    total_ += other.total_;
    weighted_sum_ += other.weighted_sum_;
  }

  void reset() {
    for (auto& b : buckets_) b = 0;
    total_ = 0;
    weighted_sum_ = 0;
  }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t max_key_;
  std::uint64_t total_ = 0;
  std::uint64_t weighted_sum_ = 0;
};

/// Running mean/min/max of a real-valued sample stream.
class Summary {
 public:
  void add(double x) {
    if (count_ == 0 || x < min_) min_ = x;
    if (count_ == 0 || x > max_) max_ = x;
    sum_ += x;
    ++count_;
  }

  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const { return min_; }
  double max() const { return max_; }
  std::uint64_t count() const { return count_; }

  void reset() { *this = Summary{}; }

 private:
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::uint64_t count_ = 0;
};

/// Flat name -> scalar snapshot used by reports and tests.
class StatRegistry {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  double get(const std::string& name) const;
  bool contains(const std::string& name) const { return values_.count(name) != 0; }
  const std::map<std::string, double>& values() const { return values_; }

 private:
  std::map<std::string, double> values_;
};

}  // namespace lazydram
