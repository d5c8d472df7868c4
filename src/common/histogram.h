#ifndef INFLUMAX_COMMON_HISTOGRAM_H_
#define INFLUMAX_COMMON_HISTOGRAM_H_

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace influmax {

/// Log-bucketed latency histogram (HDR-style): values are placed into
/// power-of-two ranges split into 32 linear sub-buckets, giving <= ~3%
/// relative resolution with O(1) Record, a fixed ~16 KiB footprint, and
/// no allocation — the shape `serve_shards --bench` wants for per-query
/// percentiles (p50/p95/p99 per query type) and bench loops in general.
///
/// Values below 32 land in exact unit buckets; values up to 2^63 - 1 are
/// representable. Percentile() returns the midpoint of the bucket holding
/// the requested rank, so the reported percentile is within one bucket
/// width (~3%) of the true order statistic. Deterministic: the digest
/// depends only on the multiset of recorded values, so merging per-thread
/// histograms (Merge) is order-independent.
class LatencyHistogram {
 public:
  /// Records one non-negative sample (nanoseconds by convention; the
  /// class is unit-agnostic). Negative samples clamp to 0.
  void Record(double value) {
    const std::uint64_t v =
        value <= 0.0 ? 0 : static_cast<std::uint64_t>(value);
    ++counts_[BucketOf(v)];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
  }

  /// Approximate p-th percentile (p in [0, 100]) of the recorded
  /// samples: the midpoint of the bucket containing the rank-
  /// ceil(p/100 * count) sample. Returns 0 when empty.
  double Percentile(double p) const {
    if (count_ == 0) return 0.0;
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count_)));
    if (rank < 1) rank = 1;
    if (rank > count_) rank = count_;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      seen += counts_[b];
      if (seen >= rank) return BucketMidpoint(b);
    }
    return BucketMidpoint(counts_.size() - 1);
  }

  /// Samples recorded so far.
  std::uint64_t count() const { return count_; }

  /// Sum of the recorded (clamped-to-uint64) samples. Kept as an integer
  /// so Merge stays exactly order-independent — no FP addition order.
  std::uint64_t sum() const { return sum_; }

  /// Largest recorded sample (0 when empty).
  std::uint64_t max() const { return max_; }

  /// Mean of the recorded samples (0 when empty).
  double mean() const {
    if (count_ == 0) return 0.0;
    return static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Adds another histogram's counts into this one (per-thread digests
  /// merge without ordering effects).
  void Merge(const LatencyHistogram& other) {
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      counts_[b] += other.counts_[b];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_) max_ = other.max_;
  }

  /// Drops every sample.
  void Reset() {
    counts_.fill(0);
    count_ = 0;
    sum_ = 0;
    max_ = 0;
  }

  // --- Bucket-iteration API (Prometheus exposition, external digests) ---

  /// Number of buckets; `bucket_count(b)` is valid for b in
  /// [0, num_buckets()).
  static constexpr std::size_t num_buckets() { return kBuckets; }

  /// Samples that landed in bucket b.
  std::uint64_t bucket_count(std::size_t b) const { return counts_[b]; }

  /// The bucket a sample with this value lands in.
  static std::size_t BucketIndexOf(std::uint64_t v) { return BucketOf(v); }

  /// Inclusive upper bound of bucket b: every sample in the bucket is
  /// <= this value (Prometheus `le` semantics). The last bucket's bound
  /// is 2^64 - 1, i.e. effectively +Inf for uint64 samples.
  static double BucketUpperBound(std::size_t b) {
    const std::uint64_t group = b >> kSubBits;
    const std::uint64_t sub = b & (kSub - 1);
    if (group == 0) return static_cast<double>(sub);
    // Bucket [lo, lo + width): lo = (kSub + sub) << (group - 1).
    const std::uint64_t lo = (kSub + sub) << (group - 1);
    const std::uint64_t width = std::uint64_t{1} << (group - 1);
    return static_cast<double>(lo + width - 1);
  }

  /// Folds n pre-bucketed samples into bucket b — the scrape path for
  /// external per-thread digests (src/obs) that keep atomic bucket
  /// arrays rather than LatencyHistogram instances. Does not touch
  /// sum/max; pair with MergeSumMax.
  void AddBucketCount(std::size_t b, std::uint64_t n) {
    counts_[b] += n;
    count_ += n;
  }

  /// Folds an externally tracked (sum, max) pair into this histogram,
  /// with the same order-independence as Merge.
  void MergeSumMax(std::uint64_t sum, std::uint64_t max) {
    sum_ += sum;
    if (max > max_) max_ = max;
  }

 private:
  // 32 linear sub-buckets per power-of-two range.
  static constexpr std::uint32_t kSubBits = 5;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  // Group 0 holds the exact values [0, kSub); groups g >= 1 hold
  // [kSub << (g - 1), kSub << g), 32 sub-buckets each. 64-bit values
  // need (64 - kSubBits) groups.
  static constexpr std::size_t kGroups = 64 - kSubBits;
  static constexpr std::size_t kBuckets = (kGroups + 1) * kSub;

  static std::size_t BucketOf(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const std::uint32_t group =
        static_cast<std::uint32_t>(std::bit_width(v)) - kSubBits;
    const std::uint64_t sub = (v >> (group - 1)) - kSub;
    return static_cast<std::size_t>(group) * kSub +
           static_cast<std::size_t>(sub);
  }

  static double BucketMidpoint(std::size_t bucket) {
    const std::uint64_t group = bucket >> kSubBits;
    const std::uint64_t sub = bucket & (kSub - 1);
    if (group == 0) return static_cast<double>(sub);
    // Bucket [lo, lo + width): lo = (kSub + sub) << (group - 1).
    const double lo = static_cast<double>((kSub + sub)) *
                      static_cast<double>(std::uint64_t{1} << (group - 1));
    const double width =
        static_cast<double>(std::uint64_t{1} << (group - 1));
    return lo + width / 2.0;
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace influmax

#endif  // INFLUMAX_COMMON_HISTOGRAM_H_
