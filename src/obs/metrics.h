#ifndef IFLEX_OBS_METRICS_H_
#define IFLEX_OBS_METRICS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace iflex {
namespace obs {

class JsonWriter;

/// Monotonic (until Reset) event counter. Updates are relaxed atomics:
/// executors on pool threads routinely publish into one registry
/// (docs/OBSERVABILITY.md recommends exactly that for benches), so plain
/// stores would be a data race. Relaxed ordering is enough — the
/// totals are read after a join, never used for synchronization.
class Counter {
 public:
  void Add(uint64_t d = 1) { value_.fetch_add(d, std::memory_order_relaxed); }
  void Set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-value-wins instantaneous measurement (result sizes, open
/// sessions, fractions). Atomic for the same reason as Counter.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d) { value_.fetch_add(d, std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Sample distribution with exact percentiles over a bounded reservoir
/// (the first `max_samples` observations; count/sum/min/max stay exact
/// beyond that). Record and the accessors take a small mutex — histograms
/// are off the per-tuple hot path (per-iteration / per-run timings), and
/// the lazy re-sort in Percentile needs the exclusion anyway.
class Histogram {
 public:
  explicit Histogram(size_t max_samples = 1 << 16)
      : max_samples_(max_samples) {}

  void Record(double v) {
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
    sum_ += v;
    min_ = count_ == 1 ? v : std::min(min_, v);
    max_ = count_ == 1 ? v : std::max(max_, v);
    if (samples_.size() < max_samples_) {
      samples_.push_back(v);
      sorted_ = false;
    }
  }

  size_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  double sum() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sum_;
  }
  double mean() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }
  double min() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0 ? 0 : min_;
  }
  double max() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0 ? 0 : max_;
  }

  /// Exact percentile (linear interpolation) over the retained samples;
  /// q in [0, 1].
  double Percentile(double q) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (samples_.empty()) return 0;
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
    q = std::min(1.0, std::max(0.0, q));
    double idx = q * static_cast<double>(samples_.size() - 1);
    size_t lo = static_cast<size_t>(idx);
    size_t hi = std::min(lo + 1, samples_.size() - 1);
    double frac = idx - static_cast<double>(lo);
    return samples_[lo] * (1 - frac) + samples_[hi] * frac;
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    samples_.clear();
    sorted_ = false;
    count_ = 0;
    sum_ = 0;
    min_ = 0;
    max_ = 0;
  }

  /// Copy of the retained reservoir (unsorted order not guaranteed);
  /// the OpenMetrics exporter derives bucket counts from it.
  std::vector<double> Samples() const {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_;
  }

  /// Folds another histogram in: exact count/sum/min/max aggregation,
  /// retained samples appended up to this reservoir's capacity.
  void MergeFrom(const Histogram& other);

  /// Same fold from raw pieces (a Snapshot's HistogramData).
  void MergeAggregates(size_t count, double sum, double min, double max,
                       const std::vector<double>& samples);

 private:
  mutable std::mutex mu_;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  size_t max_samples_;
  size_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Named metric store. Get-or-create is synchronized and returns stable
/// pointers, so hot paths cache the pointer once and update lock-free.
/// Names are dotted paths ("exec.join_pairs"); export order is sorted.
class MetricRegistry {
 public:
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  /// Zeroes every registered metric (pointers stay valid).
  void ResetAll();

  /// Writes {"counters":{...},"gauges":{...},"histograms":{...}} as one
  /// JSON object value into `w`.
  void WriteJson(JsonWriter* w) const;
  std::string ToJson() const;

  /// Human-readable "name value" lines, sorted by name.
  std::string ToText() const;

  /// Point-in-time copy for exporters that need the raw values (the
  /// OpenMetrics writer) without holding the registry lock while
  /// formatting.
  struct Snapshot {
    struct HistogramData {
      size_t count = 0;
      double sum = 0;
      double min = 0;
      double max = 0;
      std::vector<double> samples;  // retained reservoir
    };
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramData> histograms;
  };
  Snapshot Snap() const;

  /// Folds counters and histograms into `dst` under `<prefix><name>`:
  /// counters add their values, histograms fold count/sum/min/max and
  /// samples. Gauges hold one registry's last value, which no sum of
  /// registries means, so they are not merged. bench_serve folds each
  /// server's registry into the process default with it. Safe for
  /// concurrent callers on `dst`; a no-op when dst == this.
  void MergeInto(MetricRegistry* dst, std::string_view prefix) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Process-wide registry: instrumentation that has no per-run registry
/// wired through (datagen, loaders, bench harnesses) lands here.
MetricRegistry& DefaultMetrics();

}  // namespace obs
}  // namespace iflex

#endif  // IFLEX_OBS_METRICS_H_
