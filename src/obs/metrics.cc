#include "obs/metrics.h"

#include <cstdio>

#include "obs/json.h"

namespace iflex {
namespace obs {

namespace {

template <typename Map, typename Make>
auto* GetOrCreate(std::mutex& mu, Map& map, std::string_view name,
                  Make make) {
  std::lock_guard<std::mutex> lock(mu);
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), make()).first;
  }
  return it->second.get();
}

}  // namespace

Counter* MetricRegistry::counter(std::string_view name) {
  return GetOrCreate(mu_, counters_, name,
                     [] { return std::make_unique<Counter>(); });
}

Gauge* MetricRegistry::gauge(std::string_view name) {
  return GetOrCreate(mu_, gauges_, name,
                     [] { return std::make_unique<Gauge>(); });
}

Histogram* MetricRegistry::histogram(std::string_view name) {
  return GetOrCreate(mu_, histograms_, name,
                     [] { return std::make_unique<Histogram>(); });
}

void Histogram::MergeFrom(const Histogram& other) {
  if (&other == this) return;
  // Copy the source under its own lock first, then fold under ours:
  // taking both locks at once would risk an ordering cycle.
  std::vector<double> samples = other.Samples();
  size_t count;
  double sum, min, max;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    count = other.count_;
    sum = other.sum_;
    min = other.min_;
    max = other.max_;
  }
  MergeAggregates(count, sum, min, max, samples);
}

void Histogram::MergeAggregates(size_t count, double sum, double min,
                                double max,
                                const std::vector<double>& samples) {
  if (count == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  min_ = count_ == 0 ? min : std::min(min_, min);
  max_ = count_ == 0 ? max : std::max(max_, max);
  count_ += count;
  sum_ += sum;
  for (double v : samples) {
    if (samples_.size() >= max_samples_) break;
    samples_.push_back(v);
    sorted_ = false;
  }
}

MetricRegistry::Snapshot MetricRegistry::Snap() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    Snapshot::HistogramData& data = snap.histograms[name];
    data.count = h->count();
    data.sum = h->sum();
    data.min = h->min();
    data.max = h->max();
    data.samples = h->Samples();
  }
  return snap;
}

void MetricRegistry::MergeInto(MetricRegistry* dst,
                               std::string_view prefix) const {
  if (dst == nullptr || dst == this) return;
  // Snapshot first so the source lock is released before touching dst.
  Snapshot snap = Snap();
  std::string name;
  for (const auto& [key, value] : snap.counters) {
    name.assign(prefix).append(key);
    dst->counter(name)->Add(value);
  }
  for (const auto& [key, data] : snap.histograms) {
    if (data.count == 0) continue;
    name.assign(prefix).append(key);
    dst->histogram(name)->MergeAggregates(data.count, data.sum, data.min,
                                          data.max, data.samples);
  }
}

void MetricRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

void MetricRegistry::WriteJson(JsonWriter* w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w->BeginObject();
  w->Key("counters").BeginObject();
  for (const auto& [name, c] : counters_) {
    w->Key(name).Number(c->value());
  }
  w->EndObject();
  w->Key("gauges").BeginObject();
  for (const auto& [name, g] : gauges_) {
    w->Key(name).Number(g->value());
  }
  w->EndObject();
  w->Key("histograms").BeginObject();
  for (const auto& [name, h] : histograms_) {
    w->Key(name).BeginObject();
    w->Key("count").Number(static_cast<uint64_t>(h->count()));
    w->Key("sum").Number(h->sum());
    w->Key("min").Number(h->min());
    w->Key("max").Number(h->max());
    w->Key("p50").Number(h->Percentile(0.5));
    w->Key("p90").Number(h->Percentile(0.9));
    w->Key("p99").Number(h->Percentile(0.99));
    w->EndObject();
  }
  w->EndObject();
  w->EndObject();
}

std::string MetricRegistry::ToJson() const {
  JsonWriter w;
  WriteJson(&w);
  return w.Release();
}

std::string MetricRegistry::ToText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char buf[160];
  for (const auto& [name, c] : counters_) {
    std::snprintf(buf, sizeof(buf), "%-40s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(c->value()));
    out += buf;
  }
  for (const auto& [name, g] : gauges_) {
    std::snprintf(buf, sizeof(buf), "%-40s %.6g\n", name.c_str(), g->value());
    out += buf;
  }
  for (const auto& [name, h] : histograms_) {
    std::snprintf(
        buf, sizeof(buf),
        "%-40s count=%zu mean=%.6g p50=%.6g p90=%.6g p99=%.6g max=%.6g\n",
        name.c_str(), h->count(), h->mean(), h->Percentile(0.5),
        h->Percentile(0.9), h->Percentile(0.99), h->max());
    out += buf;
  }
  return out;
}

MetricRegistry& DefaultMetrics() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

}  // namespace obs
}  // namespace iflex
