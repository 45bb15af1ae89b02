#include <atomic>
#include <cctype>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

// ---------------------------------------------------------------------------
// Global allocation counter, used to prove the disabled-tracing path does
// not allocate. Every other test tolerates allocation; only the counter
// deltas inside DisabledSpanAllocatesNothing are asserted on.
// ---------------------------------------------------------------------------

namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// The nothrow forms must be overridden alongside the throwing ones:
// otherwise (e.g. under ASan) nothrow allocations come from a different
// allocator than the plain operator delete releases them to.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace iflex {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser — enough to check that exported
// documents are well-formed without depending on an external library.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* lit) {
    size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  const std::string& s_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(JsonWriterTest, EscapesAndNests) {
  JsonWriter w;
  w.BeginObject();
  w.Key("quote\"backslash\\").String("tab\tnewline\ncontrol\x01");
  w.Key("arr").BeginArray().Number(1.5).Bool(true).Null().EndArray();
  w.EndObject();
  std::string out = w.str();
  EXPECT_NE(out.find("\\\""), std::string::npos);
  EXPECT_NE(out.find("\\\\"), std::string::npos);
  EXPECT_NE(out.find("\\t"), std::string::npos);
  EXPECT_NE(out.find("\\n"), std::string::npos);
  EXPECT_NE(out.find("\\u0001"), std::string::npos);
  EXPECT_TRUE(JsonChecker(out).Valid()) << out;
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Number(std::numeric_limits<double>::infinity());
  w.Number(std::numeric_limits<double>::quiet_NaN());
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null]");
  EXPECT_TRUE(JsonChecker(w.str()).Valid());
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterGaugeBasics) {
  MetricRegistry reg;
  Counter* c = reg.counter("exec.things");
  c->Add();
  c->Add(4);
  EXPECT_EQ(c->value(), 5u);
  // Get-or-create returns the same stable pointer.
  EXPECT_EQ(reg.counter("exec.things"), c);

  Gauge* g = reg.gauge("exec.size");
  g->Set(2.5);
  g->Add(0.5);
  EXPECT_DOUBLE_EQ(g->value(), 3.0);

  reg.ResetAll();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
}

TEST(MetricsTest, HistogramPercentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // 100 samples, index = q * 99 with linear interpolation.
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 50.5);
  EXPECT_NEAR(h.Percentile(0.9), 90.1, 1e-9);
  EXPECT_NEAR(h.Percentile(0.99), 99.01, 1e-9);
  // Out-of-range quantiles clamp.
  EXPECT_DOUBLE_EQ(h.Percentile(-3), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(7), 100.0);
}

TEST(MetricsTest, HistogramReservoirBeyondCapacity) {
  Histogram h(/*max_samples=*/8);
  for (int i = 0; i < 100; ++i) h.Record(i);
  // Exact aggregates keep counting past the reservoir.
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.max(), 99.0);
  // Percentiles come from the first 8 samples only (0..7).
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 7.0);
}

TEST(MetricsTest, RegistryJsonIsWellFormed) {
  MetricRegistry reg;
  reg.counter("a.count")->Add(3);
  reg.gauge("b.gauge")->Set(1.25);
  Histogram* h = reg.histogram("c.hist");
  h->Record(1);
  h->Record(2);
  std::string json = reg.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"a.count\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos) << json;
  std::string text = reg.ToText();
  EXPECT_NE(text.find("a.count"), std::string::npos);
}

TEST(MetricsTest, ExportsCarryHistogramPercentiles) {
  MetricRegistry reg;
  Histogram* h = reg.histogram("iter.seconds");
  for (int i = 1; i <= 100; ++i) h->Record(i);
  std::string json = reg.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"p50\":50.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p90\":90.1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\":99.01"), std::string::npos) << json;
  std::string text = reg.ToText();
  EXPECT_NE(text.find("p50=50.5"), std::string::npos) << text;
  EXPECT_NE(text.find("p90=90.1"), std::string::npos) << text;
  EXPECT_NE(text.find("p99=99.01"), std::string::npos) << text;
}

// MergeInto folds a simulation-private registry into its parent: counters
// add, histograms fold their aggregates, and gauges — one registry's last
// value — are left alone on both sides.
TEST(MetricsTest, MergeIntoFoldsCountersAndHistogramsOnly) {
  MetricRegistry src;
  src.counter("c")->Add(3);
  src.gauge("g")->Set(5);
  src.gauge("only_src")->Set(9);
  src.histogram("h")->Record(1);
  src.histogram("h")->Record(4);

  MetricRegistry dst;
  dst.counter("sim.c")->Add(2);
  dst.gauge("sim.g")->Set(7);
  dst.histogram("sim.h")->Record(10);

  src.MergeInto(&dst, "sim.");
  src.MergeInto(&dst, "sim.");
  MetricRegistry::Snapshot snap = dst.Snap();
  EXPECT_EQ(snap.counters.at("sim.c"), 2u + 3u + 3u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("sim.g"), 7.0);
  EXPECT_EQ(snap.gauges.count("sim.only_src"), 0u);
  const auto& h = snap.histograms.at("sim.h");
  EXPECT_EQ(h.count, 5u);
  EXPECT_DOUBLE_EQ(h.sum, 10.0 + 1 + 4 + 1 + 4);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 10.0);
  // The source is read, never changed.
  EXPECT_EQ(src.counter("c")->value(), 3u);
  EXPECT_DOUBLE_EQ(src.gauge("g")->value(), 5.0);
}

// ---------------------------------------------------------------------------
// Tracer + spans
// ---------------------------------------------------------------------------

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  {
    TraceSpan span(&tracer, "test.outer");
    TraceSpan inner(&tracer, "test.inner");
  }
  EXPECT_EQ(tracer.size(), 0u);
  // A null tracer is also a no-op.
  TraceSpan null_span(nullptr, "test.null");
}

TEST(TracerTest, SpanNestingDepthAndOrder) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    TraceSpan outer(&tracer, "test.outer", "o");
    {
      TraceSpan mid(&tracer, "test.mid");
      TraceSpan leaf(&tracer, "test.leaf");
    }
    TraceSpan sibling(&tracer, "test.sibling");
  }
  std::vector<TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Snapshot is start-ordered: outer first, then mid, leaf, sibling.
  EXPECT_EQ(events[0].name, "test.outer");
  EXPECT_EQ(events[0].detail, "o");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].name, "test.mid");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].name, "test.leaf");
  EXPECT_EQ(events[2].depth, 2);
  EXPECT_EQ(events[3].name, "test.sibling");
  EXPECT_EQ(events[3].depth, 1);
  // Containment: children start and end within the outer span.
  uint64_t outer_end = events[0].start_ns + events[0].dur_ns;
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_ns, events[0].start_ns);
    EXPECT_LE(events[i].start_ns + events[i].dur_ns, outer_end);
  }
}

TEST(TracerTest, SummaryTreeReflectsNesting) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    TraceSpan outer(&tracer, "test.outer");
    for (int i = 0; i < 3; ++i) {
      TraceSpan child(&tracer, "test.child");
    }
  }
  std::string tree = tracer.SummaryTree();
  // One aggregated line per name; the child folds its 3 calls.
  EXPECT_NE(tree.find("test.outer"), std::string::npos) << tree;
  EXPECT_NE(tree.find("test.child"), std::string::npos) << tree;
  EXPECT_NE(tree.find("3x"), std::string::npos) << tree;
  // The child line is indented under the outer line.
  size_t outer_pos = tree.find("test.outer");
  size_t child_pos = tree.find("  test.child");
  EXPECT_NE(child_pos, std::string::npos) << tree;
  EXPECT_LT(outer_pos, child_pos);
}

TEST(TracerTest, EndIsIdempotentAndExplicit) {
  Tracer tracer;
  tracer.set_enabled(true);
  TraceSpan span(&tracer, "test.once");
  span.End();
  span.End();  // no double-record
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(TracerTest, RingOverwritesOldestAndCountsDrops) {
  Tracer tracer(/*capacity=*/4);
  tracer.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    TraceSpan span(&tracer, i % 2 == 0 ? "test.even" : "test.odd");
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // The survivors are the newest 4 events, still start-ordered.
  std::vector<TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_ns, events[i - 1].start_ns);
  }
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerTest, OverflowSurfacesInDefaultRegistryAndEventLog) {
  // Drop accounting outside the Chrome export (satellite wiring in
  // Tracer::Record): every overwritten span bumps the default-registry
  // "obs.trace_dropped" counter, and the first wrap of an episode warns
  // once into the default event log; Clear() re-arms the warning.
  Counter* drops = DefaultMetrics().counter("obs.trace_dropped");
  EventLog& log = DefaultEventLog();
  const uint64_t drops_before = drops->value();
  const uint64_t events_before = log.total();

  Tracer tracer(/*capacity=*/2);
  tracer.set_enabled(true);
  for (int i = 0; i < 7; ++i) {
    TraceSpan span(&tracer, "test.overflow");
  }
  EXPECT_EQ(tracer.dropped(), 5u);
  EXPECT_EQ(drops->value() - drops_before, 5u);
  // Exactly one wrap warning for the whole episode.
  uint64_t wrap_warnings = 0;
  for (const LogEvent& ev : log.Snapshot()) {
    if (ev.ticket >= events_before && ev.site == "obs.trace") ++wrap_warnings;
  }
  EXPECT_EQ(wrap_warnings, 1u);

  // A cleared tracer warns again on its next wrap.
  tracer.Clear();
  for (int i = 0; i < 3; ++i) {
    TraceSpan span(&tracer, "test.overflow");
  }
  wrap_warnings = 0;
  for (const LogEvent& ev : log.Snapshot()) {
    if (ev.ticket >= events_before && ev.site == "obs.trace") ++wrap_warnings;
  }
  EXPECT_EQ(wrap_warnings, 2u);
}

TEST(TracerTest, ChromeJsonIsWellFormed) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    TraceSpan outer(&tracer, "test.outer", "detail \"quoted\"\n");
    TraceSpan inner(&tracer, "test.inner");
  }
  std::string json = tracer.ToChromeJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos);
  // The quoted detail survives escaping.
  EXPECT_NE(json.find("detail \\\"quoted\\\"\\n"), std::string::npos);
}

TEST(TracerTest, MultiThreadedSpansKeepTheirTids) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    TraceSpan main_span(&tracer, "test.main");
    std::thread t([&tracer] { TraceSpan s(&tracer, "test.worker"); });
    t.join();
  }
  std::vector<TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
  // Each thread starts its own depth at zero.
  for (const TraceEvent& ev : events) EXPECT_EQ(ev.depth, 0);
}

TEST(TraceSpanTest, DisabledSpanAllocatesNothing) {
  Tracer tracer;  // disabled
  std::string detail(64, 'x');  // non-empty, would be copied if enabled
  size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    TraceSpan span(&tracer, "test.disabled", detail);
  }
  size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  // Enabled spans DO copy the detail (sanity-check the counter works).
  tracer.set_enabled(true);
  before = g_allocations.load(std::memory_order_relaxed);
  {
    TraceSpan span(&tracer, "test.enabled", detail);
  }
  after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_GT(after - before, 0u);
}

}  // namespace
}  // namespace obs
}  // namespace iflex
