#include "obs/cost_model.h"

#include <algorithm>
#include <cstdio>

#include "obs/json.h"
#include "obs/trace.h"

namespace iflex {
namespace obs {

void CostModel::Charge(const CostKey& key, const Cost& cost) {
  std::lock_guard<std::mutex> lock(mu_);
  costs_[key].Add(cost);
}

ExplainReport CostModel::Report(uint64_t span_ns) const {
  ExplainReport report;
  report.span_ns = span_ns != 0 ? span_ns : this->span_ns();
  std::lock_guard<std::mutex> lock(mu_);
  report.rows.reserve(costs_.size());
  for (const auto& [key, cost] : costs_) {
    report.rows.push_back({key, cost});
    report.total.Add(cost);
  }
  return report;  // map iteration order is already the sort order
}

void CostModel::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  costs_.clear();
  span_ns_.store(0, std::memory_order_relaxed);
}

CostScope::CostScope(CostModel* model, std::string_view scope,
                     const char* op, int iteration) {
  if (model == nullptr || !model->enabled()) return;
  model_ = model;
  key_.scope = std::string(scope);
  key_.op = op;
  key_.iteration = iteration;
  cost_.count = 1;
  start_ns_ = Tracer::NowNs();
}

void CostScope::End() {
  if (model_ == nullptr) return;
  cost_.wall_ns += Tracer::NowNs() - start_ns_;
  model_->Charge(key_, cost_);
  model_ = nullptr;
}

namespace {

void AppendCostColumns(const Cost& c, bool stable_only, uint64_t span_ns,
                       std::string* out) {
  char buf[192];
  if (stable_only) {
    std::snprintf(buf, sizeof(buf), " %10llu %10llu",
                  static_cast<unsigned long long>(c.rows),
                  static_cast<unsigned long long>(c.verify_calls));
    *out += buf;
    return;
  }
  double wall_ms = static_cast<double>(c.wall_ns) / 1e6;
  double pct = span_ns == 0
                   ? 0.0
                   : 100.0 * static_cast<double>(c.wall_ns) /
                         static_cast<double>(span_ns);
  std::snprintf(buf, sizeof(buf),
                " %8llu %10.3f %6.1f %10llu %10llu %10llu %9llu %10llu",
                static_cast<unsigned long long>(c.count), wall_ms, pct,
                static_cast<unsigned long long>(c.docs),
                static_cast<unsigned long long>(c.rows),
                static_cast<unsigned long long>(c.verify_calls),
                static_cast<unsigned long long>(c.memo_hits),
                static_cast<unsigned long long>(c.arena_bytes));
  *out += buf;
}

void AppendKeyColumns(const CostKey& key, std::string* out) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%4d %-24.24s %-16.16s", key.iteration,
                key.scope.c_str(), key.op.c_str());
  *out += buf;
}

}  // namespace

std::string ExplainReport::ToText(bool stable_only) const {
  std::string out;
  if (stable_only) {
    out +=
        "iter scope                    op              "
        "       rows     verify\n";
  } else {
    out +=
        "iter scope                    op              "
        "    count    wall_ms    pct       docs       rows     verify"
        "  memohits      arena\n";
  }
  for (const Row& row : rows) {
    AppendKeyColumns(row.key, &out);
    AppendCostColumns(row.cost, stable_only, span_ns, &out);
    out.push_back('\n');
  }
  out += "     ";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%-24s %-16s", "total", "");
  out += buf;
  AppendCostColumns(total, stable_only, span_ns, &out);
  out.push_back('\n');
  if (!stable_only && span_ns != 0) {
    double span_ms = static_cast<double>(span_ns) / 1e6;
    double attributed_ms = static_cast<double>(total.wall_ns) / 1e6;
    double coverage =
        span_ns == 0 ? 0.0
                     : 100.0 * static_cast<double>(total.wall_ns) /
                           static_cast<double>(span_ns);
    std::snprintf(buf, sizeof(buf),
                  "span_ms %.3f attributed_ms %.3f coverage %.1f%%\n",
                  span_ms, attributed_ms, coverage);
    out += buf;
  }
  return out;
}

namespace {

void WriteCostJson(const Cost& c, JsonWriter* w) {
  w->BeginObject();
  w->Key("count").Number(c.count);
  w->Key("wall_ns").Number(c.wall_ns);
  w->Key("docs").Number(c.docs);
  w->Key("rows").Number(c.rows);
  w->Key("verify_calls").Number(c.verify_calls);
  w->Key("memo_hits").Number(c.memo_hits);
  w->Key("arena_bytes").Number(c.arena_bytes);
  w->EndObject();
}

}  // namespace

std::string ExplainReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("rows").BeginArray();
  for (const Row& row : rows) {
    w.BeginObject();
    w.Key("iteration").Number(static_cast<double>(row.key.iteration));
    w.Key("scope").String(row.key.scope);
    w.Key("op").String(row.key.op);
    w.Key("cost");
    WriteCostJson(row.cost, &w);
    w.EndObject();
  }
  w.EndArray();
  w.Key("total");
  WriteCostJson(total, &w);
  w.Key("span_ns").Number(span_ns);
  w.EndObject();
  return w.Release();
}

CostModel& DefaultCostModel() {
  static CostModel* model = new CostModel();
  return *model;
}

}  // namespace obs
}  // namespace iflex
