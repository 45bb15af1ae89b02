// Attribution profiler (src/obs/cost_model.h) + its executor plumbing:
// inert-when-disabled, per-operator charges on a real execution, the
// execute-level "caches" row, wall coverage against the recorded span,
// the flight-recorder dump a stopped run leaves in its ExecReport, and the
// operator rows candidate simulations charge to question selection.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "assistant/strategy.h"
#include "exec/executor.h"
#include "obs/cost_model.h"
#include "obs/event_log.h"
#include "resilience/deadline.h"
#include "runtime/task_pool.h"
#include "tasks/task.h"
#include "text/markup_parser.h"

namespace iflex {
namespace {

using obs::Cost;
using obs::CostKey;
using obs::CostModel;
using obs::CostScope;
using obs::ExplainReport;

TEST(CostModelTest, DisabledScopeIsInert) {
  CostModel model;
  ASSERT_FALSE(model.enabled());
  {
    CostScope scope(&model, "houses", "join", 0);
    EXPECT_FALSE(scope.active());
  }
  {
    CostScope null_scope(nullptr, "houses", "join", 0);
    EXPECT_FALSE(null_scope.active());
  }
  EXPECT_TRUE(model.Report().empty());
}

TEST(CostModelTest, ChargesAggregateByKeyAndSortDeterministically) {
  CostModel model;
  model.set_enabled(true);
  Cost c;
  c.count = 1;
  c.rows = 10;
  model.Charge(CostKey{"q", "join", 1}, c);
  model.Charge(CostKey{"q", "join", 1}, c);  // same key folds
  model.Charge(CostKey{"houses", "from", 1}, c);
  model.Charge(CostKey{"q", "join", 0}, c);  // earlier iteration sorts first
  ExplainReport report = model.Report();
  ASSERT_EQ(report.rows.size(), 3u);
  EXPECT_EQ(report.rows[0].key, (CostKey{"q", "join", 0}));
  EXPECT_EQ(report.rows[1].key, (CostKey{"houses", "from", 1}));
  EXPECT_EQ(report.rows[2].key, (CostKey{"q", "join", 1}));
  EXPECT_EQ(report.rows[2].cost.count, 2u);
  EXPECT_EQ(report.rows[2].cost.rows, 20u);
  EXPECT_EQ(report.total.rows, 40u);

  model.Clear();
  EXPECT_TRUE(model.Report().empty());
  EXPECT_EQ(model.Report().total.count, 0u);
}

TEST(CostModelTest, ScopeTimesWallAndChargesOnEnd) {
  CostModel model;
  model.set_enabled(true);
  {
    CostScope scope(&model, "q", "project", -1);
    ASSERT_TRUE(scope.active());
    scope.cost()->rows = 5;
    scope.End();
    scope.End();  // idempotent: no double charge
  }
  ExplainReport report = model.Report();
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_EQ(report.rows[0].cost.count, 1u);
  EXPECT_EQ(report.rows[0].cost.rows, 5u);
}

TEST(CostModelTest, AddSpanFeedsTheDefaultCoverageDenominator) {
  CostModel model;
  model.set_enabled(true);
  model.AddSpan(1000);
  model.AddSpan(500);
  EXPECT_EQ(model.span_ns(), 1500u);
  EXPECT_EQ(model.Report().span_ns, 1500u);
  EXPECT_EQ(model.Report(9999).span_ns, 9999u);  // explicit span wins
  model.Clear();
  EXPECT_EQ(model.span_ns(), 0u);
}

TEST(CostModelTest, TextAndJsonRenderings) {
  CostModel model;
  model.set_enabled(true);
  Cost c;
  c.count = 1;
  c.rows = 3;
  c.verify_calls = 2;
  model.Charge(CostKey{"houses", "constraint", 0}, c);
  model.AddSpan(1000000);
  ExplainReport report = model.Report();
  std::string full = report.ToText();
  EXPECT_NE(full.find("iter scope"), std::string::npos);
  EXPECT_NE(full.find("wall_ms"), std::string::npos);
  EXPECT_NE(full.find("houses"), std::string::npos);
  EXPECT_NE(full.find("constraint"), std::string::npos);
  EXPECT_NE(full.find("span_ms"), std::string::npos);
  std::string stable = report.ToText(/*stable_only=*/true);
  EXPECT_NE(stable.find("rows"), std::string::npos);
  // The stable view drops every timing-derived column.
  EXPECT_EQ(stable.find("wall_ms"), std::string::npos);
  EXPECT_EQ(stable.find("span_ms"), std::string::npos);
  std::string json = report.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"scope\":\"houses\""), std::string::npos);
  EXPECT_NE(json.find("\"verify_calls\":2"), std::string::npos);
  EXPECT_NE(json.find("\"span_ns\":1000000"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Executor plumbing, over the paper's running example.
// ---------------------------------------------------------------------------

constexpr char kProgram[] = R"(
  houses(x, <p>, <a>, <h>) :- housePages(x), extractHouses(x, p, a, h).
  schools(s)? :- schoolPages(y), extractSchools(y, s).
  q(x, p, a, h) :- houses(x, p, a, h), schools(s), p > 500000, a > 4500,
                   approx_match(h, s).
  extractHouses(x, p, a, h) :- from(x, p), from(x, a), from(x, h),
                               numeric(p) = yes, numeric(a) = yes.
  extractSchools(y, s) :- from(y, s), bold_font(s) = yes.
)";

class ExplainExecutionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto x1 = ParseMarkup("x1",
                          "Price: <b>$351,000</b>\n"
                          "Cozy house on quiet street\n"
                          "5146 Windsor Ave, Champaign\n"
                          "Sqft: 2750\n"
                          "High school: Vanhise High");
    auto x2 = ParseMarkup("x2",
                          "Price: <b>$619,000</b>\n"
                          "Amazing house in great location\n"
                          "3112 Stonecreek Blvd, Cherry Hills\n"
                          "Sqft: 4700\n"
                          "High school: Basktall HS");
    auto y1 = ParseMarkup("y1",
                          "Top High Schools and Location (page 1)\n"
                          "<b>Basktall</b>, Cherry Hills\n"
                          "<b>Franklin</b>, Robeson\n"
                          "<b>Vanhise</b>, Champaign");
    for (auto* d : {&x1, &x2, &y1}) ASSERT_TRUE(d->ok());
    std::vector<DocId> houses_docs = {corpus_.Add(std::move(x1).value()),
                                      corpus_.Add(std::move(x2).value())};
    std::vector<DocId> school_docs = {corpus_.Add(std::move(y1).value())};

    catalog_ = std::make_unique<Catalog>(&corpus_);
    CompactTable houses({"x"});
    for (DocId d : houses_docs) {
      CompactTuple t;
      t.cells.push_back(Cell::Exact(Value::Doc(d)));
      houses.Add(t);
    }
    ASSERT_TRUE(catalog_->AddTable("housePages", std::move(houses)).ok());
    CompactTable schools({"y"});
    for (DocId d : school_docs) {
      CompactTuple t;
      t.cells.push_back(Cell::Exact(Value::Doc(d)));
      schools.Add(t);
    }
    ASSERT_TRUE(catalog_->AddTable("schoolPages", std::move(schools)).ok());
    ASSERT_TRUE(catalog_->DeclareIEPredicate("extractHouses", 1, 3).ok());
    ASSERT_TRUE(catalog_->DeclareIEPredicate("extractSchools", 1, 1).ok());
    catalog_->RegisterBuiltinFunctions(/*similarity_threshold=*/0.4);
  }

  Corpus corpus_;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(ExplainExecutionTest, ExecutionChargesOperatorsAndCaches) {
  auto prog = ParseProgram(kProgram, *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
  prog->set_query("q");

  obs::CostModel model;
  model.set_enabled(true);
  ExecOptions options;
  options.cost_model = &model;
  options.cost_iteration = 3;
  Executor exec(*catalog_, options);
  auto r = exec.Execute(*prog);
  ASSERT_TRUE(r.ok()) << r.status();

  ExplainReport report = model.Report();
  ASSERT_FALSE(report.empty());
  bool saw_join = false, saw_from = false, saw_caches = false;
  for (const ExplainReport::Row& row : report.rows) {
    EXPECT_EQ(row.key.iteration, 3) << row.key.scope << "/" << row.key.op;
    if (row.key.op == "join") saw_join = true;
    if (row.key.op == "from") saw_from = true;
    if (row.key.op == "caches") {
      saw_caches = true;
      EXPECT_EQ(row.key.scope, "q");
      EXPECT_EQ(row.cost.wall_ns, 0u);  // never double-counts leaf time
    }
  }
  EXPECT_TRUE(saw_join);
  EXPECT_TRUE(saw_from);
  EXPECT_TRUE(saw_caches);
  // Rules that extract charge rows; the query joins both extractions.
  EXPECT_GT(report.total.rows, 0u);
  EXPECT_GT(report.total.verify_calls, 0u);
  // Wall coverage sanity: attributed leaf time fits inside the Execute
  // span the executor recorded via AddSpan.
  EXPECT_GT(model.span_ns(), 0u);
  EXPECT_LE(report.total.wall_ns, model.span_ns());
  // The report also rides along in the ExecReport for post-mortems.
  EXPECT_FALSE(exec.report().explain.empty());
  EXPECT_NE(exec.report().explain.find("caches"), std::string::npos);
}

TEST_F(ExplainExecutionTest, DisabledProfilerChargesNothing) {
  auto prog = ParseProgram(kProgram, *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
  prog->set_query("q");

  obs::CostModel model;  // disabled
  ExecOptions options;
  options.cost_model = &model;
  Executor exec(*catalog_, options);
  auto r = exec.Execute(*prog);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(model.Report().empty());
  EXPECT_EQ(model.span_ns(), 0u);
  EXPECT_TRUE(exec.report().explain.empty());
}

TEST_F(ExplainExecutionTest, StoppedRunDumpsTheFlightRecorder) {
  auto prog = ParseProgram(kProgram, *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
  prog->set_query("q");

  obs::EventLog log(64);
  ExecOptions options;
  options.event_log = &log;
  options.deadline = resilience::Deadline::AfterMillis(0);  // expired
  Executor exec(*catalog_, options);
  auto r = exec.Execute(*prog);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_FALSE(exec.report().flight_recorder.empty());
  std::string joined;
  for (const std::string& line : exec.report().flight_recorder) {
    joined += line;
    joined.push_back('\n');
  }
  EXPECT_NE(joined.find("dumping flight recorder"), std::string::npos)
      << joined;
  EXPECT_NE(joined.find("execute begin"), std::string::npos) << joined;
}

TEST_F(ExplainExecutionTest, CleanRunLeavesNoFlightRecorder) {
  auto prog = ParseProgram(kProgram, *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
  prog->set_query("q");

  obs::EventLog log(64);
  ExecOptions options;
  options.event_log = &log;
  Executor exec(*catalog_, options);
  auto r = exec.Execute(*prog);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(exec.report().flight_recorder.empty());
  // The run still logged its begin/end breadcrumbs (info level default).
  EXPECT_GE(log.total(), 2u);
}

// Explain reaches inside question selection: each candidate simulation's
// operator rows are charged to the session's profile under a "sim:" scope,
// summed over candidates, instead of one opaque row per candidate. The
// stable columns do not depend on the pool.
TEST(ExplainSimulationTest, SimulationsChargeOperatorRows) {
  auto profile = [](runtime::TaskPool* pool) -> Result<ExplainReport> {
    IFLEX_ASSIGN_OR_RETURN(auto task, MakeTask("T9", 60));
    Catalog subset = task->catalog->CloneWithSampledTables(0.3, 42);
    ReuseCache cache;
    std::set<std::string> asked;
    CostModel model;
    model.set_enabled(true);
    StrategyContext ctx;
    ctx.program = &task->initial_program;
    ctx.full_catalog = task->catalog.get();
    ctx.subset_catalog = &subset;
    ctx.subset_cache = &cache;
    ctx.asked = &asked;
    ctx.exec_options.pool = pool;
    ctx.exec_options.cost_model = &model;
    SimulationStrategy strategy;
    IFLEX_ASSIGN_OR_RETURN(std::optional<Question> q, strategy.Next(ctx));
    if (!q.has_value()) return Status::Internal("no question selected");
    return model.Report();
  };

  auto serial = profile(nullptr);
  ASSERT_TRUE(serial.ok()) << serial.status();
  auto has_row = [&](const std::string& scope, const std::string& op) {
    for (const ExplainReport::Row& row : serial->rows) {
      if (row.key.scope == scope && row.key.op == op) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_row("sim:t9", "join"));
  EXPECT_TRUE(has_row("sim:an", "constraint"));
  // A simulated answer about bn narrows bn's cached binding: it runs the
  // new constraint, not the seed join and from() again.
  EXPECT_TRUE(has_row("sim:bn", "constraint"));
  EXPECT_FALSE(has_row("sim:bn", "from"));
  for (const ExplainReport::Row& row : serial->rows) {
    EXPECT_EQ(row.key.op.rfind("cand", 0), std::string::npos)
        << row.key.scope << "/" << row.key.op;
  }

  const std::string stable = serial->ToText(/*stable_only=*/true);
  for (size_t threads : {1, 2, 8}) {
    runtime::TaskPool pool(threads);
    auto pooled = profile(&pool);
    ASSERT_TRUE(pooled.ok()) << pooled.status();
    EXPECT_EQ(pooled->ToText(/*stable_only=*/true), stable)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace iflex
