#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "obs/metrics.h"
#include "resilience/deadline.h"
#include "resilience/failpoint.h"
#include "resilience/report.h"
#include "text/markup_parser.h"

namespace iflex {
namespace {

using resilience::CancellationSource;
using resilience::CancellationToken;
using resilience::Deadline;
using resilience::ExecReport;
using resilience::FailPoints;
using resilience::StopPoller;

// ----------------------------------------------------------------- Deadline

TEST(DeadlineTest, DefaultNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.IsNever());
  EXPECT_FALSE(d.Expired());
  EXPECT_TRUE(std::isinf(d.RemainingSeconds()));
  EXPECT_EQ(d, Deadline::Never());
}

TEST(DeadlineTest, AfterMillisExpires) {
  Deadline d = Deadline::AfterMillis(1);
  EXPECT_FALSE(d.IsNever());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(d.Expired());
  EXPECT_LT(d.RemainingSeconds(), 0.0);
}

TEST(DeadlineTest, SoonerPicksTighterBound) {
  Deadline never = Deadline::Never();
  Deadline soon = Deadline::AfterMillis(10);
  Deadline later = Deadline::AfterMillis(100000);
  EXPECT_EQ(Deadline::Sooner(never, soon), soon);
  EXPECT_EQ(Deadline::Sooner(soon, never), soon);
  EXPECT_EQ(Deadline::Sooner(soon, later), soon);
  EXPECT_EQ(Deadline::Sooner(never, never), never);
}

// ------------------------------------------------------------- Cancellation

TEST(CancellationTest, DefaultTokenNeverCancels) {
  CancellationToken t;
  EXPECT_FALSE(t.CanBeCancelled());
  EXPECT_FALSE(t.Cancelled());
}

TEST(CancellationTest, SourceCancelsItsTokens) {
  CancellationSource src;
  CancellationToken t = src.token();
  EXPECT_TRUE(t.CanBeCancelled());
  EXPECT_FALSE(t.Cancelled());
  src.Cancel();
  EXPECT_TRUE(t.Cancelled());
  EXPECT_TRUE(src.Cancelled());
}

TEST(CancellationTest, HierarchyCancelsDownNotUp) {
  CancellationSource parent;
  CancellationSource child(parent.token());
  CancellationToken ct = child.token();

  // Cancelling the parent request cancels every sub-operation...
  parent.Cancel();
  EXPECT_TRUE(ct.Cancelled());

  // ...but a cancelled child never propagates up to its parent.
  CancellationSource parent2;
  CancellationSource child2(parent2.token());
  child2.Cancel();
  EXPECT_TRUE(child2.token().Cancelled());
  EXPECT_FALSE(parent2.token().Cancelled());
}

// -------------------------------------------------------------- StopPoller

TEST(StopPollerTest, UnarmedIsAlwaysOk) {
  StopPoller p(Deadline::Never(), nullptr);
  EXPECT_FALSE(p.armed());
  EXPECT_TRUE(p.Check("op").ok());
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(p.Poll("op").ok());
}

TEST(StopPollerTest, ReportsDeadlineExceeded) {
  StopPoller p(Deadline::AfterMillis(-1), nullptr);
  EXPECT_TRUE(p.armed());
  Status st = p.Check("myop");
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(st.message().find("myop"), std::string::npos);
  EXPECT_TRUE(st.IsStop());
}

TEST(StopPollerTest, CancelWinsOverDeadline) {
  CancellationSource src;
  src.Cancel();
  CancellationToken t = src.token();
  // Both bounds tripped: cancellation is the more specific outcome.
  StopPoller p(Deadline::AfterMillis(-1), &t);
  EXPECT_EQ(p.Check("op").code(), StatusCode::kCancelled);
}

TEST(StopPollerTest, PollIsStrided) {
  CancellationSource src;
  CancellationToken t = src.token();
  StopPoller p(Deadline::Never(), &t, /*stride=*/4);
  src.Cancel();
  // Polls 1-3 skip the full check; poll 4 performs it.
  EXPECT_TRUE(p.Poll("op").ok());
  EXPECT_TRUE(p.Poll("op").ok());
  EXPECT_TRUE(p.Poll("op").ok());
  EXPECT_EQ(p.Poll("op").code(), StatusCode::kCancelled);
}

// -------------------------------------------------------------- FailPoints

class FailPointTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoints::Instance().Clear(); }
};

TEST_F(FailPointTest, InactiveByDefault) {
  EXPECT_FALSE(FailPoints::Active());
  EXPECT_TRUE(resilience::FailPointStatus("nowhere").ok());
  EXPECT_FALSE(resilience::FailPointFired("nowhere"));
  EXPECT_NO_THROW(resilience::FailPointMaybeThrow("nowhere"));
}

TEST_F(FailPointTest, ErrorClauseFires) {
  ASSERT_TRUE(FailPoints::Instance().Configure("my.site=error").ok());
  EXPECT_TRUE(FailPoints::Active());
  Status st = resilience::FailPointStatus("my.site");
  EXPECT_EQ(st.code(), StatusCode::kExecutionError);
  EXPECT_NE(st.message().find("my.site"), std::string::npos);
  // Other sites stay silent.
  EXPECT_TRUE(resilience::FailPointStatus("other.site").ok());
  EXPECT_EQ(FailPoints::Instance().HitCount("my.site"), 1u);
}

TEST_F(FailPointTest, EveryKFiresDeterministically) {
  ASSERT_TRUE(FailPoints::Instance().Configure("s=error|every:3").ok());
  EXPECT_FALSE(resilience::FailPointFired("s"));  // hit 1
  EXPECT_FALSE(resilience::FailPointFired("s"));  // hit 2
  EXPECT_TRUE(resilience::FailPointFired("s"));   // hit 3
  EXPECT_FALSE(resilience::FailPointFired("s"));  // hit 4
  EXPECT_FALSE(resilience::FailPointFired("s"));  // hit 5
  EXPECT_TRUE(resilience::FailPointFired("s"));   // hit 6
  EXPECT_EQ(FailPoints::Instance().HitCount("s"), 6u);
}

TEST_F(FailPointTest, ThrowChannel) {
  ASSERT_TRUE(FailPoints::Instance().Configure("t=error").ok());
  EXPECT_THROW(resilience::FailPointMaybeThrow("t"),
               resilience::FailPointError);
}

TEST_F(FailPointTest, DelayOnlyClauseIsNotAnError) {
  ASSERT_TRUE(FailPoints::Instance().Configure("d=delay:1").ok());
  EXPECT_TRUE(resilience::FailPointStatus("d").ok());
  EXPECT_EQ(FailPoints::Instance().HitCount("d"), 1u);
}

TEST_F(FailPointTest, MultipleSitesAndArmedListing) {
  ASSERT_TRUE(
      FailPoints::Instance().Configure("a=error,b=delay:1|every:2").ok());
  auto armed = FailPoints::Instance().ArmedSites();
  ASSERT_EQ(armed.size(), 2u);
  EXPECT_EQ(armed[0], "a");
  EXPECT_EQ(armed[1], "b");
  FailPoints::Instance().Clear();
  EXPECT_FALSE(FailPoints::Active());
  EXPECT_TRUE(FailPoints::Instance().ArmedSites().empty());
}

TEST_F(FailPointTest, BadSpecsRejectedAndKeepPreviousConfig) {
  ASSERT_TRUE(FailPoints::Instance().Configure("keep=error").ok());
  EXPECT_FALSE(FailPoints::Instance().Configure("no-equals").ok());
  EXPECT_FALSE(FailPoints::Instance().Configure("s=bogus").ok());
  EXPECT_FALSE(FailPoints::Instance().Configure("s=delay:-4").ok());
  EXPECT_FALSE(FailPoints::Instance().Configure("s=every:0").ok());
  EXPECT_FALSE(FailPoints::Instance().Configure("s=every:2").ok())
      << "every without error/delay has nothing to do";
  // The good configuration survived every rejected one.
  EXPECT_FALSE(resilience::FailPointStatus("keep").ok());
}

// -------------------------------------------------------------- ExecReport

TEST(ExecReportTest, RecordsAndFlags) {
  ExecReport r;
  EXPECT_FALSE(r.degraded);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.EventCount(), 0u);
  EXPECT_EQ(r.ToString(), "ok");

  r.AddFailedDoc(7);
  r.AddFailedInput();
  r.AddSkippedRule("q: boom");
  r.AddTruncation("join output truncated to 10 tuples");
  EXPECT_TRUE(r.degraded);
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.EventCount(), 4u);
  std::string s = r.ToString();
  EXPECT_NE(s.find("degraded"), std::string::npos);
  EXPECT_NE(s.find("2 doc(s)/input(s) failed"), std::string::npos);
  EXPECT_NE(s.find("1 rule(s) skipped"), std::string::npos);
  EXPECT_NE(s.find("1 truncation(s)"), std::string::npos);

  ExecReport other;
  other.AddFailedDoc(9);
  other.AddFailedDoc(7);
  r.Merge(other);
  EXPECT_EQ(r.failed_docs, (std::vector<DocId>{7, 9}));  // each doc once
  EXPECT_EQ(r.EventCount(), 5u);
  r.AddFailedDoc(9);
  EXPECT_EQ(r.EventCount(), 5u);

  r.Clear();
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.EventCount(), 0u);
}

// -------------------------------------------- executor integration (no
// faults injected here; chaos_test drives the fail-point suite)

class ResilientExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto p1 = ParseMarkup("page1", "Price: <b>$250,000</b> Sqft: 2000");
    auto p2 = ParseMarkup("page2", "Price: <b>$619,000</b> Sqft: 4700");
    ASSERT_TRUE(p1.ok());
    ASSERT_TRUE(p2.ok());
    d1_ = corpus_.Add(std::move(p1).value());
    d2_ = corpus_.Add(std::move(p2).value());
    catalog_ = std::make_unique<Catalog>(&corpus_);
    CompactTable pages({"x"});
    for (DocId d : {d1_, d2_}) {
      CompactTuple t;
      t.cells.push_back(Cell::Exact(Value::Doc(d)));
      pages.Add(t);
    }
    ASSERT_TRUE(catalog_->AddTable("pages", std::move(pages)).ok());
    ASSERT_TRUE(catalog_->DeclareIEPredicate("extractPrice", 1, 1).ok());
    catalog_->RegisterBuiltinFunctions();
  }

  Result<Program> Parse() {
    const char* src = R"(
      q(x, p) :- pages(x), extractPrice(x, p).
      extractPrice(x, p) :- from(x, p), numeric(p) = yes,
                            bold_font(p) = yes.
    )";
    IFLEX_ASSIGN_OR_RETURN(Program prog, ParseProgram(src, *catalog_));
    prog.set_query("q");
    return prog;
  }

  Corpus corpus_;
  DocId d1_ = 0, d2_ = 0;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(ResilientExecTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  auto prog = Parse();
  ASSERT_TRUE(prog.ok());
  obs::MetricRegistry registry;
  ExecOptions options;
  options.deadline = Deadline::AfterMillis(-1);
  options.metrics = &registry;
  Executor exec(*catalog_, options);
  auto result = exec.Execute(*prog);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(registry.counter("resilience.deadline_exceeded")->value(), 1u);
}

TEST_F(ResilientExecTest, CancelledTokenReturnsCancelled) {
  auto prog = Parse();
  ASSERT_TRUE(prog.ok());
  CancellationSource src;
  src.Cancel();
  CancellationToken token = src.token();
  obs::MetricRegistry registry;
  ExecOptions options;
  options.cancel = &token;
  options.metrics = &registry;
  Executor exec(*catalog_, options);
  auto result = exec.Execute(*prog);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(registry.counter("resilience.cancelled")->value(), 1u);
}

TEST_F(ResilientExecTest, ArmedButUntriggeredBoundsChangeNothing) {
  auto prog = Parse();
  ASSERT_TRUE(prog.ok());

  Executor plain(*catalog_);
  auto base = plain.Execute(*prog);
  ASSERT_TRUE(base.ok());

  CancellationSource src;  // never cancelled
  CancellationToken token = src.token();
  ExecOptions options;
  options.deadline = Deadline::AfterMillis(1000000);
  options.cancel = &token;
  options.best_effort = true;
  Executor exec(*catalog_, options);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(&corpus_), base->ToString(&corpus_));
  EXPECT_FALSE(exec.report().degraded);
}

TEST_F(ResilientExecTest, BudgetOverrunErrorsByDefault) {
  auto prog = Parse();
  ASSERT_TRUE(prog.ok());
  ExecOptions options;
  options.max_table_tuples = 1;  // two pages exceed this immediately
  Executor exec(*catalog_, options);
  auto result = exec.Execute(*prog);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(result.status().message().find("max_table_tuples"),
            std::string::npos);
}

TEST_F(ResilientExecTest, BestEffortTruncatesAndReports) {
  auto prog = Parse();
  ASSERT_TRUE(prog.ok());
  ExecReport report;
  obs::MetricRegistry registry;
  ExecOptions options;
  options.max_table_tuples = 1;
  options.best_effort = true;
  options.report = &report;
  options.metrics = &registry;
  Executor exec(*catalog_, options);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LE(result->size(), 1u);
  EXPECT_TRUE(report.degraded);
  ASSERT_FALSE(report.truncations.empty());
  EXPECT_NE(report.truncations[0].find("truncated"), std::string::npos);
  // Executor::report() aliases the caller-supplied sink.
  EXPECT_EQ(&exec.report(), &report);
  EXPECT_GE(registry.counter("resilience.degraded_runs")->value(), 1u);
  EXPECT_GE(registry.counter("resilience.truncations")->value(), 1u);
}

TEST_F(ResilientExecTest, DegradedTablesNeverEnterTheReuseCache) {
  auto prog = Parse();
  ASSERT_TRUE(prog.ok());
  ReuseCache cache;
  {
    ExecOptions options;
    options.max_table_tuples = 1;
    options.best_effort = true;
    Executor exec(*catalog_, options);
    auto degraded = exec.Execute(*prog, &cache);
    ASSERT_TRUE(degraded.ok());
    ASSERT_TRUE(exec.report().degraded);
  }
  // A later fault-free iteration sharing the cache must compute the full
  // answer, not inherit the truncated table.
  Executor exec(*catalog_);
  auto full = exec.Execute(*prog, &cache);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->size(), 2u);
  EXPECT_FALSE(exec.report().degraded);
}

// Two predicates drop the same document, which the report lists once: the
// second predicate's table stays out of the cache all the same, and so
// does the query's, which is built from both.
TEST_F(ResilientExecTest, SecondPredicateDroppingTheSameDocIsNotCached) {
  auto poisoned = std::make_shared<bool>(true);
  const DocId bad = d2_;
  ASSERT_TRUE(catalog_
                  ->DeclarePPredicate(
                      "tag", 1, 1,
                      [poisoned, bad](const Corpus&,
                                      const std::vector<Value>& in)
                          -> Result<std::vector<std::vector<Value>>> {
                        if (*poisoned && in[0].doc() == bad) {
                          return Status::ExecutionError("tag: poisoned page");
                        }
                        return std::vector<std::vector<Value>>{
                            {Value::Number(in[0].doc())}};
                      })
                  .ok());
  auto prog = ParseProgram(R"(
    a(x, t) :- pages(x), tag(x, t).
    b(x, t) :- pages(x), tag(x, t).
    q(x, t) :- a(x, t), b(x, t).
  )",
                           *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
  prog->set_query("q");
  ReuseCache cache;
  ExecOptions options;
  options.best_effort = true;
  {
    Executor exec(*catalog_, options);
    auto degraded = exec.Execute(*prog, &cache);
    ASSERT_TRUE(degraded.ok()) << degraded.status();
    EXPECT_EQ(degraded->size(), 1u);
    EXPECT_EQ(exec.report().failed_docs, std::vector<DocId>{bad});
  }
  *poisoned = false;
  Executor exec(*catalog_, options);
  auto full = exec.Execute(*prog, &cache);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(exec.stats().cache_hits, 0u);
  EXPECT_EQ(exec.last_idb().at("b")->size(), 2u);
  EXPECT_EQ(full->size(), 2u);
  EXPECT_FALSE(exec.report().degraded);
}

TEST_F(ResilientExecTest, ReportClearsBetweenExecutes) {
  auto prog = Parse();
  ASSERT_TRUE(prog.ok());
  ExecOptions options;
  options.max_table_tuples = 1;
  options.best_effort = true;
  Executor exec(*catalog_, options);
  ASSERT_TRUE(exec.Execute(*prog).ok());
  ASSERT_TRUE(exec.report().degraded);
  size_t first_events = exec.report().EventCount();
  ASSERT_TRUE(exec.Execute(*prog).ok());
  // Same degradation again, not accumulated on top of the first run's.
  EXPECT_EQ(exec.report().EventCount(), first_events);
}

}  // namespace
}  // namespace iflex
