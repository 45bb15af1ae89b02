// Chaos suite: every fail-point site is driven through each injection mode
// (error / delay / every:K) and the observable outcome must always be a
// clean Status or a correctly-flagged degraded result — never a crash, a
// hang, or a silently wrong answer. Runs under the `chaos` ctest label.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>

#include "exec/executor.h"
#include "obs/metrics.h"
#include "resilience/deadline.h"
#include "resilience/failpoint.h"
#include "runtime/task_pool.h"
#include "text/markup_parser.h"

namespace iflex {
namespace {

using resilience::Deadline;
using resilience::FailPoints;

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::Instance().Clear();
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

  void TearDown() override { FailPoints::Instance().Clear(); }

  // After unfolding this is a single q rule seeded by the stored pages
  // join, so the body evaluates in document morsels, pool or no pool.
  Result<Program> Parse(bool annotated = false) {
    std::string src = annotated ? R"(
      q(x, p)? :- pages(x), extractPrice(x, p).
      extractPrice(x, p) :- from(x, p), numeric(p) = yes,
                            bold_font(p) = yes.
    )"
                                : R"(
      q(x, p) :- pages(x), extractPrice(x, p).
      extractPrice(x, p) :- from(x, p), numeric(p) = yes,
                            bold_font(p) = yes.
    )";
    IFLEX_ASSIGN_OR_RETURN(Program prog, ParseProgram(src, *catalog_));
    prog.set_query("q");
    return prog;
  }

  Result<CompactTable> Baseline(const Program& prog) {
    Executor exec(*catalog_);
    return exec.Execute(prog);
  }

  Corpus corpus_;
  DocId d1_ = 0, d2_ = 0;
  std::unique_ptr<Catalog> catalog_;
};

// ------------------------------------------------------------- alog.lexer

TEST_F(ChaosTest, LexerFaultFailsParseCleanly) {
  ASSERT_TRUE(FailPoints::Instance().Configure("alog.lexer=error").ok());
  auto prog = Parse();
  ASSERT_FALSE(prog.ok());
  EXPECT_EQ(prog.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(prog.status().message().find("alog.lexer"), std::string::npos);
}

TEST_F(ChaosTest, LexerEveryKRecoversDeterministically) {
  // Fires on hits 2, 4, ...: parse, fail, parse, fail.
  ASSERT_TRUE(
      FailPoints::Instance().Configure("alog.lexer=error|every:2").ok());
  EXPECT_TRUE(Parse().ok());
  EXPECT_FALSE(Parse().ok());
  EXPECT_TRUE(Parse().ok());
  EXPECT_FALSE(Parse().ok());
}

// ---------------------------------------------------------- exec.annotate

TEST_F(ChaosTest, AnnotateFaultAbortsByDefault) {
  auto prog = Parse(/*annotated=*/true);
  ASSERT_TRUE(prog.ok());
  ASSERT_TRUE(FailPoints::Instance().Configure("exec.annotate=error").ok());
  Executor exec(*catalog_);
  auto result = exec.Execute(*prog);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(result.status().message().find("exec.annotate"),
            std::string::npos);
}

TEST_F(ChaosTest, AnnotateFaultSkipsRuleUnderBestEffort) {
  auto prog = Parse(/*annotated=*/true);
  ASSERT_TRUE(prog.ok());
  ASSERT_TRUE(FailPoints::Instance().Configure("exec.annotate=error").ok());
  ExecOptions options;
  options.best_effort = true;
  Executor exec(*catalog_, options);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok()) << result.status();
  // The only q rule was trapped, so the degraded answer is the empty
  // table with q's schema — valid, just missing the rule's contribution.
  EXPECT_EQ(result->size(), 0u);
  ASSERT_TRUE(exec.report().degraded);
  ASSERT_EQ(exec.report().skipped_rules.size(), 1u);
  EXPECT_NE(exec.report().skipped_rules[0].find("q"), std::string::npos);
  EXPECT_NE(exec.report().skipped_rules[0].find("exec.annotate"),
            std::string::npos);
}

TEST_F(ChaosTest, AnnotateDelayDoesNotChangeTheResult) {
  auto prog = Parse(/*annotated=*/true);
  ASSERT_TRUE(prog.ok());
  auto base = Baseline(*prog);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(FailPoints::Instance().Configure("exec.annotate=delay:5").ok());
  Executor exec(*catalog_);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(&corpus_), base->ToString(&corpus_));
  EXPECT_FALSE(exec.report().degraded);
}

// ------------------------------------------------------------- exec.cache

TEST_F(ChaosTest, CacheFaultDegradesToMissNeverWrongAnswer) {
  auto prog = Parse();
  ASSERT_TRUE(prog.ok());
  auto base = Baseline(*prog);
  ASSERT_TRUE(base.ok());

  ReuseCache cache;
  {
    Executor warm(*catalog_);
    ASSERT_TRUE(warm.Execute(*prog, &cache).ok());
    ASSERT_GT(cache.size(), 0u);
  }
  ASSERT_TRUE(FailPoints::Instance().Configure("exec.cache=error").ok());
  Executor exec(*catalog_);
  auto result = exec.Execute(*prog, &cache);
  ASSERT_TRUE(result.ok()) << result.status();
  // The injected lookup fault costs a recompute, not correctness.
  EXPECT_EQ(result->ToString(&corpus_), base->ToString(&corpus_));
  EXPECT_EQ(exec.stats().cache_hits, 0u);
  EXPECT_FALSE(exec.report().degraded);
}

// ------------------------------------------------------------- exec.shard

// The shard site sits in the morsel loop, which every seed-joined body
// runs, pool or no pool: each case runs with no pool and with the
// 8-thread pool, and must read the same.
TEST_F(ChaosTest, ShardFaultAbortsByDefault) {
  auto prog = Parse();
  ASSERT_TRUE(prog.ok());
  runtime::TaskPool eight(8);
  for (runtime::TaskPool* pool : {static_cast<runtime::TaskPool*>(nullptr),
                                  &eight}) {
    const char* width = pool == nullptr ? "no pool" : "8 threads";
    ASSERT_TRUE(FailPoints::Instance().Configure("exec.shard=error").ok());
    ExecOptions options;
    options.pool = pool;
    // One document per morsel: the two-document corpus yields two
    // morsels, so with the pool the batch really fans out (a single
    // morsel would run inline and skip the pool's injection sites).
    options.morsel_docs = 1;
    Executor exec(*catalog_, options);
    auto result = exec.Execute(*prog);
    ASSERT_FALSE(result.ok()) << width;
    EXPECT_EQ(result.status().code(), StatusCode::kExecutionError) << width;
    EXPECT_NE(result.status().message().find("exec.shard"), std::string::npos)
        << width;
  }
}

TEST_F(ChaosTest, PersistentShardFaultDegradesToEmptyWithFailedDocs) {
  auto prog = Parse();
  ASSERT_TRUE(prog.ok());
  runtime::TaskPool eight(8);
  for (runtime::TaskPool* pool : {static_cast<runtime::TaskPool*>(nullptr),
                                  &eight}) {
    const char* width = pool == nullptr ? "no pool" : "8 threads";
    // Fires on every hit, so the per-seed isolation retries fail too:
    // every document is recorded as failed and the rule is skipped.
    ASSERT_TRUE(FailPoints::Instance().Configure("exec.shard=error").ok());
    obs::MetricRegistry registry;
    ExecOptions options;
    options.pool = pool;
    options.best_effort = true;
    options.morsel_docs = 1;  // one morsel per document
    options.metrics = &registry;
    Executor exec(*catalog_, options);
    auto result = exec.Execute(*prog);
    ASSERT_TRUE(result.ok()) << width << ": " << result.status();
    EXPECT_EQ(result->size(), 0u) << width;
    ASSERT_TRUE(exec.report().degraded) << width;
    EXPECT_EQ(exec.report().failed_docs.size(), 2u) << width;
    EXPECT_EQ(exec.report().skipped_rules.size(), 1u) << width;
    EXPECT_GE(registry.counter("resilience.docs_failed")->value(), 2u)
        << width;
  }
}

TEST_F(ChaosTest, TransientShardFaultRecoversExactly) {
  auto prog = Parse();
  ASSERT_TRUE(prog.ok());
  auto base = Baseline(*prog);
  ASSERT_TRUE(base.ok());
  runtime::TaskPool eight(8);
  for (runtime::TaskPool* pool : {static_cast<runtime::TaskPool*>(nullptr),
                                  &eight}) {
    const char* width = pool == nullptr ? "no pool" : "8 threads";
    // Two morsels (one per document): exactly one of the two initial
    // morsel evaluations draws hit #2 and fails; its seed-by-seed retry
    // draws a non-firing hit and succeeds. The recovered answer must be
    // complete and byte-identical to the fault-free one. Configure
    // restarts the hit count.
    ASSERT_TRUE(
        FailPoints::Instance().Configure("exec.shard=error|every:2").ok());
    ExecOptions options;
    options.pool = pool;
    options.best_effort = true;
    options.morsel_docs = 1;  // one morsel per document
    Executor exec(*catalog_, options);
    auto result = exec.Execute(*prog);
    ASSERT_TRUE(result.ok()) << width << ": " << result.status();
    EXPECT_EQ(result->ToString(&corpus_), base->ToString(&corpus_)) << width;
    EXPECT_FALSE(exec.report().degraded) << width;
  }
}

// ------------------------------------------------------------ runtime.task

TEST_F(ChaosTest, TaskFaultSurfacesAsCleanInternalError) {
  auto prog = Parse();
  ASSERT_TRUE(prog.ok());
  ASSERT_TRUE(FailPoints::Instance().Configure("runtime.task=error").ok());
  runtime::TaskPool pool(8);
  ExecOptions options;
  options.pool = &pool;
  options.morsel_docs = 1;  // two morsels, so the batch reaches the pool
  Executor exec(*catalog_, options);
  auto result = exec.Execute(*prog);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("runtime.task"),
            std::string::npos);
}

TEST_F(ChaosTest, TaskFaultSkipsRuleUnderBestEffort) {
  auto prog = Parse();
  ASSERT_TRUE(prog.ok());
  ASSERT_TRUE(FailPoints::Instance().Configure("runtime.task=error").ok());
  runtime::TaskPool pool(8);
  ExecOptions options;
  options.pool = &pool;
  options.best_effort = true;
  options.morsel_docs = 1;  // two morsels, so the batch reaches the pool
  Executor exec(*catalog_, options);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(exec.report().degraded);
  EXPECT_EQ(exec.report().skipped_rules.size(), 1u);
}

// ------------------------------------------------ deadline under injected
// slowness (the acceptance bound: kDeadlineExceeded within 2x at 8 threads)

TEST_F(ChaosTest, DeadlineBoundHoldsUnderInjectedDelays) {
  auto prog = Parse();
  ASSERT_TRUE(prog.ok());
  // Each morsel evaluation sleeps 300ms; the 200ms deadline expires during
  // the sleep and the first cooperative check after it stops the run.
  ASSERT_TRUE(FailPoints::Instance().Configure("exec.shard=delay:300").ok());
  runtime::TaskPool pool(8);
  ExecOptions options;
  options.pool = &pool;
  options.morsel_docs = 1;  // one morsel per document
  constexpr int kDeadlineMs = 200;
  options.deadline = Deadline::AfterMillis(kDeadlineMs);
  Executor exec(*catalog_, options);
  auto start = std::chrono::steady_clock::now();
  auto result = exec.Execute(*prog);
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LE(elapsed_ms, 2 * kDeadlineMs)
      << "deadline enforcement took too long";
}

// ----------------------------------------- nothing armed, nothing changes

TEST_F(ChaosTest, DisarmedFailPointsAreInvisible) {
  auto prog = Parse(/*annotated=*/true);
  ASSERT_TRUE(prog.ok());
  auto base = Baseline(*prog);
  ASSERT_TRUE(base.ok());
  runtime::TaskPool pool(8);
  ExecOptions options;
  options.pool = &pool;
  options.best_effort = true;
  Executor exec(*catalog_, options);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(&corpus_), base->ToString(&corpus_));
  EXPECT_FALSE(exec.report().degraded);
}

}  // namespace
}  // namespace iflex
