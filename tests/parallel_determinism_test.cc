// Parallel execution must be a pure scheduling change: at 1, 2, or 8
// threads — and at any morsel size — the executor (morsel-driven
// extraction) and the assistant (concurrent simulation) must produce
// byte-identical results to the serial run. These tests oversubscribe a
// small machine happily — the determinism contract is thread-count and
// morsel-size independent by construction (docs/RUNTIME.md). Question
// selection must also fill the pool — one batch per Next(), not one per
// question — and a task fault inside that batch must end in a clean Status.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "assistant/session.h"
#include "assistant/strategy.h"
#include "exec/executor.h"
#include "resilience/deadline.h"
#include "resilience/failpoint.h"
#include "runtime/task_pool.h"
#include "tasks/task.h"
#include "text/markup_parser.h"

namespace iflex {
namespace {

using resilience::FailPoints;

// The paper's running example (Figures 1-3), as in paper_example_test.
constexpr char kProgram[] = R"(
  houses(x, <p>, <a>, <h>) :- housePages(x), extractHouses(x, p, a, h).
  schools(s)? :- schoolPages(y), extractSchools(y, s).
  q(x, p, a, h) :- houses(x, p, a, h), schools(s), p > 500000, a > 4500,
                   approx_match(h, s).
  extractHouses(x, p, a, h) :- from(x, p), from(x, a), from(x, h),
                               numeric(p) = yes, numeric(a) = yes.
  extractSchools(y, s) :- from(y, s), bold_font(s) = yes.
)";

class PaperExampleDeterminismTest : public ::testing::Test {
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
    auto y2 = ParseMarkup("y2",
                          "Top High Schools and Location (page 2)\n"
                          "<b>Hoover</b>, Akron\n"
                          "<b>Ossage</b>, Lynneville");
    for (auto* d : {&x1, &x2, &y1, &y2}) ASSERT_TRUE(d->ok());
    std::vector<DocId> houses_docs = {corpus_.Add(std::move(x1).value()),
                                      corpus_.Add(std::move(x2).value())};
    std::vector<DocId> school_docs = {corpus_.Add(std::move(y1).value()),
                                      corpus_.Add(std::move(y2).value())};

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

TEST_F(PaperExampleDeterminismTest, ExecutionIsIdenticalAtAnyThreadCount) {
  auto prog = ParseProgram(kProgram, *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
  prog->set_query("q");

  Executor serial(*catalog_);
  auto base = serial.Execute(*prog);
  ASSERT_TRUE(base.ok()) << base.status();
  const std::string expected = base->ToString(&corpus_);
  const size_t expected_assignments = serial.stats().process_assignments;

  // The resilience machinery is armed (far deadline, live cancellation
  // token, best-effort isolation) but never triggered: it must be a pure
  // observer — byte-identical results, no degradation.
  resilience::CancellationSource cancel_source;
  const resilience::CancellationToken cancel_token = cancel_source.token();
  for (size_t threads : {1, 2, 8}) {
    runtime::TaskPool pool(threads);
    ExecOptions options;
    options.pool = &pool;
    options.deadline = resilience::Deadline::AfterMillis(60 * 60 * 1000);
    options.cancel = &cancel_token;
    options.best_effort = true;
    Executor exec(*catalog_, options);
    auto r = exec.Execute(*prog);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->ToString(&corpus_), expected) << threads << " threads";
    EXPECT_EQ(exec.stats().process_assignments, expected_assignments)
        << threads << " threads";
    EXPECT_FALSE(exec.report().degraded) << threads << " threads";
    // Every intermediate table must match too, not just the query's.
    ASSERT_EQ(exec.last_idb().size(), serial.last_idb().size());
    for (const auto& [pred, table] : serial.last_idb()) {
      auto it = exec.last_idb().find(pred);
      ASSERT_NE(it, exec.last_idb().end()) << pred;
      EXPECT_EQ(it->second->ToString(&corpus_), table->ToString(&corpus_))
          << pred << " at " << threads << " threads";
    }
  }
}

// Morsel-size sweep: the morsel is a scheduling unit, never a semantic
// one. From one-document morsels (maximum scheduling freedom) to morsels
// larger than any table (the whole body is a single work unit), every
// thread count must reproduce the serial bytes — including every
// intermediate table.
TEST_F(PaperExampleDeterminismTest, MorselSizeNeverChangesTheResult) {
  auto prog = ParseProgram(kProgram, *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
  prog->set_query("q");

  Executor serial(*catalog_);
  auto base = serial.Execute(*prog);
  ASSERT_TRUE(base.ok()) << base.status();
  const std::string expected = base->ToString(&corpus_);
  const size_t expected_assignments = serial.stats().process_assignments;

  for (size_t threads : {1, 2, 8}) {
    runtime::TaskPool pool(threads);
    for (size_t morsel_docs : {1, 64, 4096}) {
      ExecOptions options;
      options.pool = &pool;
      options.morsel_docs = morsel_docs;
      Executor exec(*catalog_, options);
      auto r = exec.Execute(*prog);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r->ToString(&corpus_), expected)
          << threads << " threads, morsel_docs " << morsel_docs;
      EXPECT_EQ(exec.stats().process_assignments, expected_assignments)
          << threads << " threads, morsel_docs " << morsel_docs;
      ASSERT_EQ(exec.last_idb().size(), serial.last_idb().size());
      for (const auto& [pred, table] : serial.last_idb()) {
        auto it = exec.last_idb().find(pred);
        ASSERT_NE(it, exec.last_idb().end()) << pred;
        EXPECT_EQ(it->second->ToString(&corpus_), table->ToString(&corpus_))
            << pred << " at " << threads << " threads, morsel_docs "
            << morsel_docs;
      }
    }
  }
}

// A DBLife-style program (Table 6 "Panel" task) over a generated corpus:
// morsel-driven extraction over the docs table must be byte-identical
// to serial at every thread count.
TEST(DblifeDeterminismTest, PanelExtractionIsIdenticalAtAnyThreadCount) {
  auto serial_task = MakeTask("Panel", 40);
  ASSERT_TRUE(serial_task.ok()) << serial_task.status();
  Executor serial(*(*serial_task)->catalog);
  auto base = serial.Execute((*serial_task)->initial_program);
  ASSERT_TRUE(base.ok()) << base.status();
  const std::string expected =
      base->ToString((*serial_task)->corpus.get());
  ASSERT_FALSE(expected.empty());
  const size_t expected_assignments = serial.stats().process_assignments;

  for (size_t threads : {1, 2, 8}) {
    // Fresh task instance per thread count: generation is seeded, so the
    // corpora are identical; what varies is only the scheduling shape.
    auto task = MakeTask("Panel", 40);
    ASSERT_TRUE(task.ok()) << task.status();
    runtime::TaskPool pool(threads);
    // The 40-document seed table carves into 40 / 1 / 1 morsels.
    for (size_t morsel_docs : {1, 64, 4096}) {
      ExecOptions options;
      options.pool = &pool;
      options.morsel_docs = morsel_docs;
      Executor exec(*(*task)->catalog, options);
      auto r = exec.Execute((*task)->initial_program);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r->ToString((*task)->corpus.get()), expected)
          << threads << " threads, morsel_docs " << morsel_docs;
      EXPECT_EQ(exec.stats().process_assignments, expected_assignments)
          << threads << " threads, morsel_docs " << morsel_docs;
    }
  }
}

// Every intermediate table of the Panel program, not just the query's,
// must match the serial run at every thread count.
TEST(DblifeDeterminismTest, EveryIdbTableIsIdenticalAtAnyThreadCount) {
  auto serial_task = MakeTask("Panel", 40);
  ASSERT_TRUE(serial_task.ok()) << serial_task.status();
  Executor serial(*(*serial_task)->catalog);
  auto base = serial.Execute((*serial_task)->initial_program);
  ASSERT_TRUE(base.ok()) << base.status();
  const std::string expected =
      base->ToString((*serial_task)->corpus.get());
  ASSERT_FALSE(expected.empty());

  for (size_t threads : {1, 2, 8}) {
    auto task = MakeTask("Panel", 40);
    ASSERT_TRUE(task.ok()) << task.status();
    runtime::TaskPool pool(threads);
    ExecOptions options;
    options.pool = &pool;
    Executor exec(*(*task)->catalog, options);
    auto r = exec.Execute((*task)->initial_program);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->ToString((*task)->corpus.get()), expected)
        << threads << " threads";
    ASSERT_EQ(exec.last_idb().size(), serial.last_idb().size());
    for (const auto& [pred, table] : serial.last_idb()) {
      auto it = exec.last_idb().find(pred);
      ASSERT_NE(it, exec.last_idb().end()) << pred;
      EXPECT_EQ(it->second->ToString((*task)->corpus.get()),
                table->ToString((*serial_task)->corpus.get()))
          << pred << " at " << threads << " threads";
    }
  }
}

// The prepared similarity join (docs/PERFORMANCE.md) builds its table
// side — prepared cells and the inverted token index — once per rule
// evaluation, before the morsels start, and shares it read-only across
// them. A T9 program refined far enough for bn's title cells to be
// indexed must still be byte-identical to serial at every thread count
// and morsel size, with the same number of scored pairs, with and without
// a ReuseCache. Every morsel also calls the one shared Verify memo and the
// cache's prepared-cell store directly, so a fresh memo must see the same
// lookups and end with the same entries, and a fresh cache the same cell
// lookups; which of those lookups hit may differ when two morsels race on
// one key.
TEST(SimilarityJoinDeterminismTest, SharedIndexIsIdenticalAtAnyThreadCount) {
  // Each price carries a second constraint: contain cells only reach
  // Refine, and the memo answers the Verify calls that re-check refined
  // values against the earlier constraint (paper §4.2).
  constexpr char kRefinedT9[] = R"(
    an(x, <t1>, <np>) :- amazonPages(x), extractAmazonTN(x, t1, np).
    bn(y, <t2>, <bp>) :- barnesPages(y), extractBarnes(y, t2, bp).
    t9(t1) :- an(x, t1, np), bn(y, t2, bp), similar(t1, t2), np < bp.
    extractAmazonTN(x, t1, np) :- from(x, t1), from(x, np),
        bold_font(t1) = yes, preceded_by(np, "New:") = yes,
        numeric(np) = yes.
    extractBarnes(y, t2, bp) :- from(y, t2), from(y, bp),
        bold_font(t2) = yes, italic_font(bp) = distinct_yes,
        numeric(bp) = yes.
  )";
  struct Run {
    std::string bytes;
    size_t join_pairs = 0;
    uint64_t memo_lookups = 0;
    size_t memo_entries = 0;
    size_t cell_prep_lookups = 0;
  };
  auto run = [&](runtime::TaskPool* pool, size_t morsel_docs,
                 bool with_cache) -> Result<Run> {
    IFLEX_ASSIGN_OR_RETURN(auto task, MakeTask("T9", 60));
    IFLEX_ASSIGN_OR_RETURN(Program prog,
                           ParseProgram(kRefinedT9, *task->catalog));
    prog.set_query("t9");
    VerifyMemo memo;
    ReuseCache cache;
    ExecOptions options;
    options.pool = pool;
    options.morsel_docs = morsel_docs;
    options.verify_memo = &memo;
    Executor exec(*task->catalog, options);
    IFLEX_ASSIGN_OR_RETURN(CompactTable result,
                           exec.Execute(prog, with_cache ? &cache : nullptr));
    std::string bytes = result.ToString(task->corpus.get());
    std::map<std::string, const CompactTable*> idb;  // sorted by predicate
    for (const auto& [pred, table] : exec.last_idb()) idb[pred] = table.get();
    for (const auto& [pred, table] : idb) {
      bytes += "\n" + pred + ": " + table->ToString(task->corpus.get());
    }
    if (pool == nullptr) {
      // The join must have blocked: fewer pairs scored than an x bn.
      const size_t cross = exec.last_idb().at("an")->size() *
                           exec.last_idb().at("bn")->size();
      if (exec.last_idb().at("bn")->size() <= 32 ||
          exec.stats().join_pairs >= cross) {
        return Status::Internal("similarity join did not use its index");
      }
    }
    return Run{std::move(bytes), exec.stats().join_pairs,
               memo.hits() + memo.misses(), memo.size(),
               exec.stats().cell_prep_hits + exec.stats().cell_prep_misses};
  };

  for (bool with_cache : {false, true}) {
    auto serial = run(nullptr, 128, with_cache);
    ASSERT_TRUE(serial.ok()) << serial.status();
    ASSERT_GT(serial->memo_lookups, 0u) << "no Verify call reached the memo";
    // Only a cache has a store to look cells up in.
    EXPECT_EQ(serial->cell_prep_lookups > 0, with_cache);
    for (size_t threads : {1, 2, 8}) {
      runtime::TaskPool pool(threads);
      for (size_t morsel_docs : {1, 64, 4096}) {
        auto r = run(&pool, morsel_docs, with_cache);
        ASSERT_TRUE(r.ok()) << r.status();
        const std::string at =
            std::to_string(threads) + " threads, morsel_docs " +
            std::to_string(morsel_docs) +
            (with_cache ? ", with a cache" : ", without a cache");
        EXPECT_EQ(r->bytes, serial->bytes) << at;
        EXPECT_EQ(r->join_pairs, serial->join_pairs) << "join_pairs at " << at;
        EXPECT_EQ(r->memo_lookups, serial->memo_lookups)
            << "memo lookups at " << at;
        EXPECT_EQ(r->memo_entries, serial->memo_entries)
            << "memo entries at " << at;
        EXPECT_EQ(r->cell_prep_lookups, serial->cell_prep_lookups)
            << "prepared-cell lookups at " << at;
      }
    }
  }
}

// The pool only schedules: every seed-joined body runs in morsels, a null
// pool running them inline, so a degraded answer and a budget verdict are
// the same with no pool, one thread and four. Four one-page documents.
class PoolIndependenceTest : public ::testing::Test {
 protected:
  struct Outcome {
    std::string table;
    size_t tuples = 0;
    std::vector<DocId> failed_docs;
    std::vector<std::string> skipped_rules;
  };

  void SetUp() override {
    for (int i = 0; i < 4; ++i) {
      auto page = ParseMarkup("page" + std::to_string(i),
                              "Price: <b>$" + std::to_string(100 + i) + "</b>");
      ASSERT_TRUE(page.ok());
      docs_.push_back(corpus_.Add(std::move(page).value()));
    }
    catalog_ = std::make_unique<Catalog>(&corpus_);
    catalog_->RegisterBuiltinFunctions();
  }

  // Adds pages(x) or, given one number per document, pages(x, n).
  void AddPages(const std::vector<double>& numbers = {}) {
    CompactTable pages(numbers.empty() ? std::vector<std::string>{"x"}
                                       : std::vector<std::string>{"x", "n"});
    for (size_t i = 0; i < docs_.size(); ++i) {
      CompactTuple t;
      t.cells.push_back(Cell::Exact(Value::Doc(docs_[i])));
      if (!numbers.empty()) {
        t.cells.push_back(Cell::Exact(Value::Number(numbers[i])));
      }
      pages.Add(std::move(t));
    }
    ASSERT_TRUE(catalog_->AddTable("pages", std::move(pages)).ok());
  }

  // Executes `text` (query q) under `options` with no pool, a 1-thread
  // and a 4-thread pool, in that order.
  std::vector<Result<Outcome>> RunAtEveryWidth(const std::string& text,
                                               ExecOptions options) {
    std::vector<Result<Outcome>> outcomes;
    auto prog = ParseProgram(text, *catalog_);
    EXPECT_TRUE(prog.ok()) << prog.status();
    if (!prog.ok()) return outcomes;
    prog->set_query("q");
    runtime::TaskPool one(1);
    runtime::TaskPool four(4);
    for (runtime::TaskPool* pool : {static_cast<runtime::TaskPool*>(nullptr),
                                    &one, &four}) {
      options.pool = pool;
      Executor exec(*catalog_, options);
      auto r = exec.Execute(*prog);
      if (!r.ok()) {
        outcomes.emplace_back(r.status());
        continue;
      }
      outcomes.emplace_back(Outcome{r->ToString(&corpus_), r->size(),
                                    exec.report().failed_docs,
                                    exec.report().skipped_rules});
    }
    return outcomes;
  }

  static constexpr const char* kWidths[] = {"no pool", "1 thread",
                                            "4 threads"};
  Corpus corpus_;
  std::vector<DocId> docs_;
  std::unique_ptr<Catalog> catalog_;
};

// A p-predicate failing on one of four documents drops that document
// alone: three tuples and one failed document at every width, never a
// skipped rule.
TEST_F(PoolIndependenceTest, DegradedAnswerDoesNotDependOnThePool) {
  AddPages();
  const DocId poisoned = docs_[2];
  ASSERT_TRUE(catalog_
                  ->DeclarePPredicate(
                      "tag", 1, 1,
                      [poisoned](const Corpus&, const std::vector<Value>& in)
                          -> Result<std::vector<std::vector<Value>>> {
                        if (in[0].doc() == poisoned) {
                          return Status::ExecutionError("tag: poisoned page");
                        }
                        return std::vector<std::vector<Value>>{
                            {Value::Number(in[0].doc())}};
                      })
                  .ok());
  ExecOptions options;
  options.best_effort = true;
  auto outcomes = RunAtEveryWidth("q(x, t) :- pages(x), tag(x, t).", options);
  ASSERT_EQ(outcomes.size(), 3u);
  for (size_t w = 0; w < outcomes.size(); ++w) {
    ASSERT_TRUE(outcomes[w].ok()) << kWidths[w] << ": " << outcomes[w].status();
    EXPECT_EQ(outcomes[w]->tuples, 3u) << kWidths[w];
    EXPECT_EQ(outcomes[w]->table, outcomes[0]->table) << kWidths[w];
    EXPECT_EQ(outcomes[w]->failed_docs, std::vector<DocId>{poisoned})
        << kWidths[w];
    EXPECT_TRUE(outcomes[w]->skipped_rules.empty()) << kWidths[w];
  }

  // Three rules for q, run in order at every width: the first drops the
  // poisoned page, the second keeps every page, and the third fails on
  // every page, so isolation drops all four and then skips the rule. The
  // report lists each dropped document once, in the order first dropped.
  constexpr char kThreeRules[] = R"(
    q(x, t) :- pages(x), tag(x, t).
    q(x, t) :- pages(x), from(x, t).
    q(x, t) :- pages(x), from(x, t), from(x, t).
  )";
  outcomes = RunAtEveryWidth(kThreeRules, options);
  ASSERT_EQ(outcomes.size(), 3u);
  const std::vector<DocId> failed = {poisoned, docs_[0], docs_[1], docs_[3]};
  for (size_t w = 0; w < outcomes.size(); ++w) {
    ASSERT_TRUE(outcomes[w].ok()) << kWidths[w] << ": " << outcomes[w].status();
    EXPECT_EQ(outcomes[w]->tuples, 3u + 4u) << kWidths[w];
    EXPECT_EQ(outcomes[w]->table, outcomes[0]->table) << kWidths[w];
    EXPECT_EQ(outcomes[w]->failed_docs, failed) << kWidths[w];
    ASSERT_EQ(outcomes[w]->skipped_rules.size(), 1u) << kWidths[w];
    EXPECT_NE(outcomes[w]->skipped_rules[0].find(
                  "from() output already bound: t"),
              std::string::npos)
        << kWidths[w] << ": " << outcomes[w]->skipped_rules[0];
  }
  // Without best effort the first failure in rule order is the answer.
  outcomes = RunAtEveryWidth(kThreeRules, ExecOptions());
  ASSERT_EQ(outcomes.size(), 3u);
  for (size_t w = 0; w < outcomes.size(); ++w) {
    ASSERT_FALSE(outcomes[w].ok()) << kWidths[w];
    EXPECT_EQ(outcomes[w].status().ToString(),
              outcomes[0].status().ToString())
        << kWidths[w];
    EXPECT_NE(outcomes[w].status().message().find("tag: poisoned page"),
              std::string::npos)
        << kWidths[w] << ": " << outcomes[w].status();
  }
}

// max_table_tuples = 3 with two-document morsels: each morsel's join
// stays under the cap and `n < 5` keeps two tuples, so the run succeeds
// at every width.
TEST_F(PoolIndependenceTest, BudgetVerdictDoesNotDependOnThePool) {
  AddPages({0, 1, 12, 13});
  ExecOptions options;
  options.max_table_tuples = 3;
  options.morsel_docs = 2;
  auto outcomes = RunAtEveryWidth("q(x) :- pages(x, n), n < 5.", options);
  ASSERT_EQ(outcomes.size(), 3u);
  for (size_t w = 0; w < outcomes.size(); ++w) {
    ASSERT_TRUE(outcomes[w].ok()) << kWidths[w] << ": " << outcomes[w].status();
    EXPECT_EQ(outcomes[w]->tuples, 2u) << kWidths[w];
    EXPECT_EQ(outcomes[w]->table, outcomes[0]->table) << kWidths[w];
    EXPECT_TRUE(outcomes[w]->failed_docs.empty()) << kWidths[w];
  }
}

// End-to-end: a whole refinement session — subset executions, concurrent
// candidate simulations, question selection, reuse-mode full evaluation —
// must ask the same questions, end in the same program and produce the
// same final table with a pool as without. T1@10 selects with yes/no
// features; T9@60 joins with similar() and also asks parameterized
// questions, whose candidates come from probing the subset.
TEST(SessionDeterminismTest, RefinementSessionIsIdenticalWithPool) {
  struct Outcome {
    std::string table;
    std::string program;
    std::vector<std::string> questions;  // Question::Key()s, in asked order
    size_t questions_asked = 0;
    size_t simulations_run = 0;
  };
  auto run_session = [](const char* task_id, size_t scale,
                        runtime::TaskPool* pool) -> Result<Outcome> {
    IFLEX_ASSIGN_OR_RETURN(auto task, MakeTask(task_id, scale));
    SessionOptions options;
    options.strategy = StrategyKind::kSimulation;
    options.pool = pool;
    RefinementSession session(*task->catalog, task->initial_program,
                              task->developer.get(), options);
    IFLEX_ASSIGN_OR_RETURN(SessionResult result, session.Run());
    Outcome out;
    out.table = result.final_result.ToString(task->corpus.get());
    out.program = result.final_program.ToString();
    for (const IterationRecord& rec : result.iterations) {
      for (const Question& q : rec.questions) out.questions.push_back(q.Key());
    }
    out.questions_asked = result.questions_asked;
    out.simulations_run = result.simulations_run;
    return out;
  };

  const std::vector<std::pair<const char*, size_t>> scenarios = {{"T1", 10},
                                                                 {"T9", 60}};
  for (const auto& [task_id, scale] : scenarios) {
    const std::string name = std::string(task_id) + "@" + std::to_string(scale);
    auto serial = run_session(task_id, scale, nullptr);
    ASSERT_TRUE(serial.ok()) << name << ": " << serial.status();
    ASSERT_FALSE(serial->questions.empty()) << name;
    for (size_t threads : {1, 2, 8}) {
      runtime::TaskPool pool(threads);
      auto parallel = run_session(task_id, scale, &pool);
      ASSERT_TRUE(parallel.ok()) << name << ": " << parallel.status();
      const std::string at = name + " at " + std::to_string(threads) +
                             " threads";
      EXPECT_EQ(parallel->questions, serial->questions) << at;
      EXPECT_EQ(parallel->program, serial->program) << at;
      EXPECT_EQ(parallel->table, serial->table) << at;
      EXPECT_EQ(parallel->questions_asked, serial->questions_asked)
          << "questions_asked, " << at;
      EXPECT_EQ(parallel->simulations_run, serial->simulations_run)
          << "simulations_run, " << at;
    }
  }
}

// One SimulationStrategy::Next over StrategyTest's subset of T1@30 (see
// assistant_test.cc), on fresh caches and pools.
class SimulationBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::Instance().Clear();
    auto task = MakeTask("T1", 30);
    ASSERT_TRUE(task.ok()) << task.status();
    task_ = std::move(task).value();
    subset_ = std::make_unique<Catalog>(
        task_->catalog->CloneWithSampledTables(0.3, 42));
  }

  // Every fail point is disarmed however a test exits.
  void TearDown() override { FailPoints::Instance().Clear(); }

  struct Pick {
    std::string question;
    size_t simulations = 0;
    double wall_s = 0;
  };

  Result<Pick> Next(size_t threads) {
    runtime::TaskPool pool(threads);
    ReuseCache cache;
    std::set<std::string> asked;
    StrategyContext ctx;
    ctx.program = &task_->initial_program;
    ctx.full_catalog = task_->catalog.get();
    ctx.subset_catalog = subset_.get();
    ctx.subset_cache = &cache;
    ctx.asked = &asked;
    ctx.exec_options.pool = &pool;
    SimulationStrategy strategy;
    const auto start = std::chrono::steady_clock::now();
    IFLEX_ASSIGN_OR_RETURN(std::optional<Question> q, strategy.Next(ctx));
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    if (!q.has_value()) return Status::Internal("no question selected");
    return Pick{q->Key(), strategy.simulations_run(), wall.count()};
  }

  std::unique_ptr<TaskInstance> task_;
  std::unique_ptr<Catalog> subset_;
};

// Question selection simulates every candidate answer of one Next() in a
// single pool batch. Each reuse-cache lookup sleeps 10 ms, so the call is
// mostly sleeping simulations, and a sleeping thread needs no core: four
// times the threads must more than halve the wall time, on a loaded host
// too. Batches of one question's 2-3 answers stay near 0.65.
TEST_F(SimulationBatchTest, OneNextFillsThePool) {
  ASSERT_TRUE(FailPoints::Instance().Configure("exec.cache=delay:10").ok());
  auto two = Next(2);
  ASSERT_TRUE(two.ok()) << two.status();
  auto eight = Next(8);
  ASSERT_TRUE(eight.ok()) << eight.status();
  EXPECT_EQ(eight->question, two->question);
  EXPECT_EQ(two->simulations, 72u);
  EXPECT_EQ(eight->simulations, two->simulations);
  EXPECT_LT(eight->wall_s / two->wall_s, 0.5)
      << "2 threads: " << two->wall_s << " s, 8 threads: " << eight->wall_s
      << " s";
}

// A task fault inside the simulation batch ends question selection with a
// clean kInternal that names the batch and the fault.
TEST_F(SimulationBatchTest, TaskFaultAbortsSelectionCleanly) {
  ASSERT_TRUE(FailPoints::Instance().Configure("runtime.task=error").ok());
  auto pick = Next(4);
  ASSERT_FALSE(pick.ok());
  EXPECT_EQ(pick.status().code(), StatusCode::kInternal);
  const std::string& message = pick.status().message();
  EXPECT_NE(message.find("worker exception in simulation"), std::string::npos)
      << message;
  EXPECT_NE(message.find("runtime.task"), std::string::npos) << message;
}

}  // namespace
}  // namespace iflex
