// Rule compilation (docs/PERFORMANCE.md, "Rule compilation") is the
// executor's only rule-evaluation path. This suite pins its output: for
// every Table-3 scenario, at any morsel size and thread count, the result
// and intermediate tables must match reference fingerprints recorded with
// the literal-at-a-time interpreter the compiler replaced, together with
// its work accounting and the paper example's stable explain attribution.
// It also pins what the compiler lowers a rule into and the errors a body
// it cannot evaluate reports. Runs under the `compile` ctest label.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/strutil.h"
#include "exec/compile.h"
#include "exec/executor.h"
#include "obs/cost_model.h"
#include "runtime/task_pool.h"
#include "tasks/task.h"
#include "text/markup_parser.h"

namespace iflex {
namespace {

// Options every scenario run shares. The table budget is tight and
// best-effort so the dense full-size scenarios (T3, T6, T9) truncate
// deterministically in seconds instead of materializing multi-million
// row joins.
ExecOptions ScenarioOptions() {
  ExecOptions options;
  options.best_effort = true;
  options.max_table_tuples = 20000;
  return options;
}

struct RunOutput {
  // Fingerprint64 of the result bytes followed by every intermediate
  // table's bytes in predicate order.
  uint64_t fingerprint = 0;
  ExecStats stats;
  bool degraded = false;
};

Result<RunOutput> RunScenario(const TaskInstance& task, ExecOptions options) {
  Executor exec(*task.catalog, options);
  IFLEX_ASSIGN_OR_RETURN(CompactTable table,
                         exec.Execute(task.initial_program));
  std::string bytes = table.ToString(task.corpus.get());
  std::map<std::string, const CompactTable*> idb;  // sorted by predicate
  for (const auto& [pred, t] : exec.last_idb()) idb[pred] = t.get();
  for (const auto& [pred, t] : idb) {
    bytes += "\n" + pred + ": " + t->ToString(task.corpus.get());
  }
  RunOutput out;
  out.fingerprint = Fingerprint64(bytes);
  out.stats = exec.stats();
  out.degraded = exec.report().degraded;
  return out;
}

// One reference row per Table-3 scenario (9 tasks x 3 corpus sizes), run
// serially under ScenarioOptions() on the task's initial program.
struct Reference {
  const char* task;
  size_t scale;
  uint64_t fingerprint;
  bool degraded;
  size_t constraint_cells;
  size_t ppred_invocations;
  size_t tuples_emitted;
  size_t process_assignments;
};

constexpr Reference kReference[] = {
    {"T1", 10, 0x86d186b76ad4f3a5ull, false, 0, 0, 20, 40},
    {"T1", 100, 0xb7c34ca94024806cull, false, 0, 0, 200, 400},
    {"T1", 250, 0xc3928365513fb963ull, false, 0, 0, 500, 1000},
    {"T2", 10, 0x13cb49c84bb26d37ull, false, 0, 0, 12, 32},
    {"T2", 100, 0x209bea4f3ea6355eull, false, 0, 0, 124, 324},
    {"T2", 242, 0x3765b6e7e5572167ull, false, 0, 0, 306, 790},
    {"T3", 10, 0x510dc4d3ebbb27edull, false, 0, 0, 1030, 1060},
    {"T3", 100, 0xa1c86d8691a810bfull, true, 0, 0, 20300, 20600},
    {"T3", 517, 0x7be1f13cb2dc4c05ull, true, 0, 0, 1009, 2018},
    {"T4", 10, 0x3f38d8c8fe43567bull, false, 0, 0, 20, 40},
    {"T4", 100, 0x71ec9688515427ecull, false, 0, 0, 200, 400},
    {"T4", 312, 0x68179551c7484852ull, false, 0, 0, 624, 1248},
    {"T5", 100, 0xbedae63716135018ull, false, 0, 0, 200, 500},
    {"T5", 500, 0x1bc23f00303f08f2ull, false, 0, 0, 1000, 2500},
    {"T5", 2136, 0x54ea71548be033ffull, false, 0, 0, 4272, 10680},
    {"T6", 100, 0x7110a7bde4e5ebd2ull, false, 0, 0, 10200, 10500},
    {"T6", 500, 0x70e74ae1806d1f5cull, true, 0, 0, 21000, 22500},
    {"T6", 1798, 0x27e01c94644baac7ull, true, 0, 0, 23596, 28990},
    {"T7", 100, 0xcedfbff82db88327ull, false, 0, 0, 200, 400},
    {"T7", 500, 0x66ef077facc127a1ull, false, 0, 0, 1000, 2000},
    {"T7", 5000, 0xa12ef62e0fab5273ull, false, 0, 0, 10000, 20000},
    {"T8", 100, 0x163d04de9dfa2e67ull, false, 0, 0, 200, 600},
    {"T8", 500, 0x27e4d5f49f0362bbull, false, 0, 0, 1000, 3000},
    {"T8", 2490, 0xb6846e509ae87e70ull, false, 0, 0, 4980, 14940},
    {"T9", 100, 0xa137b6d52450f71dull, false, 0, 0, 10200, 10600},
    {"T9", 500, 0xd11f60b05bcbe331ull, true, 0, 0, 21000, 23000},
    {"T9", 5000, 0xaa569fb79deb7640ull, true, 0, 0, 27490, 42470},
};

TEST(CompileDeterminismTest, ReferenceCoversEveryScenario) {
  std::vector<std::string> scenarios;
  for (const std::string& id : AllTaskIds()) {
    for (size_t scale : ScenarioSizes(id)) {
      scenarios.push_back(id + "@" + std::to_string(scale));
    }
  }
  std::vector<std::string> rows;
  for (const Reference& ref : kReference) {
    rows.push_back(std::string(ref.task) + "@" + std::to_string(ref.scale));
  }
  EXPECT_EQ(rows, scenarios);
}

// Every scenario reproduces its reference row serially, and the
// morsel/thread grid reproduces the serial run. Scenarios that truncate
// serially are compared serial-only: the table budget applies per morsel,
// so a one-document-morsel run there does morsels x cap work — minutes
// spent measuring the cap, not the operator core under test.
TEST(CompileDeterminismTest, AllScenariosMatchTheReference) {
  for (const Reference& ref : kReference) {
    const std::string label =
        std::string(ref.task) + "@" + std::to_string(ref.scale);
    auto task = MakeTask(ref.task, ref.scale);
    ASSERT_TRUE(task.ok()) << label << ": " << task.status();

    auto serial = RunScenario(**task, ScenarioOptions());
    ASSERT_TRUE(serial.ok()) << label << ": " << serial.status();
    EXPECT_EQ(serial->fingerprint, ref.fingerprint) << label;
    EXPECT_EQ(serial->degraded, ref.degraded) << label;
    // Work accounting, not just answers.
    EXPECT_EQ(serial->stats.constraint_cells, ref.constraint_cells) << label;
    EXPECT_EQ(serial->stats.ppred_invocations, ref.ppred_invocations)
        << label;
    EXPECT_EQ(serial->stats.tuples_emitted, ref.tuples_emitted) << label;
    EXPECT_EQ(serial->stats.process_assignments, ref.process_assignments)
        << label;

    if (serial->degraded) continue;
    for (size_t threads : {1, 8}) {
      runtime::TaskPool pool(threads);
      for (size_t morsel_docs : {1, 64}) {
        ExecOptions grid = ScenarioOptions();
        grid.pool = &pool;
        grid.morsel_docs = morsel_docs;
        auto r = RunScenario(**task, grid);
        ASSERT_TRUE(r.ok()) << label << ": " << r.status();
        EXPECT_EQ(r->fingerprint, serial->fingerprint)
            << label << " at " << threads << " threads, morsel_docs "
            << morsel_docs;
        EXPECT_EQ(r->stats.process_assignments,
                  serial->stats.process_assignments)
            << label << " at " << threads << " threads, morsel_docs "
            << morsel_docs;
      }
    }
  }
}

// The paper's running example (Figures 1-3), as in paper_example_test:
// constraints, comparisons, from() and an approx_match p-function pushed
// into the unconnected schools join, so a plan exercises fused chains,
// columnar filter blocks and join pushdown.
constexpr char kPaperProgram[] = R"(
  houses(x, <p>, <a>, <h>) :- housePages(x), extractHouses(x, p, a, h).
  schools(s)? :- schoolPages(y), extractSchools(y, s).
  q(x, p, a, h) :- houses(x, p, a, h), schools(s), p > 500000, a > 4500,
                   approx_match(h, s).
  extractHouses(x, p, a, h) :- from(x, p), from(x, a), from(x, h),
                               numeric(p) = yes, numeric(a) = yes.
  extractSchools(y, s) :- from(y, s), bold_font(s) = yes.
)";

// Stable explain view of the paper example, recorded with the
// literal-at-a-time interpreter: one row per (rule, operator) it charged,
// plus the rows of the work outside any operator (docs/OBSERVABILITY.md):
// unfold per Execute, digest (here only the process sizes, as the Execute
// has no cache) per predicate, compile and sides per rule.
constexpr char kPaperStableExplain[] =
    "iter scope                    op                     rows     verify\n"
    "  -1 houses                   annotate                  2          0\n"
    "  -1 houses                   compile                   0          0\n"
    "  -1 houses                   constraint                4          4\n"
    "  -1 houses                   digest                    0          0\n"
    "  -1 houses                   from                      6          0\n"
    "  -1 houses                   join                      2          0\n"
    "  -1 houses                   project                   2          0\n"
    "  -1 houses                   sides                     0          0\n"
    "  -1 q                        caches                    0          0\n"
    "  -1 q                        comparison                2          0\n"
    "  -1 q                        compile                   0          0\n"
    "  -1 q                        digest                    0          0\n"
    "  -1 q                        join                      3          0\n"
    "  -1 q                        project                   1          0\n"
    "  -1 q                        sides                     0          0\n"
    "  -1 q                        unfold                    0          0\n"
    "  -1 schools                  annotate                  2          0\n"
    "  -1 schools                  compile                   0          0\n"
    "  -1 schools                  constraint                2          2\n"
    "  -1 schools                  digest                    0          0\n"
    "  -1 schools                  from                      2          0\n"
    "  -1 schools                  join                      2          0\n"
    "  -1 schools                  project                   2          0\n"
    "  -1 schools                  sides                     0          0\n"
    "     total                                             32          6\n";

class PaperExampleCompileTest : public ::testing::Test {
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

  // Runs the paper query with a fresh profiler and returns the stable
  // explain view (iter/scope/op/rows/verify).
  std::string StableExplain(runtime::TaskPool* pool) {
    auto prog = ParseProgram(kPaperProgram, *catalog_);
    EXPECT_TRUE(prog.ok()) << prog.status();
    prog->set_query("q");
    obs::CostModel model;
    model.set_enabled(true);
    ExecOptions options;
    options.pool = pool;
    options.cost_model = &model;
    Executor exec(*catalog_, options);
    auto r = exec.Execute(*prog);
    EXPECT_TRUE(r.ok()) << r.status();
    return model.Report().ToText(/*stable_only=*/true);
  }

  Corpus corpus_;
  std::unique_ptr<Catalog> catalog_;
};

// Explain cost attribution: fused chains and filter blocks charge one
// (rule, operator) row per literal, so the stable explain view matches
// the reference — serially and across the pool.
TEST_F(PaperExampleCompileTest, StableExplainMatchesReference) {
  EXPECT_EQ(StableExplain(nullptr), kPaperStableExplain);
  for (size_t threads : {1, 8}) {
    runtime::TaskPool pool(threads);
    EXPECT_EQ(StableExplain(&pool), kPaperStableExplain)
        << threads << " threads";
  }
}

// ------------------------------------------------------------ CompileRule

TEST(CompileRuleTest, EveryScenarioRuleCompiles) {
  for (const std::string& id : AllTaskIds()) {
    for (size_t scale : ScenarioSizes(id)) {
      const std::string label = id + "@" + std::to_string(scale);
      auto task = MakeTask(id, scale);
      ASSERT_TRUE(task.ok()) << label << ": " << task.status();
      auto unfolded = (*task)->initial_program.Unfold(*(*task)->catalog);
      ASSERT_TRUE(unfolded.ok()) << label << ": " << unfolded.status();
      for (const Rule& rule : unfolded->rules()) {
        auto plan = CompileRule(*(*task)->catalog, rule);
        EXPECT_TRUE(plan.ok())
            << label << ": " << rule.ToString() << ": " << plan.status();
      }
    }
  }
}

// T9's similarity join is unconnected: bn shares no variable with the
// binding an leaves, so both filters that need bn's columns ride on the
// bn join, in body order.
TEST(CompileRuleTest, UnconnectedJoinCarriesItsPushedFilters) {
  auto task = MakeTask("T9", 100);
  ASSERT_TRUE(task.ok()) << task.status();
  auto unfolded = (*task)->initial_program.Unfold(*(*task)->catalog);
  ASSERT_TRUE(unfolded.ok()) << unfolded.status();
  const Rule* t9 = nullptr;
  for (const Rule& rule : unfolded->rules()) {
    if (rule.head.predicate == "t9") t9 = &rule;
  }
  ASSERT_NE(t9, nullptr);
  ASSERT_EQ(t9->ToString(),
            "t9(t1) :- an(x, t1, np), bn(y, t2, bp), similar(t1, t2), "
            "np < bp.");
  auto plan = CompileRule(*(*task)->catalog, *t9);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->ops.size(), 2u);
  EXPECT_TRUE(plan->seed_join);
  EXPECT_EQ(plan->ops[0].kind, CompiledOp::Kind::kJoin);
  EXPECT_EQ(plan->ops[0].atom.predicate, "an");
  EXPECT_TRUE(plan->ops[0].filters.empty());
  EXPECT_EQ(plan->ops[1].kind, CompiledOp::Kind::kJoin);
  EXPECT_EQ(plan->ops[1].atom.predicate, "bn");
  ASSERT_EQ(plan->ops[1].filters.size(), 2u);
  EXPECT_EQ(plan->ops[1].filters[0].kind, CompiledFilter::Kind::kPFunction);
  EXPECT_EQ(plan->ops[1].filters[0].lit.ToString(), "similar(t1, t2)");
  EXPECT_EQ(plan->ops[1].filters[1].kind, CompiledFilter::Kind::kComparison);
  EXPECT_EQ(plan->ops[1].filters[1].lit.ToString(), "np < bp");
  // Both filters compare a probe bound by the an join with a bn column, so
  // their table sides are prepared before the morsels start. bn's atom has
  // only new, distinct variables: the similarity join may block.
  EXPECT_FALSE(plan->ops[1].keyed);
  ASSERT_TRUE(plan->ops[1].sim.has_value());
  EXPECT_EQ(plan->ops[1].sim->filter, 0u);
  EXPECT_EQ(plan->ops[1].sim->probe, "t1");
  EXPECT_EQ(plan->ops[1].sim->table_col, 1u);
  EXPECT_EQ(plan->ops[1].sim->threshold, 0.75);
  ASSERT_EQ(plan->ops[1].cmps.size(), 1u);
  EXPECT_EQ(plan->ops[1].cmps[0].filter, 1u);
  EXPECT_EQ(plan->ops[1].cmps[0].probe, "np");
  EXPECT_EQ(plan->ops[1].cmps[0].table_col, 2u);
  EXPECT_TRUE(plan->ops[1].cmps[0].probe_is_lhs);
}

// The live columns of each join of `plan`, in op order.
std::vector<std::vector<std::string>> JoinLiveSets(const CompiledRule& plan) {
  std::vector<std::vector<std::string>> out;
  for (const CompiledOp& op : plan.ops) {
    if (op.kind == CompiledOp::Kind::kJoin) out.push_back(op.live);
  }
  return out;
}

// The compiled plan of the rule for `head` in the scenario's unfolded
// initial program, after checking the rule's text.
Result<CompiledRule> ScenarioPlan(const std::string& id, size_t scale,
                                  const std::string& head,
                                  const std::string& rule_text) {
  IFLEX_ASSIGN_OR_RETURN(std::unique_ptr<TaskInstance> task,
                         MakeTask(id, scale));
  IFLEX_ASSIGN_OR_RETURN(Program unfolded,
                         task->initial_program.Unfold(*task->catalog));
  for (const Rule& rule : unfolded.rules()) {
    if (rule.head.predicate != head) continue;
    if (rule.ToString() != rule_text) {
      return Status::Internal("unexpected rule " + rule.ToString());
    }
    return CompileRule(*task->catalog, rule);
  }
  return Status::NotFound("no rule for " + head);
}

// A join keeps only the columns a later op or the head reads
// (docs/PERFORMANCE.md, "Copy-free table flow"): in T3 the `et` join
// drops x and y, and the `pt` join keeps only the head's t1.
TEST(CompileRuleTest, ScenarioJoinsKeepOnlyLiveColumns) {
  using Live = std::vector<std::vector<std::string>>;
  auto t3 = ScenarioPlan("T3", 10, "t3",
                         "t3(t1) :- it(x, t1), et(y, t2), similar(t1, t2), "
                         "pt(z, t3), similar(t2, t3).");
  ASSERT_TRUE(t3.ok()) << t3.status();
  ASSERT_EQ(t3->ops.size(), 3u);
  EXPECT_EQ(t3->ops[1].atom.predicate, "et");
  EXPECT_EQ(t3->ops[2].atom.predicate, "pt");
  EXPECT_EQ(JoinLiveSets(*t3), (Live{{"t1"}, {"t1", "t2"}, {"t1"}}));
  // Each unconnected join carries its similarity filter, probed by the
  // title the join before it bound.
  ASSERT_TRUE(t3->ops[1].sim.has_value());
  EXPECT_EQ(t3->ops[1].sim->probe, "t1");
  ASSERT_TRUE(t3->ops[2].sim.has_value());
  EXPECT_EQ(t3->ops[2].sim->probe, "t2");

  auto t9 = ScenarioPlan("T9", 100, "t9",
                         "t9(t1) :- an(x, t1, np), bn(y, t2, bp), "
                         "similar(t1, t2), np < bp.");
  ASSERT_TRUE(t9.ok()) << t9.status();
  ASSERT_EQ(t9->ops.size(), 2u);
  EXPECT_EQ(t9->ops[1].atom.predicate, "bn");
  EXPECT_EQ(JoinLiveSets(*t9), (Live{{"np", "t1"}, {"t1"}}));
}

// Every kind of later op keeps the join variables it reads: a
// constraint, a comparison, a p-predicate, from(), a later join's
// pushed-down filter, and the head.
class LivenessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto doc = ParseMarkup("e1", "Title: <b>Vertigo</b> 1958");
    ASSERT_TRUE(doc.ok());
    DocId id = corpus_.Add(std::move(doc).value());
    catalog_ = std::make_unique<Catalog>(&corpus_);
    for (const char* name : {"a", "b"}) {
      CompactTable table({"c1", "c2"});
      CompactTuple t;
      t.cells.push_back(Cell::Exact(Value::Doc(id)));
      t.cells.push_back(Cell::Exact(Value::Number(1)));
      table.Add(std::move(t));
      ASSERT_TRUE(catalog_->AddTable(name, std::move(table)).ok());
    }
    ASSERT_TRUE(catalog_
                    ->DeclarePPredicate(
                        "same", 1, 1,
                        [](const Corpus&, const std::vector<Value>& in)
                            -> Result<std::vector<std::vector<Value>>> {
                          return std::vector<std::vector<Value>>{{in[0]}};
                        })
                    .ok());
    catalog_->RegisterBuiltinFunctions();
  }

  // The compiled plan of the rule `text` (query q); empty on failure.
  CompiledRule Plan(const std::string& text) {
    auto prog = ParseProgram(text, *catalog_);
    EXPECT_TRUE(prog.ok()) << text << ": " << prog.status();
    if (!prog.ok()) return {};
    auto plan = CompileRule(*catalog_, prog->rules()[0]);
    EXPECT_TRUE(plan.ok()) << text << ": " << plan.status();
    if (!plan.ok()) return {};
    return std::move(plan).value();
  }

  // The live sets of the joins of the rule `text` (query q).
  std::vector<std::vector<std::string>> Live(const std::string& text) {
    return JoinLiveSets(Plan(text));
  }

  Corpus corpus_;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(LivenessTest, LaterOpsKeepTheVariablesTheyRead) {
  using L = std::vector<std::vector<std::string>>;
  // A constraint runs right after the join that binds its variable.
  EXPECT_EQ(Live("q(x) :- a(x, y), numeric(y) = yes."), (L{{"x", "y"}}));
  EXPECT_EQ(Live("q(x) :- a(x, y), y > 0."), (L{{"x", "y"}}));
  EXPECT_EQ(Live("q(d) :- a(x, y), same(y, d)."), (L{{"y"}}));
  EXPECT_EQ(Live("q(s) :- a(x, y), from(x, s)."), (L{{"x"}}));
  // A connected join reads its shared variable; the comparison after it
  // keeps y alive through it.
  EXPECT_EQ(Live("q(w) :- a(x, y), b(x, w), y < w."),
            (L{{"x", "y"}, {"w", "y"}}));
  // b is unconnected: similar(y, w) rides on the b join, so a's join
  // keeps y for it, and b's join keeps only the head's x.
  EXPECT_EQ(Live("q(x) :- a(x, y), b(z, w), similar(y, w)."),
            (L{{"x", "y"}, {"x"}}));
  // Nothing after the only join: it keeps the head's columns.
  EXPECT_EQ(Live("q(y, y) :- a(x, y)."), (L{{"y"}}));

  // The b join's pushed-down filters with a probe (y, bound by a) on
  // either side name a prepared table side, w's column 1.
  CompiledRule plan = Plan("q(x) :- a(x, y), b(z, w), similar(w, y).");
  ASSERT_EQ(plan.ops.size(), 2u);
  EXPECT_EQ(JoinLiveSets(plan), (L{{"x", "y"}, {"x"}}));
  ASSERT_TRUE(plan.ops[1].sim.has_value());
  EXPECT_EQ(plan.ops[1].sim->probe, "y");
  EXPECT_EQ(plan.ops[1].sim->table_col, 1u);
  EXPECT_FALSE(plan.ops[1].sim->probe_is_lhs);
  plan = Plan("q(x) :- a(x, y), b(z, w), w < y.");
  ASSERT_EQ(plan.ops.size(), 2u);
  EXPECT_EQ(JoinLiveSets(plan), (L{{"x", "y"}, {"x"}}));
  EXPECT_FALSE(plan.ops[1].sim.has_value());
  ASSERT_EQ(plan.ops[1].cmps.size(), 1u);
  EXPECT_EQ(plan.ops[1].cmps[0].probe, "y");
  EXPECT_EQ(plan.ops[1].cmps[0].table_col, 1u);
  EXPECT_FALSE(plan.ops[1].cmps[0].probe_is_lhs);
  // A comparison between two variables the join binds has no probe: it
  // rides on the join but is decided per merged pair (EvalFilter).
  plan = Plan("q(x) :- a(x, y), b(z, w), similar(y, w), z < w.");
  ASSERT_EQ(plan.ops.size(), 2u);
  EXPECT_EQ(JoinLiveSets(plan), (L{{"x", "y"}, {"x"}}));
  ASSERT_EQ(plan.ops[1].filters.size(), 2u);
  ASSERT_TRUE(plan.ops[1].sim.has_value());
  EXPECT_EQ(plan.ops[1].sim->filter, 0u);
  EXPECT_TRUE(plan.ops[1].cmps.empty());
  // Only the first similarity filter with a probe is the join's; the
  // second is decided per pair.
  plan = Plan("q(x) :- a(x, y), b(z, w), similar(y, w), similar(x, w).");
  ASSERT_EQ(plan.ops.size(), 2u);
  ASSERT_EQ(plan.ops[1].filters.size(), 2u);
  ASSERT_TRUE(plan.ops[1].sim.has_value());
  EXPECT_EQ(plan.ops[1].sim->filter, 0u);
  EXPECT_EQ(plan.ops[1].sim->probe, "y");
  // A repeated variable is tested for equality per pair: the join is
  // keyed, so its similarity side is never indexed. Its first position
  // is its table column.
  plan = Plan("q(x) :- a(x, y), b(w, w), similar(y, w).");
  ASSERT_EQ(plan.ops.size(), 2u);
  EXPECT_FALSE(plan.ops[0].keyed);
  EXPECT_TRUE(plan.ops[1].keyed);
  ASSERT_TRUE(plan.ops[1].sim.has_value());
  EXPECT_EQ(plan.ops[1].sim->table_col, 0u);
}

// Bodies the executor cannot evaluate fail with the same statuses the
// interpreter raised: a stuck body at compile time, a from() whose output
// is already bound when the op runs. Under best_effort each lands in the
// report's skipped rules instead.
class CompileErrorTest : public ::testing::Test {
 protected:
  // Two pages, so a body seeded by ebertPages has two seed tuples for
  // best-effort isolation to retry one by one.
  void SetUp() override {
    catalog_ = std::make_unique<Catalog>(&corpus_);
    CompactTable pages({"x"});
    for (const char* text :
         {"Title: <b>Vertigo</b> 1958", "Title: <b>Psycho</b> 1960"}) {
      auto doc = ParseMarkup("e" + std::to_string(pages.size() + 1), text);
      ASSERT_TRUE(doc.ok());
      CompactTuple t;
      t.cells.push_back(
          Cell::Exact(Value::Doc(corpus_.Add(std::move(doc).value()))));
      pages.Add(std::move(t));
    }
    ASSERT_TRUE(catalog_->AddTable("ebertPages", std::move(pages)).ok());
    catalog_->RegisterBuiltinFunctions();
  }

  Result<Program> Parse(const std::string& text) {
    IFLEX_ASSIGN_OR_RETURN(Program prog, ParseProgram(text, *catalog_));
    prog.set_query("q");
    return prog;
  }

  // Executes `prog` strictly (returning its status) and under best_effort
  // (returning the skipped-rule entries), on `pool` when one is given.
  Status RunStrict(const Program& prog) {
    Executor exec(*catalog_);
    return exec.Execute(prog).status();
  }
  std::vector<std::string> SkippedBestEffort(
      const Program& prog, runtime::TaskPool* pool = nullptr) {
    ExecOptions options;
    options.best_effort = true;
    options.pool = pool;
    Executor exec(*catalog_, options);
    auto r = exec.Execute(prog);
    EXPECT_TRUE(r.ok()) << r.status();
    return exec.report().skipped_rules;
  }

  Corpus corpus_;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(CompileErrorTest, StuckBodyFailsToCompile) {
  auto prog = Parse("q(x) :- from(y, x), from(x, y).");
  ASSERT_TRUE(prog.ok()) << prog.status();
  const std::string expected =
      "Internal: no evaluable literal left in rule "
      "q(x) :- from(y, x), from(x, y).";
  auto plan = CompileRule(*catalog_, prog->rules()[0]);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().ToString(), expected);
  EXPECT_EQ(RunStrict(*prog).ToString(), expected);
  EXPECT_EQ(SkippedBestEffort(*prog),
            std::vector<std::string>{"q: " + expected});
}

TEST_F(CompileErrorTest, FromOutputAlreadyBoundFailsWhenItRuns) {
  auto prog =
      Parse("q(x, y) :- ebertPages(x), from(x, t), from(t, y), from(x, y).");
  ASSERT_TRUE(prog.ok()) << prog.status();
  const std::string expected =
      "InvalidArgument: from() output already bound: y";
  EXPECT_TRUE(CompileRule(*catalog_, prog->rules()[0]).ok());
  EXPECT_EQ(RunStrict(*prog).ToString(), expected);
  EXPECT_EQ(SkippedBestEffort(*prog),
            std::vector<std::string>{"q: " + expected});
  // Isolation drops both seed tuples; the skip names the first one's own
  // error, on a pool as without one.
  runtime::TaskPool pool(2);
  EXPECT_EQ(SkippedBestEffort(*prog, &pool),
            std::vector<std::string>{"q: " + expected});
}

}  // namespace
}  // namespace iflex
