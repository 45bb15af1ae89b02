// End-to-end refinement sessions over small task instances: the
// develop/execute/refine loop of the paper, driven by the simulated
// developer, must converge to (a superset of) the gold result.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "assistant/session.h"
#include "assistant/strategy.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "oracle/evaluate.h"
#include "tasks/task.h"
#include "xlog/precise.h"

namespace iflex {
namespace {

struct SessionOutcome {
  SessionResult session;
  EvalReport report;
};

Result<SessionOutcome> RunTask(const std::string& id, size_t scale,
                               StrategyKind strategy) {
  IFLEX_ASSIGN_OR_RETURN(std::unique_ptr<TaskInstance> task,
                         MakeTask(id, scale));
  SessionOptions options;
  options.strategy = strategy;
  RefinementSession session(*task->catalog, task->initial_program,
                            task->developer.get(), options);
  IFLEX_ASSIGN_OR_RETURN(SessionResult result, session.Run());
  EvalReport report = EvaluateResult(*task->corpus, result.final_result,
                                     task->gold.query_result);
  return SessionOutcome{std::move(result), report};
}

class SessionTaskTest
    : public ::testing::TestWithParam<std::tuple<std::string, size_t>> {};

TEST_P(SessionTaskTest, SimulationConvergesToGoldSuperset) {
  const auto& [id, scale] = GetParam();
  auto outcome = RunTask(id, scale, StrategyKind::kSimulation);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  const EvalReport& report = outcome->report;
  // Superset semantics: every gold tuple must be covered.
  EXPECT_TRUE(report.covers_all_gold) << id << ": " << report.ToString();
  // The session must converge to the exact result on these clean tasks.
  EXPECT_TRUE(report.exact) << id << ": " << report.ToString();
  EXPECT_GT(outcome->session.questions_asked, 0u);
  EXPECT_GE(outcome->session.iterations.size(), 2u);
  // Last iteration runs on the full data (reuse mode).
  EXPECT_TRUE(outcome->session.iterations.back().full_data);
}

INSTANTIATE_TEST_SUITE_P(
    CoreTasks, SessionTaskTest,
    ::testing::Values(std::make_tuple("T1", 30), std::make_tuple("T2", 30),
                      std::make_tuple("T4", 30), std::make_tuple("T5", 30),
                      std::make_tuple("T7", 30), std::make_tuple("T8", 30)),
    [](const auto& info) { return std::get<0>(info.param); });

class JoinSessionTest
    : public ::testing::TestWithParam<std::tuple<std::string, size_t>> {};

TEST_P(JoinSessionTest, SimulationCoversGold) {
  const auto& [id, scale] = GetParam();
  auto outcome = RunTask(id, scale, StrategyKind::kSimulation);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->report.covers_all_gold)
      << id << ": " << outcome->report.ToString();
  // Join tasks may converge slightly above 100% (the paper reports 161% /
  // 170% outliers). At these small test scales the gold sets are tiny, so
  // bound the overshoot both relatively and absolutely: a handful of
  // residual maybe-tuples is fine, an unrefined blow-up is not.
  double overshoot = outcome->report.result_tuples -
                     static_cast<double>(outcome->report.gold_tuples);
  EXPECT_TRUE(outcome->report.superset_pct <= 250.0 || overshoot <= 6.0)
      << id << ": " << outcome->report.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    JoinTasks, JoinSessionTest,
    ::testing::Values(std::make_tuple("T3", 40), std::make_tuple("T6", 40),
                      std::make_tuple("T9", 40)),
    [](const auto& info) { return std::get<0>(info.param); });

TEST(PreciseBaselineTest, MatchesGoldExactly) {
  for (const std::string& id : AllTaskIds()) {
    auto task = MakeTask(id, 40);
    ASSERT_TRUE(task.ok()) << id << ": " << task.status();
    ASSERT_TRUE(AddPreciseBaseline(task->get()).ok()) << id;
    Executor exec(*(*task)->catalog);
    auto result = exec.Execute((*task)->precise_program);
    ASSERT_TRUE(result.ok()) << id << ": " << result.status();
    EvalReport report = EvaluateResult(*(*task)->corpus, *result,
                                       (*task)->gold.query_result);
    EXPECT_TRUE(report.exact) << id << ": " << report.ToString();
  }
}

class DblifeSessionTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DblifeSessionTest, ConvergesExactlyWithCleanup) {
  const std::string& id = GetParam();
  auto task = MakeTask(id, 60);
  ASSERT_TRUE(task.ok()) << task.status();
  SessionOptions options;
  options.strategy = StrategyKind::kSimulation;
  RefinementSession session(*(*task)->catalog, (*task)->initial_program,
                            (*task)->developer.get(), options);
  auto result = session.Run();
  ASSERT_TRUE(result.ok()) << result.status();

  // Declarative phase converges to the pre-cleanup gold.
  EvalReport rep = EvaluateResult(*(*task)->corpus, result->final_result,
                                  (*task)->gold.query_result);
  EXPECT_TRUE(rep.exact) << id << ": " << rep.ToString();

  // Cleanup phase (paper §2.2.4), where the task has one.
  if ((*task)->apply_cleanup) {
    auto cleaned = (*task)->apply_cleanup(result->final_program);
    ASSERT_TRUE(cleaned.ok()) << cleaned.status();
    Executor exec(*(*task)->catalog);
    auto final = exec.Execute(*cleaned);
    ASSERT_TRUE(final.ok()) << final.status();
    EvalReport crep = EvaluateResult(*(*task)->corpus, *final,
                                     (*task)->cleanup_gold);
    EXPECT_TRUE(crep.exact) << id << " cleanup: " << crep.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Dblife, DblifeSessionTest,
                         ::testing::Values("Panel", "Project", "Chair"),
                         [](const auto& info) { return info.param; });

TEST(DblifePreciseTest, BaselineMatchesGold) {
  for (const std::string& id : DblifeTaskIds()) {
    auto task = MakeTask(id, 60);
    ASSERT_TRUE(task.ok()) << task.status();
    ASSERT_TRUE(AddPreciseBaseline(task->get()).ok()) << id;
    Executor exec(*(*task)->catalog);
    auto result = exec.Execute((*task)->precise_program);
    ASSERT_TRUE(result.ok()) << id << ": " << result.status();
    const auto& gold = (*task)->apply_cleanup ? (*task)->cleanup_gold
                                              : (*task)->gold.query_result;
    EvalReport rep = EvaluateResult(*(*task)->corpus, *result, gold);
    EXPECT_TRUE(rep.exact) << id << ": " << rep.ToString();
  }
}

TEST(SessionTest, SequentialAsksCheaperQuestions) {
  auto seq = RunTask("T2", 30, StrategyKind::kSequential);
  ASSERT_TRUE(seq.ok()) << seq.status();
  // Sequential always terminates and never loses gold tuples.
  EXPECT_TRUE(seq->report.covers_all_gold) << seq->report.ToString();
  EXPECT_EQ(seq->session.simulations_run, 0u);

  auto sim = RunTask("T2", 30, StrategyKind::kSimulation);
  ASSERT_TRUE(sim.ok());
  EXPECT_GT(sim->session.simulations_run, 0u);
}

// Calls session->Run() from `depth` frames further down the stack.
[[gnu::noinline]] Result<SessionResult> RunDeeper(RefinementSession* session,
                                                  int depth) {
  volatile char pad[1024] = {};
  Result<SessionResult> result =
      depth == 0 ? session->Run() : RunDeeper(session, depth - 1);
  pad[0] = pad[1];  // keeps this frame live across the call
  return result;
}

// Run() resolves its Execute options on a copy and never writes them back,
// so a second Run() on one session makes its own verify memo instead of
// reading the first call's, which died with that call's frame. The second
// call starts deeper in the stack, where a dangling memo would point into
// live frames (or, under ASan's detect_stack_use_after_return, into a
// freed one).
TEST(SessionTest, RunTwiceOnOneSession) {
  auto task = MakeTask("T1", 10);
  ASSERT_TRUE(task.ok()) << task.status();
  RefinementSession session(*(*task)->catalog, (*task)->initial_program,
                            (*task)->developer.get());
  auto first = session.Run();
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = RunDeeper(&session, 4);
  ASSERT_TRUE(second.ok()) << second.status();
}

// Counters only count: two identical sessions reporting into one
// caller-supplied registry must leave every counter — the session's own
// and the "sim.*" ones simulations merge in — at exactly twice its value
// after the first. A counter Set() to a running total, or to a
// per-Execute value, breaks this.
TEST(SessionMetricsTest, CountersAddUpAcrossSessions) {
  for (const auto& [id, scale] : {std::make_pair("T2", size_t{100}),
                                  std::make_pair("T9", size_t{100})}) {
    const std::string label = std::string(id) + "@" + std::to_string(scale);
    obs::MetricRegistry registry;
    auto run = [&, id = id, scale = scale]() -> Status {
      IFLEX_ASSIGN_OR_RETURN(std::unique_ptr<TaskInstance> task,
                             MakeTask(id, scale));
      SessionOptions options;
      options.strategy = StrategyKind::kSimulation;
      options.exec_options.metrics = &registry;
      RefinementSession session(*task->catalog, task->initial_program,
                                task->developer.get(), options);
      return session.Run().status();
    };
    ASSERT_TRUE(run().ok()) << label;
    const obs::MetricRegistry::Snapshot first = registry.Snap();
    ASSERT_TRUE(run().ok()) << label;
    const obs::MetricRegistry::Snapshot second = registry.Snap();
    EXPECT_GT(first.counters.at("sim.exec.rules_evaluated"), 0u) << label;
    for (const auto& [name, value] : first.counters) {
      EXPECT_EQ(second.counters.at(name), 2 * value) << label << ": " << name;
    }
    // Gauges hold one registry's last value; summing them over
    // simulations means nothing, so none is merged in under "sim.".
    for (const auto& [name, value] : second.gauges) {
      EXPECT_NE(name.rfind("sim.", 0), 0u)
          << label << ": merged gauge " << name << " = " << value;
    }
  }
}

// A session given no registry resolves it to DefaultMetrics() once, so
// its own subset, probe, base and full-data Executes ("exec.*") land
// there next to its simulations ("sim.exec.*"): the deltas equal the
// counts the same session leaves in a registry of its own.
TEST(SessionMetricsTest, DefaultSessionCountsLandInOneRegistry) {
  auto run = [](obs::MetricRegistry* registry) -> Status {
    IFLEX_ASSIGN_OR_RETURN(std::unique_ptr<TaskInstance> task,
                           MakeTask("T2", 30));
    SessionOptions options;
    options.strategy = StrategyKind::kSimulation;
    options.exec_options.metrics = registry;
    RefinementSession session(*task->catalog, task->initial_program,
                              task->developer.get(), options);
    return session.Run().status();
  };
  obs::MetricRegistry own;
  ASSERT_TRUE(run(&own).ok());
  const uint64_t exec_rules = own.counter("exec.rules_evaluated")->value();
  const uint64_t sim_rules = own.counter("sim.exec.rules_evaluated")->value();
  ASSERT_GT(exec_rules, 0u);
  ASSERT_GT(sim_rules, 0u);

  obs::MetricRegistry& global = obs::DefaultMetrics();
  const uint64_t exec_before = global.counter("exec.rules_evaluated")->value();
  const uint64_t sim_before =
      global.counter("sim.exec.rules_evaluated")->value();
  ASSERT_TRUE(run(nullptr).ok());
  EXPECT_EQ(global.counter("exec.rules_evaluated")->value() - exec_before,
            exec_rules);
  EXPECT_EQ(global.counter("sim.exec.rules_evaluated")->value() - sim_before,
            sim_rules);
}

// Narrowing reuse (docs/PERFORMANCE.md) against full evaluation. Each
// session's answers are replayed one at a time over one shared cache; at
// every program version the version itself runs, then every candidate a
// yes/no answer would add, as question selection simulates them on a data
// subset. Each result, and every last_idb() table, must equal a
// cache-less Execute's.
TEST(NarrowingReplayTest, EveryVersionAndCandidateEqualsFullEvaluation) {
  const std::vector<std::pair<const char*, size_t>> scenarios = {
      {"T1", 10}, {"T2", 100}, {"T4", 10}, {"T5", 100},
      {"T7", 100}, {"T8", 100}, {"T9", 60}};
  for (const auto& [task_id, scale] : scenarios) {
    const std::string name = std::string(task_id) + "@" + std::to_string(scale);
    auto task = MakeTask(task_id, scale);
    ASSERT_TRUE(task.ok()) << name << ": " << task.status();
    const Catalog& catalog = *(*task)->catalog;
    const Corpus& corpus = *(*task)->corpus;
    SessionOptions options;
    options.strategy = StrategyKind::kSimulation;
    RefinementSession session(catalog, (*task)->initial_program,
                              (*task)->developer.get(), options);
    auto result = session.Run();
    ASSERT_TRUE(result.ok()) << name << ": " << result.status();

    std::vector<Program> versions = {(*task)->initial_program};
    for (const IterationRecord& rec : result->iterations) {
      ASSERT_EQ(rec.questions.size(), rec.answers.size()) << name;
      for (size_t i = 0; i < rec.questions.size(); ++i) {
        Program next = versions.back();
        ASSERT_TRUE(
            ApplyAnswer(&next, catalog, rec.questions[i], rec.answers[i])
                .ok())
            << name;
        versions.push_back(std::move(next));
      }
    }
    ASSERT_EQ(versions.back().ToString(), result->final_program.ToString())
        << name;

    auto dump = [&](const Executor& exec, const Result<CompactTable>& r) {
      if (!r.ok()) return r.status().ToString();
      std::string out = r->ToString(&corpus);
      std::map<std::string, const CompactTable*> idb;
      for (const auto& [pred, table] : exec.last_idb()) {
        idb[pred] = table.get();
      }
      for (const auto& [pred, table] : idb) {
        out += "\n" + pred + ": " + table->ToString(&corpus);
      }
      return out;
    };
    const Catalog subset = catalog.CloneWithSampledTables(0.3, 7);
    ReuseCache cache;
    size_t executed = 0;
    size_t narrowed = 0;
    auto check = [&](const Program& prog) {
      Executor cached(subset);
      Result<CompactTable> r = cached.Execute(prog, &cache);
      ASSERT_TRUE(r.ok()) << name << ": " << r.status();
      Executor plain(subset);
      ASSERT_EQ(dump(cached, r), dump(plain, plain.Execute(prog)))
          << name << ":\n" << prog.ToString();
      ++executed;
      narrowed += cached.stats().rules_narrowed;
    };
    for (const Program& version : versions) {
      cache.NewGeneration();  // as each question selection does
      check(version);
      for (const AttributeRef& attr : RankAttributes(version, catalog)) {
        for (const std::string& fname : catalog.features().names()) {
          auto feature = catalog.features().Get(fname);
          ASSERT_TRUE(feature.ok()) << fname;
          if ((*feature)->AnswerSpace().empty()) continue;  // not yes/no
          const Question q{attr, fname};
          for (const Answer& answer :
               CandidateAnswers(q, **feature, corpus, {})) {
            Program refined = version;
            if (!ApplyAnswer(&refined, catalog, q, answer).ok()) continue;
            check(refined);
          }
        }
      }
    }
    EXPECT_GT(narrowed, executed / 2) << name;
  }
}

// Content-keyed reuse (docs/PERFORMANCE.md) against full evaluation. Each
// session's program versions run over one shared cache, each version's
// yes/no candidates inside a batch scope as question selection opens it.
// Every result, every last_idb() table and the process sizes must equal a
// cache-less Execute's, and some predicate must be served by content: its
// table is a cached one although one of its inputs was computed afresh.
TEST(ContentReuseReplayTest, EveryVersionAndCandidateEqualsFullEvaluation) {
  const std::vector<std::pair<const char*, size_t>> scenarios = {
      {"T1", 10},  {"T2", 100}, {"T3", 100}, {"T4", 10}, {"T5", 100},
      {"T6", 100}, {"T7", 100}, {"T8", 100}, {"T9", 60}};
  for (const auto& [task_id, scale] : scenarios) {
    const std::string name = std::string(task_id) + "@" + std::to_string(scale);
    auto task = MakeTask(task_id, scale);
    ASSERT_TRUE(task.ok()) << name << ": " << task.status();
    const Catalog& catalog = *(*task)->catalog;
    const Corpus& corpus = *(*task)->corpus;
    SessionOptions options;
    options.strategy = StrategyKind::kSimulation;
    RefinementSession session(catalog, (*task)->initial_program,
                              (*task)->developer.get(), options);
    auto result = session.Run();
    ASSERT_TRUE(result.ok()) << name << ": " << result.status();

    std::vector<Program> versions = {(*task)->initial_program};
    for (const IterationRecord& rec : result->iterations) {
      for (size_t i = 0; i < rec.questions.size(); ++i) {
        Program next = versions.back();
        ASSERT_TRUE(
            ApplyAnswer(&next, catalog, rec.questions[i], rec.answers[i])
                .ok())
            << name;
        versions.push_back(std::move(next));
      }
    }

    auto dump = [&](const Executor& exec, const Result<CompactTable>& r) {
      if (!r.ok()) return r.status().ToString();
      std::string out = r->ToString(&corpus);
      std::map<std::string, const CompactTable*> idb;
      for (const auto& [pred, table] : exec.last_idb()) {
        idb[pred] = table.get();
      }
      for (const auto& [pred, table] : idb) {
        out += "\n" + pred + ": " + table->ToString(&corpus);
      }
      out += "\nsizes " + std::to_string(exec.stats().process_assignments) +
             " " + std::to_string(exec.stats().process_values);
      return out;
    };
    const Catalog subset = catalog.CloneWithSampledTables(0.3, 7);
    ReuseCache cache;
    // Every table an Execute handed out, kept alive so addresses are not
    // reused.
    std::vector<SharedTable> seen;
    auto was_seen = [&](const SharedTable& t) {
      return std::find(seen.begin(), seen.end(), t) != seen.end();
    };
    size_t served_by_content = 0;
    auto check = [&](const Program& prog) {
      Executor cached(subset);
      Result<CompactTable> r = cached.Execute(prog, &cache);
      ASSERT_TRUE(r.ok()) << name << ": " << r.status();
      Executor plain(subset);
      ASSERT_EQ(dump(cached, r), dump(plain, plain.Execute(prog)))
          << name << ":\n" << prog.ToString();
      auto unfolded = prog.Unfold(subset);
      ASSERT_TRUE(unfolded.ok()) << name;
      for (const Rule& rule : unfolded->rules()) {
        auto out = cached.last_idb().find(rule.head.predicate);
        if (out == cached.last_idb().end() || !was_seen(out->second)) continue;
        for (const Literal& lit : rule.body) {
          if (lit.kind != Literal::Kind::kAtom) continue;
          auto in = cached.last_idb().find(lit.atom.predicate);
          if (in != cached.last_idb().end() && !was_seen(in->second)) {
            ++served_by_content;
          }
        }
      }
      for (const auto& [pred, table] : cached.last_idb()) {
        if (!was_seen(table)) seen.push_back(table);
      }
    };
    for (const Program& version : versions) {
      cache.NewGeneration();  // as each question selection does
      check(version);
      ReuseCache::BatchScope batch(&cache);
      for (const AttributeRef& attr : RankAttributes(version, catalog)) {
        for (const std::string& fname : catalog.features().names()) {
          auto feature = catalog.features().Get(fname);
          ASSERT_TRUE(feature.ok()) << fname;
          if ((*feature)->AnswerSpace().empty()) continue;  // not yes/no
          const Question q{attr, fname};
          for (const Answer& answer :
               CandidateAnswers(q, **feature, corpus, {})) {
            Program refined = version;
            if (!ApplyAnswer(&refined, catalog, q, answer).ok()) continue;
            check(refined);
          }
        }
      }
    }
    EXPECT_GT(served_by_content, 0u) << name;
  }
}

}  // namespace
}  // namespace iflex
