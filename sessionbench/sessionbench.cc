// Refinement-session benchmark. One refinement session is the paper's unit
// of work (§5, Tables 3-4): evaluate the program on a data subset, pick the
// next questions by simulating candidate answers, fold the developer's
// answers in, and finish with the reuse-mode pass over the full data. Each
// workload runs a fixed slice of the Table 3/4 scenarios as sessions back to
// back, one simulated developer in a closed loop, with the simulation
// strategy and default SessionOptions, and checks every session against the
// task's gold standard.
//
//   sessionbench --workload NAME [--seed N] [--task-seed N] [--seconds S]
//                [--trace 0|1]
//   sessionbench --selftest [--task-seed N]
//
// --trace 0 times untraced RefinementSession::Run calls and reports the
// end-to-end metrics. --trace 1 also runs a traced copy of the session loop
// (the same public calls Run makes, in the same order) with a span around
// each call into a layer, and reports the per-layer metrics. The spans live
// in this driver's memory, not in the program's trace ring.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every session passed its checks.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "assistant/convergence.h"
#include "assistant/session.h"
#include "assistant/strategy.h"
#include "common/stopwatch.h"
#include "exec/executor.h"
#include "exec/verify_memo.h"
#include "obs/metrics.h"
#include "oracle/evaluate.h"
#include "oracle/timemodel.h"
#include "runtime/task_pool.h"
#include "tasks/task.h"

using namespace iflex;

namespace {

struct Scenario {
  const char* id;
  size_t scale;
};

struct Workload {
  const char* name;
  std::vector<Scenario> scenarios;
  /// Pool width before capping at nproc; 1 runs serially without a pool.
  size_t threads;
};

// Why each workload exists (see BENCHMARK.json): join_sessions is where the
// similar() joins over wide expansion cells run, thousands of times inside
// candidate simulations; select_sessions is the same loop with no
// similar() join, so a join change should leave it flat; fullpass_t4 is
// dominated by one large cold full-data pass split into morsels over a pool.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"join_sessions", {{"T3", 517}, {"T6", 500}, {"T9", 100}}, 1},
      {"select_sessions",
       {{"T1", 10},
        {"T2", 100},
        {"T4", 10},
        {"T5", 500},
        {"T7", 500},
        {"T8", 2490}},
       1},
      {"fullpass_t4", {{"T9", 5000}}, 4},
  };
  return kWorkloads;
}

/// Set-up takes milliseconds, and a shared host's speed changes in phases
/// that last from seconds to minutes, so set-up is timed in windows spread
/// over the run: one before the first pass and one after every pass. Each
/// window times rounds for at least this long; the median round counts.
constexpr double kSetupWindowSeconds = 0.5;

std::string Label(const Scenario& s) {
  return std::string(s.id) + "@" + std::to_string(s.scale);
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// Wall clock plus this process's getrusage totals (all threads).
struct Usage {
  double wall_s = 0;
  double user_s = 0;
  double sys_s = 0;
  double ctx_switches = 0;

  static Usage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) / 1e6;
    };
    Usage u;
    u.wall_s = static_cast<double>(NowNs()) / 1e9;
    u.user_s = secs(ru.ru_utime);
    u.sys_s = secs(ru.ru_stime);
    u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
    return u;
  }
  double cpu_s() const { return user_s + sys_s; }
  Usage operator-(const Usage& o) const {
    return {wall_s - o.wall_s, user_s - o.user_s, sys_s - o.sys_s,
            ctx_switches - o.ctx_switches};
  }
  Usage& operator+=(const Usage& o) {
    wall_s += o.wall_s;
    user_s += o.user_s;
    sys_s += o.sys_s;
    ctx_switches += o.ctx_switches;
    return *this;
  }
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Durations of the spans recorded around each call from this driver into a
/// layer, kept per span name.
class SpanLog {
 public:
  /// Opens a span; it ends when the scope does.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name)
        : log_(log), name_(name), start_ns_(NowNs()) {}
    ~Scope() {
      log_->durations_[name_].push_back(
          static_cast<double>(NowNs() - start_ns_) / 1e9);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    const char* name_;
    uint64_t start_ns_;
  };

  /// Seconds of each span with this name, in the order they ended.
  std::vector<double> Durations(const std::string& name) const {
    auto it = durations_.find(name);
    return it == durations_.end() ? std::vector<double>{} : it->second;
  }
  double Seconds(const std::string& name) const {
    double total = 0;
    for (double d : Durations(name)) total += d;
    return total;
  }
  double Count(const std::string& name) const {
    return static_cast<double>(Durations(name).size());
  }

 private:
  std::map<std::string, std::vector<double>> durations_;
};

/// Outcome of one session, checked against the task's gold.
struct SessionRecord {
  std::string scenario;
  /// Empty when the session returned OK, was not degraded and covered
  /// every gold tuple.
  std::string error;
  /// Around the session; the gold check is outside.
  Usage usage;
  /// The final full-data pass (untraced sessions only).
  double full_eval_s = 0;
  /// EvaluateResult, the gold check.
  double evaluate_s = 0;
  double dev_minutes = 0;
  double superset_pct = 0;
  size_t questions = 0;
  size_t simulations = 0;
  std::vector<std::string> question_keys;
  std::string final_program;
  std::string final_table;
};

/// Checks a finished session against the gold and fills the quality fields.
/// No workload's task has a cleanup stage (only DBLife's Chair does), so
/// the session's final result is what the gold judges.
void Score(TaskInstance* task, const SessionResult& s, SessionRecord* rec) {
  Stopwatch watch;
  EvalReport report =
      EvaluateResult(*task->corpus, s.final_result, task->gold.query_result);
  rec->evaluate_s = watch.ElapsedSeconds();
  DeveloperTimeModel model;
  rec->dev_minutes = model.IFlexSkeletonMinutes(task->n_rules) +
                     static_cast<double>(s.questions_asked) *
                         model.seconds_per_question / 60.0 +
                     task->cleanup_minutes;
  rec->superset_pct = report.superset_pct;
  rec->questions = s.questions_asked;
  rec->simulations = s.simulations_run;
  for (const IterationRecord& it : s.iterations) {
    for (const Question& q : it.questions) {
      rec->question_keys.push_back(q.Key());
    }
  }
  rec->final_program = s.final_program.ToString();
  rec->final_table = s.final_result.ToString(task->corpus.get());
  if (s.report.degraded) {
    rec->error = "degraded: " + s.report.ToString();
  } else if (!report.covers_all_gold) {
    rec->error = "misses gold tuples: " + report.ToString();
  }
}

/// One untraced session through RefinementSession::Run.
SessionRecord RunSession(TaskInstance* task, runtime::TaskPool* pool) {
  SessionRecord rec;
  SessionOptions options;
  options.strategy = StrategyKind::kSimulation;
  options.pool = pool;
  Usage start = Usage::Now();
  RefinementSession session(*task->catalog, task->initial_program,
                            task->developer.get(), options);
  Result<SessionResult> run = session.Run();
  rec.usage = Usage::Now() - start;
  if (!run.ok()) {
    rec.error = run.status().ToString();
    return rec;
  }
  rec.full_eval_s = run->iterations.back().machine_seconds;
  Score(task, *run, &rec);
  return rec;
}

/// Per-layer totals over the traced sessions of one run.
struct Layers {
  SpanLog spans;
  /// Every traced Execute reports here; simulations merge in as "sim.*".
  obs::MetricRegistry registry;
  /// Around each traced session, like SessionRecord::usage.
  Usage usage;
  double iterations = 0;
  double subset_grows = 0;
  double questions = 0;
  double simulations = 0;
  double verify_hits = 0;
  double verify_misses = 0;
  double verify_entries = 0;
  double intern_hits = 0;
  double intern_misses = 0;
  double evaluate_s = 0;

  /// Sum of an executor counter over every Execute of the run. Only
  /// counters the executor Add()s are safe to read after MergeInto.
  double Exec(const std::string& name) {
    return static_cast<double>(registry.counter("exec." + name)->value() +
                               registry.counter("sim.exec." + name)->value());
  }
};

/// The session loop of RefinementSession::Run, driven from here: the same
/// public calls in the same order, each wrapped in a span.
Result<SessionResult> TracedSessionLoop(TaskInstance* task,
                                        runtime::TaskPool* pool,
                                        Layers* layers) {
  SpanLog* spans = &layers->spans;
  const Catalog& catalog = *task->catalog;
  SessionOptions options;
  ExecOptions exec_options = options.exec_options;
  exec_options.pool = pool;
  exec_options.metrics = &layers->registry;
  VerifyMemo verify_memo;
  exec_options.verify_memo = &verify_memo;

  size_t max_table = 1;
  for (const std::string& name : catalog.TableNames()) {
    IFLEX_ASSIGN_OR_RETURN(const CompactTable* t, catalog.Table(name));
    max_table = std::max(max_table, t->size());
  }
  double fraction = options.subset_fraction > 0
                        ? options.subset_fraction
                        : RefinementSession::AutoSubsetFraction(max_table);
  if (options.max_subset_docs > 0) {
    fraction = std::min(fraction, static_cast<double>(options.max_subset_docs) /
                                      static_cast<double>(max_table));
  }
  Catalog subset =
      catalog.CloneWithSampledTables(fraction, options.subset_seed);
  ReuseCache subset_cache;
  auto grow_subset = [&]() {
    if (fraction >= 1.0) return false;
    fraction = std::min(1.0, fraction * 2);
    subset = catalog.CloneWithSampledTables(fraction, options.subset_seed);
    subset_cache.Clear();
    ++layers->subset_grows;
    return true;
  };

  SimulationStrategy strategy;
  ReuseCache full_cache;
  std::set<std::string> asked;
  ConvergenceDetector detector(options.convergence_k);
  AnswerExclusions exclusions;
  StrategyContext ctx;
  ctx.exclusions = &exclusions;
  ctx.full_catalog = &catalog;
  ctx.subset_catalog = &subset;
  ctx.subset_cache = &subset_cache;
  ctx.asked = &asked;
  ctx.exec_options = exec_options;
  ctx.alpha = options.alpha;

  SessionResult out;
  Program program = task->initial_program;
  bool space_exhausted = false;
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    SpanLog::Scope iter_span(spans, "session.iteration");
    ++layers->iterations;
    IterationRecord rec;
    rec.iteration = iter;
    exec_options.cost_iteration = iter;
    ctx.exec_options.cost_iteration = iter;

    CompactTable result;
    while (true) {
      {
        SpanLog::Scope span(spans, "exec.subset_eval");
        Executor exec(subset, exec_options);
        IFLEX_ASSIGN_OR_RETURN(result, exec.Execute(program, &subset_cache));
        out.report.Merge(exec.report());
        rec.assignments = exec.stats().process_assignments;
        rec.process_values = exec.stats().process_values;
      }
      if (result.size() > 0 || !grow_subset()) break;
    }
    rec.result_tuples = ResultSize(result, catalog.corpus());
    bool converged = detector.Observe(rec.result_tuples, rec.process_values);

    if (!converged && !space_exhausted) {
      ctx.program = &program;
      for (int qi = 0; qi < options.questions_per_iteration; ++qi) {
        std::optional<Question> q;
        {
          SpanLog::Scope span(spans, "strategy.next");
          IFLEX_ASSIGN_OR_RETURN(q, strategy.Next(ctx));
        }
        if (!q.has_value() && grow_subset()) {
          SpanLog::Scope span(spans, "strategy.next");
          IFLEX_ASSIGN_OR_RETURN(q, strategy.Next(ctx));
        }
        if (!q.has_value()) {
          space_exhausted = true;
          break;
        }
        asked.insert(q->Key());
        IFLEX_ASSIGN_OR_RETURN(const Feature* feature,
                               catalog.features().Get(q->feature));
        Answer a = task->developer->Ask(*q, *feature);
        IFLEX_RETURN_NOT_OK(ApplyAnswer(&program, catalog, *q, a));
        rec.questions.push_back(*q);
        rec.answers.push_back(a);
        ++out.questions_asked;
      }
    }
    out.iterations.push_back(rec);
    if (converged || space_exhausted || iter == options.max_iterations) {
      out.converged = converged;
      break;
    }
  }

  {
    exec_options.cost_iteration = static_cast<int>(out.iterations.size()) + 1;
    SpanLog::Scope span(spans, "exec.full_eval");
    Executor exec(catalog, exec_options);
    IFLEX_ASSIGN_OR_RETURN(out.final_result,
                           exec.Execute(program, &full_cache));
    out.report.Merge(exec.report());
  }
  out.simulations_run = strategy.simulations_run();
  out.final_program = program;
  layers->questions += static_cast<double>(out.questions_asked);
  layers->simulations += static_cast<double>(out.simulations_run);
  layers->verify_hits += static_cast<double>(verify_memo.hits());
  layers->verify_misses += static_cast<double>(verify_memo.misses());
  layers->verify_entries += static_cast<double>(verify_memo.size());
  return out;
}

/// One traced session, checked like an untraced one.
SessionRecord RunTracedSession(TaskInstance* task, runtime::TaskPool* pool,
                               Layers* layers) {
  SessionRecord rec;
  const StringInterner& interner = task->corpus->interner();
  const TokenCache& tokens = task->corpus->tokens();
  const double intern_hits =
      static_cast<double>(interner.hits() + tokens.hits());
  const double intern_misses =
      static_cast<double>(interner.misses() + tokens.misses());
  Usage start = Usage::Now();
  Result<SessionResult> run = TracedSessionLoop(task, pool, layers);
  rec.usage = Usage::Now() - start;
  layers->usage += rec.usage;
  layers->intern_hits +=
      static_cast<double>(interner.hits() + tokens.hits()) - intern_hits;
  layers->intern_misses +=
      static_cast<double>(interner.misses() + tokens.misses()) - intern_misses;
  if (!run.ok()) {
    rec.error = run.status().ToString();
    return rec;
  }
  Score(task, *run, &rec);
  layers->evaluate_s += rec.evaluate_s;
  return rec;
}

/// Builds a fresh task for the scenario (warm corpus caches would flatter a
/// second session) and runs one session on it: traced when `layers` is
/// set, through Run otherwise. A task that fails to build fails the session.
SessionRecord RunScenario(const Scenario& s, uint64_t task_seed,
                          runtime::TaskPool* pool, Layers* layers) {
  Result<std::unique_ptr<TaskInstance>> task = [&] {
    std::optional<SpanLog::Scope> span;
    if (layers != nullptr) span.emplace(&layers->spans, "tasks.make");
    return MakeTask(s.id, s.scale, task_seed);
  }();
  SessionRecord rec;
  if (!task.ok()) {
    rec.error = task.status().ToString();
  } else if (layers != nullptr) {
    rec = RunTracedSession(task->get(), pool, layers);
  } else {
    rec = RunSession(task->get(), pool);
  }
  rec.scenario = Label(s);
  return rec;
}

/// Empty when the traced driver reproduced Run's session exactly.
std::string CompareSessions(const SessionRecord& run,
                            const SessionRecord& traced) {
  if (run.question_keys != traced.question_keys) return "questions differ";
  if (run.final_program != traced.final_program) return "final programs differ";
  if (run.final_table != traced.final_table) return "final tables differ";
  return "";
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Counts sessions and reports failures as they happen.
struct Tally {
  size_t attempted = 0;
  size_t failed = 0;

  void Add(const SessionRecord& rec) {
    ++attempted;
    if (!rec.error.empty()) {
      ++failed;
      std::printf("FAILED %s: %s\n", rec.scenario.c_str(), rec.error.c_str());
    }
  }
};

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

void PrintRatio(const char* name, double num, const char* num_name,
                double den, const char* den_name) {
  std::printf("  %s = %.6f = %s %.6g / %s %.6g\n", name, Ratio(num, den),
              num_name, num, den_name, den);
}

/// Times one window of set-up rounds into `rounds`. A round is MakeTask
/// summed over the workload's scenarios in its own order, each task built
/// and freed in turn as the sessions build them. An untimed round first
/// pays one-time start-up and settles the heap the last pass left.
void SampleSetup(const Workload& w, uint64_t task_seed,
                 std::vector<double>* rounds) {
  double timed_s = 0;
  for (int round = 0; round == 0 || timed_s < kSetupWindowSeconds; ++round) {
    double round_s = 0;
    for (const Scenario& s : w.scenarios) {
      Stopwatch watch;
      Result<std::unique_ptr<TaskInstance>> task =
          MakeTask(s.id, s.scale, task_seed);
      round_s += watch.ElapsedSeconds();
    }
    if (round > 0) {
      rounds->push_back(round_s);
      timed_s += round_s;
    }
  }
}

/// Sums of one untraced pass over the workload's scenarios.
struct Pass {
  double session_s = 0;
  double cpu_s = 0;
  double full_eval_s = 0;
  double dev_minutes = 0;
  double superset_pct = 0;  // mean over the sessions
};

Pass RunPass(const std::vector<Scenario>& scenarios, uint64_t task_seed,
             runtime::TaskPool* pool, Tally* tally) {
  Pass pass;
  for (const Scenario& s : scenarios) {
    SessionRecord rec = RunScenario(s, task_seed, pool, nullptr);
    tally->Add(rec);
    pass.session_s += rec.usage.wall_s;
    pass.cpu_s += rec.usage.cpu_s();
    pass.full_eval_s += rec.full_eval_s;
    pass.dev_minutes += rec.dev_minutes;
    pass.superset_pct +=
        rec.superset_pct / static_cast<double>(scenarios.size());
    std::printf("  %-8s session %8.3f s  cpu %8.3f s  full pass %7.3f s  "
                "questions %3zu  simulations %5zu  superset %6.1f%%\n",
                rec.scenario.c_str(), rec.usage.wall_s, rec.usage.cpu_s(),
                rec.full_eval_s, rec.questions, rec.simulations,
                rec.superset_pct);
  }
  return pass;
}

/// --trace 0: untraced passes over the workload, its sessions in the order
/// given, until `seconds` have gone by (at least one); session timings are
/// medians over the passes.
std::vector<Metric> EndToEnd(const Workload& w,
                             const std::vector<Scenario>& scenarios,
                             uint64_t task_seed, double seconds,
                             runtime::TaskPool* pool, Tally* tally) {
  std::vector<double> setup_rounds;
  SampleSetup(w, task_seed, &setup_rounds);
  std::vector<Pass> passes;
  Stopwatch watch;
  do {
    std::printf("pass %zu\n", passes.size() + 1);
    passes.push_back(RunPass(scenarios, task_seed, pool, tally));
    SampleSetup(w, task_seed, &setup_rounds);
  } while (watch.ElapsedSeconds() < seconds);
  auto median = [&](double Pass::*field) {
    std::vector<double> v;
    for (const Pass& p : passes) v.push_back(p.*field);
    return Median(v);
  };
  double session_s = median(&Pass::session_s);
  std::printf("passes %zu  setup rounds %zu\n", passes.size(),
              setup_rounds.size());
  PrintRatio("exec.full_eval_share", median(&Pass::full_eval_s),
             "full_eval_s", session_s, "session_s");
  return {
      {"setup_s", Median(setup_rounds), "s"},
      {"session_s", session_s, "s"},
      {"cpu_s", median(&Pass::cpu_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"dev_minutes", passes.front().dev_minutes, "model_min"},
      {"superset_pct", passes.front().superset_pct, "%"},
  };
}

/// --trace 1: per scenario, one untraced Run (the overhead baseline) and one
/// traced session, which must agree.
std::vector<Metric> PerLayer(const std::vector<Scenario>& scenarios,
                             uint64_t task_seed, runtime::TaskPool* pool,
                             Tally* tally) {
  Layers layers;
  double untraced_s = 0;
  for (const Scenario& s : scenarios) {
    SessionRecord base = RunScenario(s, task_seed, pool, nullptr);
    base.scenario += " (untraced)";
    tally->Add(base);
    untraced_s += base.usage.wall_s;

    SessionRecord traced = RunScenario(s, task_seed, pool, &layers);
    traced.scenario += " (traced)";
    if (traced.error.empty() && base.error.empty()) {
      traced.error = CompareSessions(base, traced);
    }
    tally->Add(traced);
    std::printf("  %-8s untraced %8.3f s  traced %8.3f s  questions %3zu  "
                "simulations %5zu\n",
                Label(s).c_str(), base.usage.wall_s, traced.usage.wall_s,
                traced.questions, traced.simulations);
  }

  const SpanLog& spans = layers.spans;
  const double wall_s = layers.usage.wall_s;
  const double next_s = spans.Seconds("strategy.next");
  const double full_eval_s = spans.Seconds("exec.full_eval");
  const double rules = layers.Exec("rules_evaluated");
  const double compiled = layers.Exec("rules_compiled");
  const double reuse_hits = layers.Exec("cache_hits");
  const double reuse_misses = layers.Exec("cache_misses");
  const double verify_lookups = layers.verify_hits + layers.verify_misses;
  const double intern_lookups = layers.intern_hits + layers.intern_misses;
  const double cpu_s = layers.usage.cpu_s();
  PrintRatio("exec.full_eval_share", full_eval_s, "exec.full_eval_s", wall_s,
             "session.wall_s");
  PrintRatio("exec.compiled_share", compiled, "exec.rules_compiled", rules,
             "exec.rules_evaluated");
  PrintRatio("exec.reuse_hit_ratio", reuse_hits, "exec.reuse_hits",
             reuse_hits + reuse_misses, "reuse lookups");
  PrintRatio("exec.verify_hit_ratio", layers.verify_hits, "exec.verify_hits",
             verify_lookups, "exec.verify_lookups");
  PrintRatio("exec.intern_hit_ratio", layers.intern_hits, "exec.intern_hits",
             intern_lookups, "exec.intern_lookups");
  PrintRatio("runtime.cpu_per_wall", cpu_s, "runtime.cpu_s", wall_s,
             "session.wall_s");
  PrintRatio("trace.overhead_share", wall_s - untraced_s,
             "session.wall_s - trace.untraced_s", untraced_s,
             "trace.untraced_s");
  return {
      {"tasks.make_s", spans.Seconds("tasks.make"), "s"},
      {"session.wall_s", wall_s, "s"},
      {"session.iterations", layers.iterations, "count"},
      {"session.questions", layers.questions, "count"},
      {"session.subset_grows", layers.subset_grows, "count"},
      {"session.iteration_p50_s", Median(spans.Durations("session.iteration")),
       "s"},
      {"exec.subset_eval_s", spans.Seconds("exec.subset_eval"), "s"},
      {"exec.subset_eval_calls", spans.Count("exec.subset_eval"), "count"},
      {"strategy.next_s", next_s, "s"},
      {"strategy.next_calls", spans.Count("strategy.next"), "count"},
      {"strategy.next_p50_ms", 1e3 * Median(spans.Durations("strategy.next")),
       "ms"},
      {"strategy.simulations", layers.simulations, "count"},
      {"strategy.sim_ms", 1e3 * Ratio(next_s, layers.simulations), "ms"},
      {"exec.full_eval_s", full_eval_s, "s"},
      {"exec.full_eval_share", Ratio(full_eval_s, wall_s), "ratio"},
      {"exec.join_pairs", layers.Exec("join_pairs"), "count"},
      {"exec.ppred_invocations", layers.Exec("ppred_invocations"), "count"},
      {"exec.join_probes", layers.Exec("join_probes"), "count"},
      {"exec.join_build_rows", layers.Exec("join_build_rows"), "count"},
      {"exec.constraint_cells", layers.Exec("constraint_cells"), "count"},
      {"exec.rules_evaluated", rules, "count"},
      {"exec.rules_compiled", compiled, "count"},
      {"exec.compiled_share", Ratio(compiled, rules), "ratio"},
      {"exec.tuples_emitted", layers.Exec("tuples_emitted"), "count"},
      {"exec.reuse_hits", reuse_hits, "count"},
      {"exec.reuse_misses", reuse_misses, "count"},
      {"exec.reuse_hit_ratio", Ratio(reuse_hits, reuse_hits + reuse_misses),
       "ratio"},
      {"exec.verify_lookups", verify_lookups, "count"},
      {"exec.verify_hits", layers.verify_hits, "count"},
      {"exec.verify_hit_ratio", Ratio(layers.verify_hits, verify_lookups),
       "ratio"},
      {"exec.verify_entries", layers.verify_entries, "count"},
      {"exec.intern_lookups", intern_lookups, "count"},
      {"exec.intern_hits", layers.intern_hits, "count"},
      {"exec.intern_hit_ratio", Ratio(layers.intern_hits, intern_lookups),
       "ratio"},
      {"runtime.cpu_s", cpu_s, "s"},
      {"runtime.cpu_per_wall", Ratio(cpu_s, wall_s), "ratio"},
      {"runtime.sys_s", layers.usage.sys_s, "s"},
      {"runtime.ctx_switches", layers.usage.ctx_switches, "count"},
      {"oracle.evaluate_s", layers.evaluate_s, "s"},
      {"trace.untraced_s", untraced_s, "s"},
      {"trace.overhead_share", Ratio(wall_s - untraced_s, untraced_s),
       "ratio"},
  };
}

/// The benchmark's own test, on T2@100 and T9@100: the determinism
/// contract (byte-identical final tables serially and on a pool) and the
/// traced driver's fidelity to Run (same questions in the same order, same
/// final program text, same final table).
int SelfTest(uint64_t task_seed, size_t threads) {
  int failures = 0;
  auto expect = [&](const std::string& error, const std::string& what) {
    std::printf("%s %s %s\n", error.empty() ? "PASS" : "FAIL", what.c_str(),
                error.c_str());
    if (!error.empty()) ++failures;
  };
  runtime::TaskPool pool(threads);
  for (const Scenario& s : {Scenario{"T2", 100}, Scenario{"T9", 100}}) {
    SessionRecord serial = RunScenario(s, task_seed, nullptr, nullptr);
    expect(serial.error, Label(s) + " passes its checks");
    SessionRecord pooled = RunScenario(s, task_seed, &pool, nullptr);
    expect(pooled.error.empty() && pooled.final_table != serial.final_table
               ? "final tables differ"
               : pooled.error,
           Label(s) + " final table identical at 1 and " +
               std::to_string(threads) + " threads");
    Layers layers;
    SessionRecord traced = RunScenario(s, task_seed, nullptr, &layers);
    expect(traced.error.empty() ? CompareSessions(serial, traced)
                                : traced.error,
           Label(s) + " traced driver matches Run over " +
               std::to_string(serial.question_keys.size()) + " questions");
  }
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

/// Runs one workload and prints its result; true when every session passed.
/// The pool is the workload's own width capped at nproc, so no run uses more
/// pool threads than the host has cores.
bool RunWorkload(const Workload& w, uint64_t seed, uint64_t task_seed,
                 double seconds, int trace, size_t nproc) {
  const size_t threads = std::min(w.threads, nproc);
  std::unique_ptr<runtime::TaskPool> pool;
  if (threads > 1) pool = std::make_unique<runtime::TaskPool>(threads);
  // --seed sets the order the sessions run in: the workload's list, rotated.
  std::vector<Scenario> scenarios = w.scenarios;
  std::rotate(scenarios.begin(),
              scenarios.begin() + static_cast<std::ptrdiff_t>(
                                      seed % scenarios.size()),
              scenarios.end());

  std::printf("workload %s  seed %llu  task_seed %llu  trace %d  nproc %zu  "
              "pool_threads %zu\n",
              w.name, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(task_seed), trace, nproc,
              threads);
  Tally tally;
  std::vector<Metric> metrics =
      trace == 0
          ? EndToEnd(w, scenarios, task_seed, seconds, pool.get(), &tally)
                 : PerLayer(scenarios, task_seed, pool.get(), &tally);
  PrintResult(tally, metrics);
  std::fflush(stdout);
  return tally.failed == 0;
}

[[noreturn]] void UsageError(const char* msg) {
  std::fprintf(stderr,
               "sessionbench: %s\n"
               "usage: sessionbench --workload NAME [--seed N] "
               "[--task-seed N] [--seconds S] [--trace 0|1]\n"
               "       sessionbench --selftest [--task-seed N]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 0;
  // MakeTask's seed; 11 is the seed of the paper tables. Session cost
  // depends strongly on the generated corpus (T9@5000 takes 32 s at task
  // seed 1, 42 s at 11 and 78 s at 2), so runs that are compared keep it.
  uint64_t task_seed = 11;
  double seconds = 0;
  int trace = 0;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) UsageError("missing value");
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--workload") == 0) {
      workload_name = value();
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--task-seed") == 0) {
      task_seed = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      seconds = std::strtod(value(), nullptr);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = std::atoi(value());
    } else if (std::strcmp(argv[i], "--selftest") == 0) {
      selftest = true;
    } else {
      UsageError((std::string("unknown argument ") + argv[i]).c_str());
    }
  }

  const size_t nproc =
      static_cast<size_t>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  if (selftest) return SelfTest(task_seed, std::min<size_t>(4, nproc));
  if (trace != 0 && trace != 1) UsageError("--trace takes 0 or 1");
  for (const Workload& w : Workloads()) {
    if (workload_name == w.name) {
      return RunWorkload(w, seed, task_seed, seconds, trace, nproc) ? 0 : 1;
    }
  }
  UsageError("unknown --workload");
}
