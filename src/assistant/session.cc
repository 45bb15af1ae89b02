#include "assistant/session.h"

#include <algorithm>
#include <cstdio>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace iflex {

RefinementSession::RefinementSession(const Catalog& catalog,
                                     Program initial_program,
                                     DeveloperInterface* developer,
                                     SessionOptions options)
    : catalog_(catalog),
      program_(std::move(initial_program)),
      developer_(developer),
      options_(options) {}

double RefinementSession::AutoSubsetFraction(size_t n) {
  // Paper §5.2: 5-30% of the original set, depending on its size.
  if (n <= 50) return 0.30;
  if (n <= 200) return 0.20;
  if (n <= 1000) return 0.10;
  return 0.05;
}

Result<SessionResult> RefinementSession::Run() {
  SessionResult out;
  Stopwatch total;
  // The options of every Execute this call runs, resolved here and never
  // written back: options_ stays as the caller gave it, so another Run()
  // resolves them afresh instead of inheriting this call's verify memo.
  ExecOptions exec_options = options_.exec_options;
  if (options_.pool != nullptr) exec_options.pool = options_.pool;
  // Session-level bounds flow down into every Execute (hierarchical: the
  // tighter of the session's and the caller's own exec deadline wins).
  exec_options.deadline = resilience::Deadline::Sooner(
      exec_options.deadline, options_.deadline);
  if (exec_options.cancel == nullptr) {
    exec_options.cancel = options_.cancel;
  }
  resilience::StopPoller session_stop(exec_options.deadline,
                                      exec_options.cancel);
  obs::Tracer* tracer = obs::TracerOrDefault(exec_options.tracer);
  // Resolved once, so the session's own counters and those of every
  // Execute it runs, simulations included, land in one registry.
  if (exec_options.metrics == nullptr) {
    exec_options.metrics = &obs::DefaultMetrics();
  }
  obs::MetricRegistry* metrics = exec_options.metrics;
  obs::TraceSpan run_span(tracer, "session.run");

  // Size the subset from the largest extensional table.
  size_t max_table = 1;
  for (const std::string& name : catalog_.TableNames()) {
    IFLEX_ASSIGN_OR_RETURN(const CompactTable* t, catalog_.Table(name));
    max_table = std::max(max_table, t->size());
  }
  double fraction = options_.subset_fraction > 0
                        ? options_.subset_fraction
                        : AutoSubsetFraction(max_table);
  if (options_.max_subset_docs > 0) {
    fraction = std::min(fraction, static_cast<double>(options_.max_subset_docs) /
                                      static_cast<double>(max_table));
  }
  Catalog subset =
      catalog_.CloneWithSampledTables(fraction, options_.subset_seed);
  ReuseCache subset_cache;
  // Session-scoped Verify memo, shared by every iteration's subset
  // executor, every candidate simulation, and the final full evaluation:
  // subset catalogs share the corpus, so interned keys — and therefore
  // cached verdicts — stay valid across all of them. Lives next to the
  // reuse caches and follows their lifecycle (see VerifyMemo docs for why
  // it needs no Clear on subset growth: verdicts are corpus-level facts,
  // not subset-dependent tables).
  VerifyMemo verify_memo;
  if (exec_options.verify_memo == nullptr) {
    exec_options.verify_memo = &verify_memo;
  }

  // Grows the subset when it stops carrying signal (zero-result subsets
  // make every question look useless). Returns true if it grew.
  auto grow_subset = [&]() {
    if (fraction >= 1.0) return false;
    fraction = std::min(1.0, fraction * 2);
    subset = catalog_.CloneWithSampledTables(fraction, options_.subset_seed);
    subset_cache.Clear();
    return true;
  };

  std::unique_ptr<QuestionStrategy> strategy;
  if (options_.strategy == StrategyKind::kSequential) {
    strategy = std::make_unique<SequentialStrategy>();
  } else {
    strategy = std::make_unique<SimulationStrategy>();
  }

  std::set<std::string> asked;
  ConvergenceDetector detector(options_.convergence_k);

  // Example feedback (paper §5.1.1): collect one marked-up sample per
  // attribute up front and rule out the answers it contradicts.
  AnswerExclusions exclusions;
  if (options_.example_feedback) {
    obs::TraceSpan feedback_span(tracer, "session.example_feedback");
    for (const AttributeRef& attr :
         EnumerateAttributes(program_, catalog_)) {
      std::optional<Value> example = developer_->ProvideExample(attr);
      out.developer_seconds += developer_->LastAnswerSeconds();
      if (!example.has_value()) continue;
      ++out.examples_collected;
      MergeExclusions(&exclusions,
                      DeriveExclusions(catalog_.corpus(), catalog_.features(),
                                       attr, *example));
    }
  }

  StrategyContext ctx;
  ctx.exclusions = &exclusions;
  ctx.full_catalog = &catalog_;
  ctx.subset_catalog = &subset;
  ctx.subset_cache = &subset_cache;
  ctx.asked = &asked;
  ctx.exec_options = exec_options;
  ctx.alpha = options_.alpha;

  bool space_exhausted = false;
  for (int iter = 1; iter <= options_.max_iterations; ++iter) {
    IFLEX_RETURN_NOT_OK(session_stop.Check("Session::Run"));
    IterationRecord rec;
    rec.iteration = iter;
    Stopwatch iter_watch;
    char iter_buf[16];
    std::snprintf(iter_buf, sizeof(iter_buf), "%d", iter);
    obs::TraceSpan iter_span(tracer, "session.iteration", iter_buf);
    metrics->counter("session.iterations")->Add();
    // Stamp this iteration into every CostKey its Executes charge — the
    // subset evaluation here and the candidate simulations below.
    exec_options.cost_iteration = iter;
    ctx.exec_options.cost_iteration = iter;

    // Execute the current program on the subset; grow the subset while it
    // yields nothing (an empty sample cannot guide question selection).
    CompactTable result;
    size_t process_assignments = 0;
    double process_values = 0;
    {
      obs::TraceSpan subset_span(tracer, "session.subset_eval");
      while (true) {
        Executor exec(subset, exec_options);
        IFLEX_ASSIGN_OR_RETURN(result, exec.Execute(program_, &subset_cache));
        out.report.Merge(exec.report());
        process_assignments = exec.stats().process_assignments;
        process_values = exec.stats().process_values;
        if (result.size() > 0 || !grow_subset()) break;
        metrics->counter("session.subset_grows")->Add();
      }
    }
    rec.result_tuples = ResultSize(result, catalog_.corpus());
    rec.assignments = process_assignments;
    rec.process_values = process_values;
    rec.full_data = false;

    bool converged;
    {
      obs::TraceSpan conv_span(tracer, "session.convergence_check");
      converged = detector.Observe(rec.result_tuples, rec.process_values);
    }

    if (!converged && !space_exhausted) {
      // Solicit the next-effort questions and fold the answers in.
      obs::TraceSpan questions_span(tracer, "session.questions");
      ctx.program = &program_;
      for (int qi = 0; qi < options_.questions_per_iteration; ++qi) {
        IFLEX_ASSIGN_OR_RETURN(std::optional<Question> q,
                               strategy->Next(ctx));
        if (!q.has_value() && grow_subset()) {
          // The sample may have gone dry under the latest constraints;
          // retry on the bigger subset before giving up.
          IFLEX_ASSIGN_OR_RETURN(q, strategy->Next(ctx));
        }
        if (!q.has_value()) {
          space_exhausted = true;
          break;
        }
        asked.insert(q->Key());
        IFLEX_ASSIGN_OR_RETURN(const Feature* feature,
                               catalog_.features().Get(q->feature));
        Answer a = developer_->Ask(*q, *feature);
        rec.developer_seconds += developer_->LastAnswerSeconds();
        IFLEX_RETURN_NOT_OK(ApplyAnswer(&program_, catalog_, *q, a));
        rec.questions.push_back(*q);
        rec.answers.push_back(a);
        ++out.questions_asked;
      }
    }

    rec.machine_seconds = iter_watch.ElapsedSeconds();
    metrics->histogram("session.iteration_seconds")
        ->Record(rec.machine_seconds);
    out.developer_seconds += rec.developer_seconds;
    out.iterations.push_back(rec);

    if (converged || space_exhausted ||
        iter == options_.max_iterations) {
      out.converged = converged;
      break;
    }
  }

  // Nothing reads the subset's tables and prepared cells after the loop;
  // freeing them leaves their memory to the full-data pass.
  subset_cache.Clear();

  // Reuse mode: compute the complete result over the full data.
  {
    IFLEX_RETURN_NOT_OK(session_stop.Check("Session::Run"));
    obs::TraceSpan full_span(tracer, "session.full_eval");
    IterationRecord rec;
    rec.iteration = static_cast<int>(out.iterations.size()) + 1;
    Stopwatch iter_watch;
    exec_options.cost_iteration = rec.iteration;
    Executor exec(catalog_, exec_options);
    IFLEX_ASSIGN_OR_RETURN(CompactTable result, exec.Execute(program_));
    out.report.Merge(exec.report());
    rec.result_tuples = ResultSize(result, catalog_.corpus());
    rec.assignments = exec.stats().process_assignments;
    rec.process_values = exec.stats().process_values;
    rec.full_data = true;
    rec.machine_seconds = iter_watch.ElapsedSeconds();
    out.iterations.push_back(rec);
    out.final_result = std::move(result);
  }

  if (auto* sim = dynamic_cast<SimulationStrategy*>(strategy.get())) {
    out.simulations_run = sim->simulations_run();
  }
  metrics->counter("session.questions_asked")->Add(out.questions_asked);
  metrics->counter("session.simulations")->Add(out.simulations_run);
  out.final_program = program_;
  out.machine_seconds = total.ElapsedSeconds() - out.developer_seconds;
  return out;
}

}  // namespace iflex
