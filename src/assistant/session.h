#ifndef IFLEX_ASSISTANT_SESSION_H_
#define IFLEX_ASSISTANT_SESSION_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "assistant/convergence.h"
#include "assistant/question.h"
#include "assistant/strategy.h"
#include "exec/executor.h"

namespace iflex {

/// Which question-selection scheme a session uses (paper §5.1/Table 5).
enum class StrategyKind : uint8_t { kSequential, kSimulation };

struct SessionOptions {
  StrategyKind strategy = StrategyKind::kSimulation;
  /// Questions posed per develop/execute iteration.
  int questions_per_iteration = 2;
  /// k of the convergence detector (paper: 3).
  int convergence_k = 3;
  /// Probability the developer answers "I do not know".
  double alpha = 0.0;
  /// Ask the developer to mark up one sample value per attribute before
  /// the loop starts, and prune answers the samples rule out (paper
  /// §5.1.1, "more types of feedback").
  bool example_feedback = false;
  /// Subset-evaluation sampling fraction; <= 0 picks automatically from
  /// the data size (paper §5.2: 5-30% depending on size).
  double subset_fraction = 0.0;
  /// Hard cap on subset tuples per table (keeps simulation cost bounded
  /// at full data scale); 0 disables.
  size_t max_subset_docs = 48;
  uint64_t subset_seed = 42;
  int max_iterations = 40;
  /// Options of every Execute the session runs. Each Run() resolves them
  /// on its own copy and never writes them back: a null metrics registry
  /// means obs::DefaultMetrics(), so the session's counters and all its
  /// Executes' land in one registry, and a null verify memo means one
  /// that lives for that Run().
  ExecOptions exec_options;
  /// Convenience alias for exec_options.pool: a non-null pool here is
  /// copied over it at Run() start, parallelizing every execution and
  /// simulation of the session. Results are bit-identical either way.
  runtime::TaskPool* pool = nullptr;
  /// Time bound on the whole refinement loop. Combined with
  /// exec_options.deadline via Deadline::Sooner at Run() start, checked
  /// between iterations, and enforced inside every Execute — an expired
  /// session returns kDeadlineExceeded instead of starting more work.
  resilience::Deadline deadline;
  /// Cooperative cancellation for the whole session; the token must
  /// outlive Run(). Forwarded into exec_options when that has no token of
  /// its own.
  const resilience::CancellationToken* cancel = nullptr;
};

/// One row of the paper's Table 4: the per-iteration trace.
struct IterationRecord {
  int iteration = 0;
  double result_tuples = 0;
  /// Assignments produced by the whole extraction process.
  size_t assignments = 0;
  /// Total possible-value count across the process (convergence signal).
  double process_values = 0;
  /// false: subset-evaluation mode; true: reuse (full-data) mode — the
  /// bold/italic distinction of Table 4.
  bool full_data = false;
  std::vector<Question> questions;
  std::vector<Answer> answers;
  double machine_seconds = 0;
  double developer_seconds = 0;
};

struct SessionResult {
  CompactTable final_result;
  Program final_program;
  std::vector<IterationRecord> iterations;
  size_t questions_asked = 0;
  /// Marked-up examples collected when example feedback is on.
  size_t examples_collected = 0;
  bool converged = false;
  double machine_seconds = 0;
  double developer_seconds = 0;
  size_t simulations_run = 0;
  /// Degradation events accumulated across every execution of the session
  /// (subset evaluations and the final full-data pass). degraded == false
  /// means no fault was trapped anywhere — the result is exact.
  resilience::ExecReport report;
};

/// The develop/execute/refine loop of iFlex (paper §1, §5): execute the
/// current approximate program on a data subset, ask the developer the
/// next-effort questions, fold the answers in as domain constraints, and
/// repeat until the convergence detector fires; then compute the complete
/// result on the full data in reuse mode.
class RefinementSession {
 public:
  RefinementSession(const Catalog& catalog, Program initial_program,
                    DeveloperInterface* developer,
                    SessionOptions options = {});

  /// Runs the full loop. The catalog, developer and corpus must outlive
  /// the call.
  Result<SessionResult> Run();

  /// Picks the effective sampling fraction for `n` input tuples (paper:
  /// 5-30% of the original set, depending on how large it is).
  static double AutoSubsetFraction(size_t n);

 private:
  const Catalog& catalog_;
  Program program_;
  DeveloperInterface* developer_;
  SessionOptions options_;
};

}  // namespace iflex

#endif  // IFLEX_ASSISTANT_SESSION_H_
