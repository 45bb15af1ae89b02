#ifndef IFLEX_SERVE_COMMAND_INTERPRETER_H_
#define IFLEX_SERVE_COMMAND_INTERPRETER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "alog/catalog.h"
#include "alog/program.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "resilience/deadline.h"
#include "resilience/report.h"
#include "text/corpus.h"

namespace iflex {

namespace runtime {
class TaskPool;
}  // namespace runtime

namespace obs {
class CostModel;
class Tracer;
}  // namespace obs

namespace serve {

/// Knobs shared by every surface that embeds an interpreter (the
/// interactive shell, iflexd server sessions, the serving bench's batch
/// reference runs).
struct InterpreterOptions {
  /// Execution pool for `run`; null runs the same work inline. Several
  /// interpreters may share one pool — results are identical either way.
  runtime::TaskPool* pool = nullptr;
  /// Default time bound on each `run`/`sleep`; 0 = unbounded. A
  /// per-command deadline passed to Interpret() overrides it.
  int64_t default_deadline_ms = 0;
  /// Metric sink for executions and the `telemetry` command; null means
  /// the process-wide obs::DefaultMetrics() (the shell's behaviour).
  /// iflexd gives every session a private registry here so concurrent
  /// sessions' expositions never interleave.
  obs::MetricRegistry* metrics = nullptr;
  /// Attribution profiler armed/read by `explain` and charged by `run`;
  /// null means the process-wide obs::DefaultCostModel() (the shell's
  /// behaviour). iflexd gives every session its own model so one
  /// session's `explain` never flips profiling on, or mixes charges
  /// into, another session.
  obs::CostModel* cost_model = nullptr;
  /// Span sink armed/read by `trace` and recorded by `run`; null means
  /// the process-wide obs::DefaultTracer(). Per-session in iflexd for
  /// the same isolation reason.
  obs::Tracer* tracer = nullptr;
  /// Shared labels stamped on the `telemetry` exposition (the server
  /// adds session/run_id; `threads` is always derived from the pool).
  std::map<std::string, std::string> telemetry_labels = {
      {"scenario", "iflex_shell"}};
  /// Graceful degradation for `run` (docs/ROBUSTNESS.md): faults degrade
  /// the result and fill last_report() instead of aborting. iflexd turns
  /// this on so a degraded response can carry the flight recorder.
  bool best_effort = false;
};

/// Outcome of one interpreted command.
struct CommandOutcome {
  Status status;       // non-OK: the command failed (output may be partial)
  std::string output;  // text the surface shows or ships to the client
  bool quit = false;   // the command asked the surface to exit
  /// `run` only: the execution degraded (best-effort drops) — iflexd
  /// attaches the flight-recorder tail to the response in that case, and
  /// also when a run ends in deadline/cancel (the executor dumps the
  /// recorder for stopped runs too).
  bool degraded = false;
  std::vector<std::string> flight_recorder;
};

/// The develop/execute/refine command core shared by examples/iflex_shell
/// and iflexd (one interpreter per server session). Owns the corpus,
/// catalog, and program text of one refinement session. Not thread-safe:
/// callers serialize Interpret() per interpreter (iflexd holds the
/// session mutex; the shell is single-threaded).
class CommandInterpreter {
 public:
  explicit CommandInterpreter(InterpreterOptions options = {});

  /// Dispatches one command line (see HelpText() for the grammar).
  /// `deadline` bounds this command; Deadline::Never() falls back to
  /// options.default_deadline_ms.
  CommandOutcome Interpret(const std::string& line,
                           const resilience::Deadline& deadline);
  CommandOutcome Interpret(const std::string& line) {
    return Interpret(line, resilience::Deadline::Never());
  }

  /// The command grammar, shared verbatim by the shell's `help` and
  /// docs/SERVING.md.
  static std::string HelpText();

  /// Degradation report of the last `run` (best-effort mode): degraded
  /// flag, drops, and the flight-recorder tail. Cleared by each run.
  const resilience::ExecReport& last_report() const { return last_report_; }

  /// Rendered attribution table of the last `run`, when the cost model
  /// was enabled ("explain" arms it). Empty otherwise.
  const std::string& last_explain() const { return last_report_.explain; }

  /// The registry `run` charges and `telemetry` renders (the injected one
  /// or obs::DefaultMetrics()).
  obs::MetricRegistry& metrics() const;

  /// The profiler `explain` arms/reads (the injected one or
  /// obs::DefaultCostModel()).
  obs::CostModel& cost_model() const;

  /// The span sink `trace` arms/reads (the injected one or
  /// obs::DefaultTracer()).
  obs::Tracer& tracer() const;

  /// Renders metrics() as an OpenMetrics exposition with the configured
  /// shared labels (what `telemetry` prints when given no file).
  std::string TelemetryText() const;

  const Corpus& corpus() const { return corpus_; }
  const Catalog& catalog() const { return catalog_; }
  const std::string& program_src() const { return program_src_; }

 private:
  CommandOutcome Dispatch(const std::string& line,
                          const resilience::Deadline& deadline);
  Status Gen(std::istringstream& in, std::string* out);
  Status Load(std::istringstream& in, std::string* out);
  Status Declare(std::istringstream& in);
  Status Tables(std::string* out);
  Status Constrain(std::istringstream& in, std::string* out);
  Status Execute(const resilience::Deadline& deadline, std::string* out);
  Status Explain(std::string* out);
  Status Telemetry(std::istringstream& in, std::string* out);
  Status Sleep(std::istringstream& in, const resilience::Deadline& deadline);
  Result<Program> CurrentProgram();
  resilience::Deadline EffectiveDeadline(
      const resilience::Deadline& request) const;

  InterpreterOptions options_;
  Corpus corpus_;
  Catalog catalog_;
  std::string program_src_;
  std::string query_;
  resilience::ExecReport last_report_;
};

}  // namespace serve
}  // namespace iflex

#endif  // IFLEX_SERVE_COMMAND_INTERPRETER_H_
