// Scaling benchmark for the morsel-driven parallel executor
// (docs/RUNTIME.md, "Morsel scheduler"; methodology in
// docs/PERFORMANCE.md): re-runs two fixed workloads — the largest Table 3
// scenario and a synthetic corpus with heavy document skew — serially and
// at 1/2/4/8 threads, and writes per-thread-count rows to
// BENCH_SCALING.json. Every row records the host's hardware_cores so
// check_regression.py can refuse cross-host speedup comparisons; the
// 8-thread rows author a speedup_floor that the gate enforces only on
// hosts with >= 8 cores (loudly skipped elsewhere). The 1-thread-pool
// run also yields morsel_overhead_x — the price of dispatching morsels
// through a pool over running the same morsels inline without one —
// which is host-independent and gated everywhere. A single run of these
// scenarios takes milliseconds, so the serial and 1-thread timings that
// ratio compares are medians of kRounds alternating runs. Exits nonzero
// if any run's result differs byte-for-byte from the first serial one.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/intern.h"
#include "exec/executor.h"
#include "text/markup_parser.h"

using namespace iflex;
using namespace iflex::bench;

namespace {

// The authored promise for the 8-thread rows: at least this speedup over
// serial whenever the host really has 8+ cores. Deliberately conservative
// (ideal would be ~8x): it catches "parallelism silently broke" without
// flaking on shared CI machines.
constexpr double kSpeedupFloor8t = 2.0;

// Rounds of the two runs morsel_overhead_x compares: each round runs the
// serial reference and then the 1-thread pool, and both timings are
// medians over the rounds, so one slow draw on a shared host moves
// neither. Odd, so a median is one measured run. The 2-, 4- and 8-thread
// runs are timed once each: timing them every round too would double the
// bench's wall_seconds, which the perf gate bounds at twice the committed
// baseline.
constexpr size_t kRounds = 3;

struct RunOutcome {
  double seconds = -1;
  std::string result;  // canonical text of the answer, for identity checks
};

// One executor run; `threads` == 0 means no pool (the morsels run inline:
// the serial identity reference).
RunOutcome RunOnce(const Catalog& catalog, const Corpus& corpus,
                   const Program& prog, size_t threads, size_t morsel_docs) {
  RunOutcome out;
  std::unique_ptr<runtime::TaskPool> pool;
  ExecOptions options;
  if (threads > 0) {
    pool = std::make_unique<runtime::TaskPool>(threads);
    options.pool = pool.get();
  }
  options.morsel_docs = morsel_docs;
  Executor exec(catalog, options);
  Stopwatch watch;
  auto result = exec.Execute(prog);
  out.seconds = watch.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "bench_scaling: run failed: %s\n",
                 result.status().ToString().c_str());
    out.seconds = -1;
    return out;
  }
  out.result = result->ToString(&corpus);
  return out;
}

// Synthetic skew workload: a handful of huge documents among many small
// ones. With coarse static shards the shard drawing the huge documents
// serializes its whole range; morsels keep the other workers fed.
struct SkewedWorkload {
  Corpus corpus;
  std::unique_ptr<Catalog> catalog;
  Program program;

  static std::unique_ptr<SkewedWorkload> Make() {
    auto w = std::make_unique<SkewedWorkload>();
    std::vector<DocId> docs;
    auto add_doc = [&](size_t i, size_t prices) -> bool {
      std::string body;
      for (size_t p = 0; p < prices; ++p) {
        body += "Price: <b>$" + std::to_string(100000 + (i * 131 + p * 7) % 900000) +
                "</b> ";
      }
      auto page = ParseMarkup("page" + std::to_string(i), body);
      if (!page.ok()) return false;
      docs.push_back(w->corpus.Add(std::move(page).value()));
      return true;
    };
    // 4 heavy docs (~200 candidate spans each) in front of 60 light ones:
    // a contiguous-shard split hands all the heavy work to one worker.
    for (size_t i = 0; i < 4; ++i) {
      if (!add_doc(i, 200)) return nullptr;
    }
    for (size_t i = 4; i < 64; ++i) {
      if (!add_doc(i, 2)) return nullptr;
    }
    w->catalog = std::make_unique<Catalog>(&w->corpus);
    CompactTable pages({"x"});
    for (DocId d : docs) {
      CompactTuple t;
      t.cells.push_back(Cell::Exact(Value::Doc(d)));
      pages.Add(t);
    }
    if (!w->catalog->AddTable("pages", std::move(pages)).ok()) return nullptr;
    if (!w->catalog->DeclareIEPredicate("extractPrice", 1, 1).ok()) {
      return nullptr;
    }
    w->catalog->RegisterBuiltinFunctions();
    auto prog = ParseProgram(R"(
      q(x, p) :- pages(x), extractPrice(x, p).
      extractPrice(x, p) :- from(x, p), numeric(p) = yes,
                            bold_font(p) = yes.
    )",
                             *w->catalog);
    if (!prog.ok()) return nullptr;
    w->program = std::move(*prog);
    w->program.set_query("q");
    return w;
  }
};

// Median of `v` (odd size).
double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

// Runs one scenario: kRounds alternating serial and 1-thread runs, then
// one run at each wider thread count. Emits the rows and byte-compares
// every run against the first serial one. Returns false on run failure or
// result divergence.
bool RunScenario(BenchReporter* reporter, const std::string& scenario,
                 const Catalog& catalog, const Corpus& corpus,
                 const Program& prog, size_t morsel_docs) {
  using R = BenchReporter;
  std::string reference;
  // One run at `threads` (0: no pool); its seconds, or -1 on failure.
  auto run = [&](size_t threads) -> double {
    std::fprintf(stderr, "[scaling] %s: %zu threads...\n", scenario.c_str(),
                 threads);
    RunOutcome out = RunOnce(catalog, corpus, prog, threads, morsel_docs);
    if (out.seconds < 0) return -1;
    if (reference.empty()) reference = out.result;
    if (out.result != reference) {
      std::fprintf(stderr,
                   "bench_scaling: %s at %zu threads diverged from the "
                   "serial result (determinism contract violated)\n",
                   scenario.c_str(), threads);
      return -1;
    }
    return out.seconds;
  };
  std::vector<double> serial_runs;
  std::vector<double> one_thread_runs;
  for (size_t round = 0; round < kRounds; ++round) {
    serial_runs.push_back(run(0));
    one_thread_runs.push_back(run(1));
    if (serial_runs.back() < 0 || one_thread_runs.back() < 0) return false;
  }

  const double serial = Median(serial_runs);
  for (size_t threads : {1, 2, 4, 8}) {
    const double parallel =
        threads == 1 ? Median(one_thread_runs) : run(threads);
    if (parallel < 0) return false;
    double speedup = parallel > 0 ? serial / parallel : 0;
    std::printf("%-12s %zut: %.3fs serial, %.3fs parallel (%.2fx)\n",
                scenario.c_str(), threads, serial, parallel, speedup);
    // cfg is a *string* so each thread count forms its own row identity.
    std::vector<R::Field> row = {
        R::S("case", "scaling"), R::S("scenario", scenario),
        R::S("cfg", std::to_string(threads) + "t"),
        R::N("threads", static_cast<double>(threads)),
        R::N("hardware_cores", static_cast<double>(R::hardware_cores())),
        R::N("morsel_docs", static_cast<double>(morsel_docs)),
        R::N("serial_seconds", serial), R::N("parallel_seconds", parallel),
        R::N("speedup", speedup)};
    if (threads == 8) row.push_back(R::N("speedup_floor", kSpeedupFloor8t));
    reporter->Row(std::move(row));
    if (threads == 1) {
      // Pure pool dispatch overhead: both runs carve the same morsels and
      // build one sub-evaluator per morsel, on one thread; only here do
      // the morsels go through the pool. Host-independent (a ratio of two
      // medians in this process), so this row carries no hardware_cores
      // and the gate checks it on every machine.
      double overhead = serial > 0 ? parallel / serial : 0;
      std::printf("%-12s morsel overhead at 1 thread: %.2fx\n",
                  scenario.c_str(), overhead);
      reporter->Row({R::S("case", "morsel_overhead"),
                     R::S("scenario", scenario),
                     R::N("morsel_overhead_x", overhead)});
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReporter reporter("SCALING", argc, argv);
  using R = BenchReporter;

  // ------------------------- largest Table 3 scenario (T7 @ 5000 tuples)
  {
    auto task = MakeTask("T7", 5000);
    if (!task.ok()) {
      std::fprintf(stderr, "bench_scaling: MakeTask failed: %s\n",
                   task.status().ToString().c_str());
      return 1;
    }
    TaskInstance* t = task->get();
    if (t->precise_program.rules().empty()) {
      auto st = AddPreciseBaseline(t);
      if (!st.ok()) {
        std::fprintf(stderr, "bench_scaling: no precise program: %s\n",
                     st.ToString().c_str());
        return 1;
      }
    }
    if (!RunScenario(&reporter, "T7@5000", *t->catalog, *t->corpus,
                     t->precise_program, /*morsel_docs=*/64)) {
      return 1;
    }
  }

  // ------------------------------------------- synthetic document skew
  {
    auto skew = SkewedWorkload::Make();
    if (skew == nullptr) {
      std::fprintf(stderr, "bench_scaling: skewed corpus setup failed\n");
      return 1;
    }
    // morsel_docs = 1: one document per morsel, so the four heavy
    // documents are four independent work units instead of one shard.
    if (!RunScenario(&reporter, "skewed", *skew->catalog, skew->corpus,
                     skew->program, /*morsel_docs=*/1)) {
      return 1;
    }
  }

  // ------------------- interner contention (alignas pads on the atomics)
  {
    constexpr size_t kOps = 200000;
    constexpr size_t kThreads = 8;
    StringInterner interner;
    runtime::TaskPool pool(kThreads);
    Stopwatch watch;
    // 8 workers interning overlapping word sets: every op bumps the
    // hit-or-miss atomics, so this is the false-sharing hot spot the
    // cache-line padding in common/intern.h exists for.
    runtime::ParallelFor(&pool, kOps, [&](size_t i) {
      static const char* kStems[] = {"alpha", "bravo", "china", "delta",
                                     "echo",  "fox",   "golf",  "hotel"};
      interner.Intern(std::string(kStems[i % 8]) + std::to_string(i % 1499));
    });
    double seconds = watch.ElapsedSeconds();
    double mops = seconds > 0 ? kOps / seconds / 1e6 : 0;
    std::printf("intern contention: %zu ops on %zu threads, %.2f Mops/s\n",
                kOps, kThreads, mops);
    // Throughput moves with the host, so it rides the ungated _rate
    // suffix; ops is the only deterministic field.
    reporter.Row({R::S("case", "intern_contention"), R::N("ops", kOps),
                  R::N("threads", static_cast<double>(kThreads)),
                  R::N("mops_rate", mops)});
  }

  return 0;
}
