// Hot-path micro-benchmarks (docs/PERFORMANCE.md): string interning,
// cached token similarity, the JoinAtom tri-state equi-join scan, the
// Verify memo, and the compiled operator core (rule lowering cost plus
// fused verify chain throughput). Writes BENCH_MICRO.json;
// bench/check_regression.py diffs it against the committed baseline.
// Every workload is seeded/synthetic, so the op counts are exactly
// reproducible — only the timings move.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/intern.h"
#include "exec/compile.h"
#include "exec/executor.h"
#include "exec/verify_memo.h"
#include "text/markup_parser.h"

using namespace iflex;
using namespace iflex::bench;

namespace {

// Deterministic pseudo-words: enough collisions to exercise the intern
// hit path, enough spread to grow the arena.
std::string Word(size_t i) {
  static const char* kStems[] = {"alpha", "bravo", "china",  "delta",
                                 "echo",  "fox",   "golf",   "hotel",
                                 "india", "julia", "kilo",   "lima"};
  return std::string(kStems[i % 12]) + std::to_string(i % 997);
}

std::string Phrase(size_t i, size_t words) {
  std::string s;
  for (size_t w = 0; w < words; ++w) {
    if (!s.empty()) s += ' ';
    s += Word(i * 7 + w * 13);
  }
  return s;
}

// Catalog with r(a,b) |><| s(b,c) on exact numeric keys, sized so the
// join dominates: the scan pays the full |r| x |s| tri-state
// comparisons.
std::unique_ptr<Catalog> JoinCatalog(Corpus* corpus, size_t r_rows,
                                     size_t s_rows) {
  auto catalog = std::make_unique<Catalog>(corpus);
  auto num = [](double n) { return Cell::Exact(Value::Number(n)); };
  CompactTable r({"a", "b"});
  for (size_t i = 0; i < r_rows; ++i) {
    CompactTuple t;
    t.cells.push_back(num(static_cast<double>(i)));
    t.cells.push_back(num(static_cast<double>(i % s_rows)));
    r.Add(std::move(t));
  }
  CompactTable s({"b", "c"});
  for (size_t i = 0; i < s_rows; ++i) {
    CompactTuple t;
    t.cells.push_back(num(static_cast<double>(i)));
    t.cells.push_back(num(static_cast<double>(i * 100)));
    s.Add(std::move(t));
  }
  if (!catalog->AddTable("r", std::move(r)).ok()) return nullptr;
  if (!catalog->AddTable("s", std::move(s)).ok()) return nullptr;
  catalog->RegisterBuiltinFunctions();
  return catalog;
}

double JoinSeconds(const Catalog& catalog, const Program& prog,
                   size_t* join_pairs) {
  Executor exec(catalog);
  Stopwatch watch;
  auto result = exec.Execute(prog);
  double seconds = watch.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "join bench: %s\n",
                 result.status().ToString().c_str());
    return -1;
  }
  *join_pairs = exec.stats().join_pairs;
  return seconds;
}

// Markup corpus where every token is a bold number, plus a cands(p)
// table holding one exact token span per row: the driving rule's body is
// a verify chain (bold_font, numeric) followed by two comparisons — the
// exact literal sequence rule compilation fuses into a constraint chain
// and a columnar filter block. Every row survives every literal, so each
// tuple takes the whole chain and the whole block.
std::unique_ptr<Catalog> VerifyCatalog(Corpus* corpus, size_t docs,
                                       size_t tokens_per_doc, size_t* rows) {
  std::vector<DocId> ids;
  for (size_t d = 0; d < docs; ++d) {
    std::string markup;
    for (size_t t = 0; t < tokens_per_doc; ++t) {
      if (!markup.empty()) markup += ' ';
      markup +=
          "<b>" + std::to_string(101 + (d * tokens_per_doc + t) % 899779) +
          "</b>";
    }
    auto doc = ParseMarkup("verify/" + std::to_string(d), markup);
    if (!doc.ok()) return nullptr;
    ids.push_back(corpus->Add(std::move(doc).value()));
  }
  auto catalog = std::make_unique<Catalog>(corpus);
  CompactTable cands({"p"});
  for (DocId id : ids) {
    const Document& doc = corpus->Get(id);
    for (const Token& tok : doc.tokens()) {
      CompactTuple t;
      t.cells.push_back(
          Cell::Exact(Value::OfSpan(*corpus, Span(id, tok.begin, tok.end))));
      cands.Add(std::move(t));
    }
  }
  *rows = cands.size();
  if (!catalog->AddTable("cands", std::move(cands)).ok()) return nullptr;
  catalog->RegisterBuiltinFunctions();
  return catalog;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReporter reporter("MICRO", argc, argv);
  using R = BenchReporter;

  // ------------------------------------------------ interner throughput
  {
    constexpr size_t kOps = 400000;
    StringInterner interner;
    Stopwatch watch;
    for (size_t i = 0; i < kOps; ++i) interner.Intern(Word(i));
    double seconds = watch.ElapsedSeconds();
    std::printf("intern            %8zu ops  %6.1f ns/op  (%zu distinct)\n",
                kOps, 1e9 * seconds / kOps, interner.size());
    reporter.Row({R::S("case", "intern"), R::N("ops", kOps),
                  R::N("seconds", seconds),
                  R::N("ns_per_op", 1e9 * seconds / kOps),
                  R::N("distinct", static_cast<double>(interner.size()))});
  }

  // ------------------------------- similarity: legacy vs interned tokens
  {
    constexpr size_t kPairs = 40000;
    std::vector<std::string> lhs, rhs;
    for (size_t i = 0; i < kPairs; ++i) {
      lhs.push_back(Phrase(i, 6));
      rhs.push_back(Phrase(i / 3, 6));  // 1-in-3 near-duplicates
    }
    double legacy_sum = 0, fast_sum = 0;
    Stopwatch legacy_watch;
    for (size_t i = 0; i < kPairs; ++i)
      legacy_sum += TokenJaccard(lhs[i], rhs[i]);
    double legacy_seconds = legacy_watch.ElapsedSeconds();

    StringInterner interner;
    TokenCache cache(&interner);
    Stopwatch fast_watch;
    for (size_t i = 0; i < kPairs; ++i)
      fast_sum += TokenIdJaccard(cache.TokensOf(lhs[i]), cache.TokensOf(rhs[i]));
    double fast_seconds = fast_watch.ElapsedSeconds();
    if (legacy_sum != fast_sum) {
      std::fprintf(stderr, "similarity mismatch: %f vs %f\n", legacy_sum,
                   fast_sum);
      return 1;
    }
    std::printf("similar legacy    %8zu ops  %6.1f ns/op\n", kPairs,
                1e9 * legacy_seconds / kPairs);
    std::printf("similar interned  %8zu ops  %6.1f ns/op  (%.1fx)\n", kPairs,
                1e9 * fast_seconds / kPairs, legacy_seconds / fast_seconds);
    reporter.Row({R::S("case", "similar_legacy"), R::N("ops", kPairs),
                  R::N("seconds", legacy_seconds),
                  R::N("ns_per_op", 1e9 * legacy_seconds / kPairs)});
    reporter.Row({R::S("case", "similar_interned"), R::N("ops", kPairs),
                  R::N("seconds", fast_seconds),
                  R::N("ns_per_op", 1e9 * fast_seconds / kPairs),
                  R::N("speedup", legacy_seconds / fast_seconds)});
  }

  // ------------------------------------------- join: tri-state scan
  {
    Corpus corpus;
    auto catalog = JoinCatalog(&corpus, 2000, 1000);
    if (catalog == nullptr) return 1;
    auto prog = ParseProgram("q(a, c) :- r(a, b), s(b, c).", *catalog);
    if (!prog.ok()) return 1;
    prog->set_query("q");
    size_t pairs = 0;
    double seconds = JoinSeconds(*catalog, *prog, &pairs);
    if (seconds < 0) return 1;
    std::printf("join scan         %8zu pairs %6.3f s\n", pairs, seconds);
    reporter.Row({R::S("case", "join_scan"),
                  R::N("join_pairs", static_cast<double>(pairs)),
                  R::N("seconds", seconds)});
  }

  // ------------------- rule compilation + fused verify chain throughput
  {
    Corpus corpus;
    size_t rows = 0;
    auto catalog = VerifyCatalog(&corpus, 200, 200, &rows);
    if (catalog == nullptr) return 1;
    auto prog = ParseProgram(
        "q(p) :- cands(p), bold_font(p) = yes, numeric(p) = yes, "
        "p > 100, p < 1000000000, p != 0, p >= 101.",
        *catalog);
    if (!prog.ok()) return 1;
    prog->set_query("q");

    // Lowering cost: how long CompileRule takes to turn the program into
    // plans. rules/plans are deterministic; compile_ms is gated with
    // generous slack (it is microseconds of work, so one scheduler blip
    // moves it a lot).
    constexpr size_t kCompileIters = 1000;
    size_t plans = 0;
    Stopwatch compile_watch;
    for (size_t i = 0; i < kCompileIters; ++i) {
      plans = 0;
      for (const Rule& rule : prog->rules()) {
        if (CompileRule(*catalog, rule).ok()) ++plans;
      }
    }
    double compile_ms = 1e3 * compile_watch.ElapsedSeconds() / kCompileIters;
    std::printf("rule compile      %8zu rules %6.1f us/program  (%zu plans)\n",
                prog->rules().size(), 1e3 * compile_ms, plans);
    reporter.Row({R::S("case", "rule_compile"),
                  R::N("rules", static_cast<double>(prog->rules().size())),
                  R::N("plans", static_cast<double>(plans)),
                  R::N("compile_ms", compile_ms)});

    // Fused pass, single thread, best of three. Every rep must produce
    // the same bytes, and each of the 2 constraints must be applied to
    // every tuple exactly once — the bench exits nonzero otherwise.
    std::string bytes;
    size_t cells = 0;
    double seconds = -1;
    for (int rep = 0; rep < 3; ++rep) {
      Executor exec(*catalog);
      Stopwatch watch;
      auto result = exec.Execute(*prog);
      double elapsed = watch.ElapsedSeconds();
      if (!result.ok()) {
        std::fprintf(stderr, "fused verify bench: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      std::string got = result->ToString(&corpus);
      if (bytes.empty()) {
        bytes = std::move(got);
      } else if (got != bytes) {
        std::fprintf(stderr, "fused verify bench: bytes diverged\n");
        return 1;
      }
      cells = exec.stats().constraint_cells;
      if (seconds < 0 || elapsed < seconds) seconds = elapsed;
    }
    if (cells != 2 * rows) {
      std::fprintf(stderr,
                   "fused verify bench: %zu constraint cells, expected %zu\n",
                   cells, 2 * rows);
      return 1;
    }
    std::printf("verify fused      %8zu cells %6.3f s\n", cells, seconds);
    // cells_per_second is the lower-is-regression throughput gate.
    reporter.Row({R::S("case", "fused_verify"),
                  R::N("tuples", static_cast<double>(rows)),
                  R::N("constraint_cells", static_cast<double>(cells)),
                  R::N("seconds", seconds), R::N("threads", 1),
                  R::N("hardware_cores",
                       static_cast<double>(R::hardware_cores())),
                  R::N("cells_per_second", cells / seconds)});
  }

  // ------------------------------------------------- verify memo lookups
  {
    constexpr size_t kOps = 1000000;
    VerifyMemo memo;
    VerifyMemo::Key k{};
    k.target_kind = 1;
    Stopwatch watch;
    for (size_t i = 0; i < kOps; ++i) {
      k.feature = static_cast<ValueId>(i % 64);
      k.text = static_cast<ValueId>(i % 4096);
      if (!memo.Lookup(k).has_value()) memo.Insert(k, 1);
    }
    double seconds = watch.ElapsedSeconds();
    std::printf("verify memo       %8zu ops  %6.1f ns/op  (%zu entries, "
                "%zu hits)\n",
                kOps, 1e9 * seconds / kOps, memo.size(), memo.hits());
    reporter.Row({R::S("case", "verify_memo"), R::N("ops", kOps),
                  R::N("seconds", seconds),
                  R::N("ns_per_op", 1e9 * seconds / kOps),
                  R::N("entries", static_cast<double>(memo.size())),
                  R::N("hits", static_cast<double>(memo.hits()))});
  }

  return 0;
}
