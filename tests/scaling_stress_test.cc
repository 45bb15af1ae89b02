// Contention stress for the session-shared caches (docs/RUNTIME.md):
// 8 OS threads call VerifyMemo, ReuseCache and the ReuseCache's
// PreparedCellStore directly, the way morsels and concurrent simulation
// executors do, and two threads run Executes that publish into one
// metric registry. Runs under the `scaling` ctest label and the
// tsan-scaling preset — the invariants checked here (one entry per key,
// first insert wins, exact lookup accounting, stable table and entry
// pointers, per-Execute stats) must hold under every interleaving, and
// TSan must see no races.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "alog/catalog.h"
#include "alog/program.h"
#include "ctable/compact_table.h"
#include "exec/cell_store.h"
#include "exec/executor.h"
#include "exec/verify_memo.h"
#include "obs/metrics.h"
#include "text/markup_parser.h"

namespace iflex {
namespace {

constexpr size_t kThreads = 8;

VerifyMemo::Key MakeKey(size_t i) {
  VerifyMemo::Key k{};
  k.feature = static_cast<ValueId>(i % 97);
  k.target_kind = 1;
  k.text = static_cast<ValueId>(i);
  return k;
}

// The pure "verdict function" every thread agrees on: inserts for the
// same key always carry the same verdict, like real Verify results over
// a frozen corpus.
int8_t VerdictOf(size_t i) {
  return static_cast<int8_t>(static_cast<int>(i % 3) - 1);
}

// Holds each thread until all `threads` have started, so their cache
// writes overlap instead of running one thread after another.
void StartTogether(std::atomic<size_t>* ready, size_t threads = kThreads) {
  ready->fetch_add(1);
  while (ready->load() < threads) std::this_thread::yield();
}

// 8 threads look up every key (each from its own starting offset, so
// threads collide on keys all the time) and insert the verdict on a
// miss, as a constraint check does. Afterwards the memo holds each key
// exactly once with the agreed verdict, and hits + misses equals the
// lookups made: no lookup is lost or double-counted.
TEST(ScalingStressTest, VerifyMemoUnderContention) {
  constexpr size_t kKeys = 4096;
  constexpr size_t kRounds = 4;

  VerifyMemo memo;
  std::atomic<uint64_t> total_lookups{0};
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      StartTogether(&ready);
      uint64_t lookups = 0;
      for (size_t i = 0; i < kRounds * kKeys; ++i) {
        // 7 is coprime with kKeys: every round visits every key once.
        const size_t key = (t * (kKeys / kThreads) + i * 7) % kKeys;
        std::optional<int8_t> verdict = memo.Lookup(MakeKey(key));
        ++lookups;
        if (verdict.has_value()) {
          EXPECT_EQ(*verdict, VerdictOf(key)) << "key " << key;
        } else {
          memo.Insert(MakeKey(key), VerdictOf(key));
        }
      }
      total_lookups.fetch_add(lookups, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(memo.hits() + memo.misses(), total_lookups.load());
  // Every key missed at least once overall, and at most once per thread:
  // a thread that missed a key inserted it before its next lookup.
  EXPECT_GE(memo.misses(), kKeys);
  EXPECT_LE(memo.misses(), kKeys * kThreads);
  EXPECT_EQ(memo.size(), kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    std::optional<int8_t> v = memo.Lookup(MakeKey(i));
    ASSERT_TRUE(v.has_value()) << "key " << i;
    EXPECT_EQ(*v, VerdictOf(i)) << "key " << i;
  }
}

SharedTable TableFor(uint64_t fp) {
  CompactTable t({"v"});
  CompactTuple tup;
  tup.cells.push_back(Cell::Exact(Value::Number(static_cast<double>(fp))));
  t.Add(std::move(tup));
  return std::make_shared<const CompactTable>(std::move(t));
}

// The fingerprint a cached table was built for, read back from its cell.
double FingerprintOf(const CompactTable& t) {
  const Value& v = t.tuples().at(0).cells.at(0).assignments.at(0).value;
  return v.AsNumber().value_or(-1);
}

// 8 threads play concurrent simulation executors over one ReuseCache:
// look a fingerprint up, build and insert its table on a miss, and keep
// every shared table Lookup returned. While other threads keep inserting,
// each thread re-reads all the tables it holds. Afterwards every
// fingerprint is stored once, and every table any thread got for it is
// the stored one (a duplicate insert keeps the first).
TEST(ScalingStressTest, ReuseCacheUnderContention) {
  constexpr size_t kFingerprints = 2048;
  constexpr size_t kRounds = 4;

  ReuseCache cache;
  std::vector<std::vector<SharedTable>> held(
      kThreads, std::vector<SharedTable>(kFingerprints));
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      StartTogether(&ready);
      std::vector<SharedTable>& mine = held[t];
      for (size_t r = 0; r < kRounds; ++r) {
        for (size_t i = 0; i < kFingerprints; ++i) {
          const uint64_t fp = (t * 31 + r * 17 + i) % kFingerprints;
          SharedTable hit = cache.Lookup(fp).table;
          if (hit == nullptr) {
            cache.Insert(fp, {TableFor(fp)});
            hit = cache.Lookup(fp).table;
            ASSERT_NE(hit, nullptr) << "fingerprint " << fp;
          }
          if (mine[fp] == nullptr) mine[fp] = hit;
          EXPECT_EQ(hit.get(), mine[fp].get()) << "fingerprint " << fp;
        }
        for (uint64_t fp = 0; fp < kFingerprints; ++fp) {
          if (mine[fp] == nullptr) continue;
          EXPECT_EQ(FingerprintOf(*mine[fp]), static_cast<double>(fp));
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(cache.size(), kFingerprints);
  for (uint64_t fp = 0; fp < kFingerprints; ++fp) {
    SharedTable t = cache.Lookup(fp).table;
    ASSERT_NE(t, nullptr) << "fingerprint " << fp;
    EXPECT_EQ(FingerprintOf(*t), static_cast<double>(fp));
    for (size_t th = 0; th < kThreads; ++th) {
      EXPECT_EQ(held[th][fp].get(), t.get())
          << "thread " << th << ", fingerprint " << fp;
    }
  }
}

// 8 threads, started together, prepare the same cells through one store:
// every contain region of up to 6 tokens of a 40-token document, and
// exact values, as similarity and comparison forms. Each thread walks the
// cells from its own offset, so threads race to prepare every key. All
// must receive the same entry for a cell, and an entry a thread holds
// must read the same while the other threads insert.
TEST(ScalingStressTest, PreparedCellStoreUnderContention) {
  constexpr size_t kRounds = 3;
  Corpus corpus;
  std::string text;
  for (int i = 0; i < 40; ++i) {
    text += (i % 3 == 0 ? std::to_string(i * 7) : "w" + std::to_string(i));
    text += " ";
  }
  auto doc = ParseMarkup("d", text);
  ASSERT_TRUE(doc.ok());
  const DocId d = corpus.Add(std::move(doc).value());
  const std::vector<Token>& tokens = corpus.Get(d).tokens();
  std::vector<Cell> cells;
  for (size_t i = 0; i < tokens.size(); ++i) {
    for (size_t j = i; j < std::min(tokens.size(), i + 6); ++j) {
      cells.push_back(Cell::Expansion(
          {Assignment::Contain(Span(d, tokens[i].begin, tokens[j].end))}));
    }
    cells.push_back(Cell::Exact(Value::String("v" + std::to_string(i))));
    cells.push_back(Cell::Exact(Value::Number(static_cast<double>(i))));
  }
  const size_t n = cells.size();
  const CellOpLimits limits;

  PreparedCellStore store;
  std::vector<std::vector<const PreparedSimCell*>> sims(
      kThreads, std::vector<const PreparedSimCell*>(n, nullptr));
  std::vector<std::vector<const PreparedCmpCell*>> cmps(
      kThreads, std::vector<const PreparedCmpCell*>(n, nullptr));
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      StartTogether(&ready);
      for (size_t r = 0; r < kRounds; ++r) {
        for (size_t k = 0; k < n; ++k) {
          const size_t i = (t * 37 + r * 11 + k) % n;
          bool hit = false;
          const PreparedSimCell& sim = store.Sim(corpus, cells[i], limits, &hit);
          const PreparedCmpCell& cmp =
              store.Cmp(corpus, cells[i], CmpOp::kEq, limits, 0, &hit);
          if (sims[t][i] == nullptr) sims[t][i] = &sim;
          if (cmps[t][i] == nullptr) cmps[t][i] = &cmp;
          EXPECT_EQ(&sim, sims[t][i]) << "cell " << i;
          EXPECT_EQ(&cmp, cmps[t][i]) << "cell " << i;
        }
        // Every entry held so far still reads as its cell's form.
        for (size_t i = 0; i < n; ++i) {
          if (sims[t][i] == nullptr) continue;
          const size_t values = cells[i].ValueCount(corpus);
          EXPECT_EQ(sims[t][i]->values, values);
          ASSERT_GT(sims[t][i]->token_set_count(), 0u);
          EXPECT_EQ(sims[t][i]->set_offsets.back(),
                    sims[t][i]->set_ids.size());
          EXPECT_EQ(cmps[t][i]->values, values);
          EXPECT_EQ(cmps[t][i]->sorted_numbers.size(),
                    cmps[t][i]->numbers + cmps[t][i]->numeric_texts);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(store.size(), 2 * n);
  for (size_t i = 0; i < n; ++i) {
    bool hit = false;
    const PreparedSimCell* sim = &store.Sim(corpus, cells[i], limits, &hit);
    EXPECT_TRUE(hit);
    const PreparedCmpCell* cmp =
        &store.Cmp(corpus, cells[i], CmpOp::kEq, limits, 0, &hit);
    EXPECT_TRUE(hit);
    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(sims[t][i], sim) << "thread " << t << ", cell " << i;
      EXPECT_EQ(cmps[t][i], cmp) << "thread " << t << ", cell " << i;
    }
  }
}

// Two threads, started together, each Execute their own program a few
// hundred times, every Execute publishing into one shared registry (the
// set-up ExecOptions::metrics invites). Each Execute's stats() must still
// describe that Execute alone — the process size of a solo run of its
// program — and the registry must hold exactly the sum of what the
// Executes reported.
TEST(ScalingStressTest, ExecutesSharingARegistryReadTheirOwnStats) {
  constexpr size_t kRuns = 300;
  Corpus corpus;
  Catalog catalog(&corpus);
  CompactTable pages({"x"});
  for (const char* text : {"Price: <b>$250,000</b> Sqft: 2000",
                           "Price: <b>$619,000</b> Sqft: 4700"}) {
    auto doc = ParseMarkup("page", text);
    ASSERT_TRUE(doc.ok());
    CompactTuple t;
    t.cells.push_back(
        Cell::Exact(Value::Doc(corpus.Add(std::move(doc).value()))));
    pages.Add(std::move(t));
  }
  ASSERT_TRUE(catalog.AddTable("pages", std::move(pages)).ok());
  catalog.RegisterBuiltinFunctions();

  std::vector<Program> programs;
  std::vector<size_t> solo;  // each program's process size, run alone
  for (const char* src :
       {"q(x, y) :- pages(x), from(x, y).", "q(x) :- pages(x)."}) {
    auto prog = ParseProgram(src, catalog);
    ASSERT_TRUE(prog.ok()) << prog.status();
    prog->set_query("q");
    Executor exec(catalog);
    ASSERT_TRUE(exec.Execute(*prog).ok());
    solo.push_back(exec.stats().process_assignments);
    programs.push_back(std::move(prog).value());
  }
  ASSERT_NE(solo[0], solo[1]);  // else a mix-up would go unseen

  obs::MetricRegistry registry;
  std::vector<size_t> wrong(programs.size(), 0);
  std::vector<uint64_t> rules(programs.size(), 0);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < programs.size(); ++t) {
    threads.emplace_back([&, t] {
      StartTogether(&ready, programs.size());
      ExecOptions options;
      options.metrics = &registry;
      Executor exec(catalog, options);
      for (size_t i = 0; i < kRuns; ++i) {
        const bool ok = exec.Execute(programs[t]).ok();
        if (!ok || exec.stats().process_assignments != solo[t]) ++wrong[t];
        rules[t] += exec.stats().rules_evaluated;
      }
    });
  }
  for (auto& th : threads) th.join();

  for (size_t t = 0; t < programs.size(); ++t) {
    EXPECT_EQ(wrong[t], 0u) << "program " << t;
  }
  EXPECT_EQ(registry.counter("exec.rules_evaluated")->value(),
            rules[0] + rules[1]);
}

}  // namespace
}  // namespace iflex
