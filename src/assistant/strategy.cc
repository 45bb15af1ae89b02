#include "assistant/strategy.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>

#include "obs/cost_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/task_pool.h"

namespace iflex {

Status ApplyAnswer(Program* program, const Catalog& catalog,
                   const Question& question, const Answer& answer) {
  if (!answer.known) return Status::OK();
  return program->AddConstraint(catalog, question.attr.ie_predicate,
                                question.attr.output_idx, question.feature,
                                answer.param, answer.value);
}

// ----------------------------------------------------------------- probing

std::vector<Value> ProbeAttributeValues(const StrategyContext& ctx,
                                        const AttributeRef& attr,
                                        size_t max_values) {
  obs::TraceSpan span(obs::TracerOrDefault(ctx.exec_options.tracer),
                      "strategy.probe", attr.ie_predicate);
  // Find a non-description rule whose body uses the IE predicate, and
  // re-head it to expose the attribute's variable.
  const Program& program = *ctx.program;
  for (const Rule& rule : program.rules()) {
    if (rule.is_description) continue;
    for (const Literal& lit : rule.body) {
      if (lit.kind != Literal::Kind::kAtom) continue;
      if (lit.atom.predicate != attr.ie_predicate) continue;
      auto n_inputs = ctx.subset_catalog->InputArityOf(attr.ie_predicate);
      if (!n_inputs.ok()) return {};
      size_t pos = *n_inputs + attr.output_idx;
      if (pos >= lit.atom.args.size() || !lit.atom.args[pos].is_var()) {
        continue;
      }
      Program probe = program;
      Rule probe_rule = rule;
      probe_rule.head.predicate = "_probe_attr";
      probe_rule.head.args = {lit.atom.args[pos].var};
      probe_rule.head.annotated = {false};
      probe_rule.head.existence = false;
      probe.AddRule(std::move(probe_rule));
      probe.set_query("_probe_attr");
      if (!probe.Validate(*ctx.subset_catalog).ok()) return {};

      Executor exec(*ctx.subset_catalog, ctx.exec_options);
      Result<CompactTable> result = exec.Execute(probe, ctx.subset_cache);
      if (!result.ok()) return {};
      const Corpus& corpus = ctx.subset_catalog->corpus();
      std::vector<Value> values;
      for (const CompactTuple& t : result->tuples()) {
        if (t.cells.empty()) continue;
        // Sample value-shaped candidates: exact assignments as-is, and
        // for contain regions the individual tokens (where numbers and
        // labelled fields live) — a prefix of all sub-spans would be a
        // terrible sample.
        size_t per_cell = 0;
        for (const Assignment& a : t.cells[0].assignments) {
          if (per_cell >= 50 || values.size() >= max_values) break;
          if (a.is_exact()) {
            values.push_back(a.value);
            ++per_cell;
            continue;
          }
          const Document& doc = corpus.Get(a.span.doc);
          size_t first = doc.FirstTokenAtOrAfter(a.span.begin);
          size_t last = doc.TokensEndingBy(a.span.end);
          for (size_t i = first; i < last && per_cell < 50 &&
                                 values.size() < max_values;
               ++i, ++per_cell) {
            values.push_back(Value::OfSpan(
                corpus, Span(a.span.doc, doc.tokens()[i].begin,
                             doc.tokens()[i].end)));
          }
        }
        if (values.size() >= max_values) break;
      }
      return values;
    }
  }
  return {};
}

// ------------------------------------------------------ candidate answers

namespace {

double Quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  if (xs.empty()) return 0;
  double idx = q * static_cast<double>(xs.size() - 1);
  size_t lo = static_cast<size_t>(idx);
  size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = idx - static_cast<double>(lo);
  return xs[lo] * (1 - frac) + xs[hi] * frac;
}

void AddNumParam(std::vector<Answer>* out, double v) {
  for (const Answer& a : *out) {
    if (a.param.num.has_value() && *a.param.num == v) return;
  }
  out->push_back(Answer::WithParam(FeatureParam::Num(v)));
}

void AddStrParam(std::vector<Answer>* out, const std::string& s) {
  if (s.empty()) return;
  for (const Answer& a : *out) {
    if (a.param.str.has_value() && *a.param.str == s) return;
  }
  out->push_back(Answer::WithParam(FeatureParam::Str(s)));
}

// The whitespace-delimited chunk immediately before/after a span on the
// same line ("Price:" before "$35.99").
std::string NeighbourChunk(const Corpus& corpus, const Span& span,
                           bool before) {
  const Document& doc = corpus.Get(span.doc);
  const std::string& text = doc.text();
  if (before) {
    size_t p = span.begin;
    while (p > 0 && (text[p - 1] == ' ' || text[p - 1] == '\t')) --p;
    size_t e = p;
    while (p > 0 && !std::isspace(static_cast<unsigned char>(text[p - 1]))) {
      --p;
    }
    return text.substr(p, e - p);
  }
  size_t p = span.end;
  while (p < text.size() && (text[p] == ' ' || text[p] == '\t')) ++p;
  size_t b = p;
  while (p < text.size() &&
         !std::isspace(static_cast<unsigned char>(text[p]))) {
    ++p;
  }
  return text.substr(b, p - b);
}

std::vector<std::string> TopFrequent(const std::map<std::string, int>& counts,
                                     size_t k, int min_count) {
  std::vector<std::pair<int, std::string>> sorted;
  for (const auto& [s, c] : counts) {
    if (c >= min_count) sorted.emplace_back(c, s);
  }
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<std::string> out;
  for (size_t i = 0; i < sorted.size() && i < k; ++i) {
    out.push_back(sorted[i].second);
  }
  return out;
}

}  // namespace

std::vector<Answer> CandidateAnswers(const Question& question,
                                     const Feature& feature,
                                     const Corpus& corpus,
                                     const std::vector<Value>& observed) {
  std::vector<Answer> out;
  std::vector<FeatureValue> space = feature.AnswerSpace();
  if (!space.empty()) {
    for (FeatureValue v : space) out.push_back(Answer::Of(v));
    return out;
  }
  // Parameterized features: derive candidates from the observed values.
  const std::string& f = question.feature;
  if (f == "min_value" || f == "max_value") {
    std::vector<double> nums;
    for (const Value& v : observed) {
      auto n = v.AsNumber();
      if (n.has_value()) nums.push_back(*n);
    }
    // Value bounds only make sense for numeric-looking attributes; a few
    // stray numbers among text candidates (years inside author lines) are
    // not the developer's attribute.
    if (nums.size() >= 2 && nums.size() * 3 >= observed.size()) {
      AddNumParam(&out, Quantile(nums, 0.25));
      AddNumParam(&out, Quantile(nums, 0.5));
      AddNumParam(&out, Quantile(nums, 0.75));
    }
  } else if (f == "max_length") {
    std::vector<double> lens;
    for (const Value& v : observed) {
      lens.push_back(static_cast<double>(v.AsText().size()));
    }
    if (!lens.empty()) {
      AddNumParam(&out, std::ceil(Quantile(lens, 0.5)));
      AddNumParam(&out, std::ceil(Quantile(lens, 0.9)));
    }
  } else if (f == "preceded_by" || f == "followed_by") {
    std::map<std::string, int> counts;
    for (const Value& v : observed) {
      if (!v.has_span()) continue;
      std::string chunk =
          NeighbourChunk(corpus, v.span(), /*before=*/f == "preceded_by");
      if (chunk.size() >= 1 && chunk.size() <= 24) ++counts[chunk];
    }
    for (const std::string& s : TopFrequent(counts, 4, 2)) {
      AddStrParam(&out, s);
    }
  } else if (f == "prec_label_contains") {
    std::map<std::string, int> counts;
    for (const Value& v : observed) {
      if (!v.has_span()) continue;
      const Document& doc = corpus.Get(v.span().doc);
      auto label = doc.PrecedingLabel(v.span().begin);
      if (!label.has_value()) continue;
      // Count each lowercase word of the label.
      std::string word;
      for (char c : std::string(doc.TextOf(*label)) + " ") {
        if (std::isalpha(static_cast<unsigned char>(c))) {
          word.push_back(static_cast<char>(
              std::tolower(static_cast<unsigned char>(c))));
        } else {
          if (word.size() >= 3) ++counts[word];
          word.clear();
        }
      }
    }
    for (const std::string& s : TopFrequent(counts, 2, 2)) {
      AddStrParam(&out, s);
    }
  } else if (f == "prec_label_max_dist") {
    std::vector<double> dists;
    for (const Value& v : observed) {
      if (!v.has_span()) continue;
      const Document& doc = corpus.Get(v.span().doc);
      auto label = doc.PrecedingLabel(v.span().begin);
      if (label.has_value()) {
        dists.push_back(static_cast<double>(v.span().begin - label->end));
      }
    }
    if (!dists.empty()) {
      AddNumParam(&out, std::ceil(Quantile(dists, 0.5) / 50.0) * 50.0);
      AddNumParam(&out, std::ceil(Quantile(dists, 0.95) / 100.0) * 100.0);
    }
  }
  // starts_with / ends_with / contains_str: no data-derived candidates
  // (regex synthesis is out of scope); the sequential strategy can still
  // ask them and take the developer's pattern.
  return out;
}

// --------------------------------------------------------------- strategies

Result<std::optional<Question>> SequentialStrategy::Next(
    const StrategyContext& ctx) {
  std::vector<AttributeRef> attrs = RankAttributes(*ctx.program, *ctx.full_catalog);
  const FeatureRegistry& registry = ctx.full_catalog->features();
  for (const AttributeRef& attr : attrs) {
    for (const std::string& fname : registry.names()) {
      Question q{attr, fname};
      if (ctx.asked->count(q.Key())) continue;
      return std::optional<Question>(q);
    }
  }
  return std::optional<Question>();
}

Result<std::optional<Question>> SimulationStrategy::Next(
    const StrategyContext& ctx) {
  obs::Tracer* tracer = obs::TracerOrDefault(ctx.exec_options.tracer);
  obs::TraceSpan span(tracer, "strategy.next");
  const FeatureRegistry& registry = ctx.full_catalog->features();
  const Corpus& corpus = ctx.subset_catalog->corpus();
  // One cache generation per question selection: tables used by neither
  // this call nor the last are dropped, which bounds the simulations'
  // tables the cache keeps (docs/PERFORMANCE.md, "Copy-free table flow").
  if (ctx.subset_cache != nullptr) ctx.subset_cache->NewGeneration();

  // Current subset result size plus the per-extractor coverage baseline:
  // the compact tuple count of each intensional predicate whose rule uses
  // an IE atom. A *correct* constraint never drops one of those tuples
  // (the attribute's true value always survives refinement), so any
  // simulated answer that does is a wrong guess, not a likely reply.
  Executor base_exec(*ctx.subset_catalog, ctx.exec_options);
  double current_size = 0;
  double current_values = 0;
  std::map<std::string, size_t> base_coverage;
  {
    Result<CompactTable> r = base_exec.Execute(*ctx.program, ctx.subset_cache);
    if (r.ok()) {
      current_size = ResultSize(*r, corpus);
      current_values = base_exec.stats().process_values;
    }
    for (const auto& [pred, table] : base_exec.last_idb()) {
      base_coverage[pred] = table->size();
    }
  }

  // Head predicate of the rule consuming each IE predicate.
  std::map<std::string, std::string> consuming_head;
  for (const Rule& rule : ctx.program->rules()) {
    if (rule.is_description) continue;
    for (const Literal& lit : rule.body) {
      if (lit.kind != Literal::Kind::kAtom) continue;
      auto kind = ctx.full_catalog->KindOf(lit.atom.predicate);
      if (kind.ok() && *kind == PredicateKind::kIEPredicate) {
        consuming_head.emplace(lit.atom.predicate, rule.head.predicate);
      }
    }
  }

  // Gather: every unasked question with a candidate answer, in (attribute,
  // feature) order, and one flat list of all their simulations.
  struct Candidate {
    Question question;
    const Feature* feature = nullptr;
    std::vector<Answer> answers;
    // The attribute's consuming rule head and its base tuple count; null
    // when no rule consumes the IE predicate.
    const std::string* head = nullptr;
    size_t base_cov = 0;
  };
  struct Simulation {
    size_t candidate;
    size_t answer;
  };
  std::vector<Candidate> candidates;
  std::vector<Simulation> sims;
  for (const AttributeRef& attr :
       RankAttributes(*ctx.program, *ctx.full_catalog)) {
    const std::string* head = nullptr;
    size_t base_cov = 0;
    auto head_it = consuming_head.find(attr.ie_predicate);
    if (head_it != consuming_head.end()) {
      head = &head_it->second;
      auto cov_it = base_coverage.find(*head);
      if (cov_it != base_coverage.end()) base_cov = cov_it->second;
    }
    std::vector<Value> observed;
    bool observed_ready = false;
    for (const std::string& fname : registry.names()) {
      Question q{attr, fname};
      if (ctx.asked->count(q.Key())) continue;
      IFLEX_ASSIGN_OR_RETURN(const Feature* feature, registry.Get(fname));
      if (!observed_ready && feature->AnswerSpace().empty()) {
        observed = ProbeAttributeValues(ctx, attr);
        observed_ready = true;
      }
      std::vector<Answer> answers =
          CandidateAnswers(q, *feature, corpus, observed);
      if (ctx.exclusions != nullptr) {
        auto ex = ctx.exclusions->find(q.Key());
        if (ex != ctx.exclusions->end()) {
          std::erase_if(answers, [&](const Answer& a) {
            return a.known && !a.param.has_value() &&
                   ex->second.count(a.value) > 0;
          });
        }
      }
      if (answers.empty()) continue;
      for (size_t ai = 0; ai < answers.size(); ++ai) {
        sims.push_back({candidates.size(), ai});
      }
      candidates.push_back(
          {std::move(q), feature, std::move(answers), head, base_cov});
    }
  }

  // Simulate: every (question, answer) pair of this call in one pool
  // batch. Each simulation gets its own Executor over the shared subset
  // catalog and cache, so they are independent; outcomes land by index
  // and are folded serially below, which keeps question selection
  // identical to the serial run. An answer that *empties* the subset
  // result is inconsistent with the data (the attribute's true values are
  // in there), so the developer will never give it; such answers get
  // probability ~0 rather than rewarding the question.
  struct SimOutcome {
    bool ran = false;
    bool keep = false;
    double size = 0;
    double pv = 0;
    ExecStats stats;
  };
  std::vector<SimOutcome> outcomes(sims.size());
  // The simulations publish nothing themselves: the fold below sums their
  // stats into the parent registry under "sim.", and their operator rows
  // reach the parent cost model under "sim:<scope>" after the batch.
  ExecOptions sim_options = ctx.exec_options;
  sim_options.metrics = nullptr;
  obs::CostModel* parent_cost =
      obs::CostModelOrDefault(ctx.exec_options.cost_model);
  const bool profiling = parent_cost->enabled();
  obs::CostModel sim_cost;
  if (profiling) {
    sim_cost.set_enabled(true);
    sim_options.cost_model = &sim_cost;
  }
  auto simulate = [&](size_t si) {
    const Candidate& c = candidates[sims[si].candidate];
    obs::TraceSpan sim_span(tracer, "strategy.simulate", c.question.feature);
    Program refined = *ctx.program;
    Status st = ApplyAnswer(&refined, *ctx.full_catalog, c.question,
                            c.answers[sims[si].answer]);
    SimOutcome& out = outcomes[si];
    out.size = current_size;
    out.pv = current_values;
    bool coverage_ok = true;
    if (st.ok()) {
      Executor exec(*ctx.subset_catalog, sim_options);
      Result<CompactTable> r = exec.Execute(refined, ctx.subset_cache);
      out.ran = true;
      out.stats = exec.stats();
      if (r.ok()) {
        out.size = ResultSize(*r, corpus);
        out.pv = exec.stats().process_values;
        if (c.head != nullptr) {
          auto it = exec.last_idb().find(*c.head);
          // A correct constraint may legitimately drop records that simply
          // lack the attribute (journal-year on conference entries), so
          // require only that a reasonable share of the extractor's tuples
          // survives; total annihilation marks a wrong guess.
          coverage_ok = it != exec.last_idb().end() &&
                        static_cast<double>(it->second->size()) >=
                            0.25 * static_cast<double>(c.base_cov);
        }
      }
    }
    out.keep = out.size > 0 && coverage_ok;
  };
  try {
    // The batch's simulations read the tables cached before it, never each
    // other's, so which predicates each one evaluates does not depend on
    // the pool's schedule (docs/PERFORMANCE.md, "Content-keyed reuse").
    ReuseCache::BatchScope batch(ctx.subset_cache);
    // Grain 1: each simulation is milliseconds of work, so each is claimed
    // on its own, as morsels are.
    runtime::ParallelFor(ctx.exec_options.pool, sims.size(), simulate,
                         /*stop=*/nullptr, /*grain=*/1);
  } catch (const std::exception& e) {
    // A worker exception (simulation bug, injected task fault) aborts
    // question selection with a clean Status instead of crossing the pool
    // join unwound.
    return Status::Internal(std::string("worker exception in simulation: ") +
                            e.what());
  }
  if (profiling) {
    // Every row of the simulated executions reaches the parent under
    // "sim:<scope>", summed over candidates. Their Execute spans join the
    // parent's coverage denominator too, so attributed wall stays a
    // subset of accounted span time.
    for (const obs::ExplainReport::Row& row : sim_cost.Report().rows) {
      parent_cost->Charge(
          obs::CostKey{"sim:" + row.key.scope, row.key.op, row.key.iteration},
          row.cost);
    }
    parent_cost->AddSpan(sim_cost.span_ns());
  }

  // Fold, in (attribute, feature, answer) order: `sims` lists each
  // candidate's answers in turn.
  std::optional<Question> best;
  double best_expected = std::numeric_limits<double>::infinity();
  double best_expected_values = std::numeric_limits<double>::infinity();
  ExecStats sim_stats;
  bool any_ran = false;
  size_t si = 0;
  for (const Candidate& c : candidates) {
    std::vector<double> sizes;
    std::vector<double> pvalues;
    for (size_t ai = 0; ai < c.answers.size(); ++ai, ++si) {
      const SimOutcome& out = outcomes[si];
      if (out.ran) {
        ++simulations_run_;
        sim_stats.Add(out.stats);
        any_ran = true;
      }
      if (out.keep) {
        sizes.push_back(out.size);
        pvalues.push_back(out.pv);
      }
    }
    if (sizes.empty()) continue;  // no plausible answer: useless question
    double total = 0;
    double total_pv = 0;
    for (double s : sizes) total += s;
    for (double p : pvalues) total_pv += p;
    // Parameterized questions carry a high "I do not know" risk: their
    // candidate parameters are data-derived guesses, and a wrong guess
    // means the developer cannot confirm it. Weight the no-answer branch
    // (result unchanged) accordingly, so speculative parameter questions
    // do not crowd out reliable appearance questions.
    double alpha_eff = c.feature->AnswerSpace().empty()
                           ? std::max(0.5, ctx.alpha)
                           : ctx.alpha;
    double expected = alpha_eff * current_size +
                      (1.0 - alpha_eff) * total /
                          static_cast<double>(sizes.size());
    // Secondary objective: expected value-level narrowing, which breaks the
    // many ties among questions that cannot yet move the tuple count
    // (multi-constraint filters like lp < fp + 5 need several attributes
    // pinned before any tuple drops).
    double expected_values =
        alpha_eff * current_values +
        (1.0 - alpha_eff) * total_pv / static_cast<double>(pvalues.size());
    if (expected < best_expected - 1e-9 ||
        (expected < best_expected + 1e-9 &&
         expected_values < best_expected_values - 1e-9)) {
      best_expected = expected;
      best_expected_values = expected_values;
      best = c.question;
    }
  }
  if (any_ran && ctx.exec_options.metrics != nullptr) {
    sim_stats.Publish(ctx.exec_options.metrics, "sim.");
  }
  return best;
}

}  // namespace iflex
