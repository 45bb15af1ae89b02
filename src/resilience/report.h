#ifndef IFLEX_RESILIENCE_REPORT_H_
#define IFLEX_RESILIENCE_REPORT_H_

#include <algorithm>
#include <string>
#include <vector>

#include "text/span.h"

namespace iflex {
namespace resilience {

/// What graceful degradation dropped or cut short during one Execute.
/// Superset semantics makes a degraded answer still meaningful: the
/// compact-table result is a valid superset-semantics answer over the
/// surviving inputs (docs/ROBUSTNESS.md), and this report says exactly
/// which inputs did not survive. A report with degraded == false means the
/// result is the same one a fault-free run produces.
struct ExecReport {
  /// Documents dropped by per-document fault isolation (sharded
  /// evaluation), each listed once, in the order first dropped; the result
  /// contains no tuples derived from them.
  std::vector<DocId> failed_docs;
  /// Seed tuples dropped whose document could not be identified (no doc
  /// provenance in the tuple).
  size_t failed_inputs = 0;
  /// Rules trapped by per-rule fault isolation, as "<head predicate>:
  /// <error>"; their contribution is missing from the result.
  std::vector<std::string> skipped_rules;
  /// Resource-budget truncation events (intermediate-table caps,
  /// enumeration caps), human-readable.
  std::vector<std::string> truncations;
  /// True iff anything above is non-empty — the single flag callers
  /// should branch on.
  bool degraded = false;
  /// Formatted tail of the structured event log (obs::EventLog), dumped
  /// automatically when an execution ends degraded, exceeds its
  /// deadline, is cancelled, or trips a fail point. Diagnostics only:
  /// never counted by EventCount()/empty() and never sets `degraded`.
  std::vector<std::string> flight_recorder;
  /// Rendered attribution table (obs::ExplainReport::ToText) of the last
  /// Execute, filled when the run's cost model was enabled. Diagnostics
  /// only, like flight_recorder.
  std::string explain;

  void Clear() { *this = ExecReport(); }

  bool empty() const {
    return failed_docs.empty() && failed_inputs == 0 &&
           skipped_rules.empty() && truncations.empty();
  }

  /// Total recorded events; a document dropped more than once counts
  /// once, so to tell whether one operation degraded anything give it a
  /// report of its own (the executor does, per predicate).
  size_t EventCount() const {
    return failed_docs.size() + failed_inputs + skipped_rules.size() +
           truncations.size();
  }

  /// Records and flags in one step; a document already listed is not
  /// listed again.
  void AddFailedDoc(DocId doc) {
    if (std::find(failed_docs.begin(), failed_docs.end(), doc) ==
        failed_docs.end()) {
      failed_docs.push_back(doc);
    }
    degraded = true;
  }
  void AddFailedInput() {
    ++failed_inputs;
    degraded = true;
  }
  void AddSkippedRule(std::string entry) {
    skipped_rules.push_back(std::move(entry));
    degraded = true;
  }
  void AddTruncation(std::string event) {
    truncations.push_back(std::move(event));
    degraded = true;
  }

  /// Folds a sub-report (a shard's, an iteration's) into this one,
  /// skipping the documents this one already lists.
  void Merge(const ExecReport& other);

  /// One-line summary, e.g.
  /// "degraded: 2 doc(s) failed, 1 rule(s) skipped, 1 truncation(s)".
  std::string ToString() const;
};

}  // namespace resilience
}  // namespace iflex

#endif  // IFLEX_RESILIENCE_REPORT_H_
