#include "resilience/report.h"

#include "common/strutil.h"

namespace iflex {
namespace resilience {

void ExecReport::Merge(const ExecReport& other) {
  for (DocId doc : other.failed_docs) AddFailedDoc(doc);
  failed_inputs += other.failed_inputs;
  skipped_rules.insert(skipped_rules.end(), other.skipped_rules.begin(),
                       other.skipped_rules.end());
  truncations.insert(truncations.end(), other.truncations.begin(),
                     other.truncations.end());
  degraded = degraded || other.degraded;
  flight_recorder.insert(flight_recorder.end(),
                         other.flight_recorder.begin(),
                         other.flight_recorder.end());
  if (explain.empty()) explain = other.explain;
}

std::string ExecReport::ToString() const {
  if (!degraded) return "ok";
  std::string out = "degraded:";
  if (!failed_docs.empty() || failed_inputs > 0) {
    out += StringPrintf(" %zu doc(s)/input(s) failed",
                        failed_docs.size() + failed_inputs);
  }
  if (!skipped_rules.empty()) {
    out += StringPrintf(" %zu rule(s) skipped", skipped_rules.size());
  }
  if (!truncations.empty()) {
    out += StringPrintf(" %zu truncation(s)", truncations.size());
  }
  return out;
}

}  // namespace resilience
}  // namespace iflex
