#ifndef IFLEX_EXEC_ANNOTATE_H_
#define IFLEX_EXEC_ANNOTATE_H_

#include <vector>

#include "common/result.h"
#include "ctable/atable.h"
#include "ctable/compact_table.h"
#include "obs/trace.h"

namespace iflex {

/// The (f, A) pair of paper §2.2.3: an existence annotation plus the set
/// of attribute-annotated column indices.
struct AnnotationSpec {
  bool existence = false;
  std::vector<size_t> annotated;  // column indices, sorted

  bool empty() const { return !existence && annotated.empty(); }
};

/// The BAnnotate algorithm (paper §4.3) over a-tables: groups the possible
/// tuples by the non-annotated attributes, collects the possible values of
/// each annotated attribute per group, and pins a group as non-maybe iff
/// some non-maybe input a-tuple fixes that group key with singleton cells.
Result<ATable> BAnnotate(const ATable& input, const AnnotationSpec& spec,
                         size_t max_combos_per_tuple = 100000,
                         obs::Tracer* tracer = nullptr);

/// The annotation operator ψ (paper §4.3). `use_compact` selects the
/// optimized direct-over-compact-tables implementation (the full-paper
/// optimization); it applies when every non-annotated cell is a single
/// exact assignment and otherwise falls back to the a-table route
/// (convert -> BAnnotate -> convert back). Takes `input` by value: the
/// executor moves its projected table in, which ψ replaces.
Result<CompactTable> ApplyAnnotations(const Corpus& corpus,
                                      CompactTable input,
                                      const AnnotationSpec& spec,
                                      bool use_compact = true,
                                      size_t max_tuples = 2000000,
                                      obs::Tracer* tracer = nullptr);

}  // namespace iflex

#endif  // IFLEX_EXEC_ANNOTATE_H_
