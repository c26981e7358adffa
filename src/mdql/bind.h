#ifndef MDDC_MDQL_BIND_H_
#define MDDC_MDQL_BIND_H_

#include <string>

#include "algebra/agg_function.h"
#include "algebra/predicate.h"
#include "common/result.h"
#include "core/md_object.h"
#include "mdql/ast.h"
#include "mdql/mdql.h"

namespace mddc {

struct ExecContext;  // engine/executor.h
struct ExecStats;    // engine/executor.h

namespace mdql {

/// Name binding: the shared layer between the tree-walk interpreter and
/// the compiled pipeline (docs/mdql_compiler.md). Both paths resolve AST
/// names through exactly these functions, so a bad identifier produces
/// the same Status whichever engine answers the statement.

/// "dimension.category" resolved against an MO.
struct ResolvedLevel {
  std::size_t dim = 0;
  CategoryTypeIndex category = 0;
};

Result<ResolvedLevel> Resolve(const MdObject& mo, const LevelRef& level);

/// The grouping vector a group-by list induces on `mo`: top for every
/// dimension, then one overwrite per column (the last column on a
/// dimension wins).
Result<std::vector<CategoryTypeIndex>> ResolveGrouping(
    const MdObject& mo, const std::vector<GroupRef>& group_by);

/// Finds the dimension value named `text` in the given category by
/// trying every representation registered for it. NotFound if no
/// representation knows the name. Each probe is an interned-hash lookup
/// (no key string materialized); resolutions count into
/// stats.interner_hits / interner_misses.
Result<ValueId> ResolveValueByName(const MdObject& mo,
                                   const ResolvedLevel& level,
                                   const std::string& text, ExecStats& stats);

/// Picks the labeling representation for a grouping column: an explicit
/// request, else the first of Name / Code / Value that exists.
std::string PickRepresentation(const MdObject& mo, const ResolvedLevel& level,
                               const Name& requested);

/// Compiles a WHERE tree to an algebra predicate. An unknown value name
/// yields a predicate matching nothing (NOT then matches everything).
Result<Predicate> BuildWhere(const MdObject& mo, const WhereExpr& expr,
                             ExecStats& stats);

/// Binds one SELECT-list aggregate to its algebra function.
Result<AggFunction> BuildAggFunction(const MdObject& mo, const AggRef& agg);

/// The tree-walk interpreter for SELECT: timeslice, then a materialized
/// Select, then one ReferenceAggregateFormation per aggregate, merged by
/// group labels. The reference evaluator the compiled plan walk is
/// compared against — its group-bys run the ordered-map reference, not
/// the group-by core the plan walk runs; a session reaches it only with
/// enable_compiler = false.
Result<QueryResult> ExecuteSelectTreeWalk(const MdObject& source,
                                          const SelectStatement& select,
                                          ExecContext* exec);

}  // namespace mdql
}  // namespace mddc

#endif  // MDDC_MDQL_BIND_H_
