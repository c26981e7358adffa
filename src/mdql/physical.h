#ifndef MDDC_MDQL_PHYSICAL_H_
#define MDDC_MDQL_PHYSICAL_H_

#include <memory>

#include "common/result.h"
#include "core/md_object.h"
#include "mdql/ast.h"
#include "mdql/mdql.h"
#include "mdql/plan.h"
#include "mdql/rewrite.h"

namespace mddc {

struct ExecContext;  // engine/executor.h

namespace mdql {

/// The physical layer of compiled MDQL (docs/mdql_compiler.md): one walk
/// over the rewritten plan DAG. The root is a Merge of Aggregate branches
/// (or one Aggregate). Each Aggregate runs its own functions and grouping
/// through one AggregateStream; a Select directly below it becomes the
/// scan's keep mask instead of a materialized MO. The input below that is
/// materialized once per statement, shared DAG nodes included: a Scan
/// borrows the catalog MO, and Timeslice, Select, Join and nested
/// Aggregate nodes run through the algebra operators. The Merge folds
/// every branch's rows into one label-keyed row set with the tree-walk
/// interpreter's overwrite order, so the rendered result is
/// byte-identical to ExecuteSelectTreeWalk whatever rules fired, at any
/// thread count. The columns are the first branch's group-by columns
/// followed by every branch's aggregates in branch order; all branches
/// must group alike.
///
/// Counts one stats.fused_pipelines when the whole plan ran as one scan
/// (a single stream over a Scan, optionally timesliced), else one
/// stats.plan_fallbacks (several streams, or an interior Select, Join or
/// Aggregate materialized). A failed statement counts in neither.
Result<QueryResult> ExecutePlan(const PlanRef& plan,
                                ExecContext* exec = nullptr);

/// The walk's input evaluation on its own: the MO `plan` produces when
/// it feeds an operator (a Scan root is borrowed, not copied; an
/// Aggregate must fold exactly one function; a Merge must have exactly
/// one branch). The rewrite-rule differential tests compare a plan
/// against its rewritten form with it at the MO level.
Result<std::shared_ptr<const MdObject>> MaterializePlan(
    const PlanRef& plan, ExecContext* exec = nullptr);

/// EXPLAIN rendering: the logical plan before and after rewrites, the
/// rules that fired, and the physical walk — one line per merge branch
/// with the operator chain feeding its stream, then the stream's engine
/// selection probed without scanning. Never executes the statement and
/// never perturbs ExecStats. Non-SELECT statements render a single
/// "direct execution" line.
Result<QueryResult> ExplainStatement(const MdObject& source,
                                     const Statement& statement,
                                     const CompileOptions& options,
                                     ExecContext* exec = nullptr);

}  // namespace mdql
}  // namespace mddc

#endif  // MDDC_MDQL_PHYSICAL_H_
