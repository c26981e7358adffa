#include "algebra/operators.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>

#include "algebra/aggregate_assembly.h"
#include "common/strings.h"
#include "core/properties.h"
#include "engine/arena.h"
#include "engine/executor.h"
#include "engine/groupby_kernel.h"
#include "engine/rollup_index.h"

namespace mddc {
namespace {

Status RequireSharedRegistry(const MdObject& m1, const MdObject& m2,
                             const char* op) {
  if (m1.registry() != m2.registry()) {
    return Status::InvalidArgument(
        StrCat(op,
               " requires both MOs to share one fact registry so fact "
               "identity is comparable"));
  }
  return Status::OK();
}

/// FNV-1a over one surrogate id; assigns facts (join) and group keys
/// (aggregate formation) to hash partitions on the parallel path.
std::size_t HashUint64(std::uint64_t raw) {
  std::uint64_t h = 1469598103934665603ull;
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (raw >> (8 * byte)) & 0xff;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

/// Query-lifetime scratch container bumping one of the context's arenas
/// (docs/memory_layout.md).
template <typename T>
using ArenaVec = std::vector<T, ArenaAllocator<T>>;

/// Rewinds the context's arenas when the top-level operator returns:
/// everything arena-backed is operator-local scratch, so reclaiming here
/// keeps repeated queries on one context at a flat memory footprint.
struct ArenaResetGuard {
  ExecContext* exec;
  ~ArenaResetGuard() { exec->ResetQueryArenas(); }
};

}  // namespace

Result<MdObject> Select(const MdObject& mo, const Predicate& predicate) {
  std::vector<Dimension> dimensions;
  dimensions.reserve(mo.dimension_count());
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    dimensions.push_back(mo.dimension(i));
  }
  MdObject result(mo.schema().fact_type(), std::move(dimensions),
                  mo.registry(), mo.temporal_type());

  MDDC_ASSIGN_OR_RETURN(auto matches, predicate.EvaluateAll(mo));
  std::vector<FactId> kept;
  for (std::size_t f = 0; f < matches.size(); ++f) {
    if (matches[f]) kept.push_back(mo.facts()[f]);
  }
  for (FactId fact : kept) MDDC_RETURN_NOT_OK(result.AddFact(fact));
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    FactDimRelation restricted = mo.relation(i);
    restricted.RestrictToFacts(kept);
    result.relation_mutable(i) = std::move(restricted);
  }
  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

Result<MdObject> Project(const MdObject& mo,
                         const std::vector<std::size_t>& dims) {
  if (dims.empty()) {
    return Status::InvalidArgument("projection onto zero dimensions");
  }
  std::set<std::size_t> seen;
  std::vector<Dimension> dimensions;
  for (std::size_t dim : dims) {
    if (dim >= mo.dimension_count()) {
      return Status::InvalidArgument(
          StrCat("projection dimension ", dim, " out of range"));
    }
    if (!seen.insert(dim).second) {
      return Status::InvalidArgument(
          StrCat("projection lists dimension ", dim, " twice"));
    }
    dimensions.push_back(mo.dimension(dim));
  }
  MdObject result(mo.schema().fact_type(), std::move(dimensions),
                  mo.registry(), mo.temporal_type());
  for (FactId fact : mo.facts()) MDDC_RETURN_NOT_OK(result.AddFact(fact));
  for (std::size_t i = 0; i < dims.size(); ++i) {
    result.relation_mutable(i) = mo.relation(dims[i]);
  }
  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

Result<MdObject> Rename(const MdObject& mo, const RenameSpec& spec) {
  if (!spec.dimension_names.empty() &&
      spec.dimension_names.size() != mo.dimension_count()) {
    return Status::InvalidArgument(
        StrCat("rename lists ", spec.dimension_names.size(),
               " dimension names for a ", mo.dimension_count(),
               "-dimensional MO"));
  }
  std::vector<Dimension> dimensions;
  dimensions.reserve(mo.dimension_count());
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    const std::string* name = spec.dimension_names.empty()
                                  ? nullptr
                                  : &spec.dimension_names[i];
    if (name != nullptr && !name->empty()) {
      dimensions.push_back(mo.dimension(i).RenamedAs(*name));
    } else {
      dimensions.push_back(mo.dimension(i));
    }
  }
  std::string fact_type =
      spec.fact_type.empty() ? mo.schema().fact_type() : spec.fact_type;
  MdObject result(std::move(fact_type), std::move(dimensions), mo.registry(),
                  mo.temporal_type());
  for (FactId fact : mo.facts()) MDDC_RETURN_NOT_OK(result.AddFact(fact));
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    result.relation_mutable(i) = mo.relation(i);
  }
  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

Result<MdObject> Union(const MdObject& m1, const MdObject& m2) {
  MDDC_RETURN_NOT_OK(RequireSharedRegistry(m1, m2, "union"));
  if (!m1.schema().EquivalentTo(m2.schema())) {
    return Status::SchemaMismatch(
        "union requires equivalent schemas (use rename to align names)");
  }
  std::vector<Dimension> dimensions;
  for (std::size_t i = 0; i < m1.dimension_count(); ++i) {
    MDDC_ASSIGN_OR_RETURN(
        Dimension merged,
        Dimension::UnionWith(m1.dimension(i), m2.dimension(i)));
    dimensions.push_back(std::move(merged));
  }
  MdObject result(m1.schema().fact_type(), std::move(dimensions),
                  m1.registry(), m1.temporal_type());
  for (FactId fact : m1.facts()) MDDC_RETURN_NOT_OK(result.AddFact(fact));
  for (FactId fact : m2.facts()) MDDC_RETURN_NOT_OK(result.AddFact(fact));
  for (std::size_t i = 0; i < m1.dimension_count(); ++i) {
    MDDC_ASSIGN_OR_RETURN(
        FactDimRelation merged,
        FactDimRelation::UnionWith(m1.relation(i), m2.relation(i)));
    result.relation_mutable(i) = std::move(merged);
  }
  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

Result<MdObject> Difference(const MdObject& m1, const MdObject& m2) {
  MDDC_RETURN_NOT_OK(RequireSharedRegistry(m1, m2, "difference"));
  if (!m1.schema().EquivalentTo(m2.schema())) {
    return Status::SchemaMismatch(
        "difference requires equivalent schemas");
  }
  std::vector<Dimension> dimensions;
  for (std::size_t i = 0; i < m1.dimension_count(); ++i) {
    dimensions.push_back(m1.dimension(i));  // dimensions of M1 are kept
  }
  MdObject result(m1.schema().fact_type(), std::move(dimensions),
                  m1.registry(), m1.temporal_type());

  if (m1.temporal_type() == TemporalType::kSnapshot) {
    // Snapshot rule: F' = F1 \ F2, relations restricted.
    std::vector<FactId> kept;
    for (FactId fact : m1.facts()) {
      if (!m2.HasFact(fact)) kept.push_back(fact);
    }
    for (FactId fact : kept) MDDC_RETURN_NOT_OK(result.AddFact(fact));
    for (std::size_t i = 0; i < m1.dimension_count(); ++i) {
      FactDimRelation restricted = m1.relation(i);
      restricted.RestrictToFacts(kept);
      result.relation_mutable(i) = std::move(restricted);
    }
    MDDC_RETURN_NOT_OK(result.Validate());
    return result;
  }

  // Temporal rule (Section 4.2): cut each pair's time by the time the
  // corresponding pair has in M2; keep pairs with non-empty remaining
  // time; keep facts that retain a pair in every dimension.
  std::vector<FactDimRelation> cut(m1.dimension_count());
  for (std::size_t i = 0; i < m1.dimension_count(); ++i) {
    for (const FactDimRelation::Entry& entry : m1.relation(i).entries()) {
      TemporalElement other_valid;
      for (const FactDimRelation::Entry* other :
           m2.relation(i).ForFact(entry.fact)) {
        if (other->value == entry.value &&
            other->life.transaction.Overlaps(entry.life.transaction)) {
          other_valid = other_valid.Union(other->life.valid);
        }
      }
      Lifespan remaining{entry.life.valid.Subtract(other_valid),
                         entry.life.transaction};
      if (remaining.Empty()) continue;
      MDDC_RETURN_NOT_OK(
          cut[i].Add(entry.fact, entry.value, remaining, entry.prob));
    }
  }
  // Per-fact coverage over the sorted fact list as a flat rank/flag pass
  // per dimension — no ordered-map nodes and no per-fact HasFact probes
  // (see the BM_TemporalDifference note in bench/bench_algebra_ops.cpp).
  const std::vector<FactId>& facts1 = m1.facts();  // sorted by id
  std::vector<std::size_t> covered(facts1.size(), 0);
  std::vector<char> seen(facts1.size());
  for (std::size_t i = 0; i < m1.dimension_count(); ++i) {
    std::fill(seen.begin(), seen.end(), 0);
    for (const FactDimRelation::Entry& entry : cut[i].entries()) {
      const auto it =
          std::lower_bound(facts1.begin(), facts1.end(), entry.fact);
      if (it != facts1.end() && *it == entry.fact) {
        seen[static_cast<std::size_t>(it - facts1.begin())] = 1;
      }
    }
    for (std::size_t f = 0; f < facts1.size(); ++f) covered[f] += seen[f];
  }
  for (std::size_t f = 0; f < facts1.size(); ++f) {
    if (covered[f] == m1.dimension_count()) {
      MDDC_RETURN_NOT_OK(result.AddFact(facts1[f]));
    }
  }
  for (std::size_t i = 0; i < m1.dimension_count(); ++i) {
    cut[i].RestrictToFacts(result.facts());
    result.relation_mutable(i) = std::move(cut[i]);
  }
  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

Result<MdObject> Join(const MdObject& m1, const MdObject& m2,
                      JoinPredicate predicate, ExecContext* exec) {
  DefaultContext scope(exec);
  MDDC_RETURN_NOT_OK(RequireSharedRegistry(m1, m2, "join"));
  // Dimension names must be disjoint; the paper prescribes rename for
  // self-joins.
  for (std::size_t i = 0; i < m1.dimension_count(); ++i) {
    for (std::size_t j = 0; j < m2.dimension_count(); ++j) {
      if (m1.dimension(i).name() == m2.dimension(j).name()) {
        return Status::InvalidArgument(
            StrCat("join operands both have a dimension named '",
                   m1.dimension(i).name(), "'; apply rename first"));
      }
    }
  }
  std::vector<Dimension> dimensions;
  for (std::size_t i = 0; i < m1.dimension_count(); ++i) {
    dimensions.push_back(m1.dimension(i));
  }
  for (std::size_t j = 0; j < m2.dimension_count(); ++j) {
    dimensions.push_back(m2.dimension(j));
  }
  MdObject result(
      StrCat("(", m1.schema().fact_type(), ",", m2.schema().fact_type(), ")"),
      std::move(dimensions), m1.registry(), m1.temporal_type());

  const std::vector<FactId>& facts1 = m1.facts();  // sorted by id
  const std::vector<FactId>& facts2 = m2.facts();  // sorted by id

  const bool parallel = exec->WantsParallelOrFallsBack(facts1.size());

  // 1. Match lists, one disjoint slot per m1 fact, each in ascending m2
  //    scan order. The equi-join probes m2's sorted fact set instead of
  //    scanning it — identical matches, n1 log n2 instead of n1 * n2.
  //    Lists live in the context's bump arenas (each list in the arena of
  //    the partition that fills it, so workers never share an arena).
  ArenaResetGuard arena_guard{exec};
  const std::size_t num_partitions = parallel ? exec->num_threads : 1;
  if (parallel) exec->EnsureWorkerArenas(num_partitions);
  std::vector<ArenaVec<FactId>> matches;
  matches.reserve(facts1.size());
  for (std::size_t f = 0; f < facts1.size(); ++f) {
    Arena* arena =
        parallel
            ? &exec->worker_arena(HashUint64(facts1[f].raw()) % num_partitions)
            : &exec->arena;
    matches.emplace_back(ArenaAllocator<FactId>(arena));
  }
  auto match_one = [&](std::size_t f) {
    const FactId f1 = facts1[f];
    switch (predicate) {
      case JoinPredicate::kEqual:
        if (std::binary_search(facts2.begin(), facts2.end(), f1)) {
          matches[f].push_back(f1);
        }
        break;
      case JoinPredicate::kNotEqual:
        matches[f].reserve(facts2.size());
        for (FactId f2 : facts2) {
          if (f2 != f1) matches[f].push_back(f2);
        }
        break;
      case JoinPredicate::kTrue:
        matches[f].assign(facts2.begin(), facts2.end());
        break;
    }
  };
  if (parallel) {
    // Warm the lazily written closure memos of every operand dimension so
    // the fan-out (and any concurrent reader of the operands) only ever
    // reads — the same pure-read discipline aggregate formation follows.
    // Compiling the rollup snapshot here rides on the same pass: the
    // result MO copies the operand dimensions, and copies share the
    // snapshot slot, so downstream aggregates over the join output start
    // with the index already built.
    for (std::size_t i = 0; i < m1.dimension_count(); ++i) {
      m1.dimension(i).WarmClosureMemo();
      (void)RollupIndex::For(m1.dimension(i), &exec->stats);
      ++exec->stats.index_hits;
    }
    for (std::size_t j = 0; j < m2.dimension_count(); ++j) {
      m2.dimension(j).WarmClosureMemo();
      (void)RollupIndex::For(m2.dimension(j), &exec->stats);
      ++exec->stats.index_hits;
    }
    exec->stats.partitions += num_partitions;
  }
  exec->RunTasks(parallel, num_partitions, [&](std::size_t p) {
    for (std::size_t f = 0; f < facts1.size(); ++f) {
      if (!parallel || HashUint64(facts1[f].raw()) % num_partitions == p) {
        match_one(f);
      }
    }
  });

  // 2. Merge in fact order: walking m1's facts ascending and each match
  //    list in m2 scan order reproduces exactly the sequential
  //    nested-loop enumeration, so pair facts intern in the same order
  //    and get the same ids at any thread count.
  FactRegistry& registry = *m1.registry();
  std::vector<std::pair<FactId, std::pair<FactId, FactId>>> pairs;
  const auto merge_start = std::chrono::steady_clock::now();
  for (std::size_t f = 0; f < facts1.size(); ++f) {
    for (FactId f2 : matches[f]) {
      FactId pair = registry.Pair(facts1[f], f2);
      MDDC_RETURN_NOT_OK(result.AddFact(pair));
      pairs.emplace_back(pair, std::make_pair(facts1[f], f2));
    }
  }
  if (parallel) {
    exec->stats.merge_nanos += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - merge_start)
            .count());
  }

  // 3. Pair-fact relations. Each output dimension's relation is an
  //    independent slot written in pair order, so dimensions fan out in
  //    parallel; errors land in per-dimension Status slots and the first
  //    one in dimension order is returned.
  const std::size_t n1 = m1.dimension_count();
  const std::size_t n_out = n1 + m2.dimension_count();
  auto populate_dim = [&](std::size_t d) -> Status {
    const FactDimRelation& source =
        d < n1 ? m1.relation(d) : m2.relation(d - n1);
    FactDimRelation& target = result.relation_mutable(d);
    for (const auto& [pair, members] : pairs) {
      const FactId member = d < n1 ? members.first : members.second;
      for (std::size_t e : source.EntryIndexesForFact(member)) {
        const FactDimRelation::Entry& entry = source.entries()[e];
        MDDC_RETURN_NOT_OK(
            target.Add(pair, entry.value, entry.life, entry.prob));
      }
    }
    return Status::OK();
  };
  std::vector<Status> statuses(n_out);
  exec->RunTasks(parallel, n_out,
                 [&](std::size_t d) { statuses[d] = populate_dim(d); });
  for (const Status& status : statuses) MDDC_RETURN_NOT_OK(status);
  if (parallel) {
    ++exec->stats.parallel_runs;
    ++exec->stats.join_parallel_runs;
  }
  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

ResultDimensionSpec ResultDimensionSpec::Auto(std::string name) {
  ResultDimensionSpec spec;
  spec.auto_name_ = std::move(name);
  return spec;
}

ResultDimensionSpec ResultDimensionSpec::Explicit(
    Dimension prototype, std::function<Result<ValueId>(double)> mapper) {
  ResultDimensionSpec spec;
  spec.prototype_ = std::move(prototype);
  spec.mapper_ = std::move(mapper);
  return spec;
}

namespace {

/// The aggregation type of the result dimension's bottom category per the
/// Section 4.1 rule, given the request's summarizability report.
AggregationType ResultBottomAggType(const MdObject& mo,
                                    const AggregateSpec& spec,
                                    const SummarizabilityReport& report) {
  if (!report.summarizable) return AggregationType::kConstant;
  // min over Args(g) of the argument bottoms' aggregation types; an empty
  // argument list (set-count) yields summable counts.
  AggregationType agg_type = AggregationType::kSum;
  for (std::size_t dim : spec.function.args()) {
    const DimensionType& type = mo.dimension(dim).type();
    agg_type = MinAggregationType(agg_type, type.AggType(type.bottom()));
  }
  return agg_type;
}

/// Per fact and dimension: the grouping-category values characterizing
/// the fact, with lifespans and probabilities. `dense` is the value's
/// dense id in the dimension's rollup snapshot, set whenever a snapshot
/// resolved the coordinate — the group-by core's dense engine turns it
/// into a slot digit with one array read.
struct Coordinate {
  ValueId value;
  /// nullopt means AlwaysSpan — the attachment of nontemporal data. The
  /// accumulate loops intersect group time with coordinate time per fact
  /// per dimension; spelling Always as nullopt makes the dominant
  /// snapshot case allocation-free (a materialized Lifespan copies two
  /// interval vectors) and lets those loops skip the identity Intersect.
  std::optional<Lifespan> life;
  double prob;
  std::uint32_t dense = RollupIndex::kNone;
};

/// Always-normalizing wrap: spans that cover the whole domain become
/// nullopt so downstream Intersects skip them.
std::optional<Lifespan> OptLife(const Lifespan& life) {
  if (life.IsAlways()) return std::nullopt;
  return life;
}

/// Per-dimension entry spans aligned to the MO's sorted fact vector:
/// `[i][f]` is relation i's entry-index run for facts[f], built for the
/// `wanted` dimensions by one lockstep sweep of each relation's CSR view
/// (FactDimRelation::EntrySpansFor) — no per-fact lookups in the hot loops
/// of the group-by core.
using EntrySpan = FactDimRelation::EntrySpan;
using FactEntryLists = std::vector<std::vector<EntrySpan>>;

FactEntryLists BuildFactEntryLists(const MdObject& mo,
                                   const std::vector<bool>& wanted) {
  FactEntryLists fact_entries(mo.dimension_count());
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    if (wanted[i]) fact_entries[i] = mo.relation(i).EntrySpansFor(mo.facts());
  }
  return fact_entries;
}

/// A fact's per-axis coordinate lists, arena-backed (a query's dominant
/// allocation source is exactly these little per-fact vectors).
using CoordList = ArenaVec<Coordinate>;
using CoordLists = ArenaVec<CoordList>;

/// The one coordinate body of the group-by core and the append fold:
/// appends the coordinates in `category` of the fact whose relation
/// entries are `entries` to `list`, read from the dimension's compiled
/// snapshot `index`. Read-only, so facts fan out in parallel.
///
/// Per entry, a flat table (strict, non-temporal hierarchies) names the
/// unique ancestor at the category with one lookup; otherwise the entry
/// value itself counts when it lies in the category, and so does every
/// containment of its ancestor run there, at the intersected lifespan and
/// multiplied probability, empty lifespans skipped. Contributions fold
/// per coordinate value in encounter order with the union/noisy-or
/// MdObject::CharacterizedBy applies — the order it meets them in too —
/// into a list kept sorted by ValueId (a linear insertion; coordinate
/// lists are tiny) like the filtered characterization list, so every path
/// is bit-identical to the reference evaluator's coordinates
/// (reference_aggregate.cc).
void AppendDimCoordinates(const FactDimRelation& relation,
                          const RollupIndex& index, CategoryTypeIndex category,
                          const EntrySpan& entries,
                          CoordList& list) {
  const auto add = [&](std::uint32_t dense, const Lifespan& life,
                       double prob) {
    const ValueId value = index.ValueOf(dense);
    auto it = std::lower_bound(
        list.begin(), list.end(), value,
        [](const Coordinate& c, ValueId v) { return c.value < v; });
    if (it != list.end() && it->value == value) {
      // Always (nullopt) is absorbing under component-wise Union.
      if (it->life.has_value()) it->life = OptLife(it->life->Union(life));
      it->prob = 1.0 - (1.0 - it->prob) * (1.0 - prob);
    } else {
      list.insert(it, Coordinate{value, OptLife(life), prob, dense});
    }
  };
  for (std::size_t e : entries) {
    const FactDimRelation::Entry& entry = relation.entries()[e];
    const std::uint32_t dense = index.DenseOf(entry.value);
    if (dense == RollupIndex::kNone) continue;
    if (index.has_flat_table()) {
      const std::uint32_t ancestor = index.AncestorAt(dense, category);
      if (ancestor == RollupIndex::kNone) continue;
      add(ancestor, entry.life,
          entry.prob * index.AncestorProbAt(dense, category));
      continue;
    }
    if (entry.life.Empty()) continue;
    if (index.CategoryOfDense(dense) == category) {
      add(dense, entry.life, entry.prob);
    }
    for (const RollupIndex::RunEntry* c = index.RunBegin(dense, category);
         c != index.RunEnd(dense, category); ++c) {
      const Lifespan life = index.RunIntersect(entry.life, *c);
      if (!life.Empty()) add(c->ancestor, life, entry.prob * c->prob);
    }
  }
}

// ---- The group-by core -----------------------------------------------------

/// Per-fact aggregate input of one accumulator class, computed once per
/// fact (riding the coordinate pass's fan-out) and folded into every group
/// the fact joins, in member order — the same per-member entry scan
/// AggFunction::Evaluate and the reference evaluator perform per group.
struct FactContribution {
  FactContribution() = default;
  explicit FactContribution(Arena* arena)
      : values(ArenaAllocator<double>(arena)) {}

  /// Known (non-top) numeric entry values of the argument dimension, in
  /// relation scan order; empty for COUNT, which never reads values.
  ArenaVec<double> values;
  /// Known pairs, for COUNT (0 for every other function).
  std::size_t counted = 0;
  /// First NumericValueOf failure (OK when none), sticky — a group
  /// inheriting it reports it exactly as Evaluate would.
  Status error;
  /// Section 4.2 member time: intersection over g's argument dimensions
  /// of the union of the member's entry spans. nullopt means AlwaysSpan,
  /// so nontemporal facts carry no interval vectors at all.
  std::optional<Lifespan> arg_life;
};

/// A value class's argument column: the numeric interpretation of every
/// argument value at the scan's chronon, memoized on the dimension's
/// compiled snapshot (RollupIndex::NumericColumnAt), with the snapshot
/// whose dense ids index it.
struct NumericArg {
  std::shared_ptr<const RollupIndex> index;
  std::shared_ptr<const NumericColumn> column;
};

/// A fact's contribution to `function`, whose argument dimension (if any)
/// must be in range. `entry_list(i)` is the fact's entry run in relation
/// i; `numeric` (null: parse per entry) the argument column. A value the
/// column has no number for is asked of the dimension again, so a failure
/// carries NumericValueOf's own text.
template <typename EntriesOf>
FactContribution ContributionOf(const MdObject& mo,
                                const AggFunction& function, Chronon prob_at,
                                const EntriesOf& entry_list,
                                const NumericArg* numeric, Arena* arena) {
  FactContribution c(arena);
  for (std::size_t dim : function.args()) {
    if (dim >= mo.dimension_count()) continue;
    const FactDimRelation& relation = mo.relation(dim);
    const EntrySpan list = entry_list(dim);
    // Fast path for nontemporal data: a nonempty union of Always spans is
    // Always, and intersecting with Always is the identity.
    bool all_always = !list.empty();
    for (std::size_t e : list) {
      if (!relation.entries()[e].life.IsAlways()) {
        all_always = false;
        break;
      }
    }
    if (all_always) continue;
    TemporalElement member_valid;
    TemporalElement member_transaction;
    for (std::size_t e : list) {
      const FactDimRelation::Entry& entry = relation.entries()[e];
      member_valid = member_valid.Union(entry.life.valid);
      member_transaction = member_transaction.Union(entry.life.transaction);
    }
    Lifespan member{std::move(member_valid), std::move(member_transaction)};
    c.arg_life = c.arg_life.has_value() ? c.arg_life->Intersect(member)
                                        : std::move(member);
  }
  if (function.args().empty()) return c;
  const std::size_t dim = function.args().front();
  const Dimension& dimension = mo.dimension(dim);
  const FactDimRelation& relation = mo.relation(dim);
  for (std::size_t e : entry_list(dim)) {
    const FactDimRelation::Entry& entry = relation.entries()[e];
    if (entry.value == dimension.top_value()) continue;  // unknown
    if (function.kind() == AggregateFunctionKind::kCount) {
      ++c.counted;
      continue;
    }
    Result<double> value = [&]() -> Result<double> {
      if (numeric != nullptr) {
        const std::uint32_t dense = numeric->index->DenseOf(entry.value);
        if (dense != RollupIndex::kNone && numeric->column->numeric[dense]) {
          return numeric->column->value[dense];
        }
      }
      return dimension.NumericValueOf(entry.value, prob_at);
    }();
    if (!value.ok()) {
      c.error = value.status();
      break;  // Evaluate stops at the first failing entry
    }
    c.values.push_back(*value);
  }
  return c;
}

/// The planned group-by over one grouping (docs/groupby_kernel.md): the
/// live (non-top-grouped) axes, their compiled rollup snapshots and the
/// dense slot space when every live axis has a flat table. A top-grouped
/// dimension contributes one fixed coordinate with probability 1 to every
/// fact, so it never becomes an axis — keys carry live axes only.
struct GroupPlan {
  std::vector<CategoryTypeIndex> grouping;
  /// Live dimension indexes, ascending.
  std::vector<std::size_t> live;
  /// Per dimension: the compiled snapshot of a live axis, else null.
  std::vector<std::shared_ptr<const RollupIndex>> indexes;
  /// kNotIndexed when some live axis has no flat table.
  DenseSlotSpace::Plan verdict = DenseSlotSpace::Plan::kNotIndexed;
  /// Filled under kDense.
  DenseSlotSpace space;
};

/// The one planning step of every group-by. Every live axis reads its
/// snapshot; one whose flat-table gate fails resolves coordinates through
/// its ancestor runs and keeps the scan on the flat-hash engine — results
/// are bit-identical either way. `stats` (null for EXPLAIN, which must
/// not perturb counters) counts index builds and the flat-table verdicts
/// as hits and fallbacks.
GroupPlan PlanGroupBy(const MdObject& mo,
                      const std::vector<CategoryTypeIndex>& grouping,
                      std::uint64_t max_slots, ExecStats* stats) {
  const std::size_t n = mo.dimension_count();
  GroupPlan plan;
  plan.grouping = grouping;
  plan.indexes.resize(n);
  std::vector<DenseSlotSpace::GroupingDim> axes;
  bool all_indexed = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (grouping[i] == mo.dimension(i).type().top()) continue;
    plan.live.push_back(i);
    std::shared_ptr<const RollupIndex> index =
        RollupIndex::For(mo.dimension(i), stats);
    if (index->has_flat_table()) {
      axes.push_back({index.get(), grouping[i]});
      if (stats != nullptr) ++stats->index_hits;
    } else {
      all_indexed = false;
      if (stats != nullptr) ++stats->index_fallbacks;
    }
    plan.indexes[i] = std::move(index);
  }
  if (all_indexed) {
    plan.verdict = DenseSlotSpace::Build(axes, max_slots, &plan.space);
  }
  return plan;
}

/// One fact's coordinates on the live axes of `plan`, read from the
/// compiled snapshots only, or nullopt when some axis has none (the fact
/// then joins no group). `entries(i)` is the fact's entry run in relation
/// i.
template <typename EntriesOf>
std::optional<CoordLists> LiveCoordinates(const MdObject& mo,
                                          const GroupPlan& plan,
                                          const EntriesOf& entries,
                                          Arena* arena) {
  const std::size_t nl = plan.live.size();
  CoordLists per_axis{ArenaAllocator<CoordList>(arena)};
  per_axis.reserve(nl);
  for (std::size_t j = 0; j < nl; ++j) {
    per_axis.emplace_back(ArenaAllocator<Coordinate>(arena));
  }
  for (std::size_t j = 0; j < nl; ++j) {
    const std::size_t i = plan.live[j];
    AppendDimCoordinates(mo.relation(i), *plan.indexes[i], plan.grouping[i],
                         entries(i), per_axis[j]);
    if (per_axis[j].empty()) return std::nullopt;
  }
  return per_axis;
}

/// What one core scan folds. Each class is the exemplar of the functions
/// sharing an argument dimension (in range) and pair-vs-value reading: the
/// Accumulator keeps count/sum/min/max regardless of which Finish reads
/// it, so one accumulator per class is exactly what running each function
/// alone builds.
struct ScanRequest {
  Chronon prob_at = kNowChronon;
  /// Optional fact filter aligned with mo.facts().
  const std::vector<bool>* keep = nullptr;
  std::vector<AggFunction> classes;
  /// Also record the state only AggregateFormation renders: per-axis
  /// lifespans and probabilities, expected counts and the Section 4.2
  /// result lifespans.
  bool rendered = false;
};

/// The core's output, in canonical group order (ascending lexicographic
/// live key). Every group carries its key and ascending member list;
/// per-group arrays below are indexed [group] or, with a stride,
/// [group * stride + column].
struct GroupScan {
  /// Key and member_facts filled; values left to the caller.
  std::vector<StreamGroup> groups;
  /// Stride = class count: each class's accumulator and its sticky first
  /// contribution failure (OK when none).
  std::vector<AggFunction::Accumulator> accums;
  std::vector<Status> errors;
  /// Rendered scans only. Stride = live-axis count: the intersection over
  /// members of their coordinate lifespans, and the product of their
  /// coordinate probabilities.
  std::vector<Lifespan> life_per_axis;
  std::vector<double> prob_per_axis;
  /// Rendered scans only, one per group: the sum over members of their
  /// membership probability, and the intersection over members of every
  /// class's argument-dimension time.
  std::vector<double> expected;
  std::vector<Lifespan> result_life;
};

/// Per-worker state of a scan. The dense engine owns a contiguous slot
/// range: group_of_slot is the range-local slot -> group indirection
/// (4 bytes per owned slot, so untouched slots cost only the sentinel);
/// the flat-hash engine interns keys into one fixed-stride buffer probed
/// through the open-addressing index. Group state lives in flat strided
/// arrays, all bumping the partition's own arena (each partition is
/// scanned by exactly one task, so arenas never race).
struct ScanPartition {
  explicit ScanPartition(Arena* a)
      : group_of_slot(ArenaAllocator<std::uint32_t>(a)),
        slot_of_group(ArenaAllocator<std::uint64_t>(a)),
        key_storage(ArenaAllocator<ValueId>(a)),
        member_count(ArenaAllocator<std::size_t>(a)),
        inc_group(ArenaAllocator<std::uint32_t>(a)),
        inc_fact(ArenaAllocator<FactId>(a)),
        accums(ArenaAllocator<AggFunction::Accumulator>(a)),
        life_per_axis(ArenaAllocator<Lifespan>(a)),
        prob_per_axis(ArenaAllocator<double>(a)),
        expected(ArenaAllocator<double>(a)),
        result_life(ArenaAllocator<Lifespan>(a)) {}

  /// Appends one empty group and returns its ordinal.
  std::uint32_t AddGroup(std::size_t axes, std::size_t classes,
                         bool rendered) {
    const auto g = static_cast<std::uint32_t>(member_count.size());
    member_count.push_back(0);
    accums.resize(accums.size() + classes);
    errors.resize(errors.size() + classes);
    if (rendered) {
      life_per_axis.resize(life_per_axis.size() + axes,
                           Lifespan::AlwaysSpan());
      prob_per_axis.resize(prob_per_axis.size() + axes, 1.0);
      expected.push_back(0.0);
      result_life.push_back(Lifespan::AlwaysSpan());
    }
    return g;
  }

  std::uint64_t slot_begin = 0;
  std::uint64_t slot_end = 0;
  ArenaVec<std::uint32_t> group_of_slot;
  ArenaVec<std::uint64_t> slot_of_group;
  FlatHashGroupIndex index;
  ArenaVec<ValueId> key_storage;  // stride = axes
  ArenaVec<std::size_t> member_count;
  /// Membership incidences in scan order (ascending fact within each
  /// group, since the scan walks facts ascending), scattered into
  /// per-group lists at emission.
  ArenaVec<std::uint32_t> inc_group;
  ArenaVec<FactId> inc_fact;
  ArenaVec<AggFunction::Accumulator> accums;  // stride = classes
  std::vector<Status> errors;                 // stride = classes
  ArenaVec<Lifespan> life_per_axis;           // stride = axes
  ArenaVec<double> prob_per_axis;             // stride = axes
  ArenaVec<double> expected;
  ArenaVec<Lifespan> result_life;
};

/// The one partitioned group-by scan behind AggregateFormation and
/// AggregateStream. Builds the per-fact entry lists, the live coordinates
/// of every kept fact and the per-class contributions (in parallel chunks
/// when asked), then runs the dense-slot or flat-hash engine the plan
/// chose. Every group accumulates per fact — members ascending, the order
/// the reference evaluator builds groups in — and groups emit in
/// canonical key order (ascending slots ARE that order; flat-hash keys
/// get one final sort), so the output matches the reference at any thread
/// count. A context with num_threads > 1 and at least min_parallel_facts
/// kept facts takes the parallel path, whatever the functions and the
/// hierarchy shapes: the dense engine partitions the slot space into
/// contiguous ranges and the flat-hash engine partitions keys by hash;
/// every worker scans all facts and accumulates only the groups it owns,
/// so each group is built whole by one worker and no partials are ever
/// combined.
GroupScan ScanGroups(const MdObject& mo, const GroupPlan& plan,
                     const ScanRequest& request, ExecContext* exec) {
  const std::vector<FactId>& facts = mo.facts();  // sorted by id
  const std::vector<std::size_t>& live = plan.live;
  const std::size_t nl = live.size();
  const std::size_t nclasses = request.classes.size();
  const std::size_t kept =
      request.keep == nullptr
          ? facts.size()
          : static_cast<std::size_t>(
                std::count(request.keep->begin(), request.keep->end(), true));
  const bool parallel = exec->WantsParallel(kept);
  const bool rendered = request.rendered;
  const bool dense = plan.verdict == DenseSlotSpace::Plan::kDense;
  if (plan.verdict == DenseSlotSpace::Plan::kTooManySlots) {
    ++exec->stats.dense_slot_fallbacks;
  }
  ++(dense ? exec->stats.dense_groupby_runs : exec->stats.flat_hash_runs);
  Arena* coordinator = &exec->arena;

  // Runs body(begin, end, arena) over the fact range: in chunks on the
  // pool, each with its own worker arena, on the parallel path.
  const std::size_t chunks =
      parallel ? std::min(facts.size(), exec->num_threads * 4) : 1;
  if (parallel) exec->EnsureWorkerArenas(chunks);
  const auto for_fact_chunks = [&](const auto& body) {
    exec->RunTasks(parallel, chunks, [&](std::size_t chunk) {
      body(chunk * facts.size() / chunks, (chunk + 1) * facts.size() / chunks,
           parallel ? &exec->worker_arena(chunk) : coordinator);
    });
  };

  // 1. Per-fact entry lists for the live axes and the classes' argument
  //    dimensions: one lockstep walk of each relation's by-fact view
  //    against the sorted fact vector replaces one lookup per (fact,
  //    dimension) below.
  std::vector<bool> wanted(mo.dimension_count(), false);
  for (std::size_t i : live) wanted[i] = true;
  for (const AggFunction& function : request.classes) {
    wanted[function.args().front()] = true;
  }
  const FactEntryLists fact_entries = BuildFactEntryLists(mo, wanted);

  // 2. Live coordinates per kept fact, in fact order, read from the
  //    immutable snapshots only. A fact with an empty list on some axis
  //    joins no group, and a false keep entry is skipped outright —
  //    selection pushdown without the materialized Select.
  std::vector<std::optional<CoordLists>> coords(facts.size());
  for_fact_chunks([&](std::size_t begin, std::size_t end, Arena* arena) {
    for (std::size_t f = begin; f < end; ++f) {
      if (request.keep == nullptr || (*request.keep)[f]) {
        coords[f] = LiveCoordinates(
            mo, plan, [&](std::size_t i) { return fact_entries[i][f]; },
            arena);
      }
    }
  });

  // 3. Per-class contributions of every fact that joins a group. A value
  //    class reads its argument dimension's numeric column, fetched here
  //    on the query thread: the snapshot builds it once per dimension
  //    version and chronon, and every later statement and session view
  //    of the epoch reuses it.
  std::vector<std::vector<FactContribution>> contribs(nclasses);
  for (std::size_t c = 0; c < nclasses; ++c) {
    const AggFunction& function = request.classes[c];
    NumericArg numeric;
    if (function.kind() != AggregateFunctionKind::kCount) {
      const Dimension& dimension = mo.dimension(function.args().front());
      numeric.index = RollupIndex::For(dimension, &exec->stats);
      numeric.column = numeric.index->NumericColumnAt(
          dimension, request.prob_at, &exec->stats);
    }
    contribs[c].resize(facts.size());
    for_fact_chunks([&](std::size_t begin, std::size_t end, Arena* arena) {
      for (std::size_t f = begin; f < end; ++f) {
        if (coords[f].has_value()) {
          contribs[c][f] = ContributionOf(
              mo, function, request.prob_at,
              [&](std::size_t i) { return fact_entries[i][f]; },
              numeric.column != nullptr ? &numeric : nullptr, arena);
        }
      }
    });
  }

  // 4. The partitioned scan.
  const std::size_t num_partitions = parallel ? exec->num_threads : 1;
  if (parallel) exec->EnsureWorkerArenas(num_partitions);
  std::vector<ScanPartition> parts;
  parts.reserve(num_partitions);
  for (std::size_t p = 0; p < num_partitions; ++p) {
    parts.emplace_back(parallel ? &exec->worker_arena(p) : coordinator);
  }
  if (dense) {
    const std::uint64_t slots = plan.space.slot_count();
    const std::uint64_t base = slots / num_partitions;
    const std::uint64_t extra = slots % num_partitions;
    std::uint64_t begin = 0;
    for (std::size_t p = 0; p < num_partitions; ++p) {
      const std::uint64_t width = base + (p < extra ? 1 : 0);
      parts[p].slot_begin = begin;
      parts[p].slot_end = begin + width;
      begin += width;
      parts[p].group_of_slot.assign(static_cast<std::size_t>(width),
                                    FlatHashGroupIndex::kNoGroup);
    }
  }
  const auto scan_partition = [&](std::size_t p) {
    ScanPartition& part = parts[p];
    std::vector<std::size_t> cursor(nl);
    std::vector<ValueId> scratch(nl);
    for (std::size_t f = 0; f < facts.size(); ++f) {
      if (!coords[f].has_value()) continue;
      const CoordLists& per_axis = *coords[f];
      std::fill(cursor.begin(), cursor.end(), 0);
      // Enumerate the cross product of the fact's live coordinate lists
      // (one iteration — the single global group — when nl == 0).
      while (true) {
        std::uint32_t g = FlatHashGroupIndex::kNoGroup;
        if (dense) {
          // Row-major slot over the live axes, lowest dimension index
          // most significant — ascending slots are the canonical order.
          std::uint64_t slot = 0;
          for (std::size_t j = 0; j < nl; ++j) {
            slot = slot * plan.space.cardinality(j) +
                   plan.space.OrdinalOf(j, per_axis[j][cursor[j]].dense);
          }
          if (slot >= part.slot_begin && slot < part.slot_end) {
            std::uint32_t& mapped = part.group_of_slot[static_cast<std::size_t>(
                slot - part.slot_begin)];
            if (mapped == FlatHashGroupIndex::kNoGroup) {
              mapped = part.AddGroup(nl, nclasses, rendered);
              part.slot_of_group.push_back(slot);
            }
            g = mapped;
          }
        } else {
          for (std::size_t j = 0; j < nl; ++j) {
            scratch[j] = per_axis[j][cursor[j]].value;
          }
          const std::uint64_t hash = HashValueIds(scratch.data(), nl);
          if (num_partitions == 1 || hash % num_partitions == p) {
            bool inserted = false;
            g = part.index.FindOrInsert(
                hash, static_cast<std::uint32_t>(part.member_count.size()),
                [&](std::uint32_t ordinal) {
                  return std::equal(scratch.begin(), scratch.end(),
                                    part.key_storage.begin() +
                                        static_cast<std::ptrdiff_t>(
                                            ordinal * nl));
                },
                &inserted);
            if (inserted) {
              part.key_storage.insert(part.key_storage.end(),
                                      scratch.begin(), scratch.end());
              part.AddGroup(nl, nclasses, rendered);
            }
          }
        }
        if (g != FlatHashGroupIndex::kNoGroup) {
          ++part.member_count[g];
          part.inc_group.push_back(g);
          part.inc_fact.push_back(facts[f]);
          if (rendered) {
            const std::size_t axis_base = static_cast<std::size_t>(g) * nl;
            double member_prob = 1.0;
            for (std::size_t j = 0; j < nl; ++j) {
              const Coordinate& c = per_axis[j][cursor[j]];
              Lifespan& life = part.life_per_axis[axis_base + j];
              if (c.life.has_value()) life = life.Intersect(*c.life);
              part.prob_per_axis[axis_base + j] *= c.prob;
              member_prob *= c.prob;
            }
            part.expected[g] += member_prob;
          }
          const std::size_t class_base = static_cast<std::size_t>(g) * nclasses;
          for (std::size_t c = 0; c < nclasses; ++c) {
            const FactContribution& fc = contribs[c][f];
            if (rendered && fc.arg_life.has_value()) {
              part.result_life[g] = part.result_life[g].Intersect(*fc.arg_life);
            }
            Status& error = part.errors[class_base + c];
            if (!error.ok()) continue;
            if (!fc.error.ok()) {
              error = fc.error;
              continue;
            }
            AggFunction::Accumulator& acc = part.accums[class_base + c];
            acc.AddCounted(fc.counted);
            for (double value : fc.values) acc.Add(value);
          }
        }
        // Advance the cross-product cursor.
        std::size_t j = 0;
        while (j < nl && ++cursor[j] == per_axis[j].size()) {
          cursor[j] = 0;
          ++j;
        }
        if (j == nl) break;
      }
    }
  };
  exec->RunTasks(parallel, num_partitions, scan_partition);
  if (parallel) {
    exec->stats.partitions += num_partitions;
    ++exec->stats.parallel_runs;
  }

  // 5. Canonical group order: ascending slot for the dense engine (the
  //    partitions own ascending disjoint ranges), one lexicographic key
  //    sort for the flat-hash engine — both ascending lexicographic key
  //    order.
  struct GroupRef {
    std::uint32_t partition;
    std::uint32_t ordinal;
  };
  std::vector<GroupRef> order;
  const auto merge_start = std::chrono::steady_clock::now();
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const ScanPartition& part = parts[p];
    const std::size_t first = order.size();
    for (std::uint32_t g = 0; g < part.member_count.size(); ++g) {
      order.push_back({static_cast<std::uint32_t>(p), g});
    }
    if (dense) {
      std::sort(order.begin() + static_cast<std::ptrdiff_t>(first),
                order.end(), [&](const GroupRef& a, const GroupRef& b) {
                  return part.slot_of_group[a.ordinal] <
                         part.slot_of_group[b.ordinal];
                });
    }
  }
  if (!dense) {
    std::sort(order.begin(), order.end(),
              [&](const GroupRef& a, const GroupRef& b) {
                const ValueId* ka =
                    parts[a.partition].key_storage.data() + a.ordinal * nl;
                const ValueId* kb =
                    parts[b.partition].key_storage.data() + b.ordinal * nl;
                return std::lexicographical_compare(ka, ka + nl, kb, kb + nl);
              });
  }
  if (parallel) {
    exec->stats.merge_nanos += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - merge_start)
            .count());
  }

  // 6. Emission: gather the owning partitions' state in canonical order
  //    and scatter the incidence logs into ascending member lists.
  GroupScan out;
  out.groups.resize(order.size());
  out.accums.reserve(order.size() * nclasses);
  out.errors.reserve(order.size() * nclasses);
  if (rendered) {
    out.life_per_axis.reserve(order.size() * nl);
    out.prob_per_axis.reserve(order.size() * nl);
    out.expected.reserve(order.size());
    out.result_life.reserve(order.size());
  }
  std::vector<std::vector<std::uint32_t>> out_of(parts.size());
  for (std::size_t p = 0; p < parts.size(); ++p) {
    out_of[p].resize(parts[p].member_count.size());
  }
  for (std::size_t t = 0; t < order.size(); ++t) {
    const auto [p, g] = order[t];
    ScanPartition& part = parts[p];
    StreamGroup& group = out.groups[t];
    if (dense) {
      plan.space.KeyOf(part.slot_of_group[g], group.key);
    } else {
      const ValueId* key = part.key_storage.data() + g * nl;
      group.key.assign(key, key + nl);
    }
    group.member_facts.reserve(part.member_count[g]);
    out_of[p][g] = static_cast<std::uint32_t>(t);
    const std::size_t class_base = static_cast<std::size_t>(g) * nclasses;
    out.accums.insert(out.accums.end(), part.accums.begin() + class_base,
                      part.accums.begin() + class_base + nclasses);
    out.errors.insert(out.errors.end(), part.errors.begin() + class_base,
                      part.errors.begin() + class_base + nclasses);
    if (rendered) {
      const std::size_t axis_base = static_cast<std::size_t>(g) * nl;
      for (std::size_t j = 0; j < nl; ++j) {
        out.life_per_axis.push_back(
            std::move(part.life_per_axis[axis_base + j]));
        out.prob_per_axis.push_back(part.prob_per_axis[axis_base + j]);
      }
      out.expected.push_back(part.expected[g]);
      out.result_life.push_back(std::move(part.result_life[g]));
    }
  }
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const ScanPartition& part = parts[p];
    for (std::size_t e = 0; e < part.inc_group.size(); ++e) {
      out.groups[out_of[p][part.inc_group[e]]].member_facts.push_back(
          part.inc_fact[e]);
    }
  }
  return out;
}

/// Rejects a grouping that does not name one category of each dimension;
/// `op` names the operator in the message.
Status ValidateGrouping(const MdObject& mo,
                        const std::vector<CategoryTypeIndex>& grouping,
                        const char* op) {
  if (grouping.size() != mo.dimension_count()) {
    return Status::InvalidArgument(
        StrCat(op, " got ", grouping.size(), " grouping categories for a ",
               mo.dimension_count(), "-dimensional MO"));
  }
  for (std::size_t i = 0; i < grouping.size(); ++i) {
    if (grouping[i] >= mo.dimension(i).type().category_count()) {
      return Status::InvalidArgument(
          StrCat("grouping category ", grouping[i],
                 " out of range for dimension '", mo.dimension(i).name(),
                 "'"));
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidateAggregateSpec(const MdObject& mo, const AggregateSpec& spec) {
  MDDC_RETURN_NOT_OK(
      ValidateGrouping(mo, spec.grouping, "aggregate formation"));
  if (spec.enforce_aggregation_types) {
    return spec.function.CheckApplicable(mo);
  }
  return Status::OK();
}

/// Steps 4-6 of aggregate formation, shared by every engine: restrict the
/// argument dimensions, build the result dimension under the Section 4.1
/// typing rule, and populate facts/relations from the evaluated groups in
/// canonical order. When spec.capture is set, the raw (pre-presentation)
/// per-group state is recorded here — the one place every engine funnels
/// through with both the accumulators and the evaluations in hand.
Result<MdObject> AssembleAggregateResult(
    const MdObject& mo, const AggregateSpec& spec,
    const SummarizabilityReport& summarizability,
    std::vector<AssembledGroup> groups) {
  const std::size_t n = mo.dimension_count();

  // 4. Argument dimensions restricted to the categories at or above the
  //    grouping categories.
  std::vector<Dimension> dimensions;
  dimensions.reserve(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    MDDC_ASSIGN_OR_RETURN(Dimension restricted,
                          mo.dimension(i).RestrictAbove(spec.grouping[i]));
    dimensions.push_back(std::move(restricted));
  }

  // 5. The result dimension.
  AggregationType bottom_agg =
      ResultBottomAggType(mo, spec, summarizability);
  std::optional<Dimension> result_dimension;
  CategoryTypeIndex result_bottom = 0;
  if (spec.result.is_auto()) {
    DimensionTypeBuilder builder(spec.result.auto_name());
    builder.AddCategory("Value", bottom_agg);
    MDDC_ASSIGN_OR_RETURN(auto type, builder.Build());
    result_dimension.emplace(type);
    result_bottom = type->bottom();
  } else {
    // Apply the typing rule to the prototype: bottom gets the rule's
    // type; higher categories get min(existing, bottom).
    const Dimension& prototype = spec.result.prototype();
    auto type = prototype.type_ptr();
    auto adjusted = type->WithAggType(type->bottom(), bottom_agg);
    for (CategoryTypeIndex c = 0; c < adjusted->category_count(); ++c) {
      if (c == adjusted->bottom()) continue;
      adjusted = adjusted->WithAggType(
          c, MinAggregationType(adjusted->AggType(c), bottom_agg));
    }
    // Rebuild the prototype's content under the adjusted type: the
    // lattice is unchanged, so value/edge structure carries over.
    Dimension rebuilt(adjusted);
    for (ValueId value : prototype.AllValues()) {
      if (value == prototype.top_value()) continue;
      auto category = prototype.CategoryOf(value);
      auto membership = prototype.MembershipOf(value);
      MDDC_RETURN_NOT_OK(rebuilt.AddValue(*category, value, *membership));
    }
    for (const Dimension::Edge& edge : prototype.edges()) {
      MDDC_RETURN_NOT_OK(
          rebuilt.AddOrder(edge.child, edge.parent, edge.life, edge.prob));
    }
    for (const auto& [category, rep_name, rep] :
         prototype.AllRepresentations()) {
      Representation& target = rebuilt.RepresentationFor(category, rep_name);
      for (ValueId value : prototype.ValuesIn(category)) {
        for (const auto& [text, life] : rep->GetAll(value)) {
          MDDC_RETURN_NOT_OK(target.Set(value, text, life));
        }
      }
    }
    result_bottom = adjusted->bottom();
    result_dimension.emplace(std::move(rebuilt));
  }
  dimensions.push_back(*result_dimension);

  MdObject result(StrCat("Set-of-", mo.schema().fact_type()),
                  std::move(dimensions), mo.registry(), mo.temporal_type());

  AggregateFoldState* capture = spec.capture;
  if (capture != nullptr) {
    capture->groups.clear();
    capture->groups.reserve(groups.size());
    capture->summarizability = summarizability;
    capture->dim_versions.clear();
    capture->dim_structural_versions.clear();
    capture->dim_value_counts.clear();
    capture->dim_edge_counts.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const Dimension& dimension = mo.dimension(i);
      capture->dim_versions.push_back(dimension.version());
      capture->dim_structural_versions.push_back(
          dimension.structural_version());
      capture->dim_value_counts.push_back(dimension.value_count());
      capture->dim_edge_counts.push_back(dimension.edges().size());
    }
    // Explicit result specs route results through a caller mapper whose
    // interning order a fold cannot reproduce; only auto captures resume.
    capture->valid = spec.result.is_auto();
  }

  // 5. Populate facts and relations from the evaluated groups, in
  //    canonical group order (members ascending) — g(group) and the result
  //    lifespan are not recomputed here.
  FactRegistry& registry = *mo.registry();
  Dimension& out_result_dim = result.dimension_mutable(n);
  // Result values are interned by the double's bit pattern, not its
  //    formatted text: FormatDouble is injective for finite doubles but
  //    collapses NaN payloads, and two distinct results must never share
  //    a result value. The formatted text is display-only.
  std::map<std::uint64_t, ValueId> auto_values;
  for (AssembledGroup& group : groups) {
    const FactId group_fact = group.group_fact.valid()
                                  ? group.group_fact
                                  : registry.Set(std::move(group.members));
    MDDC_RETURN_NOT_OK(result.AddFact(group_fact));
    const double value = group.value;

    if (capture != nullptr && capture->valid) {
      AggregateFoldState::Group snapshot;
      snapshot.key = group.key;
      snapshot.group_fact = group_fact;
      snapshot.member_count = group.member_count;
      snapshot.life_per_dim = group.life_per_dim;
      snapshot.prob_per_dim = group.prob_per_dim;
      snapshot.result_life = group.result_life;
      snapshot.value = value;
      capture->groups.push_back(std::move(snapshot));
    }

    // Argument-dimension relations: group fact -> grouping value.
    for (std::size_t i = 0; i < n; ++i) {
      Lifespan life = group.life_per_dim[i];
      if (life.Empty()) {
        // The members' spans do not overlap; the grouping still holds
        // atemporally (each member was characterized at its own time), so
        // record the link with the union-of-members semantics instead.
        life = Lifespan::AlwaysSpan();
      }
      MDDC_RETURN_NOT_OK(result.relation_mutable(i).Add(
          group_fact, group.key[i], life, group.prob_per_dim[i]));
    }

    // Result-dimension relation: group fact -> g(group), at the Section
    // 4.2 result lifespan.
    Lifespan result_life = group.result_life;
    ValueId result_value;
    if (spec.result.is_auto()) {
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
      auto it = auto_values.find(bits);
      if (it == auto_values.end()) {
        MDDC_ASSIGN_OR_RETURN(result_value,
                              out_result_dim.AddValueAuto(result_bottom));
        Representation& rep =
            out_result_dim.RepresentationFor(result_bottom, "Value");
        MDDC_RETURN_NOT_OK(rep.Set(result_value, FormatDouble(value)));
        auto_values.emplace(bits, result_value);
      } else {
        result_value = it->second;
      }
    } else {
      MDDC_ASSIGN_OR_RETURN(result_value, spec.result.Map(value));
      if (!out_result_dim.HasValue(result_value)) {
        return Status::InvalidArgument(
            StrCat("result mapper returned value ", result_value,
                   " not present in the result dimension prototype"));
      }
    }
    if (result_life.Empty()) result_life = Lifespan::AlwaysSpan();
    MDDC_RETURN_NOT_OK(result.relation_mutable(n).Add(
        group_fact, result_value, result_life));
  }

  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

Result<MdObject> AggregateFormation(const MdObject& mo,
                                    const AggregateSpec& spec,
                                    ExecContext* exec) {
  DefaultContext scope(exec);
  MDDC_RETURN_NOT_OK(ValidateAggregateSpec(mo, spec));

  // The grouping collects characterizations across all time, so the
  // strictness/partitioning conditions are checked atemporally. The
  // report drives the Section 4.1 typing rule only: the group-by core
  // builds every group whole, so it parallelizes regardless.
  const SummarizabilityReport summarizability =
      CheckSummarizability(mo, spec.function.kind(), spec.grouping);
  const std::size_t n = mo.dimension_count();

  // Everything arena-backed in the core is scratch of this one formation;
  // the guard rewinds the context's arenas on every exit path.
  ArenaResetGuard arena_guard{exec};
  ScanRequest request;
  request.prob_at = spec.prob_at;
  request.rendered = true;
  const bool needs_data = !spec.function.args().empty();
  const bool bad_dim = needs_data && spec.function.args().front() >= n;
  if (needs_data && !bad_dim) request.classes.push_back(spec.function);
  const GroupPlan plan = PlanGroupBy(mo, spec.grouping,
                                     exec->max_dense_groupby_slots,
                                     &exec->stats);
  GroupScan scan = ScanGroups(mo, plan, request, exec);
  if (bad_dim && !scan.groups.empty()) {
    // Every group's Evaluate would fail identically; surface it exactly
    // as the reference does for its first group.
    return Status::InvalidArgument(
        StrCat(spec.function.name(), " references dimension ",
               spec.function.args().front(), " of a ", n, "-dimensional MO"));
  }
  // Re-insert the top-grouped dimensions, which the core never scans:
  // their coordinate is the top value with Always lifespan and
  // probability 1 for every fact.
  const std::size_t nl = plan.live.size();
  std::vector<AssembledGroup> groups(scan.groups.size());
  for (std::size_t t = 0; t < scan.groups.size(); ++t) {
    StreamGroup& group = scan.groups[t];
    AssembledGroup& out = groups[t];
    if (spec.function.kind() == AggregateFunctionKind::kSetCount) {
      out.value = spec.expected_counts
                      ? scan.expected[t]
                      : static_cast<double>(group.member_facts.size());
    } else {
      if (!scan.errors[t].ok()) return scan.errors[t];
      MDDC_ASSIGN_OR_RETURN(out.value, spec.function.Finish(scan.accums[t]));
    }
    out.result_life = std::move(scan.result_life[t]);
    out.key.resize(n);
    out.life_per_dim.resize(n);
    out.prob_per_dim.assign(n, 1.0);
    for (std::size_t i = 0, j = 0; i < n; ++i) {
      if (j < nl && plan.live[j] == i) {
        out.key[i] = group.key[j];
        out.life_per_dim[i] = std::move(scan.life_per_axis[t * nl + j]);
        out.prob_per_dim[i] = scan.prob_per_axis[t * nl + j];
        ++j;
      } else {
        out.key[i] = mo.dimension(i).top_value();
      }
    }
    out.member_count = group.member_facts.size();
    out.members = std::move(group.member_facts);
  }
  return AssembleAggregateResult(mo, spec, summarizability,
                                 std::move(groups));
}

Result<MdObject> FoldAggregateAppend(const MdObject& mo,
                                     const AggregateSpec& spec,
                                     const AggregateFoldState& state,
                                     const std::vector<FactId>& delta_facts,
                                     ExecContext* exec) {
  DefaultContext scope(exec);
  const std::size_t n = mo.dimension_count();
  if (!state.valid) {
    return Status::InvalidArgument("fold state is not resumable");
  }
  if (spec.grouping.size() != n || state.dim_versions.size() != n ||
      state.dim_structural_versions.size() != n ||
      state.dim_value_counts.size() != n ||
      state.dim_edge_counts.size() != n ||
      state.summarizability.strict_path.size() != n ||
      state.summarizability.partitioning.size() != n) {
    return Status::InvalidArgument(
        StrCat("fold state shape does not match the ", n,
               "-dimensional MO"));
  }
  if (!spec.result.is_auto()) {
    return Status::InvalidArgument(
        "fold supports auto result dimensions only");
  }
  const AggregateFunctionKind kind = spec.function.kind();
  const bool foldable =
      kind == AggregateFunctionKind::kSum ||
      kind == AggregateFunctionKind::kCount ||
      kind == AggregateFunctionKind::kMin ||
      kind == AggregateFunctionKind::kMax ||
      (kind == AggregateFunctionKind::kSetCount && !spec.expected_counts);
  if (!foldable) {
    return Status::InvalidArgument(
        StrCat(spec.function.name(),
               " is not incrementally foldable (AVG re-divides and expected"
               " counts re-weigh every member)"));
  }
  if (!spec.function.args().empty() && spec.function.args().front() >= n) {
    return Status::InvalidArgument(
        StrCat(spec.function.name(), " references dimension ",
               spec.function.args().front(), " of a ", n, "-dimensional MO"));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Dimension& dimension = mo.dimension(i);
    if (dimension.structural_version() != state.dim_structural_versions[i]) {
      return Status::InvalidArgument(
          StrCat("dimension '", dimension.name(),
                 "' changed structurally since the fold state was captured"));
    }
    // An append-classed edge under a child that predates the capture
    // gives old facts coordinates the captured groups never saw.
    if (spec.grouping[i] == dimension.type().top()) continue;
    const std::vector<Dimension::Edge>& edges = dimension.edges();
    for (std::size_t e = state.dim_edge_counts[i]; e < edges.size(); ++e) {
      if (!dimension.AddedAfter(edges[e].child, state.dim_value_counts[i])) {
        return Status::InvalidArgument(
            StrCat("dimension '", dimension.name(), "' gained an edge under "
                   "a value that predates the fold state"));
      }
    }
  }
  if (spec.enforce_aggregation_types) {
    MDDC_RETURN_NOT_OK(spec.function.CheckApplicable(mo));
  }

  // Recompose the atemporal summarizability report. Strict-path is a
  // per-fact universal, so it factorizes: the captured verdict covers the
  // old facts (whose upward closures appends cannot change — appended
  // edges only ever hang fresh children) and only the delta is scanned.
  // Partitioning is dimension-local and CAN flip under a value/edge
  // append, so it is recomputed whenever the dimension's version moved.
  SummarizabilityReport summarizability;
  summarizability.distributive = IsDistributive(kind);
  summarizability.summarizable = summarizability.distributive;
  for (std::size_t i = 0; i < n; ++i) {
    if (spec.grouping[i] == mo.dimension(i).type().top()) {
      summarizability.strict_path.push_back(true);
      summarizability.partitioning.push_back(true);
      continue;
    }
    const bool strict =
        state.summarizability.strict_path[i] &&
        HasStrictPath(mo, i, spec.grouping[i], std::nullopt, &delta_facts);
    const bool partitioning =
        mo.dimension(i).version() == state.dim_versions[i]
            ? state.summarizability.partitioning[i]
            : IsPartitioningUpTo(mo.dimension(i), spec.grouping[i]);
    summarizability.strict_path.push_back(strict);
    summarizability.partitioning.push_back(partitioning);
    summarizability.summarizable =
        summarizability.summarizable && strict && partitioning;
  }

  // The captured groups are checked in place against the registry (set
  // terms stay resolvable through fork chains); no member list is copied
  // here, and untouched groups never copy theirs.
  const FactRegistry& registry = *mo.registry();
  FactId max_old_member;  // invalid = no captured members at all
  for (std::size_t g = 0; g < state.groups.size(); ++g) {
    const AggregateFoldState::Group& old_group = state.groups[g];
    if (old_group.key.size() != n || old_group.life_per_dim.size() != n ||
        old_group.prob_per_dim.size() != n) {
      return Status::InvalidArgument("fold state group shape mismatch");
    }
    if (g > 0 && !(state.groups[g - 1].key < old_group.key)) {
      return Status::InvalidArgument(
          "fold state groups are not in canonical key order");
    }
    const FactTerm* term = registry.FindTerm(old_group.group_fact);
    if (term == nullptr || term->kind != FactTerm::Kind::kSet ||
        term->members().size() != old_group.member_count) {
      return Status::InvalidArgument("fold state group members drifted");
    }
    const std::span<const FactId> members = term->members();
    if (!members.empty() &&
        (!max_old_member.valid() || max_old_member < members.back())) {
      max_old_member = members.back();
    }
  }
  // The byte-identity argument needs every delta fact to sort after every
  // captured member and the delta itself to ascend — the natural shape of
  // registry appends. Anything else must take the full re-run.
  for (std::size_t f = 0; f < delta_facts.size(); ++f) {
    if (f > 0 && !(delta_facts[f - 1] < delta_facts[f])) {
      return Status::InvalidArgument("delta facts are not ascending");
    }
    if (max_old_member.valid() && !(max_old_member < delta_facts[f])) {
      return Status::InvalidArgument(
          "delta facts do not all follow the captured members");
    }
  }

  // The delta scan, on the core's planning step: each delta fact's live
  // coordinates come from the planned rollup snapshots (which patch
  // incrementally on appends — see RollupIndex::For) and its contribution
  // from ContributionOf. A group the delta touches resumes from its
  // captured state (a fresh group from the empty one) and folds its delta
  // members as the scan meets them, facts ascending — the very left-folds
  // a full run performs over old-then-new members: coordinate lifespans
  // and probability products per dimension, the Section 4.2 result
  // lifespan, and the accumulator seeded from the captured value.
  // Combining a separately accumulated delta partial instead would not be
  // byte-identical for SUM or for probabilities. The delta is small by
  // construction, so the scan stays sequential.
  ArenaResetGuard arena_guard{exec};
  const GroupPlan plan = PlanGroupBy(
      mo, spec.grouping, exec->max_dense_groupby_slots, &exec->stats);
  struct Touched {
    AssembledGroup group;
    AggFunction::Accumulator acc;
  };
  std::vector<Touched> touched;
  std::vector<std::size_t> by_key;  // touched, in canonical key order
  const auto captured = [](const AggregateFoldState::Group& old) {
    return AssembledGroup{.key = old.key,
                          .group_fact = old.group_fact,
                          .member_count = old.member_count,
                          .life_per_dim = old.life_per_dim,
                          .prob_per_dim = old.prob_per_dim,
                          .value = old.value,
                          .result_life = old.result_life};
  };
  const auto resume = [&](const std::vector<ValueId>& key) -> Touched& {
    const auto at = std::lower_bound(
        by_key.begin(), by_key.end(), key,
        [&](std::size_t t, const auto& k) { return touched[t].group.key < k; });
    if (at != by_key.end() && touched[*at].group.key == key) {
      return touched[*at];
    }
    by_key.insert(at, touched.size());
    Touched& t = touched.emplace_back();
    const auto old = std::lower_bound(
        state.groups.begin(), state.groups.end(), key,
        [](const auto& g, const auto& k) { return g.key < k; });
    if (old == state.groups.end() || old->key != key) {
      t.group = AssembledGroup{.key = key,
                               .life_per_dim = std::vector<Lifespan>(
                                   n, Lifespan::AlwaysSpan()),
                               .prob_per_dim = std::vector<double>(n, 1.0),
                               .result_life = Lifespan::AlwaysSpan()};
      return t;
    }
    t.group = captured(*old);
    t.group.group_fact = FactId();
    const std::span<const FactId> members =
        registry.FindTerm(old->group_fact)->members();
    t.group.members.assign(members.begin(), members.end());
    // The captured value IS the accumulator's settled statistic, and
    // count only matters to Finish's empty-group error, which the capture
    // already cleared. SetCount resumes from the member count.
    t.acc.count = 1;
    if (kind == AggregateFunctionKind::kSum) t.acc.sum = old->value;
    if (kind == AggregateFunctionKind::kMin) t.acc.min_value = old->value;
    if (kind == AggregateFunctionKind::kMax) t.acc.max_value = old->value;
    if (kind == AggregateFunctionKind::kCount) {
      t.acc.count = static_cast<std::size_t>(old->value);
    }
    return t;
  };
  const std::size_t nl = plan.live.size();
  std::vector<ValueId> key(n);
  for (std::size_t i = 0; i < n; ++i) key[i] = mo.dimension(i).top_value();
  for (const FactId fact : delta_facts) {
    const auto entries = [&](std::size_t i) {
      return EntrySpan::Of(mo.relation(i).EntryIndexesForFact(fact));
    };
    const std::optional<CoordLists> coords =
        LiveCoordinates(mo, plan, entries, &exec->arena);
    if (!coords.has_value()) continue;
    const FactContribution c = ContributionOf(
        mo, spec.function, spec.prob_at, entries, nullptr, &exec->arena);
    MDDC_RETURN_NOT_OK(c.error);
    std::vector<std::size_t> cursor(nl, 0);
    while (true) {
      for (std::size_t j = 0; j < nl; ++j) {
        key[plan.live[j]] = (*coords)[j][cursor[j]].value;
      }
      Touched& t = resume(key);
      t.group.members.push_back(fact);
      for (std::size_t j = 0; j < nl; ++j) {
        const Coordinate& coord = (*coords)[j][cursor[j]];
        Lifespan& life = t.group.life_per_dim[plan.live[j]];
        if (coord.life.has_value()) life = life.Intersect(*coord.life);
        t.group.prob_per_dim[plan.live[j]] *= coord.prob;
      }
      if (c.arg_life.has_value()) {
        t.group.result_life = t.group.result_life.Intersect(*c.arg_life);
      }
      t.acc.AddCounted(c.counted);
      for (double value : c.values) t.acc.Add(value);
      // Advance the cross-product cursor.
      std::size_t j = 0;
      while (j < nl && ++cursor[j] == (*coords)[j].size()) {
        cursor[j] = 0;
        ++j;
      }
      if (j == nl) break;
    }
  }

  // One ordered merge of the captured groups with the touched ones, both
  // in canonical key order. An untouched group replays its interned
  // set-fact and captured state verbatim, its member list never read.
  std::vector<AssembledGroup> groups;
  groups.reserve(state.groups.size() + touched.size());
  const auto settle = [&](Touched& t) -> Status {
    t.group.member_count = t.group.members.size();
    if (kind == AggregateFunctionKind::kSetCount) {
      t.group.value = static_cast<double>(t.group.member_count);
    } else {
      MDDC_ASSIGN_OR_RETURN(t.group.value, spec.function.Finish(t.acc));
    }
    groups.push_back(std::move(t.group));
    return Status::OK();
  };
  std::size_t next = 0;
  for (const AggregateFoldState::Group& old : state.groups) {
    for (; next < by_key.size() && !(old.key < touched[by_key[next]].group.key);
         ++next) {
      MDDC_RETURN_NOT_OK(settle(touched[by_key[next]]));
    }
    if (groups.empty() || groups.back().key != old.key) {
      groups.push_back(captured(old));
    }
  }
  for (; next < by_key.size(); ++next) {
    MDDC_RETURN_NOT_OK(settle(touched[by_key[next]]));
  }

  ++exec->stats.aggregate_folds;
  return AssembleAggregateResult(mo, spec, summarizability,
                                 std::move(groups));
}

// ---- Streaming multi-aggregate group-by ------------------------------------

StreamProbe AggregateStreamProbe(const MdObject& mo,
                                 const std::vector<CategoryTypeIndex>& grouping,
                                 ExecContext* exec) {
  DefaultContext scope(exec);
  StreamProbe probe;
  if (!ValidateGrouping(mo, grouping, "aggregate stream probe").ok()) {
    return probe;
  }
  // The probe never touches stats: EXPLAIN must not perturb the counters
  // of the statements it describes.
  const GroupPlan plan =
      PlanGroupBy(mo, grouping, exec->max_dense_groupby_slots, nullptr);
  probe.live = plan.live;
  probe.all_indexed = plan.verdict != DenseSlotSpace::Plan::kNotIndexed;
  if (plan.verdict == DenseSlotSpace::Plan::kDense) {
    probe.dense = true;
    probe.slot_product = plan.space.slot_count();
  } else if (plan.verdict == DenseSlotSpace::Plan::kTooManySlots) {
    // Re-plan unbounded so EXPLAIN can still print the product (stays 0
    // when it overflows 64 bits).
    const GroupPlan wide = PlanGroupBy(
        mo, grouping, std::numeric_limits<std::uint64_t>::max(), nullptr);
    if (wide.verdict == DenseSlotSpace::Plan::kDense) {
      probe.slot_product = wide.space.slot_count();
    }
  }
  return probe;
}

Result<std::vector<StreamGroup>> AggregateStream(const MdObject& mo,
                                                 const StreamSpec& spec,
                                                 ExecContext* exec) {
  DefaultContext scope(exec);
  const std::size_t n = mo.dimension_count();
  MDDC_RETURN_NOT_OK(ValidateGrouping(mo, spec.grouping, "aggregate stream"));
  const std::vector<FactId>& facts = mo.facts();  // sorted by id
  if (spec.keep != nullptr && spec.keep->size() != facts.size()) {
    return Status::InvalidArgument(
        StrCat("aggregate stream keep mask covers ", spec.keep->size(),
               " facts of ", facts.size()));
  }

  // Everything arena-backed in the core is scratch of this one stream;
  // the guard rewinds the context's arenas on every exit path (the
  // returned groups are plain heap state).
  ArenaResetGuard arena_guard{exec};
  ScanRequest request;
  request.prob_at = spec.prob_at;
  request.keep = spec.keep;

  // The accumulator classes behind spec.functions: one per argument
  // dimension and pair-vs-value reading. SetCount reads member counts
  // and an out-of-range argument fails at emission, so neither needs one.
  std::vector<std::size_t> class_of(spec.functions.size());
  for (std::size_t k = 0; k < spec.functions.size(); ++k) {
    const AggFunction& fn = spec.functions[k];
    if (fn.args().empty() || fn.args().front() >= n) continue;
    const bool counts = fn.kind() == AggregateFunctionKind::kCount;
    std::size_t c = 0;
    for (; c < request.classes.size(); ++c) {
      const AggFunction& exemplar = request.classes[c];
      if (exemplar.args().front() == fn.args().front() &&
          (exemplar.kind() == AggregateFunctionKind::kCount) == counts) {
        break;
      }
    }
    if (c == request.classes.size()) request.classes.push_back(fn);
    class_of[k] = c;
  }
  const std::size_t nclasses = request.classes.size();

  const GroupPlan plan = PlanGroupBy(
      mo, spec.grouping, exec->max_dense_groupby_slots, &exec->stats);
  GroupScan scan = ScanGroups(mo, plan, request, exec);

  // Function-major emission: function k's errors (CheckApplicable, then
  // each group's sticky class error or Finish failure, in canonical group
  // order) surface before function k+1 computes anything — exactly the
  // order running the functions one AggregateFormation at a time
  // produces.
  std::vector<StreamGroup>& out = scan.groups;
  for (StreamGroup& group : out) group.values.reserve(spec.functions.size());
  for (std::size_t k = 0; k < spec.functions.size(); ++k) {
    const AggFunction& fn = spec.functions[k];
    if (spec.enforce_aggregation_types) {
      MDDC_RETURN_NOT_OK(fn.CheckApplicable(mo));
    }
    if (fn.args().empty()) {
      for (StreamGroup& group : out) {
        group.values.push_back(
            static_cast<double>(group.member_facts.size()));
      }
      continue;
    }
    if (fn.args().front() >= n) {
      // Every group's evaluation would fail identically; surface it
      // exactly as AggregateFormation does for its first group (and stay
      // silent when there are no groups, as it does).
      if (!out.empty()) {
        return Status::InvalidArgument(
            StrCat(fn.name(), " references dimension ", fn.args().front(),
                   " of a ", n, "-dimensional MO"));
      }
      continue;
    }
    for (std::size_t t = 0; t < out.size(); ++t) {
      const std::size_t at = t * nclasses + class_of[k];
      if (!scan.errors[at].ok()) return scan.errors[at];
      MDDC_ASSIGN_OR_RETURN(double value, fn.Finish(scan.accums[at]));
      out[t].values.push_back(value);
    }
  }
  return std::move(out);
}

}  // namespace mddc
