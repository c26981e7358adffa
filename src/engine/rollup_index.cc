#include "engine/rollup_index.h"

#include <algorithm>
#include <mutex>

namespace mddc {
namespace {

/// Serializes all compiled-snapshot slot reads and writes process-wide.
/// A single global mutex keeps the core layer free of any threading
/// machinery (the slot itself is a plain shared_ptr) and is never
/// contended on the hot path: operators call For() once per dimension
/// from the query thread, before fanning out workers.
std::mutex& SlotMutex() {
  static std::mutex mutex;
  return mutex;
}

}  // namespace

std::uint32_t RollupIndex::DenseOf(ValueId v) const {
  auto it = std::lower_bound(value_of_.begin(), value_of_.end(), v);
  if (it == value_of_.end() || *it != v) return kNone;
  return static_cast<std::uint32_t>(it - value_of_.begin());
}

const std::uint32_t* RollupIndex::CategoryBegin(
    CategoryTypeIndex category) const {
  if (category + 1 >= category_begin_.size()) return category_values_.data();
  return category_values_.data() + category_begin_[category];
}

const std::uint32_t* RollupIndex::CategoryEnd(
    CategoryTypeIndex category) const {
  if (category + 1 >= category_begin_.size()) return category_values_.data();
  return category_values_.data() + category_begin_[category + 1];
}

std::shared_ptr<const NumericColumn> RollupIndex::NumericColumnAt(
    const Dimension& dimension, Chronon at, ExecStats* stats) const {
  // A handful of chronons covers a dashboard's ASOF/PROB AT mix without
  // letting a sweep over many chronons grow the snapshot.
  constexpr std::size_t kMaxColumns = 4;
  std::lock_guard<std::mutex> lock(numeric_mutex_);
  for (const auto& [chronon, column] : numeric_columns_) {
    if (chronon == at) return column;
  }
  auto column = std::make_shared<NumericColumn>();
  const std::uint32_t n = value_count();
  column->value.assign(n, 0.0);
  column->numeric.assign(n, 0);
  for (std::uint32_t d = 0; d < n; ++d) {
    if (d == top_dense_) continue;  // top is unknown, never a number
    Result<double> value = dimension.NumericValueOf(value_of_[d], at);
    if (value.ok()) {
      column->value[d] = *value;
      column->numeric[d] = 1;
    }
  }
  if (stats != nullptr) ++stats->numeric_column_builds;
  if (numeric_columns_.size() == kMaxColumns) {
    numeric_columns_.erase(numeric_columns_.begin());
  }
  numeric_columns_.emplace_back(at, column);
  return column;
}

std::shared_ptr<const RollupIndex> RollupIndex::For(const Dimension& dimension,
                                                    ExecStats* stats) {
  // Publish-frozen dimensions (the MVCC serving tier, src/serve) promise
  // that the slot is filled, final, and never written again, so the read
  // needs no mutex — this keeps concurrent reader sessions lock-free on
  // the hot path. Should a frozen dimension nevertheless arrive with an
  // empty or stale slot (a publisher that forgot to pre-compile), build a
  // one-off snapshot WITHOUT caching it: writing the slot of a frozen
  // dimension would race against other lock-free readers.
  // A stale snapshot whose structural version still matches was outdated
  // by appends only and is patched — O(V+E) plus closure walks for just
  // the fresh values — instead of recompiled from scratch.
  auto compile = [&](const std::shared_ptr<const RollupIndex>& cached)
      -> std::shared_ptr<const RollupIndex> {
    if (cached != nullptr &&
        cached->structural_version() == dimension.structural_version()) {
      std::shared_ptr<const RollupIndex> patched =
          Patch(dimension, *cached);
      if (patched != nullptr) {
        if (stats != nullptr) {
          ++stats->index_builds;
          ++stats->rollup_patches;
        }
        return patched;
      }
    }
    std::shared_ptr<const RollupIndex> built = Build(dimension);
    if (stats != nullptr) ++stats->index_builds;
    return built;
  };

  if (dimension.publish_frozen()) {
    auto cached = std::static_pointer_cast<const RollupIndex>(
        dimension.compiled_snapshot_slot());
    if (cached != nullptr && !cached->StaleFor(dimension)) {
      return cached;
    }
    return compile(cached);
  }

  std::lock_guard<std::mutex> lock(SlotMutex());
  auto cached = std::static_pointer_cast<const RollupIndex>(
      dimension.compiled_snapshot_slot());
  if (cached != nullptr && !cached->StaleFor(dimension)) {
    return cached;
  }
  std::shared_ptr<const RollupIndex> built = compile(cached);
  dimension.set_compiled_snapshot_slot(built);
  return built;
}

void RollupIndex::FillCategoryRanges() {
  // Per-category ranges, sorted by ValueId (= by dense id).
  const std::uint32_t n = value_count();
  category_begin_.assign(category_count_ + 1, 0);
  for (std::uint32_t d = 0; d < n; ++d) {
    ++category_begin_[category_of_[d] + 1];
  }
  for (std::size_t c = 0; c < category_count_; ++c) {
    category_begin_[c + 1] += category_begin_[c];
  }
  category_values_.resize(n);
  std::vector<std::uint32_t> category_cursor(category_begin_.begin(),
                                             category_begin_.end() - 1);
  for (std::uint32_t d = 0; d < n; ++d) {
    category_values_[category_cursor[category_of_[d]]++] = d;
  }
}

void RollupIndex::FillCsrArrays(const Dimension& dimension) {
  // CSR edge arrays, both directions, in the dimension's per-value edge
  // order (insertion order, like EdgeIndexesFromChild/ToParent).
  const std::uint32_t n = value_count();
  const std::vector<Dimension::Edge>& edges = dimension.edges();
  auto fill_csr = [&](bool upward, std::vector<std::uint32_t>& begin,
                      std::vector<std::uint32_t>& target,
                      std::vector<Lifespan>& life, std::vector<double>& prob) {
    begin.assign(n + 1, 0);
    target.clear();
    life.clear();
    prob.clear();
    target.reserve(edges.size());
    life.reserve(edges.size());
    prob.reserve(edges.size());
    for (std::uint32_t d = 0; d < n; ++d) {
      begin[d] = static_cast<std::uint32_t>(target.size());
      const std::vector<std::size_t>& indexes =
          upward ? dimension.EdgeIndexesFromChild(value_of_[d])
                 : dimension.EdgeIndexesToParent(value_of_[d]);
      for (std::size_t e : indexes) {
        const Dimension::Edge& edge = edges[e];
        target.push_back(DenseOf(upward ? edge.parent : edge.child));
        life.push_back(edge.life);
        prob.push_back(edge.prob);
      }
    }
    begin[n] = static_cast<std::uint32_t>(target.size());
  };
  fill_csr(/*upward=*/true, up_begin_, up_target_, up_life_, up_prob_);
  fill_csr(/*upward=*/false, down_begin_, down_target_, down_life_,
           down_prob_);
  edge_count_ = edges.size();
}

std::shared_ptr<const RollupIndex> RollupIndex::Build(
    const Dimension& dimension) {
  auto index = std::shared_ptr<RollupIndex>(new RollupIndex());
  index->version_ = dimension.version();
  index->structural_version_ = dimension.structural_version();
  index->category_count_ = dimension.type().category_count();

  // Dense remapping: AllValues() iterates the dimension's value map in
  // ascending ValueId order, so dense ids are ascending too and DenseOf
  // can binary-search value_of_.
  const std::vector<ValueId> values = dimension.AllValues();
  const std::uint32_t n = static_cast<std::uint32_t>(values.size());
  index->value_of_ = values;
  index->category_of_.resize(n);
  index->membership_of_.resize(n);
  for (std::uint32_t d = 0; d < n; ++d) {
    if (values[d] == dimension.top_value()) index->top_dense_ = d;
    auto category = dimension.CategoryOf(values[d]);
    auto membership = dimension.MembershipOf(values[d]);
    index->category_of_[d] = category.ok() ? *category : 0;
    if (membership.ok()) index->membership_of_[d] = *membership;
  }

  index->FillCategoryRanges();
  index->FillCsrArrays(dimension);
  index->run_begin_.assign(1, 0);
  index->run_lives_.assign(1, Lifespan::AlwaysSpan());
  index->AppendRuns(dimension, 0);
  index->FillFlatTable(dimension);
  return index;
}

void RollupIndex::AppendRuns(const Dimension& dimension,
                             std::uint32_t first) {
  const std::uint32_t n = value_count();
  const std::size_t categories = category_count_;
  run_begin_.reserve(n * categories + 1);
  static const std::vector<Dimension::Containment> kNoAncestors;
  std::vector<std::uint32_t> closure;  // dense ids of one AncestorsView
  for (std::uint32_t d = first; d < n; ++d) {
    const std::vector<Dimension::Containment>& ancestors =
        d == top_dense_ ? kNoAncestors : dimension.AncestorsView(value_of_[d]);
    closure.clear();
    for (const Dimension::Containment& c : ancestors) {
      closure.push_back(DenseOf(c.value));
    }
    // One pass per category keeps AncestorsView order inside each run;
    // categories are few and closures short.
    for (std::size_t category = 0; category < categories; ++category) {
      for (std::size_t k = 0; k < ancestors.size(); ++k) {
        const std::uint32_t ancestor = closure[k];
        if (ancestor == kNone || ancestor == top_dense_ ||
            category_of_[ancestor] != category) {
          continue;
        }
        const Dimension::Containment& c = ancestors[k];
        std::uint32_t life = kAlwaysLife;
        if (!c.life.IsAlways()) {
          life = static_cast<std::uint32_t>(run_lives_.size());
          run_lives_.push_back(c.life);
        }
        run_entries_.push_back(RunEntry{ancestor, life, c.prob});
      }
      run_begin_.push_back(static_cast<std::uint32_t>(run_entries_.size()));
    }
  }
}

void RollupIndex::FillFlatTable(const Dimension& dimension) {
  // The gate: Section 3.4 strictness plus non-temporal edges. Under it
  // every closure lifespan is Always (intersections and unions of Always
  // stay Always), so the table needs no lifespan column, and strictness —
  // at most one ancestor per category, i.e. no run longer than one —
  // makes ancestor-at-category a function.
  const std::size_t categories = category_count_;
  flat_ancestor_.clear();
  flat_prob_.clear();
  has_flat_table_ = false;
  for (const Dimension::Edge& edge : dimension.edges()) {
    if (!(edge.life == Lifespan::AlwaysSpan())) return;
  }
  for (std::size_t r = 0; r + 1 < run_begin_.size(); ++r) {
    if (run_begin_[r + 1] - run_begin_[r] > 1) return;
  }
  has_flat_table_ = true;
  const std::uint32_t n = value_count();
  flat_ancestor_.assign(n * categories, kNone);
  flat_prob_.assign(n * categories, 0.0);
  for (std::uint32_t d = 0; d < n; ++d) {
    const auto set = [&](CategoryTypeIndex category, std::uint32_t ancestor,
                         double p) {
      flat_ancestor_[d * categories + category] = ancestor;
      flat_prob_[d * categories + category] = p;
    };
    // The value answers a rollup to its own category with itself...
    set(category_of_[d], d, 1.0);
    if (d == top_dense_) continue;
    // ...its runs name the ancestor elsewhere, and top contains it
    // unconditionally.
    for (CategoryTypeIndex category = 0; category < categories; ++category) {
      for (const RunEntry* c = RunBegin(d, category); c != RunEnd(d, category);
           ++c) {
        set(category, c->ancestor, c->prob);
      }
    }
    if (top_dense_ != kNone) set(category_of_[top_dense_], top_dense_, 1.0);
  }
}

std::shared_ptr<const RollupIndex> RollupIndex::Patch(
    const Dimension& dimension, const RollupIndex& old) {
  // The patch gate: the dimension must be `old` plus appends. Appends
  // insert fresh values (auto ids above every old non-top id, below the
  // top sentinel) and hang edges under them only, so in ascending ValueId
  // order the old non-top values keep their dense ids, fresh values slot
  // in before top, and top — the maximal raw id — shifts to stay last.
  // Anything else (values vanished, top not last, category schema moved)
  // means structural drift the caller must Build through.
  const std::vector<ValueId> values = dimension.AllValues();
  const std::uint32_t n = static_cast<std::uint32_t>(values.size());
  const std::uint32_t old_n = old.value_count();
  if (old_n == 0 || n < old_n) return nullptr;
  if (old.top_dense_ != old_n - 1) return nullptr;
  if (values[n - 1] != dimension.top_value()) return nullptr;
  if (old.value_of_[old_n - 1] != values[n - 1]) return nullptr;
  for (std::uint32_t d = 0; d + 1 < old_n; ++d) {
    if (values[d] != old.value_of_[d]) return nullptr;
  }
  const std::vector<Dimension::Edge>& edges = dimension.edges();
  if (edges.size() < old.edge_count_) return nullptr;
  if (dimension.type().category_count() != old.category_count_) {
    return nullptr;
  }

  auto index = std::shared_ptr<RollupIndex>(new RollupIndex());
  index->version_ = dimension.version();
  index->structural_version_ = dimension.structural_version();
  index->category_count_ = old.category_count_;
  index->value_of_ = values;
  index->top_dense_ = n - 1;
  // The O(V)/O(V+E) arrays are refilled outright — they are the cheap
  // part; what the patch saves is the closure walk per value below.
  index->category_of_.resize(n);
  index->membership_of_.assign(n, Lifespan());
  for (std::uint32_t d = 0; d < n; ++d) {
    auto category = dimension.CategoryOf(values[d]);
    auto membership = dimension.MembershipOf(values[d]);
    index->category_of_[d] = category.ok() ? *category : 0;
    if (membership.ok()) index->membership_of_[d] = *membership;
  }
  index->FillCategoryRanges();
  index->FillCsrArrays(dimension);

  // Ancestor runs: values that predate the dimension's append watermark
  // keep theirs verbatim — appends since the last structural change never
  // alter their upward closures (edges only hang under fresh children),
  // and runs never name top, the one old value whose dense id moved.
  // Fresh values are the highest non-top dense ids and pay a closure walk
  // — all of them, not only those `old` lacks: an edge appended under a
  // value that was already fresh when `old` was compiled changes that
  // value's closure (and its fresh descendants') without a structural
  // bump. The flat table is then re-derived from the runs under the same
  // gate Build applies.
  const std::uint32_t fresh = static_cast<std::uint32_t>(std::min<std::size_t>(
      n - 1, values.size() - dimension.append_watermark()));
  const std::uint32_t kept = std::min(old_n - 1, (n - 1) - fresh);
  const std::size_t old_rows = kept * old.category_count_;
  index->run_begin_.assign(old.run_begin_.begin(),
                           old.run_begin_.begin() + old_rows + 1);
  index->run_entries_.assign(
      old.run_entries_.begin(),
      old.run_entries_.begin() + old.run_begin_[old_rows]);
  // The lifespan pool fills in dense order too: keep the prefix the kept
  // runs reference, so recomputed values do not leave dead lifespans.
  std::size_t kept_lives = old.run_lives_.size();
  for (std::size_t e = old.run_begin_[old_rows]; e < old.run_entries_.size();
       ++e) {
    if (old.run_entries_[e].life != kAlwaysLife) {
      kept_lives = old.run_entries_[e].life;
      break;
    }
  }
  index->run_lives_.assign(old.run_lives_.begin(),
                           old.run_lives_.begin() + kept_lives);
  index->AppendRuns(dimension, kept);
  index->FillFlatTable(dimension);
  return index;
}

}  // namespace mddc
