#ifndef MDDC_CORE_FACT_H_
#define MDDC_CORE_FACT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/flat_hash.h"
#include "common/id.h"
#include "common/result.h"

namespace mddc {

/// The structure of a fact. In the paper, facts are "objects with a
/// separate identity" (Section 3.1); the identity-based join produces
/// facts that are *pairs* of argument facts, and aggregate formation
/// produces facts that are *sets* of argument facts ("the facts are of
/// type sets of the argument fact type"). FactTerm captures those three
/// shapes.
struct FactTerm {
  enum class Kind { kAtom, kPair, kSet };

  Kind kind = Kind::kAtom;
  /// kAtom: the external key of the fact (e.g., the patient's surrogate id
  /// in the case study).
  std::uint64_t atom = 0;
  /// kPair: the two components, in order.
  FactId first;
  FactId second;
  /// kSet: the member facts, sorted and deduplicated, in immutable
  /// storage. Every copy of the term shares the one buffer — the forks
  /// of a registry, its flattened copies and the terms Get() hands out —
  /// so neither copying a term nor flattening a registry copies a member
  /// list. Null for the other kinds.
  std::shared_ptr<const std::vector<FactId>> member_list;

  /// kSet: the member facts (empty for the other kinds).
  std::span<const FactId> members() const {
    return member_list == nullptr ? std::span<const FactId>()
                                  : std::span<const FactId>(*member_list);
  }

  /// Structural equality: member lists compare by content, with a
  /// shared-buffer shortcut first.
  friend bool operator==(const FactTerm& a, const FactTerm& b);
};

/// Interns fact terms and hands out dense FactIds so that fact equality is
/// id equality and fact *sets* have canonical identity (interning the
/// sorted member list means the same group of facts always maps to the
/// same FactId — the paper's "the facts of an MO are a set, so we do not
/// have duplicate facts"). A registry is shared (via shared_ptr) among an
/// MO and all MOs derived from it by algebra operators, so fact identity
/// is preserved across operator application.
class FactRegistry {
 public:
  FactRegistry() = default;
  FactRegistry(const FactRegistry&) = delete;
  FactRegistry& operator=(const FactRegistry&) = delete;

  /// An O(1) copy-on-write fork: the new registry resolves every id the
  /// base knows through the (immutable) base and interns new terms
  /// locally, with ids continuing where the base stops. Ids are therefore
  /// stable across the fork — a fact interned before the fork has the same
  /// id in every fork, and two forks that intern the same sequence of new
  /// terms assign the same new ids.
  ///
  /// The base MUST be frozen: no call may mutate it once a fork exists
  /// (the MVCC serving tier guarantees this by construction — published
  /// epochs are immutable, and writers fork before mutating). Forks of the
  /// same frozen base are independent; concurrent use of different forks
  /// is safe because each fork only reads the base.
  static std::shared_ptr<FactRegistry> ForkOf(
      std::shared_ptr<const FactRegistry> base);

  /// Collapses a fork chain into a fresh root registry (fork_depth() ==
  /// 0) preserving every id. The cost is O(terms): each term is copied
  /// with its member list shared, not copied, and each dedup slot moves
  /// into the root's tables under the hash it already stores, so no term
  /// is re-hashed. The writer path flattens when chains grow so resolving
  /// an id stays a short walk, not O(epochs).
  std::shared_ptr<FactRegistry> Flatten() const;

  /// Number of overlay links back to a root registry (0 for a root).
  std::size_t fork_depth() const { return fork_depth_; }

  /// Interns an atomic fact with the given external key.
  FactId Atom(std::uint64_t external_key);

  /// Interns the ordered pair (a, b) (identity-based join results).
  FactId Pair(FactId a, FactId b);

  /// Interns the set of `members` (aggregate formation results). Members
  /// are sorted and deduplicated; the empty set is a valid term.
  FactId Set(std::vector<FactId> members);

  /// Looks up the structure of a fact.
  Result<FactTerm> Get(FactId id) const;

  /// The term for `id`, resolving through the base chain, without copying
  /// it; nullptr when unknown. Valid while the registry lives.
  const FactTerm* FindTerm(FactId id) const;

  /// Number of interned terms, including everything visible through the
  /// base chain.
  std::size_t size() const { return base_size_ + terms_.size(); }

  /// Renders a fact: atoms print their key ("2"), pairs "(1,2)", sets
  /// "{1,2}".
  std::string ToString(FactId id) const;

 private:
  /// FNV-1a over the term's identity fields (kind-specific; each kind has
  /// its own table, so cross-kind collisions are impossible by layout).
  static std::uint64_t HashTerm(const FactTerm& term);

  /// Probes the base chain for an equal term; interns locally on miss.
  FactId FindOrIntern(FactTerm term);

  /// Appends `term` as the next local id and records it in the flat index
  /// of its kind (`hash` must be HashTerm(term)).
  FactId Intern(FactTerm term, std::uint64_t hash);

  const FlatHashIndex& TableFor(FactTerm::Kind kind) const;
  FlatHashIndex& TableFor(FactTerm::Kind kind) {
    return const_cast<FlatHashIndex&>(
        static_cast<const FactRegistry*>(this)->TableFor(kind));
  }

  /// Frozen parent registry of a fork (null for a root); ids below
  /// base_size_ resolve through it.
  std::shared_ptr<const FactRegistry> base_;
  std::size_t base_size_ = 0;
  std::size_t fork_depth_ = 0;

  std::vector<FactTerm> terms_;  // local terms; id = base_size_ + index

  // Open-addressing dedup tables, one per term kind; ordinals are local
  // term indexes, equality probes compare against terms_ directly (no
  // second key store, no tree nodes — docs/memory_layout.md).
  FlatHashIndex atom_index_;
  FlatHashIndex pair_index_;
  FlatHashIndex set_index_;
};

}  // namespace mddc

#endif  // MDDC_CORE_FACT_H_
