#include "core/fact.h"

#include <algorithm>

#include "common/strings.h"

namespace mddc {

std::shared_ptr<FactRegistry> FactRegistry::ForkOf(
    std::shared_ptr<const FactRegistry> base) {
  auto fork = std::make_shared<FactRegistry>();
  if (base != nullptr) {
    fork->base_size_ = base->size();
    fork->fork_depth_ = base->fork_depth_ + 1;
    fork->base_ = std::move(base);
  }
  return fork;
}

std::shared_ptr<FactRegistry> FactRegistry::Flatten() const {
  std::vector<const FactRegistry*> chain;  // this first, root last
  for (const FactRegistry* r = this; r != nullptr; r = r->base_.get()) {
    chain.push_back(r);
  }
  auto flat = std::make_shared<FactRegistry>();
  flat->terms_.reserve(size());
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const FactRegistry& layer = **it;
    // A layer's local ordinal o is id base_size_ + o, which is the flat
    // ordinal; layers intern disjoint terms, so the slots move verbatim.
    flat->terms_.insert(flat->terms_.end(), layer.terms_.begin(),
                        layer.terms_.end());
    const auto offset = static_cast<std::uint32_t>(layer.base_size_);
    flat->atom_index_.AbsorbDisjoint(layer.atom_index_, offset);
    flat->pair_index_.AbsorbDisjoint(layer.pair_index_, offset);
    flat->set_index_.AbsorbDisjoint(layer.set_index_, offset);
  }
  return flat;
}

bool operator==(const FactTerm& a, const FactTerm& b) {
  if (a.kind != b.kind || a.atom != b.atom || a.first != b.first ||
      a.second != b.second) {
    return false;
  }
  if (a.member_list == b.member_list) return true;
  const std::span<const FactId> left = a.members();
  const std::span<const FactId> right = b.members();
  return std::equal(left.begin(), left.end(), right.begin(), right.end());
}

std::uint64_t FactRegistry::HashTerm(const FactTerm& term) {
  switch (term.kind) {
    case FactTerm::Kind::kAtom:
      return Fnv1a64Word(term.atom);
    case FactTerm::Kind::kPair:
      return Fnv1a64Word(term.second.raw(), Fnv1a64Word(term.first.raw()));
    case FactTerm::Kind::kSet: {
      // Chain word-wise over the sorted member list; the empty set hashes
      // to the seed, which is as good a bucket as any.
      std::uint64_t hash = kFnv1a64Offset;
      for (FactId member : term.members()) {
        hash = Fnv1a64Word(member.raw(), hash);
      }
      return hash;
    }
  }
  return kFnv1a64Offset;
}

const FlatHashIndex& FactRegistry::TableFor(FactTerm::Kind kind) const {
  switch (kind) {
    case FactTerm::Kind::kAtom:
      return atom_index_;
    case FactTerm::Kind::kPair:
      return pair_index_;
    case FactTerm::Kind::kSet:
      return set_index_;
  }
  return atom_index_;
}

FactId FactRegistry::FindOrIntern(FactTerm term) {
  const std::uint64_t hash = HashTerm(term);
  for (const FactRegistry* r = this; r != nullptr; r = r->base_.get()) {
    const std::uint32_t ordinal = r->TableFor(term.kind).Find(
        hash,
        [&](std::uint32_t o) { return r->terms_[o] == term; });
    if (ordinal != FlatHashIndex::kNone) {
      return FactId(r->base_size_ + ordinal);
    }
  }
  return Intern(std::move(term), hash);
}

FactId FactRegistry::Atom(std::uint64_t external_key) {
  FactTerm term;
  term.kind = FactTerm::Kind::kAtom;
  term.atom = external_key;
  return FindOrIntern(std::move(term));
}

FactId FactRegistry::Pair(FactId a, FactId b) {
  FactTerm term;
  term.kind = FactTerm::Kind::kPair;
  term.first = a;
  term.second = b;
  return FindOrIntern(std::move(term));
}

FactId FactRegistry::Set(std::vector<FactId> members) {
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  FactTerm term;
  term.kind = FactTerm::Kind::kSet;
  term.member_list =
      std::make_shared<const std::vector<FactId>>(std::move(members));
  return FindOrIntern(std::move(term));
}

const FactTerm* FactRegistry::FindTerm(FactId id) const {
  if (!id.valid()) return nullptr;
  for (const FactRegistry* r = this; r != nullptr; r = r->base_.get()) {
    if (id.raw() >= r->base_size_) {
      const std::size_t local = id.raw() - r->base_size_;
      return local < r->terms_.size() ? &r->terms_[local] : nullptr;
    }
  }
  return nullptr;
}

Result<FactTerm> FactRegistry::Get(FactId id) const {
  const FactTerm* term = FindTerm(id);
  if (term == nullptr) {
    return Status::NotFound(StrCat("fact id ", id, " not in registry"));
  }
  return *term;
}

std::string FactRegistry::ToString(FactId id) const {
  const FactTerm* term = FindTerm(id);
  if (term == nullptr) return "<unknown>";
  switch (term->kind) {
    case FactTerm::Kind::kAtom:
      return std::to_string(term->atom);
    case FactTerm::Kind::kPair:
      return StrCat("(", ToString(term->first), ",", ToString(term->second),
                    ")");
    case FactTerm::Kind::kSet: {
      std::vector<std::string> parts;
      parts.reserve(term->members().size());
      for (FactId member : term->members()) parts.push_back(ToString(member));
      return StrCat("{", Join(parts, ","), "}");
    }
  }
  return "<unknown>";
}

FactId FactRegistry::Intern(FactTerm term, std::uint64_t hash) {
  const std::uint32_t ordinal = static_cast<std::uint32_t>(terms_.size());
  FlatHashIndex& table = TableFor(term.kind);
  bool inserted = false;
  table.FindOrInsert(
      hash, ordinal,
      [&](std::uint32_t o) { return terms_[o] == term; }, &inserted);
  FactId id(base_size_ + terms_.size());
  terms_.push_back(std::move(term));
  return id;
}

}  // namespace mddc
