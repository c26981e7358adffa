#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fact.h"
#include "serve/mo_store.h"
#include "workload/retail_generator.h"

namespace mddc {
namespace {

TEST(FactRegistryTest, AtomsAreInterned) {
  FactRegistry registry;
  FactId a = registry.Atom(1);
  FactId b = registry.Atom(1);
  FactId c = registry.Atom(2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(FactRegistryTest, PairsAreOrderSensitive) {
  FactRegistry registry;
  FactId a = registry.Atom(1);
  FactId b = registry.Atom(2);
  FactId ab = registry.Pair(a, b);
  FactId ba = registry.Pair(b, a);
  EXPECT_NE(ab, ba);
  EXPECT_EQ(registry.Pair(a, b), ab);
}

TEST(FactRegistryTest, SetsAreCanonical) {
  FactRegistry registry;
  FactId a = registry.Atom(1);
  FactId b = registry.Atom(2);
  // Order and duplicates do not matter: {a,b} == {b,a,b}.
  FactId s1 = registry.Set({a, b});
  FactId s2 = registry.Set({b, a, b});
  EXPECT_EQ(s1, s2);
  FactId s3 = registry.Set({a});
  EXPECT_NE(s1, s3);
}

TEST(FactRegistryTest, EmptySetIsValid) {
  FactRegistry registry;
  FactId empty = registry.Set({});
  EXPECT_TRUE(empty.valid());
  auto term = registry.Get(empty);
  ASSERT_TRUE(term.ok());
  EXPECT_EQ(term->kind, FactTerm::Kind::kSet);
  EXPECT_TRUE(term->members().empty());
}

TEST(FactRegistryTest, GetReturnsStructure) {
  FactRegistry registry;
  FactId a = registry.Atom(7);
  auto term = registry.Get(a);
  ASSERT_TRUE(term.ok());
  EXPECT_EQ(term->kind, FactTerm::Kind::kAtom);
  EXPECT_EQ(term->atom, 7u);
  EXPECT_FALSE(registry.Get(FactId(999)).ok());
  EXPECT_FALSE(registry.Get(FactId()).ok());
}

TEST(FactRegistryTest, ToStringRendersNestedStructure) {
  FactRegistry registry;
  FactId one = registry.Atom(1);
  FactId two = registry.Atom(2);
  EXPECT_EQ(registry.ToString(one), "1");
  EXPECT_EQ(registry.ToString(registry.Pair(one, two)), "(1,2)");
  EXPECT_EQ(registry.ToString(registry.Set({two, one})), "{1,2}");
  // Sets of sets (double aggregate formation).
  FactId inner = registry.Set({one, two});
  EXPECT_EQ(registry.ToString(registry.Set({inner})), "{{1,2}}");
}

TEST(FactRegistryTest, NestedTermsCompose) {
  FactRegistry registry;
  FactId a = registry.Atom(1);
  FactId b = registry.Atom(2);
  FactId pair = registry.Pair(a, b);
  FactId set_of_pair = registry.Set({pair});
  auto term = registry.Get(set_of_pair);
  ASSERT_TRUE(term.ok());
  ASSERT_EQ(term->members().size(), 1u);
  EXPECT_EQ(term->members()[0], pair);
}

/// A fork chain of depth 8 over a root, every layer interning atoms,
/// pairs, sets and sets of sets (some layers re-interning terms of their
/// bases, which must resolve to the old ids). Returns the deepest fork.
std::shared_ptr<FactRegistry> DeepChain() {
  std::shared_ptr<FactRegistry> registry = std::make_shared<FactRegistry>();
  std::vector<FactId> atoms;
  for (std::uint64_t key = 0; key < 40; ++key) {
    atoms.push_back(registry->Atom(key));
  }
  (void)registry->Set({});
  for (int layer = 1; layer <= 8; ++layer) {
    registry = FactRegistry::ForkOf(
        std::shared_ptr<const FactRegistry>(std::move(registry)));
    const auto base = static_cast<std::uint64_t>(layer) * 100;
    for (std::uint64_t key = base; key < base + 5; ++key) {
      atoms.push_back(registry->Atom(key));
    }
    std::vector<FactId> members;
    for (std::size_t i = static_cast<std::size_t>(layer); i < atoms.size();
         i += 3) {
      members.push_back(atoms[i]);
    }
    const FactId set = registry->Set(members);
    const FactId pair = registry->Pair(atoms[0], set);
    (void)registry->Set({set, pair, atoms.back()});
    (void)registry->Set({atoms[1], atoms[2]});  // re-interned after layer 1
  }
  return registry;
}

TEST(FactRegistryFlattenTest, DepthEightChainKeepsIdsTermsAndRendering) {
  const std::shared_ptr<FactRegistry> chain = DeepChain();
  ASSERT_EQ(chain->fork_depth(), 8u);
  const std::shared_ptr<FactRegistry> flat = chain->Flatten();
  EXPECT_EQ(flat->fork_depth(), 0u);
  ASSERT_EQ(flat->size(), chain->size());
  std::size_t sets = 0;
  for (std::uint64_t raw = 0; raw < chain->size(); ++raw) {
    const FactTerm* before = chain->FindTerm(FactId(raw));
    const FactTerm* after = flat->FindTerm(FactId(raw));
    ASSERT_NE(before, nullptr) << "id " << raw;
    ASSERT_NE(after, nullptr) << "id " << raw;
    EXPECT_TRUE(*before == *after) << "id " << raw;
    EXPECT_EQ(flat->ToString(FactId(raw)), chain->ToString(FactId(raw)))
        << "id " << raw;
    if (after->kind == FactTerm::Kind::kSet) ++sets;
  }
  EXPECT_GT(sets, 16u);
  EXPECT_EQ(flat->FindTerm(FactId(chain->size())), nullptr);
}

TEST(FactRegistryFlattenTest, ReinterningAfterFlattenReturnsTheOldIds) {
  const std::shared_ptr<FactRegistry> chain = DeepChain();
  const std::shared_ptr<FactRegistry> flat = chain->Flatten();
  const std::size_t size = flat->size();
  for (std::uint64_t raw = 0; raw < size; ++raw) {
    const FactTerm& term = *chain->FindTerm(FactId(raw));
    FactId again;
    switch (term.kind) {
      case FactTerm::Kind::kAtom:
        again = flat->Atom(term.atom);
        break;
      case FactTerm::Kind::kPair:
        again = flat->Pair(term.first, term.second);
        break;
      case FactTerm::Kind::kSet: {
        // A fresh, unsorted, duplicated copy: found by content, not by
        // buffer identity.
        std::vector<FactId> members(term.members().rbegin(),
                                    term.members().rend());
        if (!members.empty()) members.push_back(members.front());
        again = flat->Set(std::move(members));
        break;
      }
    }
    EXPECT_EQ(again, FactId(raw)) << "id " << raw;
  }
  EXPECT_EQ(flat->size(), size);
  // New ids continue where the chain stopped, in a fork of the flattened
  // registry too.
  EXPECT_EQ(flat->Atom(999999), FactId(size));
  EXPECT_EQ(flat->Set({FactId(0), FactId(size)}), FactId(size + 1));
  std::shared_ptr<FactRegistry> fork =
      FactRegistry::ForkOf(std::shared_ptr<const FactRegistry>(flat));
  EXPECT_EQ(fork->Set({FactId(size), FactId(0)}), FactId(size + 1));
  EXPECT_EQ(fork->Pair(FactId(size), FactId(1)), FactId(size + 2));
}

TEST(FactRegistryFlattenTest, FlattenSharesTheBaseMemberBuffers) {
  const std::shared_ptr<FactRegistry> chain = DeepChain();
  const std::shared_ptr<FactRegistry> flat = chain->Flatten();
  std::size_t shared = 0;
  for (std::uint64_t raw = 0; raw < chain->size(); ++raw) {
    const FactTerm* before = chain->FindTerm(FactId(raw));
    if (before->kind != FactTerm::Kind::kSet || before->members().empty()) {
      continue;
    }
    const FactTerm* after = flat->FindTerm(FactId(raw));
    EXPECT_EQ(after->members().data(), before->members().data())
        << "id " << raw;
    EXPECT_EQ(after->member_list, before->member_list) << "id " << raw;
    ++shared;
  }
  EXPECT_GT(shared, 16u);
  // A term handed out by Get() shares the buffer as well.
  for (std::uint64_t raw = 0; raw < chain->size(); ++raw) {
    const FactTerm* term = flat->FindTerm(FactId(raw));
    if (term->kind != FactTerm::Kind::kSet) continue;
    auto copy = flat->Get(FactId(raw));
    ASSERT_TRUE(copy.ok());
    EXPECT_EQ(copy->member_list, term->member_list);
  }
}

/// Three new purchases per batch, all related to the first product, so
/// the warm per-product SetCount folds a fresh set term for that group
/// into the registry on every batch.
Status AppendPurchases(MdObject& mo, int batch) {
  const ValueId product =
      mo.dimension(0).ValuesIn(mo.dimension(0).type().bottom()).front();
  for (int j = 0; j < 3; ++j) {
    const FactId fact =
        mo.registry()->Atom(9000000 + static_cast<std::uint64_t>(batch) * 3 +
                            static_cast<std::uint64_t>(j));
    MDDC_RETURN_NOT_OK(mo.AddFact(fact));
    MDDC_RETURN_NOT_OK(mo.Relate(0, fact, product));
  }
  return mo.CoverWithTop();
}

/// Renders every group of the pinned epoch's warm pre-aggregate: each
/// group is a set term resolved (and its members rendered) through the
/// epoch's registry.
std::string RenderWarmGroups(const serve::MoSnapshot& snapshot,
                             const std::vector<CategoryTypeIndex>& grouping) {
  const serve::PublishedMo* entry = snapshot.Find("sales");
  if (entry == nullptr || entry->preagg == nullptr) return "<missing>";
  const MdObject* warm =
      entry->preagg->Peek(AggFunction::SetCount(), grouping);
  if (warm == nullptr) return "<cold>";
  std::string text;
  for (FactId group : warm->facts()) {
    const FactTerm* term = warm->registry()->FindTerm(group);
    if (term == nullptr || term->kind != FactTerm::Kind::kSet) {
      return "<bad term>";
    }
    text += std::to_string(term->members().size());
    text += warm->registry()->ToString(group);
    text += "\n";
  }
  return text;
}

TEST(FactRegistryConcurrencyTest, PinnedReadersResolveSetsAcrossFlattens) {
  RetailWorkloadParams params;
  params.num_purchases = 200;
  auto workload =
      GenerateRetailWorkload(params, std::make_shared<FactRegistry>());
  ASSERT_TRUE(workload.ok()) << workload.status();
  serve::MoStore store;
  ASSERT_TRUE(store.Publish("sales", std::move(workload->mo)).ok());
  std::vector<CategoryTypeIndex> grouping;
  {
    const MdObject& mo = store.Pin()->Find("sales")->mo();
    for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
      grouping.push_back(mo.dimension(i).type().top());
    }
    grouping[0] = mo.dimension(0).type().bottom();
  }
  ASSERT_TRUE(
      store.WarmAggregate("sales", AggFunction::SetCount(), grouping).ok());

  // Each reader holds the epoch it pinned first for the whole run — its
  // registry chain gets flattened away under it twice — and re-pins the
  // current epoch every round; every render of an epoch must equal the
  // first render of that epoch.
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> rounds{0};
  auto reader = [&] {
    const std::shared_ptr<const serve::MoSnapshot> held = store.Pin();
    const std::string held_text = RenderWarmGroups(*held, grouping);
    while (!done.load(std::memory_order_acquire)) {
      const std::shared_ptr<const serve::MoSnapshot> current = store.Pin();
      const std::string first = RenderWarmGroups(*current, grouping);
      if (RenderWarmGroups(*current, grouping) != first ||
          RenderWarmGroups(*held, grouping) != held_text) {
        mismatches.fetch_add(1);
      }
      rounds.fetch_add(1);
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) readers.emplace_back(reader);
  constexpr int kBatches = 18;  // two flattens at kMaxForkDepth = 8
  for (int batch = 0; batch < kBatches; ++batch) {
    const Status status = store.AppendBatch(
        "sales",
        [batch](MdObject& draft) { return AppendPurchases(draft, batch); });
    if (!status.ok()) {
      ADD_FAILURE() << "batch " << batch << ": " << status;
      break;
    }
  }
  // Let the readers render the final epoch too.
  const int seen = rounds.load();
  while (rounds.load() < seen + 4) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const serve::MoStore::Stats stats = store.CollectStats();
  EXPECT_GE(stats.registry_flattens, 2u);
  EXPECT_EQ(stats.append_batches, static_cast<std::uint64_t>(kBatches));
  // The last epoch's warm groups render the grown first-product group.
  const std::string final_text = RenderWarmGroups(*store.Pin(), grouping);
  EXPECT_NE(final_text.find("9000053"), std::string::npos);
}

}  // namespace
}  // namespace mddc
