#include <gtest/gtest.h>

#include <random>

#include "io/serialize.h"
#include "mdql/mdql.h"
#include "mdql/parser.h"
#include "workload/case_study.h"

// Robustness fuzzing of the two untrusted-input surfaces: the MDQL
// parser/planner and the .mddc reader. Every input must produce either a
// result or an error Status — never a crash, hang or invalid MO.

namespace mddc {
namespace {

class FuzzTest : public ::testing::TestWithParam<int> {};

std::string RandomGarbage(std::mt19937& rng, std::size_t length) {
  static constexpr char kAlphabet[] =
      "abcXYZ_0159 .,()'\"<>=;\n\t\\-PROBSELECTFROMWHEREANDORcount";
  std::uniform_int_distribution<std::size_t> pick(0, sizeof(kAlphabet) - 2);
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) out += kAlphabet[pick(rng)];
  return out;
}

std::string RandomQueryFromFragments(std::mt19937& rng) {
  static const char* kFragments[] = {
      "SELECT",      "COUNT",      "SUM(Amount)", "FROM",
      "patients",    "sales",      "BY",          "Diagnosis.Family",
      "WHERE",       "AND",        "OR",          "NOT",
      "Age >= 40",   "ASOF",       "'01/01/1999'", "(",
      ")",           ",",          "Name.Name = 'Jane Doe'",
      "PROB(Diagnosis.Family = 'E10') >= 0.8",    "SHOW",
      "DIMENSIONS",  "HIERARCHY",  "PATHS",       "\"Date of Birth\"",
      "INSERT",      "INTO",       "FACT",        "99",
      "PROB",        "0.8",        "1.5",         "'NOW'",
      "Name.Name = 'Jane Doe' PROB 0.7",
      // EXPLAIN drives the whole compiler (lower, rewrite, branch walk,
      // stream probe) without executing, so fragment storms now exercise
      // the plan layer on every statement class too.
      "EXPLAIN",     "EXPLAIN SELECT COUNT FROM patients",
      "EXPLAIN SELECT COUNT FROM patients BY Diagnosis.Family",
      // Bulk INSERT and DELETE fragments: the comma-separated FACT
      // groups and the delete path must survive arbitrary recombination.
      "DELETE",      "DELETE FROM patients FACT 99",
      "FACT 7 (Name.Name = 'Jane Doe')",
      "INSERT INTO patients FACT 90 (Name.Name = 'Jane Doe'), FACT 91"
      " (Name.Name = 'John Doe' PROB 0.5)",
  };
  std::uniform_int_distribution<std::size_t> pick(
      0, std::size(kFragments) - 1);
  std::uniform_int_distribution<int> count(1, 14);
  std::string query;
  int n = count(rng);
  for (int i = 0; i < n; ++i) {
    if (i > 0) query += ' ';
    query += kFragments[pick(rng)];
  }
  return query;
}

TEST_P(FuzzTest, ParserSurvivesGarbage) {
  std::mt19937 rng(GetParam() * 1009 + 1);
  for (int i = 0; i < 200; ++i) {
    std::uniform_int_distribution<std::size_t> length(0, 120);
    std::string input = RandomGarbage(rng, length(rng));
    auto statement = mdql::Parse(input);
    // ok or error — both fine; the point is no crash/UB.
    (void)statement;
  }
}

TEST_P(FuzzTest, SessionSurvivesFragmentQueries) {
  auto cs = BuildCaseStudy();
  ASSERT_TRUE(cs.ok());
  mdql::Session session;
  ASSERT_TRUE(session.Register("patients", cs->mo).ok());
  std::mt19937 rng(GetParam() * 7717 + 3);
  for (int i = 0; i < 120; ++i) {
    std::string query = RandomQueryFromFragments(rng);
    auto result = session.Execute(query);
    (void)result;
  }
}

TEST_P(FuzzTest, InsertMutationsNeverBreakAtomicity) {
  // Mutate valid INSERT statements and throw them at a session. The
  // parser/planner must never crash, and — the resolve-before-mutate
  // contract of ApplyInsert — a failing statement must leave the MO
  // byte-identical to its pre-statement serialization.
  auto cs = BuildCaseStudy();
  ASSERT_TRUE(cs.ok());
  mdql::Session session;
  ASSERT_TRUE(session.Register("patients", cs->mo).ok());

  static const char* kValidInserts[] = {
      "INSERT INTO patients FACT 500 (Name.Name = 'Jane Doe')",
      "INSERT INTO patients FACT 501 (Name.Name = 'Jane Doe' PROB 0.8)",
      "INSERT INTO patients FACT 502 "
      "(Name.Name = 'Jane Doe' PROB 0.6, Name.Name = 'John Doe')",
      // Bulk INSERT: the resolve-before-mutate contract spans the whole
      // batch — a bad name in the LAST fact must leave the first
      // untouched too.
      "INSERT INTO patients FACT 503 (Name.Name = 'Jane Doe'), "
      "FACT 504 (Name.Name = 'John Doe' PROB 0.9)",
      "DELETE FROM patients FACT 500",
      "DELETE FROM patients FACT 987654",
  };
  std::mt19937 rng(GetParam() * 2179 + 7);
  std::uniform_int_distribution<std::size_t> which(
      0, std::size(kValidInserts) - 1);
  std::uniform_int_distribution<int> mutation(0, 2);
  std::uniform_int_distribution<int> byte(32, 126);
  for (int i = 0; i < 60; ++i) {
    std::string statement = kValidInserts[which(rng)];
    std::uniform_int_distribution<std::size_t> position(
        0, statement.size() - 1);
    switch (mutation(rng)) {
      case 0:  // flip a character
        statement[position(rng)] = static_cast<char>(byte(rng));
        break;
      case 1:  // truncate
        statement.resize(position(rng));
        break;
      case 2:  // duplicate a chunk
        statement.insert(position(rng), statement.substr(0, 20));
        break;
    }
    auto before = io::WriteMo(**session.Get("patients"));
    ASSERT_TRUE(before.ok());
    auto result = session.Execute(statement);
    if (!result.ok()) {
      auto after = io::WriteMo(**session.Get("patients"));
      ASSERT_TRUE(after.ok());
      EXPECT_EQ(*after, *before)
          << "failed statement mutated the MO: " << statement;
    }
  }
}

TEST_P(FuzzTest, ReaderSurvivesMutations) {
  auto cs = BuildCaseStudy();
  ASSERT_TRUE(cs.ok());
  auto text = io::WriteMo(cs->mo);
  ASSERT_TRUE(text.ok());
  std::mt19937 rng(GetParam() * 523 + 11);
  std::uniform_int_distribution<std::size_t> position(0, text->size() - 1);
  std::uniform_int_distribution<int> mutation(0, 2);
  std::uniform_int_distribution<int> byte(32, 126);
  for (int i = 0; i < 60; ++i) {
    std::string mutated = *text;
    switch (mutation(rng)) {
      case 0:  // flip a character
        mutated[position(rng)] = static_cast<char>(byte(rng));
        break;
      case 1:  // truncate
        mutated.resize(position(rng));
        break;
      case 2:  // duplicate a chunk
        mutated.insert(position(rng), mutated.substr(0, 40));
        break;
    }
    auto loaded = io::ReadMo(mutated, std::make_shared<FactRegistry>());
    if (loaded.ok()) {
      // If a mutation still parses, the result must be a valid MO.
      EXPECT_TRUE(loaded->Validate().ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace mddc
