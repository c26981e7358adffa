#include "io/serialize.h"

#include <cerrno>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "common/strings.h"

namespace mddc {
namespace io {
namespace {

// ---- Lexical helpers -------------------------------------------------------

std::string QuoteString(const std::string& text) {
  std::string quoted = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

std::string EncodeChronon(Chronon c) {
  if (c == kNowChronon) return "NOW";
  if (c >= kForeverChronon) return "INF";
  if (c <= kMinChronon) return "-INF";
  return std::to_string(c);
}

Result<Chronon> DecodeChronon(const std::string& token) {
  if (token == "NOW") return kNowChronon;
  if (token == "INF") return kForeverChronon;
  if (token == "-INF") return kMinChronon;
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0') {
    return Status::InvalidArgument(StrCat("bad chronon '", token, "'"));
  }
  return static_cast<Chronon>(value);
}

std::string EncodeElement(const TemporalElement& element) {
  if (element == TemporalElement::Always()) return "ALWAYS";
  if (element.Empty()) return "EMPTY";
  std::vector<std::string> parts;
  for (const Interval& interval : element.intervals()) {
    parts.push_back(StrCat(EncodeChronon(interval.begin()), ":",
                           EncodeChronon(interval.end())));
  }
  return Join(parts, ",");
}

Result<TemporalElement> DecodeElement(const std::string& token) {
  if (token == "ALWAYS") return TemporalElement::Always();
  if (token == "EMPTY") return TemporalElement();
  TemporalElement element;
  for (const std::string& part : Split(token, ',')) {
    std::vector<std::string> endpoints = Split(part, ':');
    if (endpoints.size() != 2) {
      return Status::InvalidArgument(StrCat("bad interval '", part, "'"));
    }
    MDDC_ASSIGN_OR_RETURN(Chronon begin, DecodeChronon(endpoints[0]));
    MDDC_ASSIGN_OR_RETURN(Chronon end, DecodeChronon(endpoints[1]));
    MDDC_ASSIGN_OR_RETURN(Interval interval, Interval::Make(begin, end));
    element.Add(interval);
  }
  return element;
}

std::string EncodeLifespan(const Lifespan& life) {
  return StrCat(EncodeElement(life.valid), " ",
                EncodeElement(life.transaction));
}

/// Splits a line into whitespace-separated tokens, honoring quoted
/// strings with backslash escapes.
Result<std::vector<std::string>> TokenizeLine(const std::string& line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    if (line[i] == ' ' || line[i] == '\t') {
      ++i;
      continue;
    }
    if (line[i] == '"') {
      std::string text;
      ++i;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\' && i + 1 < line.size()) ++i;
        text += line[i++];
      }
      if (i >= line.size()) {
        return Status::InvalidArgument("unterminated string in line");
      }
      ++i;  // closing quote
      tokens.push_back(std::move(text));
    } else {
      std::size_t start = i;
      while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
      tokens.push_back(line.substr(start, i - start));
    }
  }
  return tokens;
}

std::string TemporalTypeToken(TemporalType type) {
  return std::string(TemporalTypeName(type));
}

Result<TemporalType> DecodeTemporalType(const std::string& token) {
  for (TemporalType type :
       {TemporalType::kSnapshot, TemporalType::kValidTime,
        TemporalType::kTransactionTime, TemporalType::kBitemporal}) {
    if (token == TemporalTypeName(type)) return type;
  }
  return Status::InvalidArgument(StrCat("bad temporal type '", token, "'"));
}

std::string AggTypeToken(AggregationType type) {
  return std::string(AggregationTypeName(type));
}

Result<AggregationType> DecodeAggType(const std::string& token) {
  for (AggregationType type :
       {AggregationType::kConstant, AggregationType::kAverage,
        AggregationType::kSum}) {
    if (token == AggregationTypeName(type)) return type;
  }
  return Status::InvalidArgument(StrCat("bad aggregation type '", token,
                                        "'"));
}

Result<std::uint64_t> DecodeU64(const std::string& token) {
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0') {
    return Status::InvalidArgument(StrCat("bad integer '", token, "'"));
  }
  return static_cast<std::uint64_t>(value);
}

Result<double> DecodeDouble(const std::string& token) {
  char* end = nullptr;
  double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    return Status::InvalidArgument(StrCat("bad number '", token, "'"));
  }
  return value;
}

}  // namespace

Result<std::string> WriteMo(const MdObject& mo) {
  std::ostringstream out;
  out << "MDDC 1\n";
  out << "MO " << QuoteString(mo.schema().fact_type()) << " "
      << TemporalTypeToken(mo.temporal_type()) << " "
      << mo.dimension_count() << "\n";

  // Dimension types.
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    const DimensionType& type = mo.dimension(i).type();
    out << "DIMTYPE " << QuoteString(type.name()) << " "
        << type.category_count() << " " << type.bottom() << " "
        << type.top() << "\n";
    for (CategoryTypeIndex c = 0; c < type.category_count(); ++c) {
      out << "CAT " << QuoteString(type.category(c).name) << " "
          << AggTypeToken(type.AggType(c)) << "\n";
    }
    for (CategoryTypeIndex c = 0; c < type.category_count(); ++c) {
      for (CategoryTypeIndex parent : type.Pred(c)) {
        out << "TEDGE " << c << " " << parent << "\n";
      }
    }
  }

  // Dimension contents.
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    const Dimension& dimension = mo.dimension(i);
    out << "DIM " << i << "\n";
    for (ValueId value : dimension.AllValues()) {
      if (value == dimension.top_value()) continue;
      auto category = dimension.CategoryOf(value);
      auto membership = dimension.MembershipOf(value);
      out << "VALUE " << value.raw() << " " << *category << " "
          << EncodeLifespan(*membership) << "\n";
    }
    for (const Dimension::Edge& edge : dimension.edges()) {
      out << "ORDER " << edge.child.raw() << " " << edge.parent.raw() << " "
          << FormatDouble(edge.prob) << " " << EncodeLifespan(edge.life)
          << "\n";
    }
    for (const auto& [category, rep_name, rep] :
         dimension.AllRepresentations()) {
      out << "REP " << category << " " << QuoteString(rep_name) << "\n";
      for (ValueId value : dimension.ValuesIn(category)) {
        for (const auto& [text, life] : rep->GetAll(value)) {
          out << "MAP " << value.raw() << " " << QuoteString(text) << " "
              << EncodeLifespan(life) << "\n";
        }
      }
    }
  }

  // Facts: emit the transitive closure of referenced fact terms in
  // dependency order and index them by position.
  std::map<FactId, std::size_t> fact_index;
  std::vector<std::string> fact_lines;
  const FactRegistry& registry = *mo.registry();
  // Recursive emission (facts form a DAG: sets/pairs of earlier facts).
  std::function<Result<std::size_t>(FactId)> emit =
      [&](FactId fact) -> Result<std::size_t> {
    auto it = fact_index.find(fact);
    if (it != fact_index.end()) return it->second;
    MDDC_ASSIGN_OR_RETURN(FactTerm term, registry.Get(fact));
    std::string line;
    switch (term.kind) {
      case FactTerm::Kind::kAtom:
        line = StrCat("FACT ATOM ", term.atom);
        break;
      case FactTerm::Kind::kPair: {
        MDDC_ASSIGN_OR_RETURN(std::size_t first, emit(term.first));
        MDDC_ASSIGN_OR_RETURN(std::size_t second, emit(term.second));
        line = StrCat("FACT PAIR ", first, " ", second);
        break;
      }
      case FactTerm::Kind::kSet: {
        std::vector<std::string> members;
        for (FactId member : term.members()) {
          MDDC_ASSIGN_OR_RETURN(std::size_t index, emit(member));
          members.push_back(std::to_string(index));
        }
        line = StrCat("FACT SET ", members.size(), " ", Join(members, " "));
        break;
      }
    }
    std::size_t index = fact_lines.size();
    fact_lines.push_back(std::move(line));
    fact_index.emplace(fact, index);
    return index;
  };
  for (FactId fact : mo.facts()) MDDC_RETURN_NOT_OK(emit(fact).status());
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    for (const FactDimRelation::Entry& entry : mo.relation(i).entries()) {
      MDDC_RETURN_NOT_OK(emit(entry.fact).status());
    }
  }
  for (const std::string& line : fact_lines) out << line << "\n";
  for (FactId fact : mo.facts()) {
    out << "MEMBER " << fact_index.at(fact) << "\n";
  }
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    for (const FactDimRelation::Entry& entry : mo.relation(i).entries()) {
      out << "REL " << i << " " << fact_index.at(entry.fact) << " "
          << entry.value.raw() << " " << FormatDouble(entry.prob) << " "
          << EncodeLifespan(entry.life) << "\n";
    }
  }
  out << "END\n";
  return out.str();
}

Result<MdObject> ReadMo(const std::string& text,
                        std::shared_ptr<FactRegistry> registry) {
  std::istringstream in(text);
  std::string line;

  auto next_tokens = [&](std::vector<std::string>* tokens) -> Result<bool> {
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      MDDC_ASSIGN_OR_RETURN(*tokens, TokenizeLine(line));
      if (!tokens->empty()) return true;
    }
    return false;
  };

  std::vector<std::string> tokens;
  MDDC_ASSIGN_OR_RETURN(bool has_header, next_tokens(&tokens));
  if (!has_header || tokens.size() != 2 || tokens[0] != "MDDC" ||
      tokens[1] != "1") {
    return Status::InvalidArgument("missing or unsupported MDDC header");
  }
  MDDC_ASSIGN_OR_RETURN(bool has_mo, next_tokens(&tokens));
  if (!has_mo || tokens.size() != 4 || tokens[0] != "MO") {
    return Status::InvalidArgument("missing MO line");
  }
  std::string fact_type = tokens[1];
  MDDC_ASSIGN_OR_RETURN(TemporalType temporal_type,
                        DecodeTemporalType(tokens[2]));
  MDDC_ASSIGN_OR_RETURN(std::uint64_t ndims, DecodeU64(tokens[3]));

  // Dimension types.
  std::vector<std::shared_ptr<const DimensionType>> types;
  MDDC_ASSIGN_OR_RETURN(bool more, next_tokens(&tokens));
  for (std::uint64_t d = 0; d < ndims; ++d) {
    if (!more || tokens[0] != "DIMTYPE" || tokens.size() != 5) {
      return Status::InvalidArgument("expected DIMTYPE line");
    }
    std::string type_name = tokens[1];
    MDDC_ASSIGN_OR_RETURN(std::uint64_t ncats, DecodeU64(tokens[2]));
    DimensionTypeBuilder builder(type_name);
    std::vector<std::string> category_names;
    for (std::uint64_t c = 0; c < ncats; ++c) {
      MDDC_ASSIGN_OR_RETURN(more, next_tokens(&tokens));
      if (!more || tokens[0] != "CAT" || tokens.size() != 3) {
        return Status::InvalidArgument("expected CAT line");
      }
      MDDC_ASSIGN_OR_RETURN(AggregationType agg, DecodeAggType(tokens[2]));
      builder.AddCategory(tokens[1], agg);
      category_names.push_back(tokens[1]);
    }
    MDDC_ASSIGN_OR_RETURN(more, next_tokens(&tokens));
    while (more && tokens[0] == "TEDGE") {
      if (tokens.size() != 3) {
        return Status::InvalidArgument("bad TEDGE line");
      }
      MDDC_ASSIGN_OR_RETURN(std::uint64_t child, DecodeU64(tokens[1]));
      MDDC_ASSIGN_OR_RETURN(std::uint64_t parent, DecodeU64(tokens[2]));
      if (child >= category_names.size() ||
          parent >= category_names.size()) {
        return Status::InvalidArgument("TEDGE index out of range");
      }
      builder.AddOrder(category_names[child], category_names[parent]);
      MDDC_ASSIGN_OR_RETURN(more, next_tokens(&tokens));
    }
    MDDC_ASSIGN_OR_RETURN(auto type, builder.Build());
    types.push_back(std::move(type));
  }

  // Dimensions.
  std::vector<Dimension> dimensions;
  dimensions.reserve(types.size());
  for (const auto& type : types) dimensions.emplace_back(type);
  while (more && tokens[0] != "FACT" && tokens[0] != "MEMBER" &&
         tokens[0] != "END") {
    if (tokens[0] != "DIM" || tokens.size() != 2) {
      return Status::InvalidArgument(
          StrCat("expected DIM line, got '", tokens[0], "'"));
    }
    MDDC_ASSIGN_OR_RETURN(std::uint64_t dim, DecodeU64(tokens[1]));
    if (dim >= dimensions.size()) {
      return Status::InvalidArgument("DIM index out of range");
    }
    Dimension& dimension = dimensions[dim];
    Representation* current_rep = nullptr;
    MDDC_ASSIGN_OR_RETURN(more, next_tokens(&tokens));
    while (more) {
      if (tokens[0] == "VALUE" && tokens.size() == 5) {
        MDDC_ASSIGN_OR_RETURN(std::uint64_t id, DecodeU64(tokens[1]));
        MDDC_ASSIGN_OR_RETURN(std::uint64_t category, DecodeU64(tokens[2]));
        MDDC_ASSIGN_OR_RETURN(TemporalElement valid,
                              DecodeElement(tokens[3]));
        MDDC_ASSIGN_OR_RETURN(TemporalElement transaction,
                              DecodeElement(tokens[4]));
        MDDC_RETURN_NOT_OK(dimension.AddValue(
            category, ValueId(id), Lifespan{valid, transaction}));
      } else if (tokens[0] == "ORDER" && tokens.size() == 6) {
        MDDC_ASSIGN_OR_RETURN(std::uint64_t child, DecodeU64(tokens[1]));
        MDDC_ASSIGN_OR_RETURN(std::uint64_t parent, DecodeU64(tokens[2]));
        MDDC_ASSIGN_OR_RETURN(double prob, DecodeDouble(tokens[3]));
        MDDC_ASSIGN_OR_RETURN(TemporalElement valid,
                              DecodeElement(tokens[4]));
        MDDC_ASSIGN_OR_RETURN(TemporalElement transaction,
                              DecodeElement(tokens[5]));
        MDDC_RETURN_NOT_OK(dimension.AddOrder(
            ValueId(child), ValueId(parent), Lifespan{valid, transaction},
            prob));
      } else if (tokens[0] == "REP" && tokens.size() == 3) {
        MDDC_ASSIGN_OR_RETURN(std::uint64_t category, DecodeU64(tokens[1]));
        current_rep = &dimension.RepresentationFor(category, tokens[2]);
      } else if (tokens[0] == "MAP" && tokens.size() == 5) {
        if (current_rep == nullptr) {
          return Status::InvalidArgument("MAP before REP");
        }
        MDDC_ASSIGN_OR_RETURN(std::uint64_t value, DecodeU64(tokens[1]));
        MDDC_ASSIGN_OR_RETURN(TemporalElement valid,
                              DecodeElement(tokens[3]));
        MDDC_ASSIGN_OR_RETURN(TemporalElement transaction,
                              DecodeElement(tokens[4]));
        MDDC_RETURN_NOT_OK(current_rep->Set(ValueId(value), tokens[2],
                                            Lifespan{valid, transaction}));
      } else {
        break;  // next section
      }
      MDDC_ASSIGN_OR_RETURN(more, next_tokens(&tokens));
    }
  }

  MdObject mo(fact_type, std::move(dimensions), registry, temporal_type);

  // Facts.
  std::vector<FactId> facts_by_index;
  while (more && tokens[0] == "FACT") {
    if (tokens.size() < 2) return Status::InvalidArgument("bad FACT line");
    if (tokens[1] == "ATOM" && tokens.size() == 3) {
      MDDC_ASSIGN_OR_RETURN(std::uint64_t key, DecodeU64(tokens[2]));
      facts_by_index.push_back(registry->Atom(key));
    } else if (tokens[1] == "PAIR" && tokens.size() == 4) {
      MDDC_ASSIGN_OR_RETURN(std::uint64_t a, DecodeU64(tokens[2]));
      MDDC_ASSIGN_OR_RETURN(std::uint64_t b, DecodeU64(tokens[3]));
      if (a >= facts_by_index.size() || b >= facts_by_index.size()) {
        return Status::InvalidArgument("PAIR index out of range");
      }
      facts_by_index.push_back(
          registry->Pair(facts_by_index[a], facts_by_index[b]));
    } else if (tokens[1] == "SET" && tokens.size() >= 3) {
      MDDC_ASSIGN_OR_RETURN(std::uint64_t count, DecodeU64(tokens[2]));
      if (tokens.size() != 3 + count) {
        return Status::InvalidArgument("SET arity mismatch");
      }
      std::vector<FactId> members;
      for (std::uint64_t m = 0; m < count; ++m) {
        MDDC_ASSIGN_OR_RETURN(std::uint64_t index, DecodeU64(tokens[3 + m]));
        if (index >= facts_by_index.size()) {
          return Status::InvalidArgument("SET index out of range");
        }
        members.push_back(facts_by_index[index]);
      }
      facts_by_index.push_back(registry->Set(std::move(members)));
    } else {
      return Status::InvalidArgument("bad FACT line");
    }
    MDDC_ASSIGN_OR_RETURN(more, next_tokens(&tokens));
  }

  while (more && tokens[0] == "MEMBER") {
    if (tokens.size() != 2) return Status::InvalidArgument("bad MEMBER");
    MDDC_ASSIGN_OR_RETURN(std::uint64_t index, DecodeU64(tokens[1]));
    if (index >= facts_by_index.size()) {
      return Status::InvalidArgument("MEMBER index out of range");
    }
    MDDC_RETURN_NOT_OK(mo.AddFact(facts_by_index[index]));
    MDDC_ASSIGN_OR_RETURN(more, next_tokens(&tokens));
  }

  while (more && tokens[0] == "REL") {
    if (tokens.size() != 7) return Status::InvalidArgument("bad REL line");
    MDDC_ASSIGN_OR_RETURN(std::uint64_t dim, DecodeU64(tokens[1]));
    MDDC_ASSIGN_OR_RETURN(std::uint64_t fact_index, DecodeU64(tokens[2]));
    MDDC_ASSIGN_OR_RETURN(std::uint64_t value, DecodeU64(tokens[3]));
    MDDC_ASSIGN_OR_RETURN(double prob, DecodeDouble(tokens[4]));
    MDDC_ASSIGN_OR_RETURN(TemporalElement valid, DecodeElement(tokens[5]));
    MDDC_ASSIGN_OR_RETURN(TemporalElement transaction,
                          DecodeElement(tokens[6]));
    if (fact_index >= facts_by_index.size()) {
      return Status::InvalidArgument("REL fact index out of range");
    }
    if (dim >= mo.dimension_count()) {
      return Status::InvalidArgument("REL dimension out of range");
    }
    ValueId target = value == (std::uint64_t{1} << 63)
                         ? mo.dimension(dim).top_value()
                         : ValueId(value);
    MDDC_RETURN_NOT_OK(mo.Relate(dim, facts_by_index[fact_index], target,
                                 Lifespan{valid, transaction}, prob));
    MDDC_ASSIGN_OR_RETURN(more, next_tokens(&tokens));
  }

  if (!more || tokens[0] != "END") {
    return Status::InvalidArgument("missing END marker");
  }
  MDDC_RETURN_NOT_OK(mo.Validate());
  return mo;
}

Status SaveMoToFile(const MdObject& mo, const std::string& path) {
  MDDC_ASSIGN_OR_RETURN(std::string text, WriteMo(mo));
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument(StrCat("cannot open '", path,
                                          "' for writing"));
  }
  out << text;
  return out.good() ? Status::OK()
                    : Status::InvalidArgument(
                          StrCat("write to '", path, "' failed"));
}

Result<MdObject> LoadMoFromFile(const std::string& path,
                                std::shared_ptr<FactRegistry> registry) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(StrCat("cannot open '", path, "'"));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ReadMo(buffer.str(), std::move(registry));
}

}  // namespace io
}  // namespace mddc
