// The two workloads of the serving benchmark (servebench/README.md):
//
//  * ingest      — clinical MO, 2 TCP clients in a closed loop over the
//                  stress generator's read classes, beside one writer
//                  connection sending bulk INSERTs on a fixed schedule
//                  (open loop); most reads land on a new epoch.
//  * retail-scan — the strict retail MO, one in-process ServerSession
//                  with two threads per query, the only shape where the
//                  parallel engine and the dense kernel engage. Its
//                  store never moves epoch; INSERT batches go to a
//                  second store between reads.
//
// A run keeps about two CPUs busy, so that on a shared host it measures
// the serving tier rather than the scheduler.
//
// Untraced runs measure the end-to-end metrics at the TCP or session
// boundary. Traced runs drive the same statements through the public
// calls a ServerSession makes, in process, with a span around each.

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <utility>

#include "bench.h"
#include "common/strings.h"
#include "engine/executor.h"
#include "mdql/mdql.h"
#include "mdql/parser.h"
#include "serve/mdql_server.h"
#include "serve/mo_store.h"
#include "serve/tcp_server.h"
#include "stress/driver.h"
#include "stress/mix.h"
#include "stress/oracle.h"
#include "tcp_client.h"
#include "trace.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

namespace servebench {
namespace {

using mddc::AggFunction;
using mddc::CategoryTypeIndex;
using mddc::ExecContext;
using mddc::ExecStats;
using mddc::FactRegistry;
using mddc::MdObject;
using mddc::Result;
using mddc::Status;
using mddc::StrCat;
namespace mdql = mddc::mdql;
namespace serve = mddc::serve;
namespace stress = mddc::stress;

// Sizes: 5*10^4 patients and 6*10^4 purchases, so that one run of
// --seconds 40 on 4 CPUs collects 500 or more reads and a full schedule
// of 48 runs stays under an hour.
constexpr std::size_t kPatients = 50000;
constexpr std::size_t kPurchases = 60000;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;
constexpr std::size_t kIngestReaders = 2;
/// retail-scan's threads per query: enough for the parallel engine to
/// engage, few enough that the run does not contend for every CPU.
constexpr std::size_t kRetailThreads = 2;
/// Reference renders run on at most this many threads.
constexpr std::size_t kReferenceWorkers = 2;
/// Ingest writer schedule: batches per second, facts per batch. Well
/// below seal capacity, so write latency measures latency, not a queue.
/// (At 10 batches/s the writer ran out of capacity late in some runs:
/// every 9th append, the one that flattens the registry fork chain,
/// slows down as the run goes on while readers are active.)
constexpr double kWriterRate = 5.0;
constexpr std::size_t kBatchFacts = 25;
/// The writer is rejected as backlogged when more batches than one
/// second's worth are unacknowledged when the window closes.
constexpr double kMaxBacklogSeconds = 1.0;
/// retail-scan: after every this many reads the client sends one INSERT
/// batch to the write store, so write samples spread over the window.
constexpr std::size_t kReadsPerWrite = 10;
/// Bounds the retail-scan reads a window can hold, to size its batches.
constexpr double kMaxReadsPerSecond = 1000.0;
constexpr int kReplyTimeoutS = 60;
constexpr std::uint64_t kBatchKeyBase = 90000000;
const char* const kClinical = "clinical";
const char* const kRetail = "retail";

enum Tag { kRollup, kTemporal, kProb, kStar, kRetailScan, kWrite };
const std::vector<std::string> kTagNames = {"rollup", "temporal", "prob",
                                            "star",   "retail",   "write"};

struct Stmt {
  std::string text;
  int tag = kRollup;
};
using Stream = std::vector<Stmt>;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Sec(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

std::size_t Nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// ---- Inputs ----------------------------------------------------------------

/// The hierarchy shape is fixed (fan-out 12, the middle of the paper's
/// 5-20, at both diagnosis levels), so groups and families are all of a
/// size and a run's cost does not hinge on which ones the seed's
/// statements name. The seed still draws every patient, diagnosis,
/// non-strict edge, reclassification and probability.
mddc::ClinicalWorkloadParams ClinicalParams(std::uint32_t seed) {
  mddc::ClinicalWorkloadParams params;
  params.seed = seed;
  params.num_patients = kPatients;
  params.min_fanout = 12;
  params.max_fanout = 12;
  return params;
}

mddc::RetailWorkloadParams RetailParams(std::uint32_t seed) {
  mddc::RetailWorkloadParams params;
  params.seed = seed;
  params.num_purchases = kPurchases;
  return params;
}

/// The ASOF dates and PROB thresholds stress::StatementGenerator draws
/// from (stress/mix.cc). Their costs differ by up to 2x, so each client
/// is dealt a fixed share of them instead of a random one: every seed
/// then runs the same mix of slices and thresholds.
const char* const kSliceDates[] = {"01/06/75", "01/01/80", "15/06/85",
                                   "01/01/95"};
const char* const kProbThresholds[] = {">= 0.5", ">= 0.7", ">= 0.9"};

/// Draws operations of `query_class` until one's first statement
/// contains `wanted`.
std::vector<std::string> GenerateWith(stress::StatementGenerator* generator,
                                      stress::QueryClass query_class,
                                      const std::string& wanted) {
  while (true) {
    std::vector<std::string> statements = generator->Generate(query_class);
    if (statements[0].find(wanted) != std::string::npos) return statements;
  }
}

/// One clinical client's statement cycle: one round of the stress
/// generator's read classes in the proportions rollup=4, temporal=2,
/// prob=1, star=1 (a roll-up operation is three statements, a temporal
/// one two). Like a dashboard refreshing a fixed panel set, the client
/// repeats its round.
Stream ClinicalReadStream(const stress::WorkloadProfile& profile,
                          std::uint32_t seed, std::size_t client) {
  using stress::QueryClass;
  stress::StatementGenerator generator(profile, seed, client);
  Stream stream;
  auto add = [&stream](std::vector<std::string> statements, Tag tag) {
    for (std::string& text : statements) {
      stream.push_back(Stmt{std::move(text), tag});
    }
  };
  auto temporal = [&](std::size_t slot) {
    return GenerateWith(&generator, QueryClass::kTemporalSlice,
                        kSliceDates[(2 * client + slot) % 4]);
  };
  add(generator.Generate(QueryClass::kRollupDrilldown), kRollup);
  add(temporal(0), kTemporal);
  add(generator.Generate(QueryClass::kRollupDrilldown), kRollup);
  add(GenerateWith(&generator, QueryClass::kProbabilistic,
                   kProbThresholds[client % 3]),
      kProb);
  add(generator.Generate(QueryClass::kRollupDrilldown), kRollup);
  add(temporal(1), kTemporal);
  add(generator.Generate(QueryClass::kRollupDrilldown), kRollup);
  add(generator.Generate(QueryClass::kStarJoin), kStar);
  return stream;
}

/// The retail client's cycle: SUM/AVG/COUNT at product, category,
/// department, city and region level and five two-dimension groupings,
/// in a seed-dependent order. The two-dimension groupings also keep the
/// cost distribution free of a gap at its median, which would make
/// read_p50_ms jump between runs.
Stream RetailReadStream(std::uint32_t seed) {
  const char* functions[] = {"SUM(Amount)", "AVG(Price)", "COUNT"};
  const char* groupings[] = {"Product.Product",
                             "Product.Category",
                             "Product.Department",
                             "Store.City",
                             "Store.Region",
                             "Product.Product, Store.Region",
                             "Product.Category, Store.City",
                             "Product.Category, Store.Region",
                             "Product.Department, Store.City",
                             "Product.Department, Store.Region"};
  Stream stream;
  for (const char* grouping : groupings) {
    for (const char* function : functions) {
      stream.push_back(Stmt{StrCat("SELECT ", function, " FROM ", kRetail,
                                   " BY ", grouping),
                            kRetailScan});
    }
  }
  std::mt19937 rng(seed);
  std::shuffle(stream.begin(), stream.end(), rng);
  return stream;
}

/// Bulk INSERTs of new clinical facts over existing leaf values, keys in
/// a range disjoint from the generator's and the stress generator's.
std::vector<std::string> ClinicalBatches(const stress::WorkloadProfile& profile,
                                         std::uint32_t seed,
                                         std::size_t count) {
  std::mt19937 rng(seed ^ 0x9e3779b9u);
  std::vector<std::string> batches;
  std::uint64_t key = kBatchKeyBase;
  for (std::size_t b = 0; b < count; ++b) {
    std::string statement = StrCat("INSERT INTO ", kClinical);
    for (std::size_t f = 0; f < kBatchFacts; ++f, ++key) {
      statement += StrCat(f == 0 ? " " : ", ", "FACT ", key,
                          " (Diagnosis.\"Low-level Diagnosis\" = 'L",
                          rng() % profile.lows, "'",
                          rng() % 3 == 0 ? " PROB 0.8" : "",
                          ", Residence.Area = 'A", rng() % profile.areas,
                          "')");
    }
    batches.push_back(std::move(statement));
  }
  return batches;
}

std::vector<std::string> RetailBatches(std::uint32_t seed, std::size_t count) {
  const mddc::RetailWorkloadParams params = RetailParams(seed);
  std::mt19937 rng(seed ^ 0x9e3779b9u);
  std::vector<std::string> batches;
  std::uint64_t key = kBatchKeyBase;
  for (std::size_t b = 0; b < count; ++b) {
    std::string statement = StrCat("INSERT INTO ", kRetail);
    for (std::size_t f = 0; f < kBatchFacts; ++f, ++key) {
      statement += StrCat(f == 0 ? " " : ", ", "FACT ", key,
                          " (Product.Product = 'Product-",
                          rng() % params.num_products,
                          "', Store.Store = 'Store-",
                          rng() % params.num_stores, "')");
    }
    batches.push_back(std::move(statement));
  }
  return batches;
}

std::vector<std::string> DistinctTexts(const std::vector<Stream>& streams) {
  std::vector<std::string> texts;
  for (const Stream& stream : streams) {
    for (const Stmt& stmt : stream) texts.push_back(stmt.text);
  }
  std::sort(texts.begin(), texts.end());
  texts.erase(std::unique(texts.begin(), texts.end()), texts.end());
  return texts;
}

// ---- The serving tier under test -------------------------------------------

/// One set-up serving tier. Members are declared so that clients close
/// before the TCP server stops and the server before the store goes.
struct Tier {
  std::string mo_name;
  std::unique_ptr<serve::MoStore> store;
  std::unique_ptr<serve::MdqlServer> server;
  std::unique_ptr<serve::TcpServer> tcp;
  /// Retail only: the in-process session, kRetailThreads per query.
  std::optional<serve::ServerSession> session;
  /// Retail only: a second store holding its own copy of the MO, which
  /// takes the INSERT batches so that the read store never moves epoch.
  std::unique_ptr<serve::MoStore> write_store;
  std::unique_ptr<serve::MdqlServer> write_server;
  std::optional<serve::ServerSession> write_session;
  std::size_t threads_per_query = 1;
  /// Read clients (TCP connections on the clinical workloads).
  std::vector<std::unique_ptr<TcpClient>> clients;
  std::unique_ptr<TcpClient> writer;
  std::vector<Stream> streams;  // one per read client
  stress::WorkloadProfile profile;
  std::size_t mo_facts = 0;
  double generate_s = 0.0;
  double publish_s = 0.0;
  double warm_s = 0.0;

  double setup_s() const { return generate_s + publish_s + warm_s; }
};

std::vector<CategoryTypeIndex> TopGrouping(const MdObject& mo) {
  std::vector<CategoryTypeIndex> grouping(mo.dimension_count());
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    grouping[i] = mo.dimension(i).type().top();
  }
  return grouping;
}

Status ExpectOk(const std::string& reply, const std::string& text) {
  if (reply.rfind("OK", 0) == 0) return Status::OK();
  return Status::InvariantViolation(StrCat("'", text, "' replied ", reply));
}

/// Starts the TCP front-end and connects `clients` read clients (plus a
/// writer connection when `writer`), then runs each client's cycle once
/// so the first view build, the plan cache and the shared pool are warm
/// before anything is timed.
Status StartTcp(Tier* tier, std::size_t clients, bool writer) {
  tier->tcp = std::make_unique<serve::TcpServer>(tier->server.get());
  MDDC_RETURN_NOT_OK(tier->tcp->Start(0));
  const int port = tier->tcp->port();
  for (std::size_t c = 0; c < clients; ++c) {
    tier->clients.push_back(std::make_unique<TcpClient>());
    if (!tier->clients.back()->Connect(port, kReplyTimeoutS)) {
      return Status::InvariantViolation("cannot connect to the TCP server");
    }
  }
  if (writer) {
    tier->writer = std::make_unique<TcpClient>();
    if (!tier->writer->Connect(port, kReplyTimeoutS)) {
      return Status::InvariantViolation("cannot connect to the TCP server");
    }
  }
  std::vector<Status> statuses(clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([tier, c, &statuses] {
      std::string reply;
      for (const Stmt& stmt : tier->streams[c]) {
        if (!tier->clients[c]->SendLine(stmt.text) ||
            !tier->clients[c]->ReadReply(&reply)) {
          statuses[c] = Status::InvariantViolation("warm-up read failed");
          return;
        }
        statuses[c] = ExpectOk(reply, stmt.text);
        if (!statuses[c].ok()) return;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Status& status : statuses) MDDC_RETURN_NOT_OK(status);
  return Status::OK();
}

Result<mddc::ClinicalMo> GenerateClinical(std::uint32_t seed) {
  return mddc::GenerateClinicalWorkload(ClinicalParams(seed),
                                        std::make_shared<FactRegistry>());
}

Result<mddc::RetailMo> GenerateRetail(std::uint32_t seed) {
  return mddc::GenerateRetailWorkload(RetailParams(seed),
                                      std::make_shared<FactRegistry>());
}

/// Publishes the clinical MO with the two warm pre-aggregates: COUNT by
/// Diagnosis Group and by Residence Region.
Status PublishClinical(mddc::ClinicalMo clinical, serve::MoStore* store) {
  std::vector<CategoryTypeIndex> by_group = TopGrouping(clinical.mo);
  by_group[clinical.diagnosis_dim] = clinical.group;
  std::vector<CategoryTypeIndex> by_region = TopGrouping(clinical.mo);
  by_region[clinical.residence_dim] = clinical.region;
  MDDC_RETURN_NOT_OK(store->Publish(kClinical, std::move(clinical.mo)));
  MDDC_RETURN_NOT_OK(
      store->WarmAggregate(kClinical, AggFunction::SetCount(), by_group));
  return store->WarmAggregate(kClinical, AggFunction::SetCount(), by_region);
}

/// Generates and publishes the clinical MO and starts serving it over
/// TCP.
Status SetUpClinical(std::uint32_t seed, std::size_t readers, bool writer,
                     Tier* tier) {
  const Clock::time_point start = Clock::now();
  tier->mo_name = kClinical;
  tier->store = std::make_unique<serve::MoStore>();
  tier->server = std::make_unique<serve::MdqlServer>(tier->store.get());
  MDDC_ASSIGN_OR_RETURN(mddc::ClinicalMo clinical, GenerateClinical(seed));
  tier->profile =
      stress::WorkloadProfile::For(ClinicalParams(seed), clinical, kClinical);
  tier->mo_facts = clinical.mo.facts().size();
  const Clock::time_point generated = Clock::now();

  MDDC_RETURN_NOT_OK(PublishClinical(std::move(clinical), tier->store.get()));
  const Clock::time_point published = Clock::now();

  for (std::size_t c = 0; c < readers; ++c) {
    tier->streams.push_back(ClinicalReadStream(tier->profile, seed, c));
  }
  MDDC_RETURN_NOT_OK(StartTcp(tier, readers, writer));
  const Clock::time_point warmed = Clock::now();
  tier->generate_s = Sec(generated - start);
  tier->publish_s = Sec(published - generated);
  tier->warm_s = Sec(warmed - published);
  return Status::OK();
}

/// Generates and publishes the retail MO (twice: the read store and the
/// write store), connects the in-process sessions and warms the read
/// session with one pass of its cycle. The TCP front-end is started too
/// (with no client) so the traced run can check its bytes.
Status SetUpRetail(std::uint32_t seed, Tier* tier) {
  const Clock::time_point start = Clock::now();
  tier->mo_name = kRetail;
  tier->store = std::make_unique<serve::MoStore>();
  tier->server = std::make_unique<serve::MdqlServer>(tier->store.get());
  tier->write_store = std::make_unique<serve::MoStore>();
  tier->write_server =
      std::make_unique<serve::MdqlServer>(tier->write_store.get());
  MDDC_ASSIGN_OR_RETURN(mddc::RetailMo retail, GenerateRetail(seed));
  MDDC_ASSIGN_OR_RETURN(mddc::RetailMo write_copy, GenerateRetail(seed));
  tier->mo_facts = retail.mo.facts().size();
  const Clock::time_point generated = Clock::now();

  MDDC_RETURN_NOT_OK(tier->store->Publish(kRetail, std::move(retail.mo)));
  MDDC_RETURN_NOT_OK(
      tier->write_store->Publish(kRetail, std::move(write_copy.mo)));
  const Clock::time_point published = Clock::now();

  tier->threads_per_query = kRetailThreads;
  tier->session.emplace(tier->server->Connect(tier->threads_per_query));
  tier->write_session.emplace(tier->write_server->Connect());
  tier->streams.push_back(RetailReadStream(seed));
  tier->tcp = std::make_unique<serve::TcpServer>(tier->server.get());
  MDDC_RETURN_NOT_OK(tier->tcp->Start(0));
  for (const Stmt& stmt : tier->streams[0]) {
    MDDC_RETURN_NOT_OK(tier->session->Execute(stmt.text).status());
  }
  const Clock::time_point warmed = Clock::now();
  tier->generate_s = Sec(generated - start);
  tier->publish_s = Sec(published - generated);
  tier->warm_s = Sec(warmed - published);
  return Status::OK();
}

Status SetUp(const std::string& workload, std::uint32_t seed, Tier* tier) {
  if (workload == "ingest") {
    return SetUpClinical(seed, kIngestReaders, /*writer=*/true, tier);
  }
  return SetUpRetail(seed, tier);
}

/// A fresh MO equal to the one the tier published (the generators are
/// deterministic in the seed).
Result<MdObject> Regenerate(const std::string& workload, std::uint32_t seed) {
  if (workload == "retail-scan") {
    MDDC_ASSIGN_OR_RETURN(mddc::RetailMo retail, GenerateRetail(seed));
    return std::move(retail.mo);
  }
  MDDC_ASSIGN_OR_RETURN(mddc::ClinicalMo clinical, GenerateClinical(seed));
  return std::move(clinical.mo);
}

mdql::CompileOptions Interpreted() {
  mdql::CompileOptions options;
  options.enable_compiler = false;
  return options;
}

/// Reference renders (QueryResult::ToString) of `texts` at the store's
/// current epoch, from interpreter-pinned sessions over private views of
/// the published MO (several in parallel; each view has its own registry
/// fork).
Result<std::map<std::string, std::string>> References(
    const serve::MoStore& store, const std::string& name,
    const std::vector<std::string>& texts) {
  const std::shared_ptr<const serve::MoSnapshot> snapshot = store.Pin();
  const serve::PublishedMo* entry = snapshot->Find(name);
  if (entry == nullptr) return Status::NotFound(name);
  const std::size_t workers = std::min(Nproc(), kReferenceWorkers);
  std::vector<std::string> renders(texts.size());
  std::vector<Status> statuses(workers);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      mdql::Session session;
      session.set_compile_options(Interpreted());
      statuses[w] = session.Register(
          name,
          entry->mo().WithRegistry(FactRegistry::ForkOf(entry->mo().registry())));
      for (std::size_t i = w; i < texts.size() && statuses[w].ok();
           i += workers) {
        auto result = session.Execute(texts[i]);
        if (!result.ok()) {
          statuses[w] = result.status();
          break;
        }
        renders[i] = result->ToString();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Status& status : statuses) MDDC_RETURN_NOT_OK(status);
  std::map<std::string, std::string> refs;
  for (std::size_t i = 0; i < texts.size(); ++i) refs[texts[i]] = renders[i];
  return refs;
}

// ---- Clients ---------------------------------------------------------------

/// What one executed statement gave back. `bytes` is the TCP reply or
/// the rendered result; `end` closes the timed interval; `fatal` means
/// the client cannot continue (its connection is gone).
struct Outcome {
  bool ok = false;
  bool fatal = false;
  std::string bytes;
  Clock::time_point end;
};

Outcome TcpExecute(TcpClient* client, const std::string& text) {
  Outcome out;
  if (!client->SendLine(text) || !client->ReadReply(&out.bytes)) {
    out.fatal = true;  // dropped connection or timeout
    return out;
  }
  out.end = Clock::now();
  out.ok = out.bytes.rfind("OK", 0) == 0;
  return out;
}

/// Runs `text` on client `c` at the boundary the end-to-end metrics are
/// measured at: the TCP front-end, or on retail-scan the in-process
/// session, timed around ServerSession::Execute (rendering afterwards).
Outcome BoundaryExecute(Tier* tier, std::size_t c, const std::string& text) {
  if (!tier->session.has_value()) {
    return TcpExecute(tier->clients[c].get(), text);
  }
  Outcome out;
  auto result = tier->session->Execute(text);
  out.end = Clock::now();
  if (result.ok()) {
    out.ok = true;
    out.bytes = result->ToString();
  }
  return out;
}

struct LoopLog {
  std::vector<double> latency_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
  Clock::time_point last_end;
};

/// A closed-loop client: issues `stream` cyclically, each statement
/// after the previous reply, until `deadline`. When `expected` is given,
/// every successful reply is compared byte for byte with it. `between`,
/// when given, runs after every statement, outside its timed interval.
template <typename Execute>
void ClosedLoop(const Stream& stream, Clock::time_point deadline,
                const std::map<std::string, std::string>* expected,
                Execute&& execute, const std::function<void()>& between,
                LoopLog* log) {
  for (std::size_t i = 0; Clock::now() < deadline; ++i) {
    const Stmt& stmt = stream[i % stream.size()];
    const Clock::time_point start = Clock::now();
    Outcome out = execute(stmt);
    ++log->attempted;
    if (between) between();
    if (!out.ok) {
      ++log->failed;
      if (out.fatal) return;
      continue;
    }
    log->latency_ms.push_back(Ms(out.end - start));
    log->last_end = std::max(log->last_end, out.end);
    if (expected != nullptr) {
      auto it = expected->find(stmt.text);
      if (it == expected->end() || it->second != out.bytes) {
        if (log->mismatches++ == 0) {
          log->first_mismatch = StrCat(stmt.text, "\n--- got ---\n", out.bytes,
                                       "\n--- expected ---\n",
                                       it == expected->end() ? "<none>"
                                                             : it->second);
        }
      }
    }
  }
}

/// Runs one closed-loop thread per stream and merges their logs.
/// `execute(client_index, stmt)` runs one statement for that client;
/// `between` (single-client runs only) runs after each one, untimed.
template <typename Execute>
LoopLog RunClients(const std::vector<Stream>& streams, double seconds,
                   const std::vector<std::map<std::string, std::string>>*
                       expected,
                   Execute execute, Clock::time_point* window_start,
                   const std::function<void()>& between = nullptr) {
  std::vector<LoopLog> logs(streams.size());
  *window_start = Clock::now();
  const Clock::time_point deadline =
      *window_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    threads.emplace_back([&, c] {
      logs[c].last_end = *window_start;
      ClosedLoop(streams[c], deadline,
                 expected == nullptr ? nullptr : &(*expected)[c],
                 [&](const Stmt& stmt) { return execute(c, stmt); }, between,
                 &logs[c]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  LoopLog merged;
  merged.last_end = *window_start;
  for (LoopLog& log : logs) {
    merged.latency_ms.insert(merged.latency_ms.end(), log.latency_ms.begin(),
                             log.latency_ms.end());
    merged.attempted += log.attempted;
    merged.failed += log.failed;
    if (merged.mismatches == 0) merged.first_mismatch = log.first_mismatch;
    merged.mismatches += log.mismatches;
    merged.last_end = std::max(merged.last_end, log.last_end);
  }
  return merged;
}

/// The read path of ServerSession::ExecuteRead composed from the public
/// calls — parse, pin, (per epoch move) view build, execute, render —
/// with a span around each, under a root span per statement.
class TracedReader {
 public:
  TracedReader(serve::MoStore* store, std::size_t threads_per_query)
      : store_(store), threads_per_query_(threads_per_query) {}

  Outcome Read(const Stmt& stmt, Tracer* tracer, std::uint64_t* epoch) {
    Outcome out;
    tracer->BeginStatement(stmt.tag);
    {
      ScopedSpan total(tracer, "stmt.total");
      Result<mdql::Statement> parsed = [&] {
        ScopedSpan span(tracer, "mdql.parse");
        return mdql::Parse(stmt.text);
      }();
      if (!parsed.ok()) return out;
      const std::string name(mdql::StatementMoName(*parsed));
      std::shared_ptr<const serve::MoSnapshot> snapshot;
      const serve::PublishedMo* entry = nullptr;
      {
        ScopedSpan span(tracer, "store.pin");
        snapshot = store_->Pin();
        entry = snapshot->Find(name);
      }
      if (entry == nullptr) return out;
      if (view_ == nullptr || view_epoch_ != snapshot->epoch()) {
        ScopedSpan span(tracer, "session.view_build");
        view_ = std::make_unique<mdql::Session>();
        if (!view_->Register(name, entry->mo().WithRegistry(FactRegistry::ForkOf(
                                       entry->mo().registry())))
                 .ok()) {
          view_.reset();
          return out;
        }
        view_epoch_ = snapshot->epoch();
        ++view_builds_;
      }
      ExecContext exec(threads_per_query_, /*min_facts=*/4096);
      Result<mdql::QueryResult> result = [&] {
        ScopedSpan span(tracer, "mdql.execute");
        return view_->Execute(*parsed, &exec);
      }();
      exec_.MergeFrom(exec.stats);
      ++reads_;
      if (!result.ok()) return out;
      {
        ScopedSpan span(tracer, "mdql.render");
        out.bytes = result->ToString();
      }
      out.ok = true;
      if (epoch != nullptr) *epoch = snapshot->epoch();
    }
    out.end = Clock::now();
    return out;
  }

  const ExecStats& exec() const { return exec_; }
  std::uint64_t reads() const { return reads_; }
  std::uint64_t view_builds() const { return view_builds_; }

  /// Forgets the counters (after a warm-up pass), keeping the view.
  void ResetCounters() {
    exec_ = ExecStats();
    reads_ = 0;
    view_builds_ = 0;
  }

 private:
  serve::MoStore* store_;
  std::size_t threads_per_query_;
  std::unique_ptr<mdql::Session> view_;
  std::uint64_t view_epoch_ = 0;
  ExecStats exec_;
  std::uint64_t reads_ = 0;
  std::uint64_t view_builds_ = 0;
};

/// The write path of ServerSession::ExecuteWrite for an INSERT: parse,
/// then MoStore::AppendBatch with mdql::ApplyInsert inside the appender.
class TracedWriter {
 public:
  explicit TracedWriter(serve::MoStore* store) : store_(store) {}

  Outcome Write(const std::string& text, Tracer* tracer, std::uint64_t* epoch) {
    Outcome out;
    tracer->BeginStatement(kWrite);
    {
      ScopedSpan total(tracer, "stmt.total");
      Result<mdql::Statement> parsed = [&] {
        ScopedSpan span(tracer, "mdql.parse");
        return mdql::Parse(text);
      }();
      if (!parsed.ok() || !parsed->insert.has_value()) return out;
      mdql::QueryResult ack;
      Status status;
      {
        ScopedSpan span(tracer, "store.append_batch");
        status = store_->AppendBatch(
            std::string(mdql::StatementMoName(*parsed)),
            [&](MdObject& draft) -> Status {
              ScopedSpan apply(tracer, "mdql.apply_insert");
              MDDC_ASSIGN_OR_RETURN(ack,
                                    mdql::ApplyInsert(draft, *parsed->insert));
              return Status::OK();
            },
            epoch, &seal_);
      }
      ++batches_;
      if (!status.ok()) return out;
      {
        ScopedSpan span(tracer, "mdql.render");
        out.bytes = ack.ToString();
      }
      out.ok = true;
    }
    out.end = Clock::now();
    return out;
  }

  const ExecStats& seal() const { return seal_; }
  std::uint64_t batches() const { return batches_; }

 private:
  serve::MoStore* store_;
  ExecStats seal_;
  std::uint64_t batches_ = 0;
};

// ---- Writes ----------------------------------------------------------------

struct WriteLog {
  std::vector<double> latency_ms;  // due time -> acknowledgment
  std::vector<double> late_ms;     // due time -> send
  std::vector<std::string> statements;
  std::vector<std::string> replies;  // acknowledged batches only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t backlog_at_deadline = 0;
};

Clock::duration Period(double rate) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
}

/// The ingest writer over TCP: an open loop that sends batch k at
/// start + k / `rate` whether or not earlier batches have been
/// acknowledged (replies are read on a second thread), and times each
/// batch from its due time to its OK.
WriteLog OpenLoopTcpWriter(TcpClient* client,
                           const std::vector<std::string>& batches,
                           double rate, Clock::time_point start,
                           Clock::time_point deadline) {
  WriteLog log;
  std::vector<Clock::time_point> due;
  for (std::size_t k = 0; k < batches.size(); ++k) {
    const Clock::time_point at = start + Period(rate) * k;
    if (at >= deadline) break;
    due.push_back(at);
  }
  std::mutex mu;
  std::condition_variable sent_cv;
  std::size_t sent = 0;  // guarded by mu
  bool sending = true;   // guarded by mu
  std::atomic<std::size_t> received{0};

  // The receiver owns latency_ms, statements and replies until joined;
  // the sender owns late_ms and attempted.
  std::thread receiver([&] {
    std::string reply;
    for (std::size_t k = 0;; ++k) {
      {
        std::unique_lock<std::mutex> lock(mu);
        sent_cv.wait(lock, [&] { return k < sent || !sending; });
        if (k >= sent) return;
      }
      if (!client->ReadReply(&reply)) return;  // dropped or timed out
      const Clock::time_point now = Clock::now();
      if (reply.rfind("OK", 0) == 0) {
        log.latency_ms.push_back(Ms(now - due[k]));
        log.statements.push_back(batches[k]);
        log.replies.push_back(reply);
      }
      received.store(k + 1, std::memory_order_release);
    }
  });
  for (std::size_t k = 0; k < due.size(); ++k) {
    std::this_thread::sleep_until(due[k]);
    log.late_ms.push_back(Ms(Clock::now() - due[k]));
    ++log.attempted;
    if (!client->SendLine(batches[k])) break;
    std::lock_guard<std::mutex> lock(mu);
    ++sent;
    sent_cv.notify_all();
  }
  std::this_thread::sleep_until(deadline);
  {
    std::lock_guard<std::mutex> lock(mu);
    log.backlog_at_deadline =
        sent - received.load(std::memory_order_acquire);
    sending = false;
    sent_cv.notify_all();
  }
  receiver.join();
  // ERR replies, unsent batches and batches whose reply never came.
  log.failed = log.attempted - log.latency_ms.size();
  return log;
}

/// retail-scan's writes: the next of `batches` through the write
/// store's in-process session, timed around ServerSession::Execute.
void WriteNext(Tier* tier, const std::vector<std::string>& batches,
               WriteLog* log) {
  if (log->attempted >= batches.size()) return;
  const std::string& batch = batches[log->attempted++];
  const Clock::time_point start = Clock::now();
  auto result = tier->write_session->Execute(batch);
  const Clock::time_point end = Clock::now();
  if (!result.ok()) {
    ++log->failed;
    return;
  }
  log->latency_ms.push_back(Ms(end - start));
  log->statements.push_back(batch);
  log->replies.push_back(result->ToString());
}

/// Applies the acknowledged batches of `log` in order to `replica` (an
/// interpreter session holding the MO as first published) and compares
/// every acknowledgment with the replica's, byte for byte. `tcp` says
/// whether the recorded replies carry the TCP framing.
Status CompareAcks(mdql::Session* replica, const WriteLog& log, bool tcp,
                   std::string* mismatch) {
  for (std::size_t i = 0; i < log.statements.size(); ++i) {
    MDDC_ASSIGN_OR_RETURN(mdql::QueryResult ack,
                          replica->Execute(log.statements[i]));
    const std::string want =
        tcp ? OkReply(ack.rows.size(), ack.ToString()) : ack.ToString();
    if (log.replies[i] != want && mismatch->empty()) {
      *mismatch = StrCat("acknowledgment of ", log.statements[i],
                         " differs:\n", log.replies[i],
                         "\n--- replica ---\n", want);
    }
  }
  return Status::OK();
}

/// The ingest check set: every level of both clinical dimensions, a
/// two-dimension grouping, a PROB filter and a NOW slice — together they
/// render every fact's characterization in the MO.
std::vector<std::string> IngestCheckSet() {
  const std::string from = StrCat("SELECT COUNT FROM ", kClinical, " BY ");
  return {from + "Diagnosis.\"Low-level Diagnosis\"",
          from + "Diagnosis.\"Diagnosis Family\"",
          from + "Residence.Area",
          from + "Diagnosis.\"Diagnosis Group\", Residence.Region",
          from + "Residence.County WHERE PROB(Diagnosis.\"Diagnosis Group\" "
                 "= 'G0') >= 0.7",
          from + "Diagnosis.\"Diagnosis Group\" ASOF 'NOW'"};
}

/// Renders the check set on the final published MO (a fresh compiled
/// session) and on `replica` (interpreted), and reports a difference.
Status CompareFinalState(serve::MdqlServer* server, mdql::Session* replica,
                         std::string* mismatch) {
  serve::ServerSession live = server->Connect();
  for (const std::string& text : IngestCheckSet()) {
    MDDC_ASSIGN_OR_RETURN(mdql::QueryResult got, live.Execute(text));
    MDDC_ASSIGN_OR_RETURN(mdql::QueryResult want, replica->Execute(text));
    if (got.ToString() != want.ToString() && mismatch->empty()) {
      *mismatch = StrCat("final state differs on ", text, ":\n", got.ToString(),
                         "\n--- replica ---\n", want.ToString());
    }
  }
  return Status::OK();
}

// ---- Reporting -------------------------------------------------------------

/// Builds the one-line JSON description of a run.
class Info {
 public:
  Info& Add(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.6g", value);
    return Raw(key, buffer);
  }
  Info& Add(const std::string& key, const std::string& value) {
    return Raw(key, "\"" + value + "\"");
  }
  std::string str() const { return "{\"run\": {" + body_ + "}}"; }

 private:
  Info& Raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + value;
    return *this;
  }
  std::string body_;
};

void AddEndToEnd(const std::vector<double>& read_ms, double read_seconds,
                 const WriteLog& writes, double setup_s, Report* report) {
  const double ok = static_cast<double>(report->attempted - report->failed);
  report->metrics = {
      {"read_p50_ms", Quantile(read_ms, 0.50), "ms"},
      {"read_p95_ms", Quantile(read_ms, 0.95), "ms"},
      {"read_stmts_per_s", static_cast<double>(read_ms.size()) / read_seconds,
       "1/s"},
      {"write_p50_ms", Quantile(writes.latency_ms, 0.50), "ms"},
      {"write_p95_ms", Quantile(writes.latency_ms, 0.95), "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"ok_share", ok / static_cast<double>(report->attempted), "ratio"},
  };
}

void FailOnMismatch(const std::string& mismatch, Report* report) {
  if (mismatch.empty() || !report->correct) return;
  report->correct = false;
  report->first_mismatch = mismatch;
}

Info RunInfo(const Options& options, const Tier& tier) {
  Info info;
  info.Add("workload", options.workload)
      .Add("seed", options.seed)
      .Add("trace", options.trace ? 1 : 0)
      .Add("seconds", options.seconds)
      .Add("nproc", static_cast<double>(Nproc()))
      .Add("threads_per_query", static_cast<double>(tier.threads_per_query))
      .Add("mo_facts", static_cast<double>(tier.mo_facts))
      .Add("read_clients", static_cast<double>(tier.streams.size()));
  if (options.workload == "ingest") {
    info.Add("writer_rate_per_s", kWriterRate)
        .Add("batch_facts", static_cast<double>(kBatchFacts));
  } else {
    info.Add("reads_per_write", static_cast<double>(kReadsPerWrite))
        .Add("batch_facts", static_cast<double>(kBatchFacts));
  }
  return info;
}

// ---- Untraced run ----------------------------------------------------------

bool RunUntraced(const Options& options, Report* report, std::string* error) {
  const bool ingest = options.workload == "ingest";
  std::vector<double> setups;
  std::unique_ptr<Tier> tier;
  for (int k = 0; k < kSetupRepeats; ++k) {
    tier.reset();
    tier = std::make_unique<Tier>();
    Status status = SetUp(options.workload, options.seed, tier.get());
    if (!status.ok()) {
      *error = StrCat("set-up failed: ", status.ToString());
      return false;
    }
    setups.push_back(tier->setup_s());
  }
  const std::vector<std::string> batches =
      ingest ? ClinicalBatches(
                   tier->profile, options.seed,
                   static_cast<std::size_t>(options.seconds * kWriterRate) + 1)
             : RetailBatches(options.seed,
                             static_cast<std::size_t>(options.seconds *
                                                      kMaxReadsPerSecond) /
                                     kReadsPerWrite +
                                 1);

  // References are computed outside the timed window, at the epoch every
  // retail-scan read runs against.
  std::vector<std::map<std::string, std::string>> expected(tier->streams.size());
  if (!ingest) {
    auto refs = References(*tier->store, tier->mo_name,
                           DistinctTexts(tier->streams));
    if (!refs.ok()) {
      *error = StrCat("reference renders failed: ", refs.status().ToString());
      return false;
    }
    for (const Stmt& stmt : tier->streams[0]) {
      expected[0][stmt.text] = refs->at(stmt.text);
    }
  }

  // The ingest writer's schedule starts with the readers' window; the
  // retail-scan client writes after every kReadsPerWrite reads.
  WriteLog writes;
  std::thread writer;
  std::function<void()> between;
  std::size_t reads_done = 0;
  if (ingest) {
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.seconds));
    writer = std::thread([&, start, deadline] {
      writes = OpenLoopTcpWriter(tier->writer.get(), batches, kWriterRate,
                                 start, deadline);
    });
  } else {
    between = [&] {
      if (++reads_done % kReadsPerWrite == 0) {
        WriteNext(tier.get(), batches, &writes);
      }
    };
  }
  Clock::time_point window_start;
  const LoopLog reads = RunClients(
      tier->streams, options.seconds, ingest ? nullptr : &expected,
      [&](std::size_t c, const Stmt& stmt) {
        return BoundaryExecute(tier.get(), c, stmt.text);
      },
      &window_start, between);
  if (writer.joinable()) writer.join();
  const double read_seconds = Sec(reads.last_end - window_start);

  // Correctness: read replies were compared with the references inside
  // the loop; acknowledgments (and on ingest the final MO) are compared
  // with a replica that applies every acknowledged batch in order.
  std::string mismatch = reads.first_mismatch;
  if (reads.mismatches > 0 && mismatch.empty()) mismatch = "read mismatch";
  auto replica_mo = Regenerate(options.workload, options.seed);
  mdql::Session replica;
  replica.set_compile_options(Interpreted());
  Status status = replica_mo.ok()
                      ? replica.Register(tier->mo_name, std::move(*replica_mo))
                      : replica_mo.status();
  if (status.ok()) {
    status = CompareAcks(&replica, writes, ingest, &mismatch);
  }
  if (status.ok() && ingest) {
    status = CompareFinalState(tier->server.get(), &replica, &mismatch);
  }
  if (!status.ok()) {
    *error = StrCat("verification failed: ", status.ToString());
    return false;
  }
  const std::size_t backlog = writes.backlog_at_deadline;
  if (backlog > static_cast<std::size_t>(kWriterRate * kMaxBacklogSeconds)) {
    *error = StrCat("write backlog grew: ", backlog,
                    " batches unacknowledged at the end of the window");
    return false;
  }

  report->attempted = reads.attempted + writes.attempted;
  report->failed = reads.failed + writes.failed;
  FailOnMismatch(mismatch, report);
  AddEndToEnd(reads.latency_ms, read_seconds, writes, Median(setups), report);

  Info info = RunInfo(options, *tier);
  info.Add("read_samples", static_cast<double>(reads.latency_ms.size()))
      .Add("read_attempted", static_cast<double>(reads.attempted))
      .Add("read_failed", static_cast<double>(reads.failed))
      .Add("write_samples", static_cast<double>(writes.latency_ms.size()))
      .Add("write_attempted", static_cast<double>(writes.attempted))
      .Add("write_failed", static_cast<double>(writes.failed))
      .Add("setup_runs", static_cast<double>(setups.size()))
      .Add("setup_s_min", *std::min_element(setups.begin(), setups.end()))
      .Add("setup_s_max", *std::max_element(setups.begin(), setups.end()));
  if (ingest) {
    info.Add("writer_late_ms_p50", Quantile(writes.late_ms, 0.5))
        .Add("writer_late_ms_max", Quantile(writes.late_ms, 1.0))
        .Add("write_backlog_at_deadline", static_cast<double>(backlog));
  }
  report->info = info.str();
  return true;
}

// ---- Traced run ------------------------------------------------------------

/// Before timing: the traced composition, a fresh ServerSession and the
/// TCP front-end must give the same bytes for the first statement of
/// every class the workload runs.
Status CheckFidelity(Tier* tier, std::string* mismatch) {
  TracedReader reader(tier->store.get(), tier->threads_per_query);
  Tracer scratch(0, Clock::now());
  serve::ServerSession session = tier->server->Connect(tier->threads_per_query);
  TcpClient client;
  if (!client.Connect(tier->tcp->port(), kReplyTimeoutS)) {
    return Status::InvariantViolation("cannot connect to the TCP server");
  }
  std::vector<bool> seen(kTagNames.size(), false);
  for (const Stmt& stmt : tier->streams[0]) {
    if (seen[static_cast<std::size_t>(stmt.tag)]) continue;
    seen[static_cast<std::size_t>(stmt.tag)] = true;
    const Outcome traced = reader.Read(stmt, &scratch, nullptr);
    MDDC_ASSIGN_OR_RETURN(mdql::QueryResult direct, session.Execute(stmt.text));
    const Outcome tcp = TcpExecute(&client, stmt.text);
    if (!traced.ok || !tcp.ok || traced.bytes != direct.ToString() ||
        tcp.bytes != OkReply(direct.rows.size(), direct.ToString())) {
      *mismatch = StrCat("traced path differs from the served bytes on ",
                         stmt.text);
      return Status::OK();
    }
  }
  return Status::OK();
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  std::vector<const Tracer*> tracers;
  ExecStats read_exec;
  std::uint64_t reads = 0;
  std::uint64_t view_builds = 0;
  ExecStats seal;
  std::uint64_t batches = 0;
  serve::MoStore::Stats store_before;
  serve::MoStore::Stats store_after;
  std::size_t live_snapshots_max = 0;
  /// Untraced read p50 measured in the same process before the traced
  /// window: over TCP on ingest (before its writer starts), around
  /// ServerSession::Execute on retail-scan.
  double baseline_read_p50_ms = 0.0;
  /// ingest: the traced in-process read p50 over the same, writer-free
  /// stretch as the TCP baseline.
  double probe_traced_p50_ms = 0.0;
  std::vector<double> late_ms;
};

std::vector<Metric> LayerMetrics(const Options& options, const Tier& tier,
                                 const LayerInputs& in,
                                 const Report& report) {
  const SpanSummary spans = Summarize(in.tracers);
  auto total = [&](const std::string& name) {
    auto it = spans.total_ms.find(name);
    return it == spans.total_ms.end() ? std::vector<double>() : it->second;
  };
  auto self = [&](const std::string& name) {
    auto it = spans.self_ms.find(name);
    return it == spans.self_ms.end() ? std::vector<double>() : it->second;
  };
  auto by_tag = [&](const std::string& name, int tag) {
    auto it = spans.total_ms_by_tag.find({name, tag});
    return it == spans.total_ms_by_tag.end() ? std::vector<double>()
                                             : it->second;
  };
  std::vector<double> read_total;
  for (int tag = kRollup; tag <= kRetailScan; ++tag) {
    const std::vector<double> part = by_tag("stmt.total", tag);
    read_total.insert(read_total.end(), part.begin(), part.end());
  }
  const double read_total_p50 = Quantile(read_total, 0.5);
  const double reads = std::max<double>(1.0, static_cast<double>(in.reads));
  const double batches = std::max<double>(1.0, static_cast<double>(in.batches));
  auto per_read = [&](double v) { return v / reads; };
  auto per_batch = [&](double v) { return v / batches; };
  const ExecStats& e = in.read_exec;
  const double index_probes =
      static_cast<double>(e.index_hits + e.index_fallbacks);

  std::vector<Metric> m;
  m.push_back({"stmt.total_ms.p50", Quantile(total("stmt.total"), 0.5), "ms"});
  for (int tag = kRollup; tag <= kRetailScan; ++tag) {
    const std::vector<double> exec = by_tag("mdql.execute", tag);
    const std::string base = "mdql.execute_ms." + kTagNames[static_cast<std::size_t>(tag)];
    m.push_back({base + ".p50", Quantile(exec, 0.5), "ms"});
    m.push_back({base + ".p95", Quantile(exec, 0.95), "ms"});
  }
  m.push_back({"mdql.parse_us", Quantile(total("mdql.parse"), 0.5) * 1e3, "us"});
  m.push_back({"mdql.render_us", Quantile(total("mdql.render"), 0.5) * 1e3, "us"});
  m.push_back({"mdql.apply_insert_ms", Quantile(total("mdql.apply_insert"), 0.5), "ms"});
  m.push_back({"mdql.plan_cache_hit_ratio", per_read(static_cast<double>(e.plan_cache_hits)), "ratio"});
  m.push_back({"mdql.fused_ratio", per_read(static_cast<double>(e.fused_pipelines)), "ratio"});
  m.push_back({"mdql.plan_fallbacks", static_cast<double>(e.plan_fallbacks), "count"});
  m.push_back({"mdql.rewrites_per_stmt", per_read(static_cast<double>(e.rewrites_applied)), "count/stmt"});
  m.push_back({"session.view_build_ms", Quantile(total("session.view_build"), 0.5), "ms"});
  m.push_back({"session.view_builds_per_read", per_read(static_cast<double>(in.view_builds)), "count/read"});
  m.push_back({"store.append_batch_ms.p50", Quantile(self("store.append_batch"), 0.5), "ms"});
  m.push_back({"store.append_batch_ms.p95", Quantile(self("store.append_batch"), 0.95), "ms"});
  m.push_back({"store.pin_us", Quantile(total("store.pin"), 0.5) * 1e3, "us"});
  m.push_back({"store.append_fallback_ratio",
               per_batch(static_cast<double>(in.store_after.append_fallbacks -
                                             in.store_before.append_fallbacks)),
               "ratio"});
  m.push_back({"store.epochs_published",
               static_cast<double>(in.store_after.epochs_published -
                                   in.store_before.epochs_published),
               "count"});
  m.push_back({"store.live_snapshots_max", static_cast<double>(in.live_snapshots_max), "count"});
  m.push_back({"store.reclaimed_snapshots",
               static_cast<double>(in.store_after.reclaimed_snapshots -
                                   in.store_before.reclaimed_snapshots),
               "count"});
  m.push_back({"seal.rollup_patches", per_batch(static_cast<double>(in.seal.rollup_patches)), "count/batch"});
  m.push_back({"seal.csr_tail_extends", per_batch(static_cast<double>(in.seal.csr_tail_extends)), "count/batch"});
  m.push_back({"seal.preagg_folds", per_batch(static_cast<double>(in.seal.preagg_folds)), "count/batch"});
  m.push_back({"seal.preagg_fold_invalidations",
               per_batch(static_cast<double>(in.seal.preagg_fold_invalidations)), "count/batch"});
  m.push_back({"engine.dense_groupby_runs", per_read(static_cast<double>(e.dense_groupby_runs)), "count/stmt"});
  m.push_back({"engine.flat_hash_runs", per_read(static_cast<double>(e.flat_hash_runs)), "count/stmt"});
  m.push_back({"engine.index_hit_ratio",
               index_probes == 0.0 ? 0.0 : static_cast<double>(e.index_hits) / index_probes,
               "ratio"});
  m.push_back({"engine.parallel_runs", per_read(static_cast<double>(e.parallel_runs)), "count/stmt"});
  m.push_back({"engine.sequential_fallbacks", per_read(static_cast<double>(e.sequential_fallbacks)), "count/stmt"});
  m.push_back({"engine.tasks_per_stmt", per_read(static_cast<double>(e.tasks)), "count/stmt"});
  m.push_back({"engine.merge_ms", per_read(static_cast<double>(e.merge_nanos) / 1e6), "ms/stmt"});
  m.push_back({"engine.arena_mb_per_stmt",
               per_read(static_cast<double>(e.arena_bytes) / (1024.0 * 1024.0)), "MB/stmt"});
  m.push_back({"tcp.wire_ms",
               options.workload == "ingest" ? in.baseline_read_p50_ms - in.probe_traced_p50_ms : 0.0,
               "ms"});
  m.push_back({"trace.overhead_ms",
               options.workload == "retail-scan" ? read_total_p50 - in.baseline_read_p50_ms : 0.0,
               "ms"});
  const std::vector<double> root_total = total("stmt.total");
  const std::vector<double> root_self = self("stmt.total");
  m.push_back({"trace.residual_us", Quantile(root_self, 0.5) * 1e3, "us"});
  m.push_back({"trace.residual_share",
               root_total.empty() ? 0.0 : Sum(root_self) / Sum(root_total), "ratio"});
  m.push_back({"writer.late_ms.p95", Quantile(in.late_ms, 0.95), "ms"});
  m.push_back({"setup.generate_s", tier.generate_s, "s"});
  m.push_back({"setup.publish_s", tier.publish_s, "s"});
  m.push_back({"setup.warm_s", tier.warm_s, "s"});
  m.push_back({"ops.failed_share",
               report.attempted == 0 ? 0.0
                                     : static_cast<double>(report.failed) /
                                           static_cast<double>(report.attempted),
               "ratio"});
  return m;
}

bool RunTraced(const Options& options, Report* report, std::string* error) {
  const bool ingest = options.workload == "ingest";
  auto tier = std::make_unique<Tier>();
  Status status = SetUp(options.workload, options.seed, tier.get());
  if (!status.ok()) {
    *error = StrCat("set-up failed: ", status.ToString());
    return false;
  }
  std::string mismatch;
  status = CheckFidelity(tier.get(), &mismatch);
  if (!status.ok()) {
    *error = StrCat("fidelity check failed: ", status.ToString());
    return false;
  }

  std::vector<std::map<std::string, std::string>> expected(tier->streams.size());
  if (!ingest) {
    auto refs = References(*tier->store, tier->mo_name,
                           DistinctTexts(tier->streams));
    if (!refs.ok()) {
      *error = StrCat("reference renders failed: ", refs.status().ToString());
      return false;
    }
    for (std::size_t c = 0; c < tier->streams.size(); ++c) {
      for (const Stmt& stmt : tier->streams[c]) {
        expected[c][stmt.text] = refs->at(stmt.text);
      }
    }
  }

  // retail-scan splits the run: first an untraced window at the session
  // boundary the end-to-end metrics use, then the traced window; the
  // difference of their p50s is the tracing overhead. Ingest traces for
  // half the run too, after a writer-free wire probe (below).
  const double traced_seconds = options.seconds / 2.0;
  LayerInputs in;
  Clock::time_point window_start;
  if (!ingest) {
    const LoopLog baseline = RunClients(
        tier->streams, options.seconds - traced_seconds, nullptr,
        [&](std::size_t c, const Stmt& stmt) {
          return BoundaryExecute(tier.get(), c, stmt.text);
        },
        &window_start);
    in.baseline_read_p50_ms = Quantile(baseline.latency_ms, 0.5);
    report->attempted += baseline.attempted;
    report->failed += baseline.failed;
  }

  const Clock::time_point origin = Clock::now();
  std::vector<std::unique_ptr<TracedReader>> readers;
  std::vector<std::unique_ptr<Tracer>> tracers;
  for (std::size_t c = 0; c < tier->streams.size(); ++c) {
    readers.push_back(std::make_unique<TracedReader>(tier->store.get(),
                                                     tier->threads_per_query));
    tracers.push_back(std::make_unique<Tracer>(c, origin));
  }
  {
    // Warm-up pass of the traced readers (first view build, plan cache),
    // recorded into scratch tracers that are thrown away.
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < readers.size(); ++c) {
      threads.emplace_back([&, c] {
        Tracer scratch(c, origin);
        for (const Stmt& stmt : tier->streams[c]) {
          readers[c]->Read(stmt, &scratch, nullptr);
        }
        readers[c]->ResetCounters();
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  if (ingest) {
    // The wire probe: the same statements over TCP and through the
    // traced composition in process, before the writer starts, so both
    // run against one epoch; the difference of their p50s is
    // tcp.wire_ms. The probe's spans and counters are thrown away.
    const double probe_seconds = options.seconds / 8.0;
    const LoopLog tcp_probe = RunClients(
        tier->streams, probe_seconds, nullptr,
        [&](std::size_t c, const Stmt& stmt) {
          return BoundaryExecute(tier.get(), c, stmt.text);
        },
        &window_start);
    std::vector<std::unique_ptr<Tracer>> scratch;
    for (std::size_t c = 0; c < readers.size(); ++c) {
      scratch.push_back(std::make_unique<Tracer>(c, origin));
    }
    const LoopLog traced_probe = RunClients(
        tier->streams, probe_seconds, nullptr,
        [&](std::size_t c, const Stmt& stmt) {
          return readers[c]->Read(stmt, scratch[c].get(), nullptr);
        },
        &window_start);
    for (auto& reader : readers) reader->ResetCounters();
    in.baseline_read_p50_ms = Quantile(tcp_probe.latency_ms, 0.5);
    in.probe_traced_p50_ms = Quantile(traced_probe.latency_ms, 0.5);
    report->attempted += tcp_probe.attempted + traced_probe.attempted;
    report->failed += tcp_probe.failed + traced_probe.failed;
  }

  const std::uint64_t base_epoch = tier->store->epoch();
  in.store_before = tier->store->CollectStats();
  std::mutex records_mu;
  stress::StressReport records;  // ingest: every read and write, with epochs
  WriteLog writes;
  TracedWriter writer(tier->store.get());
  Tracer writer_tracer(readers.size(), origin);
  std::thread writer_thread;
  if (ingest) {
    const std::vector<std::string> batches = ClinicalBatches(
        tier->profile, options.seed,
        static_cast<std::size_t>(traced_seconds * kWriterRate) + 1);
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(traced_seconds));
    writer_thread = std::thread([&, batches, start, deadline] {
      // In process the writer cannot pipeline: a batch that is due while
      // the previous one is still sealing is sent late, which late_ms shows.
      for (std::size_t k = 0; k < batches.size(); ++k) {
        const Clock::time_point due = start + Period(kWriterRate) * k;
        if (due >= deadline) break;
        std::this_thread::sleep_until(due);
        in.late_ms.push_back(Ms(Clock::now() - due));
        ++writes.attempted;
        std::uint64_t epoch = 0;
        Outcome out = writer.Write(batches[k], &writer_tracer, &epoch);
        if (!out.ok) {
          ++writes.failed;
          continue;
        }
        writes.latency_ms.push_back(Ms(out.end - due));
        in.live_snapshots_max = std::max(
            in.live_snapshots_max, tier->store->CollectStats().live_snapshots);
        std::lock_guard<std::mutex> lock(records_mu);
        records.write_records.push_back({epoch, batches[k], std::move(out.bytes)});
      }
    });
  }
  const LoopLog traced = RunClients(
      tier->streams, traced_seconds, ingest ? nullptr : &expected,
      [&](std::size_t c, const Stmt& stmt) {
        std::uint64_t epoch = 0;
        Outcome out = readers[c]->Read(stmt, tracers[c].get(), &epoch);
        if (ingest && out.ok) {
          std::lock_guard<std::mutex> lock(records_mu);
          records.read_records.push_back({epoch, stmt.text, out.bytes});
        }
        return out;
      },
      &window_start);
  if (writer_thread.joinable()) writer_thread.join();
  in.store_after = tier->store->CollectStats();
  in.live_snapshots_max = std::max(in.live_snapshots_max, in.store_after.live_snapshots);

  report->attempted += traced.attempted + writes.attempted;
  report->failed += traced.failed + writes.failed;
  if (mismatch.empty()) mismatch = traced.first_mismatch;
  if (ingest) {
    // Every traced read and write, at its exact epoch, against a
    // sequential interpreted replay on a regenerated replica.
    auto replica = Regenerate(options.workload, options.seed);
    if (!replica.ok()) {
      *error = StrCat("replica failed: ", replica.status().ToString());
      return false;
    }
    auto oracle = stress::VerifySequentialReplay(std::move(*replica), kClinical,
                                                 base_epoch, records);
    if (!oracle.ok()) {
      *error = StrCat("sequential replay failed: ", oracle.status().ToString());
      return false;
    }
    if (oracle->mismatches > 0 && mismatch.empty()) {
      mismatch = oracle->first_mismatch;
    }
  }
  FailOnMismatch(mismatch, report);

  for (std::size_t c = 0; c < readers.size(); ++c) {
    in.tracers.push_back(tracers[c].get());
    in.read_exec.MergeFrom(readers[c]->exec());
    in.reads += readers[c]->reads();
    in.view_builds += readers[c]->view_builds();
  }
  in.tracers.push_back(&writer_tracer);
  in.seal = writer.seal();
  in.batches = writer.batches();
  report->metrics = LayerMetrics(options, *tier, in, *report);

  std::string spans_file;
  if (!options.out_dir.empty()) {
    spans_file = StrCat(options.out_dir, "/spans-", options.workload, "-",
                        options.seed, ".jsonl");
    if (!WriteSpans(spans_file, in.tracers, kTagNames)) {
      *error = StrCat("cannot write ", spans_file);
      return false;
    }
  }
  Info info = RunInfo(options, *tier);
  info.Add("traced_seconds", traced_seconds)
      .Add("traced_reads", static_cast<double>(in.reads))
      .Add("traced_batches", static_cast<double>(in.batches))
      .Add("baseline_read_p50_ms", in.baseline_read_p50_ms)
      .Add("spans_file", spans_file);
  report->info = info.str();
  return true;
}

}  // namespace

bool RunWorkload(const Options& options, Report* report, std::string* error) {
  if (options.workload != "ingest" && options.workload != "retail-scan") {
    *error = StrCat("unknown workload '", options.workload, "'");
    return false;
  }
  return options.trace ? RunTraced(options, report, error)
                       : RunUntraced(options, report, error);
}

}  // namespace servebench
