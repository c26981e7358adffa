#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

// In-memory span recording for the traced run. Spans are taken around
// the public calls into each layer (mdql, serve/mo_store, the view build
// that serve/mdql_server performs per epoch move); nothing inside the
// library is instrumented. Each client thread owns one Tracer, so
// recording takes no lock; the spans are merged and written out once
// the run has ended.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

/// One timed call. `parent` indexes the same Tracer's span list (-1 for
/// a statement's root span); `stmt` is shared by every span of one
/// statement and unique across threads; `tag` is the statement's class.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t stmt = 0;
  int tag = 0;
};

class Tracer {
 public:
  /// `thread_index` keeps statement ids of different tracers disjoint.
  Tracer(std::size_t thread_index, Clock::time_point origin)
      : thread_(thread_index),
        next_stmt_(static_cast<std::uint64_t>(thread_index) << 40),
        origin_(origin) {}

  /// Starts a new statement: later spans share its id and `tag`.
  void BeginStatement(int tag) {
    ++next_stmt_;
    tag_ = tag;
  }

  int Open(const char* name);
  void Close(int index);

  std::size_t thread_index() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t Now() const;

  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indexes
  std::size_t thread_;
  std::uint64_t next_stmt_;
  int tag_ = 0;
  Clock::time_point origin_;
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer->Open(name)) {}
  ~ScopedSpan() { tracer_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Durations and self times (duration minus the child spans' durations;
/// children of one span never overlap, as each tracer is one thread),
/// in milliseconds, grouped by span name and by (name, tag).
struct SpanSummary {
  std::map<std::string, std::vector<double>> total_ms;
  std::map<std::string, std::vector<double>> self_ms;
  std::map<std::pair<std::string, int>, std::vector<double>> total_ms_by_tag;
};

SpanSummary Summarize(const std::vector<const Tracer*>& tracers);

/// Writes every span as one JSON object per line; a span is identified
/// by (thread, span), its parent by (thread, parent), 0 meaning none.
/// Returns false when the file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers,
                const std::vector<std::string>& tag_names);

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
