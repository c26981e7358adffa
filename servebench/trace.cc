#include "trace.h"

#include <cstdio>

namespace servebench {

std::int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::Open(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.stmt = next_stmt_;
  span.tag = tag_;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  spans_.back().start_ns = Now();
  return index;
}

void Tracer::Close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = Now();
  open_.pop_back();
}

SpanSummary Summarize(const std::vector<const Tracer*>& tracers) {
  SpanSummary summary;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const double total = (span.end_ns - span.start_ns) / 1e6;
      summary.total_ms[span.name].push_back(total);
      summary.self_ms[span.name].push_back(total - child_ns[i] / 1e6);
      summary.total_ms_by_tag[{span.name, span.tag}].push_back(total);
    }
  }
  return summary;
}

bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers,
                const std::vector<std::string>& tag_names) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      std::fprintf(out,
                   "{\"thread\": %zu, \"span\": %zu, \"parent\": %d, "
                   "\"stmt\": %llu, \"name\": \"%s\", \"class\": \"%s\", "
                   "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                   tracer->thread_index(), i + 1, span.parent + 1,
                   static_cast<unsigned long long>(span.stmt),
                   span.name,
                   tag_names[static_cast<std::size_t>(span.tag)].c_str(),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace servebench
