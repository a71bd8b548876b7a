#include "span_tracer.h"

#include <cstdio>
#include <functional>
#include <thread>

#include "bench_common.h"

namespace perfbench {
namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<uint64_t> t_open;

uint64_t ThreadNumber() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
}

}  // namespace

uint64_t SpanTracer::Begin(const std::string& name, uint64_t query) {
  Span s;
  s.name = name;
  s.parent = t_open.empty() ? 0 : t_open.back();
  s.query = query;
  s.thread = ThreadNumber();
  std::lock_guard<std::mutex> lock(mutex_);
  s.id = next_id_++;
  s.start = NowSec();
  spans_.push_back(std::move(s));
  t_open.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanTracer::End(uint64_t id) {
  const double now = NowSec();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end = now;
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

std::vector<SpanTracer::Span> SpanTracer::Named(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end > 0.0) out.push_back(s);
  }
  return out;
}

std::map<std::string, double> SpanTracer::SelfSeconds(uint64_t lo,
                                                      uint64_t hi) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_time(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) {
    if (s.end > 0.0 && s.parent != 0) {
      child_time[s.parent] += s.end - s.start;
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    if (s.end <= 0.0 || s.query < lo || s.query >= hi) continue;
    self[s.name] += (s.end - s.start) - child_time[s.id];
  }
  return self;
}

bool SpanTracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  bool first = true;
  for (const Span& s : spans_) {
    if (s.end <= 0.0) continue;
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"span\": %llu, \"parent\": %llu, \"query\": %llu}}",
                 first ? "" : ",", s.name.c_str(),
                 static_cast<unsigned long long>(s.thread),
                 (s.start - t0) * 1e6, (s.end - s.start) * 1e6,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.query));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
