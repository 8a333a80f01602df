#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace byz::obs {

namespace {

// Per-thread event cap: a smoke-scale traced run emits thousands of spans;
// the cap only bites on full-scale runs, where dropped tails are counted
// and reported in the export rather than silently eating memory.
constexpr std::size_t kMaxEventsPerThread = std::size_t{1} << 19;

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::string name;
  std::uint64_t dropped = 0;
  std::vector<TraceEvent> events;
  // Guards `events`/`name` against the scraper; uncontended on the hot
  // path (only the owner thread pushes).
  std::mutex mutex;
};

struct TraceState {
  std::mutex mutex;
  std::uint32_t next_tid = 0;
  std::vector<ThreadBuffer*> live;
  std::vector<TraceEvent> retained_events;
  std::vector<std::pair<std::uint32_t, std::string>> retained_threads;
  std::uint64_t retained_dropped = 0;
};

TraceState& trace_state() {
  // Leaked on purpose: thread_local buffer destructors (any thread, any
  // time up to process exit) must always find the state alive.
  static TraceState* s = new TraceState;
  return *s;
}

struct ThreadBufferHandle {
  ThreadBuffer* buf;

  ThreadBufferHandle() : buf(new ThreadBuffer) {
    TraceState& s = trace_state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    buf->tid = s.next_tid++;
    s.live.push_back(buf);
  }

  ~ThreadBufferHandle() {
    TraceState& s = trace_state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.retained_events.insert(s.retained_events.end(),
                             std::make_move_iterator(buf->events.begin()),
                             std::make_move_iterator(buf->events.end()));
    s.retained_threads.emplace_back(buf->tid, std::move(buf->name));
    s.retained_dropped += buf->dropped;
    std::erase(s.live, buf);
    delete buf;
  }
};

ThreadBuffer& local_buffer() {
  thread_local ThreadBufferHandle tls;
  return *tls.buf;
}

/// Microseconds since the process-wide trace anchor (first use).
std::uint64_t trace_now_us() noexcept {
  using clock = std::chrono::steady_clock;
  static const clock::time_point anchor = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                            anchor)
          .count());
}

}  // namespace

void set_trace_thread_name(std::string_view name) {
  ThreadBuffer& buf = local_buffer();
  const std::lock_guard<std::mutex> lock(buf.mutex);
  buf.name.assign(name);
}

Span::Span(const char* name) noexcept : name_(name), active_(enabled()) {
  if (active_) start_us_ = trace_now_us();
}

Span::~Span() {
  if (!active_) return;
  const std::uint64_t end_us = trace_now_us();
  ThreadBuffer& buf = local_buffer();
  const std::lock_guard<std::mutex> lock(buf.mutex);
  if (buf.events.size() >= kMaxEventsPerThread) {
    ++buf.dropped;
    return;
  }
  buf.events.push_back({name_, start_us_, end_us - start_us_, buf.tid,
                        std::move(args_)});
}

Span& Span::arg(const char* key, std::int64_t value) {
  if (!active_) return *this;
  if (!args_.empty()) args_ += ", ";
  args_ += '"';
  detail::append_json_escaped(args_, key);
  args_ += "\": " + std::to_string(value);
  return *this;
}

Span& Span::arg(const char* key, double value) {
  if (!active_) return *this;
  if (!args_.empty()) args_ += ", ";
  args_ += '"';
  detail::append_json_escaped(args_, key);
  args_ += "\": ";
  detail::append_json_double(args_, value);
  return *this;
}

Span& Span::arg(const char* key, const char* value) {
  if (!active_) return *this;
  if (!args_.empty()) args_ += ", ";
  args_ += '"';
  detail::append_json_escaped(args_, key);
  args_ += "\": \"";
  detail::append_json_escaped(args_, value);
  args_ += '"';
  return *this;
}

TraceSnapshot trace_snapshot() {
  TraceState& s = trace_state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  TraceSnapshot snap;
  snap.events = s.retained_events;
  snap.threads = s.retained_threads;
  snap.dropped = s.retained_dropped;
  for (ThreadBuffer* buf : s.live) {
    const std::lock_guard<std::mutex> buf_lock(buf->mutex);
    snap.events.insert(snap.events.end(), buf->events.begin(),
                       buf->events.end());
    snap.threads.emplace_back(buf->tid, buf->name);
    snap.dropped += buf->dropped;
  }
  std::sort(snap.events.begin(), snap.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_us != b.ts_us ? a.ts_us < b.ts_us : a.tid < b.tid;
            });
  std::sort(snap.threads.begin(), snap.threads.end());
  return snap;
}

std::string chrome_trace_json(const TraceSnapshot& snap) {
  std::string out;
  out.reserve(128 + snap.events.size() * 96);
  out += "{\"displayTimeUnit\": \"ms\",\n";
  out += "\"otherData\": {\"schema\": \"byzobs/trace/v1\", \"dropped\": " +
         std::to_string(snap.dropped) + "},\n";
  out += "\"traceEvents\": [\n";
  out +=
      " {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"byzcount\"}}";
  for (const auto& [tid, name] : snap.threads) {
    out += ",\n {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": " +
           std::to_string(tid) + ", \"args\": {\"name\": \"";
    detail::append_json_escaped(
        out, name.empty() ? "thread-" + std::to_string(tid) : name);
    out += "\"}}";
  }
  for (const auto& e : snap.events) {
    out += ",\n {\"name\": \"";
    detail::append_json_escaped(out, e.name);
    out += "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(e.tid);
    out += ", \"ts\": " + std::to_string(e.ts_us);
    out += ", \"dur\": " + std::to_string(e.dur_us);
    out += ", \"args\": {" + e.args + "}}";
  }
  out += "\n]}\n";
  return out;
}

bool write_chrome_trace(const std::string& path) {
  const std::string doc = chrome_trace_json(trace_snapshot());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

void reset_trace() {
  TraceState& s = trace_state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.retained_events.clear();
  s.retained_threads.clear();
  s.retained_dropped = 0;
  for (ThreadBuffer* buf : s.live) {
    const std::lock_guard<std::mutex> buf_lock(buf->mutex);
    buf->events.clear();
    buf->dropped = 0;
  }
}

}  // namespace byz::obs
