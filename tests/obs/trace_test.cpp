#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "bench_core/json.hpp"

namespace byz::obs {
namespace {

/// Flips the runtime switch on for one test and restores "off" (the
/// process default) afterwards, with the span buffers cleared both sides.
class ObsGuard {
 public:
  ObsGuard() {
    reset_trace();
    set_enabled(true);
  }
  ~ObsGuard() {
    set_enabled(false);
    reset_trace();
  }
};

const bench_core::Json* find_event(const bench_core::Json& doc,
                                   const std::string& name) {
  for (const auto& e : doc.find("traceEvents")->elements()) {
    if (e.find("name")->as_string() == name) return &e;
  }
  return nullptr;
}

TEST(TraceExport, EmptySnapshotIsValidJson) {
  reset_trace();
  const auto doc = bench_core::Json::parse(chrome_trace_json(trace_snapshot()));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("otherData")->find("schema")->as_string(),
            "byzobs/trace/v1");
  // The process_name metadata record is always present.
  ASSERT_NE(find_event(*doc, "process_name"), nullptr);
}

TEST(TraceExport, DisabledSpanRecordsNothing) {
  reset_trace();
  ASSERT_FALSE(enabled());  // runtime default is off
  {
    Span span("test.disabled");
    span.arg("k", 1);
  }
  EXPECT_TRUE(trace_snapshot().events.empty());
}

TEST(TraceExport, SpanRecordsNameDurationAndArgs) {
  ObsGuard guard;
  {
    Span span("test.span");
    span.arg("int", 42)
        .arg("negative", std::int64_t{-7})
        .arg("ratio", 0.5)
        .arg("label", "x \"quoted\"");
  }
  const auto snap = trace_snapshot();
  ASSERT_EQ(snap.events.size(), 1u);
  EXPECT_EQ(snap.events[0].name, "test.span");
  EXPECT_EQ(snap.dropped, 0u);

  const auto doc = bench_core::Json::parse(chrome_trace_json(snap));
  ASSERT_TRUE(doc.has_value());
  const auto* event = find_event(*doc, "test.span");
  ASSERT_NE(event, nullptr);
  EXPECT_EQ(event->find("ph")->as_string(), "X");
  EXPECT_TRUE(event->contains("ts"));
  EXPECT_TRUE(event->contains("dur"));
  const auto* args = event->find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_DOUBLE_EQ(args->find("int")->as_number(), 42.0);
  EXPECT_DOUBLE_EQ(args->find("negative")->as_number(), -7.0);
  EXPECT_DOUBLE_EQ(args->find("ratio")->as_number(), 0.5);
  EXPECT_EQ(args->find("label")->as_string(), "x \"quoted\"");
}

TEST(TraceExport, NestedSpansShareTheThreadAndSortByStart) {
  ObsGuard guard;
  {
    Span outer("test.outer");
    Span inner("test.inner");
  }
  const auto snap = trace_snapshot();
  ASSERT_EQ(snap.events.size(), 2u);
  // Events are (ts, tid)-sorted; the outer span started first.
  EXPECT_EQ(snap.events[0].tid, snap.events[1].tid);
  EXPECT_LE(snap.events[0].ts_us, snap.events[1].ts_us);
}

TEST(TraceExport, WorkerThreadSpansSurviveJoinAndCarryTheirName) {
  ObsGuard guard;
  std::thread worker([] {
    set_trace_thread_name("worker-test");
    Span span("test.worker_span");
  });
  worker.join();
  const auto snap = trace_snapshot();
  ASSERT_EQ(snap.events.size(), 1u);
  const auto tid = snap.events[0].tid;
  bool named = false;
  for (const auto& [t, name] : snap.threads) {
    if (t == tid && name == "worker-test") named = true;
  }
  EXPECT_TRUE(named);

  const auto doc = bench_core::Json::parse(chrome_trace_json(snap));
  ASSERT_TRUE(doc.has_value());
  bool meta_named = false;
  for (const auto& e : doc->find("traceEvents")->elements()) {
    if (e.find("name")->as_string() == "thread_name" &&
        e.find("args")->find("name")->as_string() == "worker-test") {
      meta_named = true;
    }
  }
  EXPECT_TRUE(meta_named);
}

TEST(TraceExport, ResetDiscardsBufferedEvents) {
  ObsGuard guard;
  { Span span("test.discarded"); }
  reset_trace();
  EXPECT_TRUE(trace_snapshot().events.empty());
}

}  // namespace
}  // namespace byz::obs
