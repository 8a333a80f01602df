"""Unit tests for tools/trace_summary.py.

Covers the contracts CI and ctest lean on: valid trace documents roll up
into correct per-span and per-phase tables, and anything malformed — wrong
document shape, events missing required keys, unknown event phases —,
lossy (nonzero dropped-span count) or uncovered (a root span with more
than 10% self time) fails LOUDLY with a nonzero exit so the gate cannot
silently pass on an incomplete summary.

Stdlib only; run with `python3 -m unittest discover tools/tests`.
"""

import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

import trace_summary


def span(name, ts, dur, tid=1, args=None):
    event = {"ph": "X", "name": name, "ts": ts, "dur": dur, "tid": tid,
             "pid": 1}
    if args is not None:
        event["args"] = args
    return event


def valid_doc():
    """Two phases on one thread; phase 1 encloses two rounds and one
    subphase, phase 2 encloses one round. One flood round floats outside
    any phase (cold-path warmup) and must not be attributed."""
    return {
        "traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 1,
             "args": {"name": "byzbench"}},
            span("count.phase", 100, 400, args={"phase": 1}),
            span("flood.round", 120, 50, args={"tokens": 7}),
            span("flood.round", 200, 60, args={"tokens": 3}),
            span("count.subphase", 300, 80, args={"subphase": 2}),
            span("count.phase", 600, 200, args={"phase": 2}),
            span("flood.round", 650, 40, args={"tokens": 11}),
            span("flood.round", 20, 30, args={"tokens": 99}),  # orphan
        ],
        "otherData": {"dropped": 0},
    }


def covered_doc():
    """One trial span whose two phases cover 95% of it: its only root, so
    the document passes the coverage gate."""
    return {
        "traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 1,
             "args": {"name": "size_service"}},
            span("bench.trial", 0, 1000),
            span("count.phase", 0, 600, args={"phase": 1}),
            span("flood.round", 20, 50, args={"tokens": 7}),
            span("count.phase", 600, 350, args={"phase": 2}),
            span("flood.round", 650, 40, args={"tokens": 11}),
        ],
        "otherData": {"dropped": 0},
    }


def write_doc(doc):
    fh = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False,
                                     encoding="utf-8")
    json.dump(doc, fh)
    fh.close()
    return fh.name


class LoadEventsTest(unittest.TestCase):
    def tearDown(self):
        if getattr(self, "path", None) and os.path.exists(self.path):
            os.unlink(self.path)

    def load(self, doc):
        self.path = write_doc(doc)
        return trace_summary.load_events(self.path)

    def test_valid_document_loads_and_skips_metadata(self):
        spans, dropped = self.load(valid_doc())
        self.assertEqual(len(spans), 7)  # M event skipped
        self.assertEqual(dropped, 0)
        self.assertTrue(all(e["ph"] == "X" for e in spans))

    def test_dropped_count_surfaces(self):
        doc = valid_doc()
        doc["otherData"]["dropped"] = 42
        _, dropped = self.load(doc)
        self.assertEqual(dropped, 42)

    def test_missing_trace_events_key_raises(self):
        with self.assertRaisesRegex(trace_summary.TraceError,
                                    "no traceEvents key"):
            self.load({"displayTimeUnit": "ms"})

    def test_trace_events_not_a_list_raises(self):
        with self.assertRaisesRegex(trace_summary.TraceError, "not a list"):
            self.load({"traceEvents": {"ph": "X"}})

    def test_event_missing_name_raises(self):
        with self.assertRaisesRegex(trace_summary.TraceError, "lacks ph/name"):
            self.load({"traceEvents": [{"ph": "X", "ts": 1, "dur": 1,
                                        "tid": 1}]})

    def test_unknown_event_phase_raises(self):
        # Schema drift: a future exporter emitting B/E pairs instead of X
        # must trip the validator, not silently produce empty tables.
        with self.assertRaisesRegex(trace_summary.TraceError,
                                    "unexpected ph='B'"):
            self.load({"traceEvents": [{"ph": "B", "name": "count.phase",
                                        "ts": 1, "tid": 1}]})

    def test_event_missing_numeric_field_raises(self):
        doc = {"traceEvents": [{"ph": "X", "name": "flood.round", "ts": 1,
                                "dur": "fast", "tid": 1}]}
        with self.assertRaisesRegex(trace_summary.TraceError,
                                    "lacks numeric dur"):
            self.load(doc)

    def test_unreadable_file_raises(self):
        with self.assertRaises(trace_summary.TraceError):
            trace_summary.load_events("/nonexistent/trace.json")

    def test_non_json_file_raises(self):
        self.path = write_doc({})  # placeholder to get a real path
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write("not json {")
        with self.assertRaises(trace_summary.TraceError):
            trace_summary.load_events(self.path)


class RollupTest(unittest.TestCase):
    def setUp(self):
        self.spans = [e for e in valid_doc()["traceEvents"]
                      if e["ph"] == "X"]

    def test_per_name_table_aggregates_and_sorts_by_total(self):
        rows = trace_summary.per_name_table(self.spans)
        by_name = {r["span"]: r for r in rows}
        self.assertEqual(by_name["count.phase"]["count"], 2)
        self.assertEqual(by_name["count.phase"]["total_us"], 600.0)
        self.assertEqual(by_name["count.phase"]["mean_us"], 300.0)
        self.assertEqual(by_name["flood.round"]["count"], 4)
        self.assertEqual(by_name["flood.round"]["total_us"], 180.0)
        totals = [r["total_us"] for r in rows]
        self.assertEqual(totals, sorted(totals, reverse=True))

    def test_per_phase_attribution_by_containment(self):
        rows = trace_summary.per_phase_table(self.spans)
        by_phase = {r["phase"]: r for r in rows}
        self.assertEqual(set(by_phase), {1, 2})
        self.assertEqual(by_phase[1]["rounds"], 2)
        self.assertEqual(by_phase[1]["tokens"], 10)
        self.assertEqual(by_phase[1]["subphases"], 1)
        self.assertEqual(by_phase[2]["rounds"], 1)
        self.assertEqual(by_phase[2]["tokens"], 11)
        # The orphan round (outside every phase) is attributed nowhere.
        self.assertEqual(sum(r["rounds"] for r in rows), 3)

    def test_fused_rounds_count_once_per_lane(self):
        # A fused kernel call floods three subphases of phase 4 side by
        # side: each flood.round span is one step of all three, and the
        # count.subphase spans follow the flood. The table must read as
        # three one-lane calls would: 2 steps x 3 lanes rounds, 3
        # subphases, and the summed tokens.
        spans = [span("count.phase", 0, 1000, args={"phase": 4}),
                 span("flood.round", 10, 50, args={"lanes": 3,
                                                   "tokens": 90}),
                 span("flood.round", 70, 50, args={"lanes": 3,
                                                   "tokens": 30}),
                 span("count.subphase", 130, 5, args={"j": 1}),
                 span("count.subphase", 140, 5, args={"j": 2}),
                 span("count.subphase", 150, 5, args={"j": 3}),
                 span("flood.round", 200, 20, args={"lanes": 1,
                                                    "tokens": 8})]
        rows = trace_summary.per_phase_table(spans)
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0]["rounds"], 7)
        self.assertEqual(rows[0]["subphases"], 3)
        self.assertEqual(rows[0]["tokens"], 128)

    def test_cross_thread_spans_not_attributed(self):
        spans = [span("count.phase", 0, 1000, tid=1, args={"phase": 5}),
                 span("flood.round", 100, 10, tid=2, args={"tokens": 1})]
        rows = trace_summary.per_phase_table(spans)
        self.assertEqual(rows[0]["rounds"], 0)

    def test_innermost_phase_wins_on_nesting(self):
        spans = [span("engine.phase", 0, 1000, args={"phase": 1}),
                 span("engine.phase", 100, 100, args={"phase": 2}),
                 span("engine.round", 120, 10, args={"tokens": 4})]
        rows = trace_summary.per_phase_table(spans)
        by_phase = {r["phase"]: r for r in rows}
        self.assertEqual(by_phase[2]["rounds"], 1)
        self.assertEqual(by_phase[1]["rounds"], 0)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        # tid 1: A [0,100) holds B [10,30) and C [40,90); C holds D [50,70).
        # tid 2: E [20,60) overlaps A in time but is on another thread.
        spans = [span("A", 0, 100), span("B", 10, 20), span("C", 40, 50),
                 span("D", 50, 20), span("E", 20, 40, tid=2)]
        self.assertEqual(trace_summary.self_times(spans),
                         [30, 20, 30, 20, 40])

    def test_equal_intervals_nest_in_listed_order(self):
        spans = [span("outer", 0, 10), span("inner", 0, 10)]
        self.assertEqual(trace_summary.self_times(spans), [0, 10])

    def test_adjacent_siblings_are_not_nested(self):
        spans = [span("P", 0, 30), span("X", 0, 10), span("Y", 10, 10)]
        self.assertEqual(trace_summary.self_times(spans), [10, 10, 10])

    def test_per_name_table_reports_self_us(self):
        spans = [e for e in valid_doc()["traceEvents"] if e["ph"] == "X"]
        by_name = {r["span"]: r
                   for r in trace_summary.per_name_table(spans)}
        # Phase 1 [100,500) holds rounds of 50 and 60 us and an 80 us
        # subphase; phase 2 [600,800) holds one 40 us round.
        self.assertEqual(by_name["count.phase"]["self_us"],
                         (400 - 50 - 60 - 80) + (200 - 40))
        self.assertEqual(by_name["flood.round"]["self_us"], 180.0)
        self.assertEqual(by_name["count.subphase"]["self_us"], 80.0)


class RootCoverageTest(unittest.TestCase):
    def names(self, spans):
        return [s["name"] for s, _ in trace_summary.uncovered_roots(spans)]

    def test_root_at_the_limit_passes(self):
        # 10 of 100 us uncovered: exactly the limit, not more.
        spans = [span("root", 0, 100), span("a", 0, 60), span("b", 70, 30)]
        self.assertEqual(self.names(spans), [])

    def test_root_past_the_limit_fails(self):
        spans = [span("root", 0, 100), span("a", 0, 60), span("b", 71, 29)]
        [(root, self_us)] = trace_summary.uncovered_roots(spans)
        self.assertEqual(root["name"], "root")
        self.assertEqual(self_us, 11)

    def test_childless_root_fails_and_empty_root_passes(self):
        spans = [span("lone", 0, 50), span("empty", 60, 0)]
        self.assertEqual(self.names(spans), ["lone"])

    def test_only_roots_are_judged(self):
        # The phase keeps 50% self time, but the trial it fills is covered.
        spans = [span("bench.trial", 0, 100), span("count.phase", 0, 100),
                 span("flood.round", 0, 50)]
        self.assertEqual(self.names(spans), [])

    def test_each_thread_has_its_own_roots(self):
        # A span on another thread covers nothing of tid 1's root, and is a
        # covered root of its own.
        spans = [span("main", 0, 100, tid=1), span("trial", 0, 100, tid=2),
                 span("run", 0, 95, tid=2)]
        self.assertEqual(self.names(spans), ["main"])

    def test_valid_doc_roots_are_uncovered(self):
        # Both phases and the orphan round are roots of valid_doc.
        spans = [e for e in valid_doc()["traceEvents"] if e["ph"] == "X"]
        self.assertEqual(self.names(spans),
                         ["count.phase", "count.phase", "flood.round"])
        covered = [e for e in covered_doc()["traceEvents"] if e["ph"] == "X"]
        self.assertEqual(self.names(covered), [])


class MainExitCodeTest(unittest.TestCase):
    def tearDown(self):
        if getattr(self, "path", None) and os.path.exists(self.path):
            os.unlink(self.path)

    def run_main(self, doc, *flags):
        self.path = write_doc(doc)
        out, err = io.StringIO(), io.StringIO()
        old = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        try:
            code = trace_summary.main(["trace_summary.py", self.path, *flags])
        finally:
            sys.stdout, sys.stderr = old
        return code, out.getvalue(), err.getvalue()

    def test_valid_trace_exits_zero(self):
        code, out, err = self.run_main(covered_doc())
        self.assertEqual(code, 0)
        self.assertIn("per-span cost", out)
        self.assertIn("per-phase cost", out)
        self.assertEqual(err, "")

    def test_json_mode_round_trips(self):
        code, out, _ = self.run_main(covered_doc(), "--json")
        self.assertEqual(code, 0)
        doc = json.loads(out)
        self.assertEqual(doc["dropped"], 0)
        self.assertTrue(doc["spans"])
        self.assertTrue(all("self_us" in row for row in doc["spans"]))
        self.assertTrue(doc["phases"])

    def test_dropped_spans_exit_nonzero(self):
        doc = covered_doc()
        doc["otherData"]["dropped"] = 3
        code, _, err = self.run_main(doc)
        self.assertEqual(code, 1)
        self.assertIn("3 spans were dropped", err)

    def test_uncovered_root_exits_nonzero(self):
        code, out, err = self.run_main(valid_doc())
        self.assertEqual(code, 1)
        self.assertIn("per-span cost", out)  # the summary still prints
        self.assertIn("root span count.phase", err)
        self.assertIn("root span flood.round", err)

    def test_malformed_input_exits_nonzero(self):
        code, _, err = self.run_main({"events": []})
        self.assertEqual(code, 1)
        self.assertIn("ERROR", err)


if __name__ == "__main__":
    unittest.main()
