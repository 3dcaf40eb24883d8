import json
import re
import tracemalloc

import pytest

from storagelab.flows import TraceFormatError
from storagelab.trace import (
    ALL_NODE_TYPES,
    BehaviorEdge,
    FrameLoad,
    HttpRequest,
    NodeType,
    OPTIMAL_NODE_TYPES,
    STORAGE_NODE_TYPES,
    ScriptStorage,
    Trace,
    TraceMeta,
    VisitEnd,
    VisitStart,
    _edge_string,
    dump_trace,
    edge_endpoint_types,
    parse_trace,
    write_trace,
)


def sample_trace():
    edge = _edge_string("script", "s.js", "reads", "cookie_jar", "t.net")
    return Trace(
        meta=TraceMeta(scenario="abc123", spec={"n_sites": 1}),
        events=[
            VisitStart("p0", 1, "tab0", "https://a.com/", 1),
            FrameLoad("tab0", "f1", "https://t.net/w"),
            HttpRequest("tab0", "f1", "https://t.net/sync", ("uid=x; Path=/",)),
            HttpRequest("tab0", "f1", "https://t.net/sync", ("uid=y; Path=/",), ("uid", False)),
            ScriptStorage("tab0", "f1", "local", "set", "k", "v"),
            BehaviorEdge("tab0", "f1", edge),
            BehaviorEdge("tab0", "f1", edge, ("uid", True)),
            VisitEnd("tab0"),
        ],
    )


def test_round_trip():
    trace = sample_trace()
    again = parse_trace(dump_trace(trace).splitlines())
    assert again.meta == trace.meta
    assert again.events == trace.events


def test_when_is_written_only_when_set():
    lines = dump_trace(sample_trace()).splitlines()
    assert [json.loads(line).get("when") for line in lines[3:5] + lines[6:8]] == [
        None, {"cookie": "uid", "present": False}, None, {"cookie": "uid", "present": True}]
    assert sum('"when"' in line for line in lines) == 2


def test_meta_policy_of_an_older_trace_is_ignored():
    trace = parse_trace(['{"type":"meta","scenario":"s","policy":"blocking"}'])
    assert trace.meta == TraceMeta(scenario="s")
    assert dump_trace(trace) == '{"scenario":"s","type":"meta"}\n'


def test_writers_reject_a_non_event_and_leave_no_file(tmp_path):
    # Enough events before the bad one that the writer has flushed some lines.
    trace = Trace(None, sample_trace().events * 2000 + ["not an event"])
    with pytest.raises(TypeError, match="not a trace event"):
        dump_trace(trace)
    path = tmp_path / "trace.jsonl"
    with pytest.raises(TypeError, match="not a trace event"):
        write_trace(trace, path)
    assert not path.exists()


def test_write_trace_streams(tmp_path):
    """The peak traced memory of writing a ~20k-event trace of repeated
    events, each repeat the same object as parse_trace and the generator
    build them, stays well under the file's size: its text is never held
    whole."""
    trace = sample_trace()
    trace = trace._replace(events=trace.events * 3400)
    path = tmp_path / "trace.jsonl"
    tracemalloc.start()
    try:
        write_trace(trace, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text(encoding="utf-8") == dump_trace(trace)
    assert peak < path.stat().st_size / 20


def test_write_trace_of_distinct_events_holds_no_line_past_its_use(tmp_path):
    """With no event repeated, the writer keeps no line once it is written:
    its peak traced memory stays below the file's size."""
    trace = Trace(None, [VisitStart("p0", 1, "tab0", f"https://site{i}.example/", i)
                         for i in range(20_000)])
    path = tmp_path / "trace.jsonl"
    tracemalloc.start()
    try:
        write_trace(trace, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text(encoding="utf-8") == dump_trace(trace)
    assert peak < path.stat().st_size


def test_dump_is_deterministic():
    trace = sample_trace()
    assert dump_trace(trace) == dump_trace(trace)


def test_node_type_counts():
    assert len(ALL_NODE_TYPES) == 11
    assert len(OPTIMAL_NODE_TYPES) == 8
    assert STORAGE_NODE_TYPES < OPTIMAL_NODE_TYPES
    assert ALL_NODE_TYPES - OPTIMAL_NODE_TYPES == {
        NodeType.HTML_ELEMENT, NodeType.TEXT_NODE, NodeType.WEB_API}


def test_edge_canonical_round_trip():
    edge = _edge_string("script", 's"|,\\x', "op", "text_node", "")
    assert edge == '["script","s\\"|,\\\\x","op","text_node",""]'
    assert json.loads(edge) == ["script", 's"|,\\x', "op", "text_node", ""]
    assert edge_endpoint_types(edge) == (NodeType.SCRIPT, NodeType.TEXT_NODE)


def test_parsed_edge_is_its_canonical_string():
    line = ('{"edge":{"edge_type":"reads","source_key":"s\\u00e9","source_type":"script",'
            '"target_key":"t","target_type":"cookie_jar"},"frame_id":"f","tab":"t",'
            '"type":"behavior_edge"}')
    (event,) = parse_trace([line]).events
    assert event.edge == '["script","s\\u00e9","reads","cookie_jar","t"]'
    assert dump_trace(Trace(None, [event])) == line + "\n"


@pytest.mark.parametrize("encoded", [
    "1", "[]", '["script","s","op","script"]', '{"a":1}', '["martian","s","op","script","t"]',
    "nope", '["script", "s", "op", "script", "t"]', '["script","\\u0061","op","script","t"]',
    '["script","s","op","script",1]', '["script","s","op","script","t","u"]',
    '["script","s","op","script","é"]', ' ["script","s","op","script","t"]', 1, None,
    ["script", "s", "op", "script", "t"]])
def test_edge_endpoint_types_rejects_non_edges(encoded):
    with pytest.raises(ValueError, match="^not a canonical edge: "):
        edge_endpoint_types(encoded)


class TestParseErrors:
    def test_invalid_json_names_line(self):
        with pytest.raises(TraceFormatError, match="line 2"):
            parse_trace(['{"type":"visit_end","tab":"t"}', "{nope"])

    def test_unknown_type(self):
        with pytest.raises(TraceFormatError, match="unknown record type"):
            parse_trace(['{"type":"teleport"}'])

    def test_missing_field(self):
        with pytest.raises(TraceFormatError, match="missing field 'page_url'"):
            parse_trace(['{"type":"visit_start","profile":"p","crawl_iter":1,"tab":"t","visit_seq":1}'])

    def test_bad_storage_api(self):
        with pytest.raises(TraceFormatError, match="unknown storage api"):
            parse_trace(['{"type":"script_storage","tab":"t","frame_id":"f","api":"webSQL","op":"get","key":"k"}'])

    @pytest.mark.parametrize("field,bad,message", [
        ("tab", 1, "field 'tab' must be a string"),
        ("key", ["k"], "field 'key' must be a string"),
        ("api", None, "field 'api' must be a string"),
        ("value", 5, "value must be a string or null"),
    ])
    def test_non_string_storage_field(self, field, bad, message):
        record = {"type": "script_storage", "tab": "t", "frame_id": "f", "api": "local",
                  "op": "set", "key": "k", "value": "v", field: bad}
        with pytest.raises(TraceFormatError, match=f"line 1: {message}"):
            parse_trace([json.dumps(record)])

    @pytest.mark.parametrize("field", ["crawl_iter", "visit_seq"])
    @pytest.mark.parametrize("bad", [True, False])
    def test_boolean_is_not_an_integer(self, field, bad):
        record = {"type": "visit_start", "profile": "p", "crawl_iter": 1, "tab": "t",
                  "page_url": "https://a.com/", "visit_seq": 1, field: bad}
        with pytest.raises(TraceFormatError, match=f"^line 2: field '{field}' must be an integer$"):
            parse_trace(['{"type":"visit_end","tab":"t"}', json.dumps(record)])

    def test_bad_node_type(self):
        line = ('{"type":"behavior_edge","tab":"t","frame_id":"f","edge":'
                '{"source_type":"martian","source_key":"s","edge_type":"e",'
                '"target_type":"script","target_key":"t"}}')
        with pytest.raises(TraceFormatError, match="line 1"):
            parse_trace([line])

    @pytest.mark.parametrize("when", [
        "uid", ["uid", True], {"present": True}, {"cookie": 1, "present": True},
        {"cookie": "uid"}, {"cookie": "uid", "present": 1}, {"cookie": "uid", "present": "true"},
    ])
    @pytest.mark.parametrize("record", [
        {"type": "http_request", "tab": "t", "frame_id": "f", "dest_url": "https://t.net/",
         "response_set_cookies": []},
        {"type": "behavior_edge", "tab": "t", "frame_id": "f",
         "edge": {"source_type": "script", "source_key": "s", "edge_type": "reads",
                  "target_type": "cookie_jar", "target_key": "t"}},
    ])
    def test_malformed_when_names_the_line(self, record, when):
        message = 'line 2: when must be {"cookie": a string, "present": a boolean}'
        with pytest.raises(TraceFormatError, match=f"^{re.escape(message)}$"):
            parse_trace(['{"type":"visit_end","tab":"t"}', json.dumps({**record, "when": when})])

    def test_meta_must_be_first(self):
        with pytest.raises(TraceFormatError, match="meta record only allowed first"):
            parse_trace(['{"type":"visit_end","tab":"t"}', '{"type":"meta"}'])

    def test_non_object_record(self):
        with pytest.raises(TraceFormatError, match="must be a JSON object"):
            parse_trace(["[1,2,3]"])

    def test_blank_lines_skipped(self):
        trace = parse_trace(["", '{"type":"visit_end","tab":"t"}', ""])
        assert trace.events == [VisitEnd("t")]
