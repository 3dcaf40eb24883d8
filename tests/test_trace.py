import json

import pytest

from storagelab.trace import (
    ALL_NODE_TYPES,
    BehaviorEdge,
    BehaviorEdgeRecord,
    FrameLoad,
    HttpRequest,
    NodeType,
    OPTIMAL_NODE_TYPES,
    STORAGE_NODE_TYPES,
    ScriptStorage,
    Trace,
    TraceFormatError,
    TraceMeta,
    VisitEnd,
    VisitStart,
    dump_trace,
    edge_endpoint_types,
    parse_trace,
)


def sample_trace():
    edge = BehaviorEdgeRecord(NodeType.SCRIPT, "s.js", "reads", NodeType.COOKIE_JAR, "t.net")
    return Trace(
        meta=TraceMeta(scenario="abc123", policy="permissive", spec={"n_sites": 1}),
        events=[
            VisitStart("p0", 1, "tab0", "https://a.com/", 1),
            FrameLoad("tab0", "f1", "https://t.net/w"),
            HttpRequest("tab0", "f1", "https://t.net/sync", ("uid=x; Path=/",)),
            ScriptStorage("tab0", "f1", "local", "set", "k", "v"),
            BehaviorEdge("tab0", "f1", edge),
            VisitEnd("tab0"),
        ],
    )


def test_round_trip():
    trace = sample_trace()
    again = parse_trace(dump_trace(trace).splitlines())
    assert again.meta == trace.meta
    assert again.events == trace.events


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
    edge = BehaviorEdgeRecord(NodeType.SCRIPT, 's"|,\\x', "op", NodeType.TEXT_NODE, "")
    assert BehaviorEdgeRecord.from_canonical(edge.canonical()) == edge
    assert edge_endpoint_types(edge.canonical()) == (NodeType.SCRIPT, NodeType.TEXT_NODE)


@pytest.mark.parametrize("encoded", ["1", "[]", '["script","s","op","script"]', '{"a":1}',
                                     '["martian","s","op","script","t"]', "nope"])
def test_edge_endpoint_types_rejects_non_edges(encoded):
    with pytest.raises(ValueError):
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

    def test_bad_node_type(self):
        line = ('{"type":"behavior_edge","tab":"t","frame_id":"f","edge":'
                '{"source_type":"martian","source_key":"s","edge_type":"e",'
                '"target_type":"script","target_key":"t"}}')
        with pytest.raises(TraceFormatError, match="line 1"):
            parse_trace([line])

    def test_meta_must_be_first(self):
        with pytest.raises(TraceFormatError, match="meta record only allowed first"):
            parse_trace(['{"type":"visit_end","tab":"t"}', '{"type":"meta"}'])

    def test_non_object_record(self):
        with pytest.raises(TraceFormatError, match="must be a JSON object"):
            parse_trace(["[1,2,3]"])

    def test_blank_lines_skipped(self):
        trace = parse_trace(["", '{"type":"visit_end","tab":"t"}', ""])
        assert trace.events == [VisitEnd("t")]
