import copy
import json
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from storagelab import trace as trace_module
from storagelab.flows import _MISSING, TraceFormatError
from storagelab.trace import (
    BehaviorEdge,
    FrameLoad,
    HttpRequest,
    ScriptStorage,
    Trace,
    TraceMeta,
    VisitEnd,
    VisitStart,
    _json_line,
    dump_trace,
    event_to_record,
    parse_trace,
    write_trace,
)
from storagelab.vocab import (
    ALL_NODE_TYPES,
    OPTIMAL_NODE_TYPES,
    STORAGE_APIS,
    STORAGE_NODE_TYPES,
    STORAGE_OPS,
    NodeType,
    _edge_string,
    edge_endpoint_types,
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


def _readme_trace_fields() -> dict[str, list[tuple[str, bool, bool]]]:
    """(field, optional, an integer) per field of each row of README's
    "Trace file format" table, in the row's order; an edge object's fields
    under ``"edge object"``."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Trace file format\n", 1)[1].split("\n## ", 1)[0]
    section = section.split("| ------ | ------ |\n", 1)[1]
    rows = {}
    for kind, fields in re.findall(r"^\| `(\w+)` \| (.+) \|$", section, re.M):
        edge = re.search(r"`edge` = `\{([^}]*)\}`", fields)
        if edge:
            rows["edge object"] = [(name, False, False) for name in edge[1].split(", ")]
        fields = re.sub(r"= `\{[^}]*\}`", "", fields)
        rows[kind] = [(name, bool(optional), bool(integer)) for optional, name, integer
                      in re.findall(r"(optional )?`(\w+)`(?: (\(int)|(?: \([^)]*\))?)", fields)]
    return rows


def test_readme_trace_table_matches_the_field_tables():
    rows = _readme_trace_fields()
    tables = {kind: table for kind, (_, table) in trace_module._KINDS.items()}
    tables["edge object"] = trace_module._EDGE_TABLE
    assert rows == {kind: [(name, default is not _MISSING, check is int)
                           for name, check, default in table] for kind, table in tables.items()}


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
        ("value", 5, "field 'value' must be a string"),
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


# ---------------------------------------------------------------------------
# parse_trace against the oracle's field-by-field parse: on any line, both
# build equal events (or meta), or both raise the same error.

TEXT = st.text(max_size=3)
NODE_TYPE_VALUES = st.sampled_from([t.value for t in NodeType])
CONDITIONS = st.none() | st.tuples(TEXT, st.booleans())
EVENTS = st.one_of(
    st.builds(VisitStart, TEXT, st.integers(), TEXT, TEXT, st.integers()),
    st.builds(FrameLoad, TEXT, TEXT, TEXT, st.none() | st.booleans()),
    st.builds(HttpRequest, TEXT, TEXT, TEXT, st.lists(TEXT, max_size=2).map(tuple), CONDITIONS),
    st.builds(ScriptStorage, TEXT, TEXT, st.sampled_from(STORAGE_APIS),
              st.sampled_from(STORAGE_OPS), TEXT, st.none() | TEXT),
    st.builds(lambda tab, frame_id, fields, when: BehaviorEdge(
        tab, frame_id, _edge_string(*fields), when), TEXT, TEXT,
        st.tuples(NODE_TYPE_VALUES, TEXT, TEXT, NODE_TYPE_VALUES, TEXT), CONDITIONS),
    st.builds(VisitEnd, TEXT),
)
# Strings a field may need to hold, and values that a field of another type
# might take.
VOCABULARY = ["meta", "visit_end", *STORAGE_APIS, *STORAGE_OPS, *(t.value for t in NodeType)]
VALUES = st.sampled_from([
    None, True, False, 0, 1, -1, 1.5, 2 ** 64, "", "x", [], ["x"], [1], {}, {"a": 1},
    {"cookie": "u", "present": True}, {"cookie": "u", "present": 1}, *VOCABULARY,
]).map(copy.deepcopy)  # a later step may add to a drawn list or object
DELETE = object()
SUFFIXES = ["", " ", "\t", "x", "}", "]", ",{}", " 1", "{}", "\n", "\\"]


def _slots(value) -> list[tuple]:
    """(container, key) of every value nested in a JSON ``value``."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    return [slot for key, inner in items for slot in [(value, key), *_slots(inner)]]


def _outcome(parse, line: str):
    try:
        trace = parse([line])
    except TraceFormatError as exc:
        return str(exc)
    return trace.meta, trace.events


def _assert_parses_as_the_oracle(line: str) -> None:
    assert _outcome(parse_trace, line) == _outcome(oracles.parse_trace, line), line


def test_parse_of_each_single_field_change_matches_the_oracle():
    """Every field of the sample trace's meta and of every event (and of a
    frame load with its ad flag) deleted, or given a value of each JSON
    type."""
    trace = sample_trace()
    events = [*trace.events, FrameLoad("tab0", "f1", "https://t.net/w", True)]
    lines = dump_trace(Trace(trace.meta, events)).splitlines()
    assert parse_trace(lines) == Trace(trace.meta, events)
    for line in lines:
        for path_index in range(len(_slots(json.loads(line)))):
            for value in [DELETE, None, True, 0, 1.5, "x", [], {}, *VOCABULARY]:
                record = json.loads(line)
                container, key = _slots(record)[path_index]
                if value is DELETE:
                    del container[key]
                else:
                    container[key] = value
                _assert_parses_as_the_oracle(json.dumps(record))


@given(event=EVENTS, data=st.data())
def test_parse_of_a_mutated_line_matches_the_oracle(event, data):
    record = event_to_record(event)
    line = _json_line(record).strip()
    assert parse_trace([line]).events == [event]
    for _ in range(data.draw(st.integers(1, 3))):
        slots = _slots(record)
        kind = data.draw(st.sampled_from(["delete", "replace", "add"] if slots else ["add"]))
        if kind == "add":
            containers = [record] + [c[k] for c, k in slots if isinstance(c[k], (dict, list))]
            container = data.draw(st.sampled_from(containers))
            value = data.draw(VALUES)
            if isinstance(container, dict):
                container[data.draw(st.sampled_from(["type", "tab", "when", "edge", "z"]))] = value
            else:
                container.append(value)
        else:
            container, key = data.draw(st.sampled_from(slots))
            if kind == "delete":
                del container[key]
            else:
                container[key] = data.draw(VALUES)
    separators = data.draw(st.sampled_from([(",", ":"), (", ", ": ")]))
    mutated = json.dumps(record, separators=separators) + data.draw(st.sampled_from(SUFFIXES))
    _assert_parses_as_the_oracle(mutated)
