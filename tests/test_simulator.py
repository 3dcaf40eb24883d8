import pytest

import support
from storagelab.filterlist import parse_rules
from storagelab.policy import Party, PolicyKind
from storagelab.simulator import (
    FLOW_FIELDS,
    ReplayError,
    read_flows_csv,
    read_frames_jsonl,
    replay,
    write_flows_csv,
    write_frames_jsonl,
)
from storagelab.synthetic import SyntheticSpec, TrackerSpec, generate_synthetic_trace, scenario_id
from storagelab.trace import (
    FrameLoad,
    HttpRequest,
    ScriptStorage,
    TraceFormatError,
    VisitStart,
    dump_trace,
)

from conftest import N_ITERS, N_PROFILES, N_SITES, N_TRACKERS, make_spec


@pytest.mark.parametrize("name", sorted(support.SCENARIOS))
@pytest.mark.parametrize("policy", list(PolicyKind))
def test_scenario_visibility(name, policy, rules):
    events = support.SCENARIOS[name]()
    assert support.probe_visibility(events, policy, rules) == support.EXPECTED_VISIBILITY[name][policy]


class TestSyntheticGenerator:
    def test_visit_count(self):
        spec = SyntheticSpec(n_sites=3, trackers=(TrackerSpec("tracker0.test"),),
                             pages_per_site=1, crawl_iters=2, profiles=1, seed=7)
        trace = generate_synthetic_trace(spec)
        starts = [e for e in trace.events if isinstance(e, VisitStart)]
        assert len(starts) == 6  # 3 sites x 2 iterations

    def test_byte_identical_for_same_spec(self):
        spec = SyntheticSpec(n_sites=3, trackers=(TrackerSpec("tracker0.test"),),
                             pages_per_site=1, crawl_iters=2, profiles=1, seed=7)
        assert dump_trace(generate_synthetic_trace(spec)) == dump_trace(generate_synthetic_trace(spec))

    def test_zero_sites_or_profiles_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic_trace(SyntheticSpec(n_sites=0, trackers=()))
        with pytest.raises(ValueError):
            generate_synthetic_trace(SyntheticSpec(n_sites=1, trackers=(), profiles=0))

    def test_tracker_site_collision_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic_trace(SyntheticSpec(n_sites=1, trackers=(TrackerSpec("site0.test"),)))

    def test_scenario_id_ignores_policy(self):
        spec_a = SyntheticSpec(n_sites=2, trackers=(), seed=5, policy=PolicyKind.PERMISSIVE)
        spec_b = SyntheticSpec(n_sites=2, trackers=(), seed=5, policy=PolicyKind.BLOCKING)
        assert scenario_id(spec_a) == scenario_id(spec_b)
        assert scenario_id(spec_a) != scenario_id(
            SyntheticSpec(n_sites=2, trackers=(), seed=6))

    def test_embedding_probability_seeded(self, rules):
        spec = SyntheticSpec(n_sites=6, trackers=(TrackerSpec("tracker0.test", 0.5),),
                             seed=11, policy=PolicyKind.PERMISSIVE)
        trace_a = generate_synthetic_trace(spec)
        trace_b = generate_synthetic_trace(spec)
        assert dump_trace(trace_a) == dump_trace(trace_b)
        frames = [e for e in trace_a.events
                  if isinstance(e, FrameLoad) and "tracker0" in e.frame_url]
        assert 0 < len(frames) < 6


class TestReplaySemantics:
    def test_permissive_single_value_per_profile(self, policy_outputs, rules):
        out = policy_outputs[PolicyKind.PERMISSIVE]
        for profile in ("prof0", "prof1"):
            for tracker_index in range(N_TRACKERS):
                site = f"tracker{tracker_index}.test"
                values = {f.cookie_value for f in out.flows
                          if f.profile == profile and f.third_party_site == site}
                assert len(values) == 1
                tops = {f.top_site for f in out.flows
                        if f.profile == profile and f.third_party_site == site}
                assert len(tops) == N_SITES

    def test_page_length_fresh_value_per_load(self, policy_outputs):
        out = policy_outputs[PolicyKind.PAGE_LENGTH]
        for profile in ("prof0", "prof1"):
            values = {f.cookie_value for f in out.flows
                      if f.profile == profile and f.third_party_site == "tracker0.test"}
            assert len(values) == N_SITES * N_ITERS  # one per embedding page load

    def test_blocking_has_no_third_party_flows(self, policy_outputs):
        assert policy_outputs[PolicyKind.BLOCKING].flows == []

    def test_first_party_frames_identical_across_policies(self, policy_outputs):
        reference = None
        for out in policy_outputs.values():
            first_party = {
                key: frozenset(record.edge_set)
                for key, record in out.frames.items()
                if record.party is Party.FIRST
            }
            assert first_party, "first-party frames must be present"
            if reference is None:
                reference = first_party
            else:
                assert first_party == reference

    def test_replay_is_deterministic(self, rules):
        trace = generate_synthetic_trace(make_spec(PolicyKind.PAGE_LENGTH, n_sites=3))
        out_a = replay(trace, PolicyKind.PAGE_LENGTH, rules)
        out_b = replay(trace, PolicyKind.PAGE_LENGTH, rules)
        assert out_a.flows == out_b.flows
        assert {k: frozenset(v.edge_set) for k, v in out_a.frames.items()} == \
               {k: frozenset(v.edge_set) for k, v in out_b.frames.items()}

    def test_frame_count_covers_profiles_and_iters(self, policy_outputs):
        out = policy_outputs[PolicyKind.PERMISSIVE]
        tracker_frames = [k for k, v in out.frames.items() if v.party is Party.THIRD]
        assert len(tracker_frames) == N_SITES * N_TRACKERS * N_PROFILES * N_ITERS

    def test_ad_flag_from_filter_list(self, rules):
        ads = parse_rules("||tracker0.test^")
        trace = generate_synthetic_trace(make_spec(PolicyKind.PERMISSIVE, n_sites=2))
        out = replay(trace, PolicyKind.PERMISSIVE, rules, ads)
        flagged = {key[1] for key, record in out.frames.items() if record.is_ad}
        assert flagged == {"https://tracker0.test/widget.html"}

    def test_ad_flag_override_in_trace(self, rules):
        events = [
            VisitStart("p0", 1, "t", "https://a.com/", 1),
            FrameLoad("t", "f1", "https://t.net/w", is_ad=True),
        ]
        out = replay(events, PolicyKind.PERMISSIVE, rules)
        assert out.frames[("https://a.com/", "https://t.net/w", "p0", 1)].is_ad


class TestReplayErrors:
    def test_unknown_frame_names_event_index(self, rules):
        events = [
            VisitStart("p0", 1, "t", "https://a.com/", 1),
            ScriptStorage("t", "f9", "local", "get", "k"),
        ]
        with pytest.raises(ReplayError, match="event 1"):
            replay(events, PolicyKind.PERMISSIVE, rules)

    def test_event_without_visit(self, rules):
        with pytest.raises(ReplayError, match="event 0"):
            replay([FrameLoad("t", "f1", "https://t.net/w")], PolicyKind.PERMISSIVE, rules)

    def test_visit_seq_must_increase(self, rules):
        events = [
            VisitStart("p0", 1, "t", "https://a.com/", 2),
            VisitStart("p0", 1, "t", "https://b.com/", 2),
        ]
        with pytest.raises(ReplayError, match="not increasing"):
            replay(events, PolicyKind.PERMISSIVE, rules)

    def test_http_request_with_unknown_frame(self, rules):
        events = [
            VisitStart("p0", 1, "t", "https://a.com/", 1),
            HttpRequest("t", "f1", "https://t.net/x"),
        ]
        with pytest.raises(ReplayError, match="unknown frame"):
            replay(events, PolicyKind.PERMISSIVE, rules)


def test_set_cookie_with_public_suffix_domain_not_stored(rules):
    def flows(domain):
        events = [
            VisitStart("p0", 1, "t", "https://a.com/", 1),
            FrameLoad("t", "f1", "https://w.x.co.uk/f"),
            HttpRequest("t", "f1", "https://w.x.co.uk/s", (f"uid=v; Domain={domain}",)),
            HttpRequest("t", "f1", "https://w.x.co.uk/r"),
        ]
        return replay(events, PolicyKind.PERMISSIVE, rules).flows
    assert [f.cookie_name for f in flows("x.co.uk")] == ["uid"]
    assert flows("co.uk") == []


class TestOutputFiles:
    def test_flows_round_trip(self, tmp_path, policy_outputs):
        flows = policy_outputs[PolicyKind.PERMISSIVE].flows
        path = tmp_path / "flows.csv"
        write_flows_csv(flows, path)
        assert read_flows_csv(path) == flows

    def test_frames_round_trip(self, tmp_path, policy_outputs):
        frames = policy_outputs[PolicyKind.PERMISSIVE].frames
        path = tmp_path / "frames.jsonl"
        write_frames_jsonl(frames, path)
        again = read_frames_jsonl(path)
        assert set(again) == set(frames)
        for key, record in frames.items():
            assert again[key].edge_set == record.edge_set
            assert again[key].party == record.party
            assert again[key].is_ad == record.is_ad

    @pytest.mark.parametrize("line,message", [
        ("not json", "invalid JSON"),
        ("[]", "record must be a JSON object"),
        ('{"frame_url":"f","profile":"p","party":"third","crawl_iter":1,"is_ad":false,'
         '"edges":[]}', "missing field 'page_url'"),
        ('{"page_url":"p","frame_url":"f","profile":"p","party":"third","crawl_iter":"1",'
         '"is_ad":false,"edges":[]}', "field 'crawl_iter' must be an integer"),
        ('{"page_url":"p","frame_url":"f","profile":"p","party":"third","crawl_iter":1,'
         '"is_ad":0,"edges":[]}', "field 'is_ad' must be a boolean"),
        ('{"page_url":"p","frame_url":"f","profile":"p","party":"third","crawl_iter":1,'
         '"is_ad":false,"edges":[1]}', "field 'edges' must hold strings"),
        ('{"page_url":"p","frame_url":"f","profile":"p","party":"fourth","crawl_iter":1,'
         '"is_ad":false,"edges":[]}', "unknown party 'fourth'"),
    ])
    def test_bad_frame_record_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "frames.jsonl"
        path.write_text("\n" + line + "\n")
        with pytest.raises(TraceFormatError, match=f"frames.jsonl: line 2: {message}"):
            read_frames_jsonl(path)

    @pytest.mark.parametrize("row,message", [
        ("prof0,1", "missing field 'visit_seq'"),
        ("prof0,x,1,a.com,t.net,id,v", "crawl_iter and visit_seq must be integers"),
    ])
    def test_bad_flow_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "flows.csv"
        path.write_text(",".join(FLOW_FIELDS) + "\nprof0,1,1,a.com,t.net,id,v\n" + row + "\n")
        with pytest.raises(TraceFormatError, match=f"flows.csv: line 3: {message}"):
            read_flows_csv(path)

    def test_bad_flow_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n1,2\n")
        with pytest.raises(ValueError):
            read_flows_csv(path)
