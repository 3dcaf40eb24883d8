"""Per-layer metrics of the traced run, derived from the recorded spans.

Each layer is a ``storagelab`` module. Times come from span durations and
self times; counts come from the probes in ``spans.py``. A metric whose
layer the workload never calls reads 0. Wrapping every public function adds
a fixed cost to each call, so per-call times here are higher than in an
untraced run; compare them only between traced runs.
"""

from __future__ import annotations

from spans import SpanTotals
from workloads import POLICIES

UNITS = {
    "psl.etld_calls_per_event": "calls/event",
    "psl.etld_us_per_call": "us",
    "psl.self_share_of_replay": "ratio",
    "psl.parse_s": "s",
    "filterlist.is_ad_calls": "count",
    "filterlist.is_ad_us_per_call": "us",
    "filterlist.ad_hit_ratio": "ratio",
    "filterlist.parse_s": "s",
    "policy.site_of_calls_per_event": "calls/event",
    "policy.storage_access_us_per_call": "us",
    "policy.end_page_load_calls": "count",
    "policy.end_page_load_useful_ratio": "ratio",
    "cookies.set_cookie_accept_ratio": "ratio",
    "cookies.for_request_us_per_call": "us",
    "cookies.jar_scanned_per_request": "cookies",
    "cookies.attached_per_scanned": "ratio",
    "trace.parse_events_per_s": "events/s",
    "trace.dump_events_per_s": "events/s",
    "trace.bytes_per_event": "B/event",
    "synthetic.gen_events_per_s": "events/s",
    **{f"simulator.replay_events_per_s.{p}": "events/s" for p in POLICIES},
    "simulator.replay_self_share": "ratio",
    "simulator.write_s": "s",
    "simulator.read_s": "s",
    "simulator.flows_written": "count",
    "simulator.frames_written": "count",
    "simulator.peak_rss_mb": "MB",
    "metrics.optimize_s": "s",
    "metrics.optimize_instance_subsets_per_s": "1/s",
    "metrics.edge_type_parses": "count",
    "metrics.similarity_s": "s",
    "metrics.picf_s": "s",
    "metrics.candidates_s": "s",
    "tracing.overhead_s": "s",
    "tracing.spans": "count",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(t: SpanTotals, *, trace_bytes: int, trace_events: int, simulate_rss_mb: float,
              overhead_s: float) -> dict[str, float]:
    events = t.counters["replay.events"]
    replay_s = t.total["simulator.replay"]

    def per_call_us(name: str) -> float:
        return _ratio(t.total[name], t.calls[name]) * 1e6

    m = {
        "psl.etld_calls_per_event": _ratio(t.replay_calls["psl.etld_plus_one"], events),
        "psl.etld_us_per_call": _ratio(t.replay_total["psl.etld_plus_one"],
                                       t.replay_calls["psl.etld_plus_one"]) * 1e6,
        "psl.self_share_of_replay": _ratio(
            sum(v for k, v in t.replay_self.items() if k.startswith("psl.")), replay_s),
        "psl.parse_s": _ratio(t.total["psl.parse_psl"], t.calls["psl.parse_psl"]),
        "filterlist.is_ad_calls": t.calls["filterlist.is_ad_url"],
        "filterlist.is_ad_us_per_call": per_call_us("filterlist.is_ad_url"),
        "filterlist.ad_hit_ratio": _ratio(t.counters["is_ad.hits"], t.calls["filterlist.is_ad_url"]),
        "filterlist.parse_s": _ratio(t.total["filterlist.parse_rules"],
                                     t.calls["filterlist.parse_rules"]),
        "policy.site_of_calls_per_event": _ratio(t.replay_calls["policy.site_of"], events),
        "policy.storage_access_us_per_call": per_call_us("policy.PartitionStore.storage_access"),
        "policy.end_page_load_calls": t.calls["policy.PartitionStore.end_page_load"],
        "policy.end_page_load_useful_ratio": _ratio(t.counters["end_page_load.destroyed"],
                                                    t.counters["end_page_load.present"]),
        "cookies.set_cookie_accept_ratio": _ratio(t.counters["set_cookie.accepted"],
                                                  t.calls["cookies.parse_set_cookie"]),
        "cookies.for_request_us_per_call": per_call_us("cookies.cookies_for_request"),
        "cookies.jar_scanned_per_request": _ratio(t.counters["cookies.scanned"],
                                                  t.calls["cookies.cookies_for_request"]),
        "cookies.attached_per_scanned": _ratio(t.counters["cookies.attached"],
                                               t.counters["cookies.scanned"]),
        "trace.parse_events_per_s": _ratio(t.counters["parse.events"], t.total["trace.parse_trace"]),
        "trace.dump_events_per_s": _ratio(t.counters["dump.events"], t.total["trace.dump_trace"]),
        "trace.bytes_per_event": _ratio(trace_bytes, trace_events),
        "synthetic.gen_events_per_s": _ratio(t.counters["gen.events"],
                                             t.total["synthetic.generate_synthetic_trace"]),
        "simulator.replay_self_share": _ratio(t.self_time["simulator.replay"], replay_s),
        "simulator.write_s": t.total["simulator.write_flows_csv"]
        + t.total["simulator.write_frames_jsonl"],
        "simulator.read_s": t.total["simulator.read_flows_csv"]
        + t.total["simulator.read_frames_jsonl"],
        "simulator.flows_written": t.counters["flows_written"],
        "simulator.frames_written": t.counters["frames_written"],
        "simulator.peak_rss_mb": simulate_rss_mb,
        "metrics.optimize_s": t.total["metrics.optimize_node_types"],
        "metrics.optimize_instance_subsets_per_s": _ratio(
            t.counters["optimize.instance_subsets"], t.total["metrics.optimize_node_types"]),
        "metrics.edge_type_parses": t.calls["trace.edge_endpoint_types"],
        "metrics.similarity_s": sum(t.total[f"metrics.{f}"] for f in (
            "frame_similarity", "align_curve_inputs", "similarity_curve")),
        "metrics.picf_s": sum(t.total[f"metrics.{f}"] for f in (
            "extract_picfs", "cross_site_scores", "cross_time_scores")),
        "metrics.candidates_s": t.total["cli.cmd_metrics_candidates"],
        "tracing.overhead_s": overhead_s,
        "tracing.spans": t.n_spans,
    }
    for p in POLICIES:
        m[f"simulator.replay_events_per_s.{p}"] = _ratio(t.counters[f"replay.events.{p}"],
                                                         t.counters[f"replay.seconds.{p}"])
    return {name: float(m[name]) for name in UNITS}
