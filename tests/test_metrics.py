from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import support
from storagelab.flows import CookieFlowRecord
from storagelab.metrics import (
    FrameStat,
    OptimizeInstance,
    align_curve_inputs,
    build_optimize_sample,
    frame_similarity,
    grade_stats,
    harmonic_score,
    jaccard,
    mean_defined,
    optimize_node_types,
    select_candidates,
    similarity_curve,
)
from storagelab.picf import PICF, cross_site_scores, cross_time_scores, curve_rows, extract_picfs
from storagelab.policy import PolicyKind
from storagelab.simulator import replay
from storagelab.synthetic import SyntheticSpec, TrackerSpec, generate_synthetic_trace
from storagelab.vocab import ALL_NODE_TYPES, STORAGE_NODE_TYPES, NodeType


def flow(profile="p0", crawl_iter=1, visit_seq=1, top="a.com", third="tracker.net",
         name="id", value="a1b2c3d4e5f6"):
    return CookieFlowRecord(profile, crawl_iter, visit_seq, top, third, name, value)


class TestExtractPicfs:
    def test_qualifying_value(self):
        picfs = extract_picfs([flow()], threshold=8)
        assert picfs == {PICF("id", "a1b2c3d4e5f6", "tracker.net", "p0")}

    def test_short_value_excluded(self):
        assert extract_picfs([flow(value="en-US")], threshold=8) == set()

    def test_value_in_two_profiles_excluded(self):
        flows = [flow(profile="p0"), flow(profile="p1", visit_seq=2)]
        assert extract_picfs(flows, threshold=8) == set()

    def test_threshold_monotone(self):
        flows = [flow(value="abcdefgh"), flow(value="ab", name="s", visit_seq=2)]
        for low in range(1, 10):
            for high in range(low, 11):
                assert extract_picfs(flows, high) <= extract_picfs(flows, low)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            extract_picfs([], 0)


class TestCrossSiteScores:
    def test_value_spanning_three_sites(self):
        flows = [flow(top=site, visit_seq=i + 1) for i, site in
                 enumerate(["a.com", "b.com", "c.com"])]
        picfs = extract_picfs(flows, 8)
        assert cross_site_scores(picfs, flows) == {"tracker.net": 3}

    def test_empty_picfs(self):
        assert cross_site_scores(set(), [flow()]) == {}

    def test_single_site_values_do_not_appear(self):
        # One identical value on one site links nothing across sites.
        flows = [flow(), flow(visit_seq=2)]
        picfs = extract_picfs(flows, 8)
        assert cross_site_scores(picfs, flows) == {}

    def test_synthetic_permissive_vs_page_length(self, rules):
        spec = SyntheticSpec(n_sites=3, trackers=(TrackerSpec("tracker0.test"),),
                             crawl_iters=1, profiles=1, seed=3)
        events = generate_synthetic_trace(spec).events
        for policy, expected in [(PolicyKind.PERMISSIVE, {"tracker0.test": 3}),
                                 (PolicyKind.PAGE_LENGTH, {})]:
            out = replay(events, policy, rules)
            picfs = extract_picfs(out.flows, 8)
            assert cross_site_scores(picfs, out.flows) == expected


class TestCrossTimeScores:
    def test_repeat_across_iterations(self):
        flows = [flow(crawl_iter=1, visit_seq=1), flow(crawl_iter=2, visit_seq=2)]
        picfs = extract_picfs(flows, 8)
        assert cross_time_scores(picfs, flows) == {"a.com": 1}

    def test_same_visit_twice_not_counted(self):
        flows = [flow(), flow()]
        picfs = extract_picfs(flows, 8)
        assert cross_time_scores(picfs, flows) == {}

    def test_two_visits_same_iteration_counted_by_default(self):
        flows = [flow(visit_seq=1), flow(visit_seq=5)]
        picfs = extract_picfs(flows, 8)
        assert cross_time_scores(picfs, flows) == {"a.com": 1}
        assert cross_time_scores(picfs, flows, across_iterations_only=True) == {}

    def test_synthetic_ordering(self, rules):
        spec = SyntheticSpec(n_sites=3, trackers=(TrackerSpec("tracker0.test"),),
                             crawl_iters=2, profiles=1, seed=3)
        events = generate_synthetic_trace(spec).events
        expected = {
            PolicyKind.PERMISSIVE: {f"site{i}.test": 1 for i in range(3)},
            PolicyKind.SITE_KEYED: {f"site{i}.test": 1 for i in range(3)},
            PolicyKind.PAGE_LENGTH: {},
            PolicyKind.BLOCKING: {},
        }
        for policy, want in expected.items():
            out = replay(events, policy, rules)
            picfs = extract_picfs(out.flows, 8)
            assert cross_time_scores(picfs, out.flows) == want


def cumulative(scores):
    """The curve's (rank, running sum) points."""
    return [(rank, total) for rank, _, _, total in curve_rows(scores)]


class TestCumulativeCurve:
    def test_two_keys(self):
        assert cumulative({"t1": 3, "t2": 1}) == [(1, 3), (2, 4)]

    def test_empty(self):
        assert cumulative({}) == []

    def test_tie_broken_lexicographically(self):
        assert cumulative({"b": 2, "a": 2}) == [(1, 2), (2, 4)]

    @given(st.dictionaries(st.text(min_size=1, max_size=4), st.integers(0, 50), max_size=8))
    def test_permutation_invariant(self, scores):
        items = list(scores.items())
        reordered = dict(reversed(items))
        assert cumulative(scores) == cumulative(reordered)


class TestJaccard:
    def test_direct_formula(self):
        assert jaccard({"e1", "e2"}, {"e2", "e3"}) == Fraction(1, 3)

    def test_identity(self):
        assert jaccard({"a", "b"}, {"a", "b"}) == 1

    def test_both_empty_undefined(self):
        assert jaccard(set(), set()) is None

    def test_one_empty_is_zero(self):
        assert jaccard({"a"}, set()) == 0

    def test_brute_force_oracle(self):
        assert support.run_jaccard_oracle(seed=1234, count=1000) == 1000

    @given(st.sets(st.integers(0, 30)), st.sets(st.integers(0, 30)))
    def test_symmetric_and_bounded(self, a, b):
        score = jaccard(a, b)
        assert score == jaccard(b, a)
        if score is not None:
            assert 0 <= score <= 1
            assert (score == 1) == (a == b != set())


class TestFrameSimilarity:
    def test_identical_outputs_score_one(self, policy_outputs):
        out = policy_outputs[PolicyKind.PERMISSIVE].frames
        scores = frame_similarity(out, out, ALL_NODE_TYPES, "prof0", "prof0")
        assert scores and all(s.score == 1 for s in scores)

    def test_frame_missing_from_one_side_omitted(self, policy_outputs, rules):
        out = policy_outputs[PolicyKind.PERMISSIVE].frames
        spec = SyntheticSpec(n_sites=2, trackers=(TrackerSpec("tracker0.test"),),
                             crawl_iters=1, profiles=1, seed=42)
        small = replay(generate_synthetic_trace(spec).events, PolicyKind.PERMISSIVE, rules).frames
        scores = frame_similarity(out, small, ALL_NODE_TYPES, "prof0", "prof0")
        keys = {(s.page_url, s.frame_url, s.crawl_iter) for s in scores}
        assert all(key[0].startswith(("https://site0.", "https://site1.")) for key in keys)
        assert all(key[2] == 1 for key in keys)

    def test_first_party_and_ad_frames_excluded(self, policy_outputs):
        out = policy_outputs[PolicyKind.PERMISSIVE].frames
        scores = frame_similarity(out, out, ALL_NODE_TYPES, "prof0", "prof0")
        urls = {s.frame_url for s in scores}
        assert all("tracker" in url for url in urls)

    def test_node_filter_restricts_edges(self, policy_outputs):
        perm = policy_outputs[PolicyKind.PERMISSIVE].frames
        blocking = policy_outputs[PolicyKind.BLOCKING].frames
        storage_only = frozenset({NodeType.SCRIPT}) | STORAGE_NODE_TYPES
        scores = frame_similarity(perm, blocking, storage_only, "prof0", "prof0")
        # Blocking frames have no storage edges at all: similarity 0 everywhere.
        assert scores and all(s.score == 0 for s in scores)

    def test_all_types_score_the_unfiltered_edge_sets(self, policy_outputs):
        perm = policy_outputs[PolicyKind.PERMISSIVE].frames
        blocking = policy_outputs[PolicyKind.BLOCKING].frames
        scores = frame_similarity(perm, blocking, ALL_NODE_TYPES, "prof0", "prof0")
        keys = [(s.page_url, s.frame_url, "prof0", s.crawl_iter) for s in scores]
        assert scores and [s.score for s in scores] == [
            jaccard(perm[key].edge_set, blocking[key].edge_set) for key in keys]

    def test_blocking_gap_is_exact(self, policy_outputs):
        perm = policy_outputs[PolicyKind.PERMISSIVE].frames
        blocking = policy_outputs[PolicyKind.BLOCKING].frames
        scores = frame_similarity(perm, blocking, ALL_NODE_TYPES, "prof0", "prof0")
        assert scores and all(s.score == Fraction(1, 2) for s in scores)


class TestSimilarityCurve:
    def test_all_ones(self):
        scores = [Fraction(1)] * 10
        curve = similarity_curve(scores, baseline_max=10)
        assert curve[-1] == (10, Fraction(1))

    def test_all_zero(self):
        curve = similarity_curve([Fraction(0)] * 4, baseline_max=4)
        assert curve[-1] == (4, Fraction(0))

    def test_mixed(self):
        curve = similarity_curve([Fraction(1), Fraction(1, 2)], baseline_max=2)
        assert curve[-1] == (2, Fraction(3, 4))

    def test_undefined_contributes_zero(self):
        curve = similarity_curve([Fraction(1), None], baseline_max=2)
        assert curve[-1] == (2, Fraction(1, 2))

    def test_align_drops_instances_undefined_in_both(self):
        from storagelab.metrics import FrameSimilarity

        baseline = [
            FrameSimilarity("p", "f1", 1, Fraction(1)),
            FrameSimilarity("p", "f2", 1, None),
        ]
        compared = [
            FrameSimilarity("p", "f1", 1, Fraction(1, 2)),
            FrameSimilarity("p", "f2", 1, None),
        ]
        scores, baseline_defined, dropped = align_curve_inputs(baseline, compared)
        assert scores == [Fraction(1, 2)]
        assert baseline_defined == 1
        assert dropped == 1


class TestOptimizeNodeTypes:
    def test_storage_types_win_on_constructed_sample(self):
        sample = support.build_storage_separation_sample()
        result = optimize_node_types(sample)
        assert result.subsets_evaluated == 2047
        assert result.best_subset == frozenset({NodeType.SCRIPT}) | STORAGE_NODE_TYPES
        assert result.separation == Fraction(1, 2)
        assert result.baseline_mean == 1

    def test_invariant_under_sample_permutation(self):
        sample = support.build_storage_separation_sample()
        result_fwd = optimize_node_types(sample)
        result_rev = optimize_node_types(list(reversed(sample)))
        assert result_fwd == result_rev

    def test_zero_separation_when_contrast_equals_baseline(self):
        base = support.build_storage_separation_sample()
        sample = [OptimizeInstance(i.baseline_a, i.baseline_b, i.baseline_a) for i in base]
        result = optimize_node_types(sample)
        assert result.separation == 0

    def test_all_undefined_raises(self):
        sample = [OptimizeInstance(frozenset(), frozenset(), frozenset())]
        with pytest.raises(ValueError):
            optimize_node_types(sample)

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            optimize_node_types([])

    def test_build_sample_from_outputs(self, policy_outputs):
        sample = build_optimize_sample(
            policy_outputs[PolicyKind.PERMISSIVE].frames,
            policy_outputs[PolicyKind.BLOCKING].frames,
            ("prof0", "prof1"), "prof0")
        assert sample
        result = optimize_node_types(sample)
        assert result.best_subset & STORAGE_NODE_TYPES
        assert result.separation > 0


class TestSelectCandidates:
    def test_harmonic_examples(self):
        assert harmonic_score(4, 4) == 4
        assert harmonic_score(2, 6) == 3
        assert harmonic_score(0, 9) == 0

    def test_distinct_sites_kept(self):
        stats = [
            FrameStat("https://w1.t.net/a", "t.net", 10, 10),
            FrameStat("https://w2.t.net/b", "t.net", 9, 9),
            FrameStat("https://other.org/c", "other.org", 1, 1),
        ]
        assert select_candidates(stats, 2) == [stats[0], stats[2]]

    def test_short_when_not_enough_sites(self):
        stats = [FrameStat("https://w.t.net/a", "t.net", 2, 2)]
        assert select_candidates(stats, 10) == stats  # fewer sites than asked for

    def test_sorted_by_score_then_url(self):
        stats = [
            FrameStat("https://b.net/x", "b.net", 4, 4),
            FrameStat("https://a.org/x", "a.org", 4, 4),
            FrameStat("https://c.com/x", "c.com", 8, 8),
        ]
        assert [c.frame_url for c in select_candidates(stats, 3)] == [
            "https://c.com/x", "https://a.org/x", "https://b.net/x"]

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="at least 1"):
            select_candidates([FrameStat("https://w.t.net/a", "t.net", 2, 2)], k)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            harmonic_score(-1, 2)


class TestGradeStats:
    def test_perfect_agreement_all_ones(self):
        grades = {(f"u{i}", "page-length"): (1, 1) for i in range(10)}
        stats = grade_stats(grades)
        assert stats.agreement == 1
        assert stats.kappa == 1  # degenerate marginals, perfect agreement
        assert stats.breakage["page-length"].broken == 0

    def test_breakage_table_arithmetic(self):
        grades = {}
        for profile, broken in [("site-keyed", 4), ("page-length", 2), ("blocking", 5)]:
            for i in range(50):
                score = (3, 3) if i < broken else (1, 1)
                grades[(f"u{i}", profile)] = score
        stats = grade_stats(grades)
        assert stats.breakage["site-keyed"].pct == Fraction(8, 100)
        assert stats.breakage["page-length"].pct == Fraction(4, 100)
        assert stats.breakage["blocking"].pct == Fraction(10, 100)
        assert stats.breakage["page-length"].broken == 2
        assert stats.breakage["page-length"].n == 50

    def test_ten_cell_kappa_oracle(self):
        # 7x(1,1), 1x(2,2), 1x(3,3), 1x(1,2):
        # p_o = 9/10; marginals (.8,.1,.1) and (.7,.2,.1) give p_e = 59/100;
        # kappa = (90-59)/(100-59) = 31/41.
        cells = [(1, 1)] * 7 + [(2, 2), (3, 3), (1, 2)]
        grades = {(f"u{i}", "p"): cell for i, cell in enumerate(cells)}
        stats = grade_stats(grades)
        assert stats.agreement == Fraction(9, 10)
        assert stats.kappa == Fraction(31, 41)
        assert abs(float(stats.kappa) - 31 / 41) < 1e-12

    def test_consensus_is_max_of_graders(self):
        grades = {("u", "p"): (1, 2)}
        assert grade_stats(grades).breakage["p"].broken == 1

    def test_score_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            grade_stats({("u", "p"): (0, 1)})

    def test_single_disagreement_keeps_kappa_below_one(self):
        grades = {("u1", "p"): (1, 1), ("u2", "p"): (1, 2)}
        stats = grade_stats(grades)
        assert stats.kappa < 1

    def test_empty_grades_rejected(self):
        with pytest.raises(ValueError):
            grade_stats({})


def test_mean_defined():
    assert mean_defined([Fraction(1), None, Fraction(0)]) == Fraction(1, 2)
    assert mean_defined([None, None]) is None
