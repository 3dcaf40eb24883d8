"""Acceptance suite: one test per criterion, each printing a pass line.

The ordering/separation criteria run on the shared seeded synthetic
scenario: 10 sites, 3 trackers embedded everywhere, 2 profiles, 2 crawl
iterations (see conftest).
"""

from fractions import Fraction

import support
from test_cli import run_pipeline
from test_cookies import run_jar_equivalence
from vectors_psl import CASES

from conftest import N_SITES, N_TRACKERS
from storagelab.cookies import Cookie, add_cookie, cookies_for_request, parse_set_cookie
from storagelab.metrics import frame_similarity, grade_stats, mean_defined, optimize_node_types
from storagelab.picf import cross_site_scores, cross_time_scores, extract_picfs
from storagelab.policy import PolicyKind
from storagelab.psl import builtin_rules, etld_plus_one
from storagelab.synthetic import tracker_fixed_edges, tracker_storage_edges
from storagelab.vocab import ALL_NODE_TYPES, STORAGE_NODE_TYPES


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {text}")


def test_criterion_01_policy_scenarios(rules):
    matrix = support.visibility_matrix(rules)
    assert matrix == support.EXPECTED_VISIBILITY
    report(1, "storage visibility scenarios exact under all four policies")


def test_criterion_02_cross_site_ordering(policy_outputs):
    totals = {}
    for policy, out in policy_outputs.items():
        picfs = extract_picfs(out.flows, 8)
        totals[policy] = sum(cross_site_scores(picfs, out.flows).values())
    assert totals[PolicyKind.PERMISSIVE] == N_TRACKERS * N_SITES
    assert totals[PolicyKind.BLOCKING] == 0
    assert totals[PolicyKind.SITE_KEYED] == 0
    assert totals[PolicyKind.PAGE_LENGTH] == 0
    report(2, f"cross-site totals permissive={N_TRACKERS * N_SITES}, others exactly 0")


def test_criterion_03_cross_time_ordering(policy_outputs):
    totals = {}
    for policy, out in policy_outputs.items():
        picfs = extract_picfs(out.flows, 8)
        totals[policy] = sum(cross_time_scores(picfs, out.flows).values())
    analytic = N_TRACKERS * N_SITES
    assert totals[PolicyKind.PERMISSIVE] == analytic
    assert totals[PolicyKind.SITE_KEYED] == analytic
    assert totals[PolicyKind.PAGE_LENGTH] == 0
    assert totals[PolicyKind.BLOCKING] == 0
    report(3, f"cross-time totals permissive=site-keyed={analytic}, page-length=blocking=0")


def test_criterion_04_similarity_separation(policy_outputs):
    perm = policy_outputs[PolicyKind.PERMISSIVE].frames
    means = {}
    for policy, other_profile in [
        (PolicyKind.PERMISSIVE, "prof1"),
        (PolicyKind.SITE_KEYED, "prof0"),
        (PolicyKind.PAGE_LENGTH, "prof0"),
        (PolicyKind.BLOCKING, "prof0"),
    ]:
        scores = frame_similarity(perm, policy_outputs[policy].frames, ALL_NODE_TYPES,
                                  "prof0", other_profile)
        assert scores
        means[policy] = mean_defined([s.score for s in scores])

    # The constructed tracker widget has 3 fixed edges and 3 storage edges;
    # blocking drops exactly the storage edges on every instance.
    fixed = len(tracker_fixed_edges("https://t/widget.html", "t"))
    storage = len(tracker_storage_edges("https://t/widget.html", "t"))
    expected_blocking = Fraction(fixed, fixed + storage)
    assert expected_blocking == Fraction(1, 2)

    baseline = means[PolicyKind.PERMISSIVE]
    assert baseline == 1
    assert means[PolicyKind.SITE_KEYED] == baseline == 1
    assert means[PolicyKind.PAGE_LENGTH] == baseline == 1
    assert means[PolicyKind.BLOCKING] == expected_blocking
    assert baseline - means[PolicyKind.BLOCKING] == Fraction(1, 2)
    report(4, "page-length and site-keyed at baseline 1.0; blocking gap exactly 1/2")


def test_criterion_05_jaccard_oracle():
    checked = support.run_jaccard_oracle(seed=1234, count=1000)
    assert checked == 1000
    report(5, "jaccard equals brute-force count on 1000 seeded set pairs")


def test_criterion_06_psl_conformance():
    rules = builtin_rules()
    assert len(CASES) >= 40
    for host, expected in CASES:
        assert etld_plus_one(host.lower(), rules) == expected, host
    report(6, f"{len(CASES)} registrable-domain vectors pass, incl. wildcard/exception")


def test_criterion_07_cookie_semantics():
    rules = builtin_rules()
    # Round-trip.
    jar = {}
    add_cookie(jar, parse_set_cookie("token=v1; Path=/", "https://shop.example.com/cart", rules))
    assert ("token", "v1") in cookies_for_request(jar, "https://shop.example.com/cart", 1.0)
    # Default path.
    assert parse_set_cookie("sid=x", "https://a.com/p/q", rules).path == "/p"
    # Domain-match boundary.
    assert parse_set_cookie("a=1; Domain=example.com", "https://badexample.com/", rules) is None
    # Path-sort ordering.
    jar = {}
    add_cookie(jar, Cookie("a", "1", "a.com", True, "/"))
    add_cookie(jar, Cookie("b", "2", "a.com", True, "/x"))
    assert cookies_for_request(jar, "https://a.com/x/y", 0) == [("b", "2"), ("a", "1")]
    # Expiry purge.
    jar = {}
    add_cookie(jar, Cookie("a", "1", "a.com", True, "/", expiry=9.0))
    assert cookies_for_request(jar, "https://a.com/", 10.0) == []
    assert len(jar) == 0
    # Randomized equivalence against the linear-scan reference jar.
    assert run_jar_equivalence(n_sequences=500) > 0
    report(7, "cookie semantics match the naive reference jar on 500 seeded sequences")


def test_criterion_08_node_type_optimization():
    sample = support.build_storage_separation_sample()
    result = optimize_node_types(sample)
    assert result.subsets_evaluated == 2047
    assert STORAGE_NODE_TYPES <= result.best_subset
    assert optimize_node_types(list(reversed(sample))) == result
    report(8, "2047 subsets enumerated; best subset contains the storage node types")


def test_criterion_09_grading_arithmetic():
    grades = {}
    for profile, broken in [("site-keyed", 4), ("page-length", 2), ("blocking", 5)]:
        for i in range(50):
            grades[(f"u{i}", profile)] = (3, 3) if i < broken else (1, 1)
    stats = grade_stats(grades)
    assert (stats.breakage["page-length"].broken, stats.breakage["page-length"].pct) == \
        (2, Fraction(4, 100))
    assert (stats.breakage["blocking"].broken, stats.breakage["blocking"].pct) == \
        (5, Fraction(10, 100))
    assert (stats.breakage["site-keyed"].broken, stats.breakage["site-keyed"].pct) == \
        (4, Fraction(8, 100))

    cells = [(1, 1)] * 7 + [(2, 2), (3, 3), (1, 2)]
    oracle = grade_stats({(f"u{i}", "p"): cell for i, cell in enumerate(cells)})
    assert abs(float(oracle.kappa) - 31 / 41) < 1e-12
    report(9, "breakage table arithmetic and 10-cell kappa oracle reproduced")


def test_criterion_10_pipeline_determinism(tmp_path):
    first = run_pipeline(tmp_path)
    second = run_pipeline(tmp_path)
    assert first == second
    assert len(first) > 20
    report(10, f"rerun of the full CLI pipeline byte-identical across {len(first)} files")
