"""Pinned bytes of the gen-trace, simulate and metrics outputs on one small
seeded experiment.

``gen-trace`` and then ``simulate`` run for all four policies through
``cli.main``, in-process, and ``simulate --origin-keyed`` for permissive and
site-keyed, with every path relative to one working directory (the
manifests record the paths). Every metrics command then runs on the
outputs without the flag: ``picf``, ``cross-site`` and ``cross-time`` per
policy, ``similarity`` of each other policy against permissive,
``optimize``, ``candidates`` and ``kappa`` on a fixed grades file. A
hand-written two-origin trace is then simulated under every policy with and
without ``--origin-keyed``, since the generated trace cannot tell the two
apart. The
four ``gen-trace`` calls differ only in ``--policy``, which has no effect,
so the four traces are the same bytes and only their manifests differ. Each
sha256 below was taken before the code it guards was last reworked (the
generator's edges and the trace writer for the traces, replay and the
``frames.jsonl`` writer for the simulate outputs, the input readers for the
metrics outputs), so a change to any output byte fails here; such a change
must be deliberate and explained.
"""

import contextlib
import hashlib
import io

import pytest

from storagelab.cli import main

POLICIES = ("permissive", "blocking", "site-keyed", "page-length")

TRACE_GOLDEN = {
    "blocking/manifest.json": "96406a4f277022dbb9575d4fcc671874ce22d85e7182908ba0a392d44471aa7c",
    "blocking/trace.jsonl": "e902e6027d70bbf9f57c5ddca64cc4b98994823f6ed22aeefe009e9f96f6dde4",
    "page-length/manifest.json": "855388c5bf48248ef3bae6d88f3335b04325445d6cbe549d9dc58bebe81d68e7",
    "page-length/trace.jsonl": "e902e6027d70bbf9f57c5ddca64cc4b98994823f6ed22aeefe009e9f96f6dde4",
    "permissive/manifest.json": "61b23ece34c17e3ea936ab24cc3fbff89a6611d0c888994d301c5f33c83e0144",
    "permissive/trace.jsonl": "e902e6027d70bbf9f57c5ddca64cc4b98994823f6ed22aeefe009e9f96f6dde4",
    "site-keyed/manifest.json": "3ed6da34d00cc1bfd5f1dd75dccb4dd3f3f91ec2d15329ad6e56d8b3fdca138a",
    "site-keyed/trace.jsonl": "e902e6027d70bbf9f57c5ddca64cc4b98994823f6ed22aeefe009e9f96f6dde4",
}

GOLDEN = {
    "permissive/flows.csv": "ec06f3feb8001cec8a9e959526252da50d0ab439833ed9ce2c1fdf80594b04f8",
    "permissive/frames.jsonl": "215557bbf9df2f58eeac1ac5253772cbb9089bda2185a60c1fc6e6be1449ede5",
    "permissive/manifest.json": "54883bba493113dd579a7b41b544f63811712555054bb1a793b4662c245b2cec",
    "blocking/flows.csv": "34709d3ddac120a6249843adc52f63a8cf2030a30982e3e392e1f09f1eebf520",
    "blocking/frames.jsonl": "f07de0dce0e70f57523b5bef2adcd0af2d2f4dea40081d0d14bd4c73f8dcdda2",
    "blocking/manifest.json": "14433c2af24d6b37bb9e1aca6c173dd1001b71cc0a4190e7d23aaa4a79e8ad2d",
    "site-keyed/flows.csv": "f058a302a11baaf286a8e445fe83d89b5d847b9019a44e52f0cd782fc68a215b",
    "site-keyed/frames.jsonl": "215557bbf9df2f58eeac1ac5253772cbb9089bda2185a60c1fc6e6be1449ede5",
    "site-keyed/manifest.json": "0476af28a141ad127d223df161e50fca3fec171aa381986f5c15402012862145",
    "page-length/flows.csv": "63a41b6dcb276ce8cdaa2ba1110594da628ae3df38eece082e46ed92e81d1ad8",
    "page-length/frames.jsonl": "215557bbf9df2f58eeac1ac5253772cbb9089bda2185a60c1fc6e6be1449ede5",
    "page-length/manifest.json": "77a5002223dfaa44fc89226e5dbf0e096607df9f8c5d0c368075870df7534470",
}

# ``simulate --origin-keyed``: each synthetic third-party site is served from
# one origin, so the flows and frames equal those of the runs without the
# flag, and only the manifests (which echo it) differ.
ORIGIN_KEYED_POLICIES = ("permissive", "site-keyed")

ORIGIN_KEYED_GOLDEN = {
    "permissive/flows.csv": "ec06f3feb8001cec8a9e959526252da50d0ab439833ed9ce2c1fdf80594b04f8",
    "permissive/frames.jsonl": "215557bbf9df2f58eeac1ac5253772cbb9089bda2185a60c1fc6e6be1449ede5",
    "permissive/manifest.json": "4374abe0fc0d0903868bae42d081a7b534e1931981b91a134ad76959f1ef2b9a",
    "site-keyed/flows.csv": "f058a302a11baaf286a8e445fe83d89b5d847b9019a44e52f0cd782fc68a215b",
    "site-keyed/frames.jsonl": "215557bbf9df2f58eeac1ac5253772cbb9089bda2185a60c1fc6e6be1449ede5",
    "site-keyed/manifest.json": "3f8d4e54a4e03550ad7856d467d52c6f02edfbe3084f99e9fb7f922a8583d6d1",
}

METRICS_GOLDEN = {
    "candidates/candidates.csv":
        "c840ac6af9d4b73c3651e5cfa403140c32cadafaee3ed8394aa51afb963e7f6d",
    "candidates/manifest.json":
        "1fafa9b455cf846291e57c1213a4dfb530a1d9b5dcfdbf5a2e67a260ffe83f1a",
    "cross-site/blocking/cross_site_curve.csv":
        "d7a69eeb5dd7ea484b7d8808bde3c31e51025f2e7f48f72c58a6ef3d6f00bdf4",
    "cross-site/blocking/manifest.json":
        "1da310966b0244f06fbba7c5f38c0c2602861d18a4d7bc5205da127ab9b1233d",
    "cross-site/page-length/cross_site_curve.csv":
        "d7a69eeb5dd7ea484b7d8808bde3c31e51025f2e7f48f72c58a6ef3d6f00bdf4",
    "cross-site/page-length/manifest.json":
        "5a6c8ada1d814e64da41332b8c2e0227b44dbb8f92ecbf418b84b318cb62d808",
    "cross-site/permissive/cross_site_curve.csv":
        "a3ca030b63deb989930bf0b93fd6bf3259b1c09e3b94fdd6bc93e7f673748e8f",
    "cross-site/permissive/manifest.json":
        "49011ce417a6b485c351d63ed2de12b0f6ba5573b8e026ac477b088fd3bf965f",
    "cross-site/site-keyed/cross_site_curve.csv":
        "d7a69eeb5dd7ea484b7d8808bde3c31e51025f2e7f48f72c58a6ef3d6f00bdf4",
    "cross-site/site-keyed/manifest.json":
        "983d02bd14e3250ea6e8ed5d0860eff4f593fcd6690b8165e186283f5a5ba54e",
    "cross-time/blocking/cross_time_curve.csv":
        "9cdd18e660ad537edb013b97a6cf8f7ed26e38f94d09e743ac195dd2c838ad74",
    "cross-time/blocking/manifest.json":
        "2f0069dc3e7b52387950a53c8801a2505a86c2fa3b03a9235b887e103fee9339",
    "cross-time/page-length/cross_time_curve.csv":
        "9cdd18e660ad537edb013b97a6cf8f7ed26e38f94d09e743ac195dd2c838ad74",
    "cross-time/page-length/manifest.json":
        "1bca8ae1547c63331595c5c2b09aa81e7f4d7cfa01a6c41d3947ddc334f56441",
    "cross-time/permissive/cross_time_curve.csv":
        "034155b022ab7d48d3b767f7badfae649df756d146cd93bbd8e5c0e8cd11300b",
    "cross-time/permissive/manifest.json":
        "6373ab197dca012d4513c53423015410b3fca5d9221d2939c9b10d9a1d419699",
    "cross-time/site-keyed/cross_time_curve.csv":
        "034155b022ab7d48d3b767f7badfae649df756d146cd93bbd8e5c0e8cd11300b",
    "cross-time/site-keyed/manifest.json":
        "444df3034f94dfd1a6a1db959c2d696d4db130a659c775de18e0726ca13ad0f1",
    "kappa/grading_report.json":
        "b07ca39a5d3d619ab7068a5119a49ef5845939ce6b8fdb665250502c26bb04dd",
    "kappa/manifest.json":
        "bce30a61371b5af774b52189bcb0e682453dcb5799e476b71ec5d94bb101434a",
    "optimize/manifest.json":
        "7bf5d006b7844ec2bfb676f0e15f04f531ff1cbf808547b53b81f0951e716297",
    "optimize/optimize_report.json":
        "116c52d77ab0268cfac15a0d16ff67fab69d0321fd88c248fbe87932aae8014f",
    "picf/blocking/manifest.json":
        "6e013c80da55853f267934f7b31dcc3146b54e5abcc983de0394a541eedc8142",
    "picf/blocking/picfs.csv":
        "0b7297341450e7af0d3095b9b09a05ad118cf78a3c79bbea33a2d76661e005dd",
    "picf/page-length/manifest.json":
        "d12f7587e99d052d544958913dd67c8b30b9e098831597bb0f54f3be66e83f0c",
    "picf/page-length/picfs.csv":
        "b8ded2fdd539c19e1e39f8a5eb6c2e98dc221f8b7ab5281d85979bdc0d97b410",
    "picf/permissive/manifest.json":
        "933509746a2767e1253cbf1be8b501a6dddfe036a9db207c8d2df3ca9f27757c",
    "picf/permissive/picfs.csv":
        "a75d796828d0c0aa22bede4dc826ed4c9786d78fc2d4414f0f9f80ba43093f41",
    "picf/site-keyed/manifest.json":
        "0ad60e5233969c4571c406f9e1b12ef3e3f169ec23f5fa18dd61175a15588554",
    "picf/site-keyed/picfs.csv":
        "e76833a160c50b3a8bedcb4df04bf53bb9a441695ae366df8e3dc67b673d7df5",
    "similarity/blocking/manifest.json":
        "af51a95617d80c6db9129b7400c8b477133253e01fad31701d003f703ebda320",
    "similarity/blocking/similarity_curve.csv":
        "987eee2e6b9cc06b1c7865fc9822b5859451b05ad6c970a2fff5f4c8cb7ce1e6",
    "similarity/blocking/similarity_report.json":
        "9484f2da496fe041d04a2c0b819034d0e6370fccd9ba12a5678065b1321f0ed1",
    "similarity/blocking/similarity_scores.csv":
        "5c36a1c5009cf73db84c1a589839137e86e10acbc82868948cada5094e74edca",
    "similarity/page-length/manifest.json":
        "bb6d8d90f8f91193ecb2f4daa4d9c38f072cdcd706b36343d7dce5ed84c1b389",
    "similarity/page-length/similarity_curve.csv":
        "d0b8ffe0e40a05f531f5b7f6343e84724bd2d013e7b6fa596bf52455ab594bf7",
    "similarity/page-length/similarity_report.json":
        "1b84588574246e28f02845b7f8d926e013afc504fef275be2021ec7c319235b5",
    "similarity/page-length/similarity_scores.csv":
        "f89c090c5b970b1bb8ec0778121fb606455ac1a0e0c177ccbbfe4f504a8ad48b",
    "similarity/site-keyed/manifest.json":
        "289a7e68d1d52fd74bebeb74555617bf3777c3da85ef0b7864ed2a3c83422ece",
    "similarity/site-keyed/similarity_curve.csv":
        "d0b8ffe0e40a05f531f5b7f6343e84724bd2d013e7b6fa596bf52455ab594bf7",
    "similarity/site-keyed/similarity_report.json":
        "1b84588574246e28f02845b7f8d926e013afc504fef275be2021ec7c319235b5",
    "similarity/site-keyed/similarity_scores.csv":
        "f89c090c5b970b1bb8ec0778121fb606455ac1a0e0c177ccbbfe4f504a8ad48b",
}

GRADES = ("url,profile,grader_a,grader_b\n"
          "https://a.test/,page-length,1,1\n"
          "https://b.test/,page-length,2,1\n"
          "https://c.test/,site-keyed,1,2\n"
          "https://d.test/,site-keyed,3,3\n")


def _run(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


def _metrics_runs():
    """(output directory, argv) of each metrics command of the experiment."""
    for policy in POLICIES:
        flows = f"sim/{policy}/flows.csv"
        yield f"picf/{policy}", ["metrics", "picf", "--flows", flows]
        yield f"cross-site/{policy}", ["metrics", "cross-site", "--flows", flows]
        yield f"cross-time/{policy}", ["metrics", "cross-time", "--flows", flows]
    for policy in POLICIES[1:]:
        yield f"similarity/{policy}", ["metrics", "similarity", "--permissive", "sim/permissive",
                                       "--compared", f"sim/{policy}"]
    yield "optimize", ["metrics", "optimize", "--permissive", "sim/permissive",
                       "--contrast", "sim/page-length"]
    yield "candidates", ["metrics", "candidates", "--sim", "sim/permissive"]
    yield "kappa", ["metrics", "kappa", "--grades", "grades.csv"]


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    """The experiment's working directory, after every command ran."""
    base = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(base)
        for policy in POLICIES:
            assert _run("gen-trace", "--sites", "5", "--trackers", "3", "--tracker-prob", "0.5",
                        "--pages", "2", "--iters", "2", "--profiles", "2", "--seed", "1",
                        "--policy", policy, "--out", f"traces/{policy}") == 0
            assert _run("simulate", "--policy", policy,
                        "--trace", f"traces/{policy}/trace.jsonl", "--out", f"sim/{policy}") == 0
        for policy in ORIGIN_KEYED_POLICIES:
            assert _run("simulate", "--policy", policy, "--origin-keyed",
                        "--trace", f"traces/{policy}/trace.jsonl",
                        "--out", f"sim-origin-keyed/{policy}") == 0
        (base / "grades.csv").write_text(GRADES, encoding="utf-8")
        for out, argv in _metrics_runs():
            assert _run(*argv, "--out", f"metrics/{out}") == 0, argv
    return base


def _digests(root) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_gen_trace_outputs_match_pinned_digests(experiment):
    assert _digests(experiment / "traces") == TRACE_GOLDEN


def test_simulate_outputs_match_pinned_digests(experiment):
    assert _digests(experiment / "sim") == GOLDEN


def test_origin_keyed_simulate_outputs_match_pinned_digests(experiment):
    assert _digests(experiment / "sim-origin-keyed") == ORIGIN_KEYED_GOLDEN


def test_metrics_outputs_match_pinned_digests(experiment):
    assert _digests(experiment / "metrics") == METRICS_GOLDEN


# Third party t.net served from two origins on one page: frame a's request
# sets a cookie for the whole site, and frame b then sends a request. Keyed
# by site, the two origins share a partition and b's request carries the
# cookie; keyed by origin, they do not.
TWO_ORIGIN_TRACE = (
    '{"type":"visit_start","profile":"p0","crawl_iter":1,"tab":"t",'
    '"page_url":"https://a.com/","visit_seq":1}\n'
    '{"type":"frame_load","tab":"t","frame_id":"a","frame_url":"https://a.t.net/w"}\n'
    '{"type":"frame_load","tab":"t","frame_id":"b","frame_url":"https://b.t.net:8443/w"}\n'
    '{"type":"http_request","tab":"t","frame_id":"a","dest_url":"https://a.t.net/s",'
    '"response_set_cookies":["uid=u1; Domain=t.net"]}\n'
    '{"type":"http_request","tab":"t","frame_id":"b","dest_url":"https://b.t.net:8443/r"}\n'
    '{"type":"visit_end","tab":"t"}\n'
)

TWO_ORIGIN_GOLDEN = {
    "origin/blocking/flows.csv":
        "34709d3ddac120a6249843adc52f63a8cf2030a30982e3e392e1f09f1eebf520",
    "origin/blocking/frames.jsonl":
        "5ed80c8401c16012770f7cba512b3a31efa6a44f1db4529e0b35991d425cbba4",
    "origin/blocking/manifest.json":
        "83ba8c58fe481bc24311f0ed7a8958d4e2e250731ab7a6b8c4b1fb095d07ef79",
    "origin/page-length/flows.csv":
        "34709d3ddac120a6249843adc52f63a8cf2030a30982e3e392e1f09f1eebf520",
    "origin/page-length/frames.jsonl":
        "5ed80c8401c16012770f7cba512b3a31efa6a44f1db4529e0b35991d425cbba4",
    "origin/page-length/manifest.json":
        "d071752151bbcd0c41672ff0d91fa353c1d25cb17c1a53a32f93d142361dc708",
    "origin/permissive/flows.csv":
        "34709d3ddac120a6249843adc52f63a8cf2030a30982e3e392e1f09f1eebf520",
    "origin/permissive/frames.jsonl":
        "5ed80c8401c16012770f7cba512b3a31efa6a44f1db4529e0b35991d425cbba4",
    "origin/permissive/manifest.json":
        "48392dd7fec18c30c9437c044bdedd73fe5c021370361fe8dd511db277046c06",
    "origin/site-keyed/flows.csv":
        "34709d3ddac120a6249843adc52f63a8cf2030a30982e3e392e1f09f1eebf520",
    "origin/site-keyed/frames.jsonl":
        "5ed80c8401c16012770f7cba512b3a31efa6a44f1db4529e0b35991d425cbba4",
    "origin/site-keyed/manifest.json":
        "1bf5a1905002b4f7bb5577ea95716fd20ef5038b640253d698db904f84c4c511",
    "site/blocking/flows.csv":
        "34709d3ddac120a6249843adc52f63a8cf2030a30982e3e392e1f09f1eebf520",
    "site/blocking/frames.jsonl":
        "5ed80c8401c16012770f7cba512b3a31efa6a44f1db4529e0b35991d425cbba4",
    "site/blocking/manifest.json":
        "c42c14b733d906297d384441a009f4f9c35ab05d045bfdfee97f1067a8a3cffd",
    "site/page-length/flows.csv":
        "22ba69a4d44c1e82a46bfe7ff57d0d1834f38a5439619d51283766a0d78171f8",
    "site/page-length/frames.jsonl":
        "5ed80c8401c16012770f7cba512b3a31efa6a44f1db4529e0b35991d425cbba4",
    "site/page-length/manifest.json":
        "4a549758230b583cc9a01c4a9135c2bba9b660bacad72305df011da39ff06ce0",
    "site/permissive/flows.csv":
        "22ba69a4d44c1e82a46bfe7ff57d0d1834f38a5439619d51283766a0d78171f8",
    "site/permissive/frames.jsonl":
        "5ed80c8401c16012770f7cba512b3a31efa6a44f1db4529e0b35991d425cbba4",
    "site/permissive/manifest.json":
        "0fe13dc428381edda395e7961a4b0dfe2ad0b0bf238452b53bb63e3204e1a2b1",
    "site/site-keyed/flows.csv":
        "22ba69a4d44c1e82a46bfe7ff57d0d1834f38a5439619d51283766a0d78171f8",
    "site/site-keyed/frames.jsonl":
        "5ed80c8401c16012770f7cba512b3a31efa6a44f1db4529e0b35991d425cbba4",
    "site/site-keyed/manifest.json":
        "722d905f6a2a206696a5335aae37514fece1bcb30184ac5033c4205a6a61cf0a",
    "trace.jsonl":
        "5b0752a10e390d3ee027e69017899f56c83e08efca3155b9faf8bff89d1e2e32",
}


@pytest.fixture(scope="module")
def two_origins(tmp_path_factory):
    """The working directory after ``simulate`` of the two-origin trace under
    every policy, into ``site/POLICY`` and, with ``--origin-keyed``, into
    ``origin/POLICY``."""
    base = tmp_path_factory.mktemp("two-origins")
    (base / "trace.jsonl").write_text(TWO_ORIGIN_TRACE, encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(base)
        for policy in POLICIES:
            assert _run("simulate", "--policy", policy, "--trace", "trace.jsonl",
                        "--out", f"site/{policy}") == 0
            assert _run("simulate", "--policy", policy, "--origin-keyed", "--trace",
                        "trace.jsonl", "--out", f"origin/{policy}") == 0
    return base


def test_two_origin_simulate_outputs_match_pinned_digests(two_origins):
    assert _digests(two_origins) == TWO_ORIGIN_GOLDEN


@pytest.mark.parametrize("policy", POLICIES)
def test_origin_keying_separates_the_two_origins(two_origins, policy):
    """One flow keyed by site and none keyed by origin, except under blocking,
    which sends no third-party cookie either way."""
    flows = {keyed: (two_origins / keyed / policy / "flows.csv").read_text(encoding="utf-8")
             for keyed in ("site", "origin")}
    sent = {keyed: len(text.splitlines()) - 1 for keyed, text in flows.items()}
    assert sent == ({"site": 0, "origin": 0} if policy == "blocking"
                    else {"site": 1, "origin": 0})
    assert (flows["site"] != flows["origin"]) == (policy != "blocking")
