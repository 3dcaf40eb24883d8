"""Pinned bytes of the gen-trace, simulate and metrics outputs on one small
seeded experiment.

``gen-trace`` and then ``simulate`` run for all four policies through
``cli.main``, in-process, with every path relative to one working
directory (the manifests record the paths). Every metrics command then
runs on those outputs: ``picf``, ``cross-site`` and ``cross-time`` per
policy, ``similarity`` of each other policy against permissive,
``optimize``, ``candidates`` and ``kappa`` on a fixed grades file. Each
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
    "blocking/manifest.json": "691145c74d9d8b5aa167c04db5a89ba863fdd62f2d425af02bf1d60d28d3c404",
    "blocking/trace.jsonl": "ddd82e7a47efcf0693caa75292f78ebd6879cc3e00e36bde46d83112f6702ebc",
    "page-length/manifest.json": "f1703720b22c05d85575fe5b0da9b63a28b1fa4a78b27c76125e235b9389af6e",
    "page-length/trace.jsonl": "1cfc63262aec4728195339af80d6c799b87101f808724edf7e89c55ccacea2bf",
    "permissive/manifest.json": "2588716e072391ed659df99f0db5b58f6d2181c10e65895ab7cc4651b1e208fb",
    "permissive/trace.jsonl": "51b955deb74309ed6b43091f81de56f1665610277dba7fb1acd79a846696f63c",
    "site-keyed/manifest.json": "82134fb78bf4775bdb948d6eca37b455a10c1bb802c2fa2f7eebcf9d06e21eb9",
    "site-keyed/trace.jsonl": "e7e466139330d1838037140373f026dfc45ea3954f3ecdf07c3e743563dad91e",
}

GOLDEN = {
    "permissive/flows.csv": "4f2438d43eb8fcdc426a9faa6cbb37eafccccc2506fff88668e15982033f4413",
    "permissive/frames.jsonl": "215557bbf9df2f58eeac1ac5253772cbb9089bda2185a60c1fc6e6be1449ede5",
    "permissive/manifest.json": "835e3fb402d43aa192f858eae60ec5d428f08cc7582b560fb96674d9137baa27",
    "blocking/flows.csv": "34709d3ddac120a6249843adc52f63a8cf2030a30982e3e392e1f09f1eebf520",
    "blocking/frames.jsonl": "f07de0dce0e70f57523b5bef2adcd0af2d2f4dea40081d0d14bd4c73f8dcdda2",
    "blocking/manifest.json": "e58faa6cfb64c10344da95b0ac45fc4ec1e9db72386ebf3bcf1bacd37d548232",
    "site-keyed/flows.csv": "16dbca962b425b98cf29be1b73ad6a680ce60ad6e740fc9cfcbe8b41f3e569bf",
    "site-keyed/frames.jsonl": "215557bbf9df2f58eeac1ac5253772cbb9089bda2185a60c1fc6e6be1449ede5",
    "site-keyed/manifest.json": "0f71ecf57aa94c7736f810bf7018b0b4a443e2947bc4fad230de40a66b410748",
    "page-length/flows.csv": "4dbf2f462206bcbb7df1d5f54319cca9cbc624ca5caaaebd1dd889eabc849281",
    "page-length/frames.jsonl": "215557bbf9df2f58eeac1ac5253772cbb9089bda2185a60c1fc6e6be1449ede5",
    "page-length/manifest.json": "64fd90a5e48ed2f50a20d7d54c21a2de5891f898c3e9e3324bdcb2a8d847bed2",
}

METRICS_GOLDEN = {
    "candidates/candidates.csv":
        "c840ac6af9d4b73c3651e5cfa403140c32cadafaee3ed8394aa51afb963e7f6d",
    "candidates/manifest.json":
        "97af1dd63019b76176ed73fa94323714cfae91b28dd0f6154348cbccd0b4035c",
    "cross-site/blocking/cross_site_curve.csv":
        "d7a69eeb5dd7ea484b7d8808bde3c31e51025f2e7f48f72c58a6ef3d6f00bdf4",
    "cross-site/blocking/manifest.json":
        "1da310966b0244f06fbba7c5f38c0c2602861d18a4d7bc5205da127ab9b1233d",
    "cross-site/page-length/cross_site_curve.csv":
        "d7a69eeb5dd7ea484b7d8808bde3c31e51025f2e7f48f72c58a6ef3d6f00bdf4",
    "cross-site/page-length/manifest.json":
        "f8be766fee96645985ffbe4ca544ca86fb9d6af872ba9a31258d0edcd8a18a59",
    "cross-site/permissive/cross_site_curve.csv":
        "a3ca030b63deb989930bf0b93fd6bf3259b1c09e3b94fdd6bc93e7f673748e8f",
    "cross-site/permissive/manifest.json":
        "6c55c3efd3c65a84930ec274b60ec0c0eba68b33a234fca6cc0a0418f23b3f4b",
    "cross-site/site-keyed/cross_site_curve.csv":
        "d7a69eeb5dd7ea484b7d8808bde3c31e51025f2e7f48f72c58a6ef3d6f00bdf4",
    "cross-site/site-keyed/manifest.json":
        "1b5c9f9495ad192e30f1029c311ad25eb03fb6090c52af19e052644929f6086f",
    "cross-time/blocking/cross_time_curve.csv":
        "9cdd18e660ad537edb013b97a6cf8f7ed26e38f94d09e743ac195dd2c838ad74",
    "cross-time/blocking/manifest.json":
        "2f0069dc3e7b52387950a53c8801a2505a86c2fa3b03a9235b887e103fee9339",
    "cross-time/page-length/cross_time_curve.csv":
        "9cdd18e660ad537edb013b97a6cf8f7ed26e38f94d09e743ac195dd2c838ad74",
    "cross-time/page-length/manifest.json":
        "386a93bf7237584a4c62f7f4e04f61624950d86d75033b3eaa671b1f2b2e657b",
    "cross-time/permissive/cross_time_curve.csv":
        "034155b022ab7d48d3b767f7badfae649df756d146cd93bbd8e5c0e8cd11300b",
    "cross-time/permissive/manifest.json":
        "940aeb0aa17a27f9bf9d85b8319804de9cd1c6a162e2b7887008944f42d98ee3",
    "cross-time/site-keyed/cross_time_curve.csv":
        "034155b022ab7d48d3b767f7badfae649df756d146cd93bbd8e5c0e8cd11300b",
    "cross-time/site-keyed/manifest.json":
        "f842a81a1da4acde4027d119cf31bf932c304be485ff8fadb379e521cd3f52fe",
    "kappa/grading_report.json":
        "b07ca39a5d3d619ab7068a5119a49ef5845939ce6b8fdb665250502c26bb04dd",
    "kappa/manifest.json":
        "bce30a61371b5af774b52189bcb0e682453dcb5799e476b71ec5d94bb101434a",
    "optimize/manifest.json":
        "21148d2776a273968abfae47c6f25dc1298f939dc8e72e23721eb0f5f67fe044",
    "optimize/optimize_report.json":
        "116c52d77ab0268cfac15a0d16ff67fab69d0321fd88c248fbe87932aae8014f",
    "picf/blocking/manifest.json":
        "6e013c80da55853f267934f7b31dcc3146b54e5abcc983de0394a541eedc8142",
    "picf/blocking/picfs.csv":
        "0b7297341450e7af0d3095b9b09a05ad118cf78a3c79bbea33a2d76661e005dd",
    "picf/page-length/manifest.json":
        "4c4d54c0dd52f3b3a0a722d3dedc078029b4f82107d35c58a3610ae1aa9d6d26",
    "picf/page-length/picfs.csv":
        "e7f27bc99d2e9f4c9894286a8f0080e0bffb786c4ed38feb395b5bbfea772409",
    "picf/permissive/manifest.json":
        "fceffd78aff05102d310fbe26026fa0f1c9390c85cc4367175e007b7eccd19ea",
    "picf/permissive/picfs.csv":
        "538e7fe3f8149cb40fc7e84647280b49670b58993f747caf99e25590a58ef3e6",
    "picf/site-keyed/manifest.json":
        "6e1e4d553d71ed8262511332edb0d3b4cdd35062e9842496cb582e490dc5dde7",
    "picf/site-keyed/picfs.csv":
        "4be1af0e771d807b4eb359a0ddee53da0d6c22044c1b827c865ab6dc03ba2029",
    "similarity/blocking/manifest.json":
        "7cd22600349fcc785ca22aa572b8c6987e637f307d2a7f3955f2c5c563d769ec",
    "similarity/blocking/similarity_curve.csv":
        "987eee2e6b9cc06b1c7865fc9822b5859451b05ad6c970a2fff5f4c8cb7ce1e6",
    "similarity/blocking/similarity_report.json":
        "9484f2da496fe041d04a2c0b819034d0e6370fccd9ba12a5678065b1321f0ed1",
    "similarity/blocking/similarity_scores.csv":
        "5c36a1c5009cf73db84c1a589839137e86e10acbc82868948cada5094e74edca",
    "similarity/page-length/manifest.json":
        "fd8947bcaf2308c9bbcce3b15d1f1373f3e69ee1aa5e80e711910b48d375641b",
    "similarity/page-length/similarity_curve.csv":
        "d0b8ffe0e40a05f531f5b7f6343e84724bd2d013e7b6fa596bf52455ab594bf7",
    "similarity/page-length/similarity_report.json":
        "1b84588574246e28f02845b7f8d926e013afc504fef275be2021ec7c319235b5",
    "similarity/page-length/similarity_scores.csv":
        "f89c090c5b970b1bb8ec0778121fb606455ac1a0e0c177ccbbfe4f504a8ad48b",
    "similarity/site-keyed/manifest.json":
        "99b7d082caa94d5f2d56bd753edcb93a52274e45911b8f8ef729a0aa869ab372",
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


def test_metrics_outputs_match_pinned_digests(experiment):
    assert _digests(experiment / "metrics") == METRICS_GOLDEN
