"""Pinned bytes of the simulate outputs on one small seeded experiment.

``gen-trace`` and then ``simulate`` run for all four policies through
``cli.main``, in-process, with every path relative to one working
directory (the manifests record the paths). Each sha256 below was taken
before replay and the ``frames.jsonl`` writer were optimized, so a change
to any output byte fails here; such a change must be deliberate and
explained.
"""

import contextlib
import hashlib
import io

from storagelab.cli import main

POLICIES = ("permissive", "blocking", "site-keyed", "page-length")

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


def _run(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


def test_simulate_outputs_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for policy in POLICIES:
        assert _run("gen-trace", "--sites", "5", "--trackers", "3", "--tracker-prob", "0.5",
                    "--pages", "2", "--iters", "2", "--profiles", "2", "--seed", "1",
                    "--policy", policy, "--out", f"traces/{policy}") == 0
        assert _run("simulate", "--policy", policy, "--trace", f"traces/{policy}/trace.jsonl",
                    "--out", f"sim/{policy}") == 0
    digests = {name: hashlib.sha256((tmp_path / "sim" / name).read_bytes()).hexdigest()
               for name in GOLDEN}
    assert digests == GOLDEN
