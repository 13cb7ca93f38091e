"""The seed-0 demo's reports, pinned by sha256.

`solutions.csv`, `tradeoff.csv`, `selected.json`, `summary.txt` and
`inspect --json` under three configurations, and the default plan's
`simulate --limit 4` transcript, must stay byte for byte what they were
when recorded, so any drift in the reports fails here. The digests were
recorded with Python 3.11.7 and numpy 2.4.6; other versions may round or
format floats differently, so there the digests are not checked.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from bitsplit.cli import main

TPU_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "tpu.json")

# configuration -> (devices, memory bytes, bits); None keeps the demo's own
CONFIGS = {
    "default": (None, None, None),
    "tpu": (TPU_CONFIG, 100000, "2,4,8,16"),
    "bits38": (None, None, "3,8"),
}

PINNED = {
    "default": {
        "solutions.csv": "e594e0f2562cc245f418343ed6750d9fdb296eb1c7002d808edf93904b35550b",
        "tradeoff.csv": "8ba1a3b754e3f1f712fcd8392a1dea1929b1e0aa9290baba6cd8b17430f4f0fc",
        "selected.json": "149e4fb27ee8f07929269a8112dff2042b2c9aa181a198b6f562054b542dc321",
        "summary.txt": "8d73855fd1dec6e534093afd927152d814ca3429e45efeddb44f5b202af906a4",
        "inspect.json": "e508e3ac68e997293691ec948243ea778450836241634518cf43f82495e652bb",
        "transcript.json": "3aa4041329c7cc868667eb8e3fffe08368cce54ec5e14198355c7811704217bc",
    },
    "tpu": {
        "solutions.csv": "fb35ee0138ee8c07d9965ef660e9e9b103a85efdb002bbeeae171c9c0351592e",
        "tradeoff.csv": "ce16b03bea61eace29721b8a84a41562cb3b1d8a61c19c4ee06f7dc7bbb3b27c",
        "selected.json": "7b3316e90d30bba714a5677e8a239d5486a4d14f46efbce23c96b84144e8a263",
        "summary.txt": "c434b167247613b3819030fbb96da09a874eb5fd712a9d3abd8d73fc12218ae9",
        "inspect.json": "f2a66b9d8d4b4bdf39bdf0d2f8f82b5051c563109147bf877cb4410afd725302",
    },
    "bits38": {
        "solutions.csv": "317e35f35ca565cebf5daa1e9fff20774528074c2d33607ffbffbd6c68c9164f",
        "tradeoff.csv": "2d70b95970bd17db639796bc3aeee5c3a80a049430d51140465bc193e909fd90",
        "selected.json": "993ea102fcfad97880ae47d8e2eef118dab44b4aecdcda3422f79d863af838ad",
        "summary.txt": "0176ffcdb13ee51bfc133be30d05e63623460c884423c7a0640cc60bd6777006",
        "inspect.json": "65ef68749f75b2b7f99cded37a721d876debaf9a9984286511186c4982f83a64",
    },
}

RECORDED_ON = ((3, 11, 7), "2.4.6")


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    d = tmp_path_factory.mktemp("pinned")
    assert main(["make-demo", "--out", str(d), "--seed", "0"]) == 0
    return d


def _solve(demo, name, capsys):
    """solve and inspect --json under one configuration; the report directory."""
    devices, memory, bits = CONFIGS[name]
    flags = [
        "--devices", devices or str(demo / "devices.json"),
        "--memory-bytes", str(memory or json.loads((demo / "run.json").read_text())["memory_bytes"]),
    ] + (["--bits", bits] if bits else [])
    out = demo / ("report_" + name)
    assert main(["solve", "--config", str(demo / "run.json"), "--out", str(out)] + flags) == 0
    capsys.readouterr()
    assert main(["inspect", "--graph", str(demo / "graph.json"), "--json"] + flags) == 0
    (out / "inspect.json").write_text(capsys.readouterr().out)
    return out


def _simulate(demo, report, capsys, tcp=False):
    """simulate --limit 4 of a report's plan; (exit code, transcript path)."""
    out = report / ("sim_tcp" if tcp else "sim_local")
    rc = main(["simulate", "--graph", str(demo / "graph.json"), "--selected", str(report / "selected.json"),
               "--eval-dir", str(demo / "eval"), "--limit", "4", "--out", str(out)] + (["--tcp"] if tcp else []))
    capsys.readouterr()
    return rc, out / "transcript.json"


@pytest.mark.skipif((sys.version_info[:3], np.__version__) != RECORDED_ON,
                    reason="digests recorded with Python 3.11.7 and numpy 2.4.6")
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_reports_match_their_recorded_digests(demo, name, capsys):
    report = _solve(demo, name, capsys)
    got = {f: hashlib.sha256((report / f).read_bytes()).hexdigest() for f in PINNED[name] if f != "transcript.json"}
    if "transcript.json" in PINNED[name]:
        rc, path = _simulate(demo, report, capsys)
        assert rc == 0
        got["transcript.json"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == PINNED[name]


def test_a_plan_that_ships_the_input_replays_exactly(demo, capsys):
    # with 3 and 8 bits the seed-0 demo selects the cloud-only plan, which
    # ships the raw input quantized at input_bits
    report = _solve(demo, "bits38", capsys)
    assert json.loads((report / "selected.json").read_text())["split_index"] == 0
    for tcp in (False, True):
        rc, path = _simulate(demo, report, capsys, tcp=tcp)
        assert rc == 0
        assert json.loads(path.read_text())["all_match"] is True
