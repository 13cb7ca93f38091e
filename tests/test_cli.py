import glob
import json
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bitsplit
from bitsplit.cli import main
from bitsplit.engine import calibrate_activations, load_eval_dir
from bitsplit.graph import load_graph, optimize_graph
from bitsplit.quantize import activation_distortion_table, weight_distortion_table


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("demo")
    rc = main(["make-demo", "--out", str(d), "--seed", "1", "--per-class", "3"])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def solved(demo_dir):
    rc = main(["solve", "--config", str(demo_dir / "run.json")])
    assert rc == 0
    return demo_dir / "report"


def test_make_demo_layout(demo_dir):
    for name in ("graph.json", "devices.json", "run.json"):
        assert (demo_dir / name).is_file()
    assert (demo_dir / "eval" / "labels.csv").is_file()
    blobs = glob.glob(str(demo_dir / "eval" / "*.astn"))
    assert len(blobs) == 30  # 3 per class, 10 classes
    cfg = json.loads((demo_dir / "run.json").read_text())
    assert set(cfg) == {"graph", "devices", "eval_dir", "memory_bytes", "accuracy_drop", "out", "seed"}


def test_solve_writes_reports(solved):
    for name in ("solutions.csv", "tradeoff.csv", "selected.json", "summary.txt"):
        assert (solved / name).is_file()
    doc = json.loads((solved / "selected.json").read_text())
    assert isinstance(doc["split_index"], int)
    assert isinstance(doc["weight_bits"], dict)
    assert isinstance(doc["act_bits"], dict)
    assert len(doc["graph_sha256"]) == 64
    header = (solved / "solutions.csv").read_text().splitlines()[0]
    assert header.startswith("split_index,")
    assert "total_s" in header


def test_solve_is_deterministic_across_out_dirs(demo_dir, solved, tmp_path):
    other = tmp_path / "other_out"
    rc = main(["solve", "--config", str(demo_dir / "run.json"), "--out", str(other)])
    assert rc == 0
    for name in ("solutions.csv", "tradeoff.csv", "selected.json", "summary.txt"):
        assert (other / name).read_bytes() == (solved / name).read_bytes()


def test_simulate_matches_and_writes_transcript(demo_dir, solved, tmp_path, capsys):
    sim = tmp_path / "sim"
    rc = main([
        "simulate",
        "--graph", str(demo_dir / "graph.json"),
        "--selected", str(solved / "selected.json"),
        "--eval-dir", str(demo_dir / "eval"),
        "--limit", "2",
        "--out", str(sim),
    ])
    assert rc == 0
    assert "all outputs match" in capsys.readouterr().out
    doc = json.loads((sim / "transcript.json").read_text())
    assert doc["all_match"] is True
    assert doc["num_cases"] == 2
    assert doc["transport"] == "local"
    for case in doc["cases"]:
        for m in case["messages"]:
            assert m["payload_bytes"] == m["expected_payload_bytes"]


def test_simulate_over_tcp(demo_dir, solved, tmp_path):
    sim = tmp_path / "sim_tcp"
    rc = main([
        "simulate",
        "--graph", str(demo_dir / "graph.json"),
        "--selected", str(solved / "selected.json"),
        "--eval-dir", str(demo_dir / "eval"),
        "--limit", "1",
        "--tcp",
        "--out", str(sim),
    ])
    assert rc == 0
    doc = json.loads((sim / "transcript.json").read_text())
    assert doc["transport"] == "tcp" and doc["all_match"] is True


def test_simulate_rejects_foreign_graph(demo_dir, solved, tmp_path_factory):
    other = tmp_path_factory.mktemp("demo2")
    assert main(["make-demo", "--out", str(other), "--seed", "2", "--per-class", "1"]) == 0
    rc = main([
        "simulate",
        "--graph", str(other / "graph.json"),
        "--selected", str(solved / "selected.json"),
        "--eval-dir", str(demo_dir / "eval"),
    ])
    assert rc == 2  # digest mismatch


def test_simulate_rejects_corrupt_selected(demo_dir, tmp_path):
    bad = tmp_path / "selected.json"
    bad.write_text("{not json")
    args = ["simulate", "--graph", str(demo_dir / "graph.json"),
            "--selected", str(bad), "--eval-dir", str(demo_dir / "eval")]
    assert main(args) == 2
    bad.write_text(json.dumps({"split_index": 1}))
    assert main(args) == 2  # fields missing


def test_solve_config_errors_exit_2(demo_dir, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"graph": str(demo_dir / "graph.json"), "bogus_key": 1}))
    assert main(["solve", "--config", str(cfg)]) == 2
    cfg.write_text("{{{")
    assert main(["solve", "--config", str(cfg)]) == 2
    # required options missing entirely
    assert main(["solve", "--graph", str(demo_dir / "graph.json")]) == 2


def test_solve_bad_devices_exit_2(demo_dir, tmp_path):
    dev = tmp_path / "devices.json"
    dev.write_text("not json at all")
    rc = main([
        "solve", "--graph", str(demo_dir / "graph.json"), "--devices", str(dev),
        "--memory-bytes", "2500", "--eval-dir", str(demo_dir / "eval"),
    ])
    assert rc == 2
    dev.write_text(json.dumps({"edge": {}}))
    rc = main([
        "solve", "--graph", str(demo_dir / "graph.json"), "--devices", str(dev),
        "--memory-bytes", "2500", "--eval-dir", str(demo_dir / "eval"),
    ])
    assert rc == 2


def test_missing_graph_exits_3(demo_dir):
    rc = main([
        "solve", "--graph", str(demo_dir / "no_such_graph.json"),
        "--devices", str(demo_dir / "devices.json"),
        "--memory-bytes", "2500", "--eval-dir", str(demo_dir / "eval"),
    ])
    assert rc == 3


def test_require_split_without_room_exits_4(demo_dir):
    rc = main([
        "solve", "--config", str(demo_dir / "run.json"),
        "--memory-bytes", "40", "--require-split",
    ])
    assert rc == 4


def test_inspect_json_and_text(demo_dir, capsys):
    rc = main(["inspect", "--graph", str(demo_dir / "graph.json"), "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["compute_layers"] > 0
    assert doc["weight_elements"] > 0
    rc = main(["inspect", "--graph", str(demo_dir / "graph.json"),
               "--devices", str(demo_dir / "devices.json"), "--memory-bytes", "2500"])
    assert rc == 0
    assert "layer" in capsys.readouterr().out


def test_profile_writes_loadable_tables(demo_dir, tmp_path):
    out = tmp_path / "prof"
    rc = main([
        "profile", "--graph", str(demo_dir / "graph.json"),
        "--eval-dir", str(demo_dir / "eval"), "--calib", "4", "--out", str(out),
    ])
    assert rc == 0
    # the files are the tables' own CSV, built here the way profile builds them
    g = optimize_graph(load_graph(str(demo_dir / "graph.json")))
    calib = calibrate_activations(g, load_eval_dir(str(demo_dir / "eval")).inputs, max_samples=4)
    tables = {
        "weight_distortion.csv": weight_distortion_table(g, (2, 4, 8)),
        "act_distortion.csv": activation_distortion_table(g, calib, (2, 4, 8)),
    }
    for name, table in tables.items():
        table.to_csv(tmp_path / name)
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


def test_solve_honours_bits_flag(demo_dir, tmp_path):
    out = tmp_path / "bits8"
    rc = main(["solve", "--config", str(demo_dir / "run.json"),
               "--out", str(out), "--bits", "8"])
    assert rc == 0
    doc = json.loads((out / "selected.json").read_text())
    assert all(v in (8, 16) for v in doc["weight_bits"].values())
    assert all(v in (8, 16) for v in doc["act_bits"].values())


def test_plan_from_a_sixteen_bit_menu_simulates(tmp_path):
    # configs/tpu.json offers 16 bits; the plan solve picks must still go over
    # the wire, whose widths stop at 8
    demo = tmp_path / "demo"
    assert main(["make-demo", "--out", str(demo), "--seed", "2"]) == 0
    devices = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "tpu.json")
    report = tmp_path / "report"
    rc = main(["solve", "--config", str(demo / "run.json"), "--devices", devices,
               "--memory-bytes", "100000", "--out", str(report)])
    assert rc == 0
    rc = main(["simulate", "--graph", str(demo / "graph.json"), "--selected", str(report / "selected.json"),
               "--eval-dir", str(demo / "eval"), "--limit", "2"])
    assert rc == 0


def _demo_copy(demo_dir, tmp_path):
    copy = tmp_path / "demo"
    shutil.copytree(demo_dir, copy)
    return copy


def _solve_args(demo):
    return ["solve", "--graph", str(demo / "graph.json"), "--devices", str(demo / "devices.json"),
            "--memory-bytes", "2500", "--eval-dir", str(demo / "eval"), "--out", str(demo / "report")]


def test_missing_weight_blob_exits_2(demo_dir, tmp_path):
    demo = _demo_copy(demo_dir, tmp_path)
    os.remove(sorted(glob.glob(str(demo / "weights" / "*.astn")))[0])
    assert main(_solve_args(demo)) == 2
    assert main(["inspect", "--graph", str(demo / "graph.json")]) == 2
    assert main(["profile", "--graph", str(demo / "graph.json"), "--out", str(tmp_path / "prof")]) == 2


def test_missing_eval_input_blob_exits_2(demo_dir, tmp_path):
    demo = _demo_copy(demo_dir, tmp_path)
    os.remove(demo / "eval" / "input_00000.astn")
    assert main(_solve_args(demo)) == 2
    assert main(["profile", "--graph", str(demo / "graph.json"), "--eval-dir", str(demo / "eval"),
                 "--out", str(tmp_path / "prof")]) == 2


def test_missing_eval_dir_exits_2(demo_dir, tmp_path):
    demo = _demo_copy(demo_dir, tmp_path)
    shutil.rmtree(demo / "eval")
    assert main(_solve_args(demo)) == 2


def test_non_integer_label_exits_2(demo_dir, tmp_path):
    demo = _demo_copy(demo_dir, tmp_path)
    (demo / "eval" / "labels.csv").write_text("index,label\n0,cat\n")
    assert main(_solve_args(demo)) == 2


@pytest.mark.parametrize(
    "rows",
    [
        "0,3\n0,7\n",  # one input listed twice
        "0,-1\n",  # a negative label
        "0,3\n1,42\n",  # a label the 10-class output cannot predict
    ],
)
def test_bad_labels_exit_2(demo_dir, tmp_path, rows):
    demo = _demo_copy(demo_dir, tmp_path)
    (demo / "eval" / "labels.csv").write_text("index,label\n" + rows)
    assert main(_solve_args(demo)) == 2
    assert main(["profile", "--graph", str(demo / "graph.json"), "--eval-dir", str(demo / "eval"),
                 "--out", str(tmp_path / "prof")]) == 2


def test_eval_dir_without_inputs_exits_2(demo_dir, tmp_path, capsys):
    demo = _demo_copy(demo_dir, tmp_path)
    (demo / "eval" / "labels.csv").write_text("index,label\n")
    assert main(_solve_args(demo)) == 2
    assert "holds no inputs" in capsys.readouterr().err
    assert main(["profile", "--graph", str(demo / "graph.json"), "--eval-dir", str(demo / "eval"),
                 "--out", str(tmp_path / "prof")]) == 2
    assert "holds no inputs" in capsys.readouterr().err


def test_simulate_limit_below_one_exits_2(demo_dir, solved, tmp_path, capsys):
    # a negative limit would otherwise slice from the end of the eval set
    for limit in ("0", "-198"):
        assert main(["simulate", "--graph", str(demo_dir / "graph.json"), "--selected", str(solved / "selected.json"),
                     "--eval-dir", str(demo_dir / "eval"), "--limit", limit, "--out", str(tmp_path)]) == 2
        assert "--limit: %s is not an integer of at least 1" % limit in capsys.readouterr().err
    assert not (tmp_path / "transcript.json").exists()


def test_make_demo_noise_outside_0_to_255_exits_2(tmp_path, capsys):
    for noise in ("-5", "256"):
        assert main(["make-demo", "--out", str(tmp_path / noise), "--noise", noise, "--per-class", "1"]) == 2
        assert "--noise: %s is not an integer in 0..255" % noise in capsys.readouterr().err
    assert main(["make-demo", "--out", str(tmp_path / "0"), "--noise", "0", "--per-class", "1"]) == 0


def test_make_demo_per_class_below_one_exits_2(tmp_path, capsys):
    for per_class in ("-1", "0"):
        assert main(["make-demo", "--out", str(tmp_path / per_class), "--per-class", per_class]) == 2
        assert "--per-class: %s is not an integer of at least 1" % per_class in capsys.readouterr().err
        assert not (tmp_path / per_class).exists()


# -- malformed plans, run configs, graphs and device files ---------------------------


def _simulate_edited(demo_dir, solved, tmp_path, **fields):
    """simulate one input under solved's selected.json with `fields` replaced."""
    doc = json.loads((solved / "selected.json").read_text())
    assert doc["split_index"] >= 2  # the edits below need edge layers to cover
    doc.update(fields)
    path = tmp_path / "selected.json"
    path.write_text(json.dumps(doc))
    return main(["simulate", "--graph", str(demo_dir / "graph.json"), "--selected", str(path),
                 "--eval-dir", str(demo_dir / "eval"), "--limit", "1", "--out", str(tmp_path)])


def test_simulate_refuses_a_split_index_outside_the_graph(demo_dir, solved, tmp_path):
    assert _simulate_edited(demo_dir, solved, tmp_path) == 0
    for n in (-1, 7, "5", True, None, 5.0):  # the demo has 6 compute layers
        assert _simulate_edited(demo_dir, solved, tmp_path, split_index=n) == 2, n


def test_simulate_refuses_widths_that_do_not_cover_the_edge_layers(demo_dir, solved, tmp_path):
    doc = json.loads((solved / "selected.json").read_text())
    wbits, abits = doc["weight_bits"], doc["act_bits"]
    first = sorted(abits, key=int)[0]
    missing_one = {k: v for k, v in abits.items() if k != first}
    for act_bits in ({}, missing_one, dict(abits, **{"10": 8}), dict(missing_one, x=8), [8] * len(abits), None):
        assert _simulate_edited(demo_dir, solved, tmp_path, act_bits=act_bits) == 2, act_bits
    assert _simulate_edited(demo_dir, solved, tmp_path, weight_bits={k: v for k, v in wbits.items() if k != first}) == 2
    # a split that moves without its widths
    assert _simulate_edited(demo_dir, solved, tmp_path, split_index=doc["split_index"] - 1) == 2


def test_simulate_refuses_a_width_that_is_not_a_positive_integer(demo_dir, solved, tmp_path):
    doc = json.loads((solved / "selected.json").read_text())
    first = sorted(doc["act_bits"], key=int)[0]
    for width in (0, -4, "8", 8.0, True, None):
        for key in ("weight_bits", "act_bits"):
            bits = dict(doc[key], **{first: width})
            assert _simulate_edited(demo_dir, solved, tmp_path, **{key: bits}) == 2, (key, width)


def _solve_with_config(demo_dir, tmp_path, **fields):
    cfg = json.loads((demo_dir / "run.json").read_text())
    cfg.update(fields, out=str(tmp_path / "report"))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return main(["solve", "--config", str(path)])


@pytest.mark.parametrize(
    "key, value",
    [
        ("calib", 0),
        ("calib", 2.5),
        ("calib", "x"),
        ("memory_bytes", "x"),
        ("memory_bytes", 0),
        ("memory_bytes", True),
        ("accuracy_drop", "x"),
        ("accuracy_drop", -1),
        ("accuracy_drop", "nan"),
        ("distortion_cap", "x"),
        ("distortion_cap", [1]),
        ("seed", "x"),
        ("bits", [2, "x"]),
        ("bits", [2, 0]),
        ("bits", []),
    ],
)
def test_solve_rejects_bad_run_config_values(demo_dir, tmp_path, key, value):
    assert _solve_with_config(demo_dir, tmp_path, **{key: value}) == 2


def test_solve_accepts_bits_as_a_json_list(demo_dir, tmp_path):
    assert _solve_with_config(demo_dir, tmp_path, bits=[4, 2]) == 0
    listed = {name: (tmp_path / "report" / name).read_bytes() for name in ("solutions.csv", "selected.json")}
    assert json.loads(listed["selected.json"])["bits_candidates"] == [2, 4]
    flagged = tmp_path / "flagged"
    assert main(["solve", "--config", str(demo_dir / "run.json"), "--bits", "2,4", "--out", str(flagged)]) == 0
    assert listed == {name: (flagged / name).read_bytes() for name in listed}


def _edit_conv_attr(demo_dir, tmp_path, attr, value):
    demo = _demo_copy(demo_dir, tmp_path)
    doc = json.loads((demo / "graph.json").read_text())
    conv = next(n for n in doc["nodes"] if n["op"] == "conv")
    conv["attrs"][attr] = value
    (demo / "graph.json").write_text(json.dumps(doc))
    return demo


def test_conv_stride_below_one_exits_3(demo_dir, tmp_path, capsys):
    demo = _edit_conv_attr(demo_dir, tmp_path, "stride", 0)
    assert main(["inspect", "--graph", str(demo / "graph.json")]) == 3
    assert main(_solve_args(demo)) == 3
    assert "stride 0 is below 1" in capsys.readouterr().err


def test_negative_conv_pad_exits_3(demo_dir, tmp_path, capsys):
    demo = _edit_conv_attr(demo_dir, tmp_path, "pad", -1)
    assert main(["inspect", "--graph", str(demo / "graph.json")]) == 3
    assert main(_solve_args(demo)) == 3
    assert "pad -1 is negative" in capsys.readouterr().err


def _edit_devices(demo_dir, tmp_path, **sections):
    demo = _demo_copy(demo_dir, tmp_path)
    doc = json.loads((demo / "devices.json").read_text())
    doc.update(sections)
    (demo / "devices.json").write_text(json.dumps(doc))
    return demo


def test_null_network_section_exits_2(demo_dir, tmp_path):
    demo = _edit_devices(demo_dir, tmp_path, network=None)
    assert main(_solve_args(demo)) == 2
    assert main(["inspect", "--graph", str(demo / "graph.json"), "--devices", str(demo / "devices.json")]) == 2


@pytest.mark.parametrize("section", ["edge", "cloud"])
@pytest.mark.parametrize("value", [None, [], "npu"])
def test_non_object_device_section_exits_2(demo_dir, tmp_path, section, value):
    demo = _edit_devices(demo_dir, tmp_path, **{section: value})
    assert main(_solve_args(demo)) == 2


def test_malformed_uplink_rate_exits_2(demo_dir, tmp_path):
    for uplink in ("x", None, [1]):
        demo = _edit_devices(demo_dir, tmp_path / str(uplink), network={"uplink_bps": uplink})
        assert main(_solve_args(demo)) == 2, uplink


def _edited_demo(demo_dir, tmp_path, edit):
    """A copy of the demo whose graph.json document `edit` changed."""
    demo = _demo_copy(demo_dir, tmp_path)
    doc = json.loads((demo / "graph.json").read_text())
    edit(doc)
    (demo / "graph.json").write_text(json.dumps(doc))
    return demo


def _edit_graph(demo_dir, tmp_path, edit):
    """solve on a copy of the demo whose graph.json document `edit` changed."""
    return main(_solve_args(_edited_demo(demo_dir, tmp_path, edit)))


def _first_conv(doc):
    return next(n for n in doc["nodes"] if n["op"] == "conv")


def test_null_input_bits_exits_3(demo_dir, tmp_path, capsys):
    assert _edit_graph(demo_dir, tmp_path, lambda d: d.update(input_bits=None)) == 3
    assert "input_bits" in capsys.readouterr().err


def test_nan_input_bits_exits_3(demo_dir, tmp_path, capsys):
    assert _edit_graph(demo_dir, tmp_path, lambda d: d.update(input_bits=float("nan"))) == 3
    assert "input_bits" in capsys.readouterr().err


def test_huge_input_bits_exits_3(demo_dir, tmp_path, capsys):
    assert _edit_graph(demo_dir, tmp_path, lambda d: d.update(input_bits=1e308)) == 3
    assert "input_bits" in capsys.readouterr().err


def test_null_nodes_exits_3(demo_dir, tmp_path, capsys):
    assert _edit_graph(demo_dir, tmp_path, lambda d: d.update(nodes=None)) == 3
    assert "'nodes' list" in capsys.readouterr().err


def test_null_node_inputs_exits_3(demo_dir, tmp_path, capsys):
    assert _edit_graph(demo_dir, tmp_path, lambda d: _first_conv(d).update(inputs=None)) == 3
    assert "inputs must be a list" in capsys.readouterr().err


def test_null_node_attrs_exits_3(demo_dir, tmp_path, capsys):
    assert _edit_graph(demo_dir, tmp_path, lambda d: _first_conv(d).update(attrs=None)) == 3
    assert "attrs must be an object" in capsys.readouterr().err


def test_string_out_shape_exits_3(demo_dir, tmp_path, capsys):
    assert _edit_graph(demo_dir, tmp_path, lambda d: _first_conv(d).update(out_shape="x")) == 3
    assert "out_shape must be a list" in capsys.readouterr().err


def test_numeric_bias_file_exits_3(demo_dir, tmp_path, capsys):
    assert _edit_graph(demo_dir, tmp_path, lambda d: _first_conv(d).update(bias_file=-1)) == 3
    assert "bias_file must be a path" in capsys.readouterr().err


# -- graph.json fields are not coerced: int() read true as 1 and 1.9 as 1, and
# bool() read "false" as true --------------------------------------------------


def _inspect_edited(demo_dir, tmp_path, edit):
    """inspect on a copy of the demo whose graph.json document `edit` changed."""
    return main(["inspect", "--graph", str(_edited_demo(demo_dir, tmp_path, edit) / "graph.json")])


def test_a_boolean_conv_stride_exits_3(demo_dir, tmp_path, capsys):
    assert _inspect_edited(demo_dir, tmp_path, lambda d: _first_conv(d)["attrs"].update(stride=True)) == 3
    assert "attrs must be a list of integers" in capsys.readouterr().err


def test_a_fractional_conv_pad_exits_3(demo_dir, tmp_path, capsys):
    assert _inspect_edited(demo_dir, tmp_path, lambda d: _first_conv(d)["attrs"].update(pad=1.9)) == 3
    assert "attrs must be a list of integers" in capsys.readouterr().err


def test_a_string_out_shape_dimension_exits_3(demo_dir, tmp_path, capsys):
    assert _inspect_edited(demo_dir, tmp_path, lambda d: _first_conv(d).update(out_shape=["8", 16, 16])) == 3
    assert "out_shape must be a list of integers" in capsys.readouterr().err


def test_a_fractional_input_id_exits_3(demo_dir, tmp_path, capsys):
    assert _inspect_edited(demo_dir, tmp_path, lambda d: _first_conv(d).update(inputs=[0.7])) == 3
    assert "inputs must be a list of integers" in capsys.readouterr().err


def test_a_string_node_id_exits_3(demo_dir, tmp_path, capsys):
    assert _inspect_edited(demo_dir, tmp_path, lambda d: _first_conv(d).update(id="1")) == 3
    assert "id must be an integer, not '1'" in capsys.readouterr().err


def test_a_string_fused_relu_exits_3(demo_dir, tmp_path, capsys):
    assert _inspect_edited(demo_dir, tmp_path, lambda d: _first_conv(d).update(fused_relu="false")) == 3
    assert "fused_relu must be true or false, not 'false'" in capsys.readouterr().err


# -- one field of an input file set to a value it should not hold ---------------------

MUTATIONS = [None, -1, 0, float("nan"), 1e308, 2**40, "x", [], {}, [1], True, 0.5, -0.5, "", [None]]


def _field_paths(doc, prefix=()):
    """The path of every value in a JSON document, by object key and list
    position, each container before what it holds."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


def _run_mutated(path, data, argv):
    """Set one field of the JSON file at `path` to one of MUTATIONS, both
    drawn from `data`, then run `argv`; returns main's exit code."""
    doc = json.loads(path.read_text())
    field = data.draw(st.sampled_from(list(_field_paths(doc))), label="field")
    owner = doc
    for key in field[:-1]:
        owner = owner[key]
    owner[field[-1]] = data.draw(st.sampled_from(MUTATIONS), label="value")
    path.write_text(json.dumps(doc))
    return main(argv)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_a_mutated_graph_file_exits_cleanly(demo_dir, tmp_path_factory, data):
    demo = _demo_copy(demo_dir, tmp_path_factory.mktemp("graph"))
    assert _run_mutated(demo / "graph.json", data, _solve_args(demo)) in (0, 2, 3)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_a_mutated_devices_file_exits_cleanly(demo_dir, tmp_path_factory, data):
    demo = _demo_copy(demo_dir, tmp_path_factory.mktemp("devices"))
    assert _run_mutated(demo / "devices.json", data, _solve_args(demo)) in (0, 2, 3)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_a_mutated_selected_file_exits_cleanly(demo_dir, solved, tmp_path_factory, data):
    out = tmp_path_factory.mktemp("selected")
    path = out / "selected.json"
    shutil.copy(solved / "selected.json", path)
    argv = ["simulate", "--graph", str(demo_dir / "graph.json"), "--selected", str(path),
            "--eval-dir", str(demo_dir / "eval"), "--limit", "1", "--out", str(out)]
    assert _run_mutated(path, data, argv) in (0, 2, 3)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_a_mutated_run_file_exits_cleanly(demo_dir, tmp_path_factory, data):
    # in-process is safe: a path key that is not a string is refused before
    # any open, and pytest's capture gives fd 0 an immediate EOF. A relative
    # or missing `out` writes under the working directory, so it is the copy's.
    work = tmp_path_factory.mktemp("run")
    cfg = json.loads((demo_dir / "run.json").read_text())
    cfg["out"] = str(work / "report")
    path = work / "run.json"
    path.write_text(json.dumps(cfg))
    old = os.getcwd()
    os.chdir(work)
    try:
        assert _run_mutated(path, data, ["solve", "--config", str(path)]) in (0, 2, 3)
    finally:
        os.chdir(old)


def test_supported_bits_outside_one_to_32_exit_2(demo_dir, tmp_path, capsys):
    for bits in ([2, 4, 1e308], [0, 2], [2, 33]):
        doc = json.loads((demo_dir / "devices.json").read_text())
        doc["edge"]["supported_bits"] = bits
        demo = _edit_devices(demo_dir, tmp_path / str(bits[-1]), edge=doc["edge"])
        assert main(_solve_args(demo)) == 2, bits
        assert "supported_bits must lie in 1..32" in capsys.readouterr().err


def test_a_weight_dimension_below_one_exits_3(demo_dir, tmp_path, capsys):
    def zero_channels(doc):
        conv = _first_conv(doc)
        conv["weight_shape"][0] = 0
        conv["out_shape"][0] = 0

    assert _edit_graph(demo_dir, tmp_path, zero_channels) == 3
    assert "has a dimension below 1" in capsys.readouterr().err


def _edit_device_field(demo_dir, tmp_path, section, field, value):
    doc = json.loads((demo_dir / "devices.json").read_text())
    doc[section][field] = value
    return _edit_devices(demo_dir, tmp_path / ("%s_%s_%s" % (section, field, value)), **{section: doc[section]})


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_a_non_finite_cloud_peak_rate_exits_2(demo_dir, tmp_path, capsys, value):
    demo = _edit_device_field(demo_dir, tmp_path, "cloud", "peak_ops_per_s", value)
    assert main(_solve_args(demo)) == 2
    assert "peak_ops_per_s must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_a_non_finite_edge_bandwidth_exits_2(demo_dir, tmp_path, capsys, value):
    demo = _edit_device_field(demo_dir, tmp_path, "edge", "bandwidth_bytes_per_s", value)
    assert main(_solve_args(demo)) == 2
    assert "bandwidth_bytes_per_s must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_a_non_finite_uplink_rate_exits_2(demo_dir, tmp_path, capsys, value):
    demo = _edit_device_field(demo_dir, tmp_path, "network", "uplink_bps", value)
    assert main(_solve_args(demo)) == 2
    assert "uplink_bits_per_s must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_a_non_finite_round_trip_exits_2(demo_dir, tmp_path, capsys, value):
    demo = _edit_device_field(demo_dir, tmp_path, "network", "fixed_rtt_s", value)
    assert main(_solve_args(demo)) == 2
    assert "fixed_rtt_s must be non-negative and finite" in capsys.readouterr().err


def test_inspect_memory_bytes_below_one_exits_2(demo_dir, capsys):
    argv = ["inspect", "--graph", str(demo_dir / "graph.json"), "--devices", str(demo_dir / "devices.json")]
    assert main(argv + ["--memory-bytes", "-5"]) == 2
    assert "--memory-bytes: -5 is not an integer of at least 1" in capsys.readouterr().err
    assert main(argv + ["--memory-bytes", "0"]) == 2


def _solve_in_a_child_without_stdin(config):
    """`solve --config config` in a child process whose stdin is closed, so
    that a read of fd 0 fails at once instead of waiting on a terminal."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bitsplit.__file__)))
    code = "import os, sys; os.close(0); from bitsplit.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, "solve", "--config", str(config)],
                          capture_output=True, text=True, timeout=120, env=env)


@pytest.mark.parametrize(
    "key, value",
    [("graph", 0), ("graph", True), ("graph", 1.5), ("graph", [1]), ("graph", {"a": 1}),
     ("devices", 0), ("eval_dir", 0), ("out", 0)],
)
def test_a_run_json_path_that_is_not_a_string_exits_2(demo_dir, tmp_path, key, value):
    # 0 once opened fd 0 and read stdin, true fd 1; the others raised TypeError
    cfg = json.loads((demo_dir / "run.json").read_text())
    cfg.update({"out": str(tmp_path / "report"), key: value})
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out = _solve_in_a_child_without_stdin(path)
    assert out.returncode == 2, out.stderr
    assert "--%s: %r is not a path string" % (key.replace("_", "-"), value) in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("bits", [16, 3, 32])
def test_an_input_bits_the_wire_cannot_ship_exits_3(demo_dir, tmp_path, capsys, bits):
    # at 16 bits, `solve --bits 3,8` once chose the cloud-only plan, which
    # ships the input, and `simulate` then refused it: "not transportable"
    demo = _demo_copy(demo_dir, tmp_path)
    doc = json.loads((demo / "graph.json").read_text())
    doc["input_bits"] = bits
    (demo / "graph.json").write_text(json.dumps(doc))
    assert main(_solve_args(demo) + ["--bits", "3,8"]) == 3
    assert "input_bits must be a width the wire can ship, one of 1, 2, 4, 8, not %d" % bits in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, what",
    [("off_chip_bytes", 1.5, "an integer"), ("off_chip_bytes", True, "an integer"), ("mac_bits", 8.9, "an integer"),
     ("supported_bits", [True, 2.7, 4, 8], "a list of integers"), ("bandwidth_bytes_per_s", True, "a number")],
)
def test_a_device_field_is_not_coerced(demo_dir, tmp_path, capsys, field, value, what):
    # int() once read 1.5 and true as 1 and 8.9 as 8; [true, 2.7, 4, 8]
    # failed as "bad bit-width 1"
    doc = json.loads((demo_dir / "devices.json").read_text())
    doc["edge"][field] = value
    demo = _edit_devices(demo_dir, tmp_path, edge=doc["edge"])
    assert main(_solve_args(demo)) == 2
    assert "device edge: %s %r is not %s" % (field, value, what) in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("off_chip_bytes", 2.0e6), ("mac_bits", "8"), ("supported_bits", [2, 4.0, 8])])
def test_an_integral_device_field_still_loads(demo_dir, tmp_path, field, value):
    # the rule of run.json's integer options: integral floats and numeric strings pass
    doc = json.loads((demo_dir / "devices.json").read_text())
    doc["edge"][field] = value
    demo = _edit_devices(demo_dir, tmp_path, edge=doc["edge"])
    assert main(_solve_args(demo)) == 0
