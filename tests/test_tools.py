"""tools/pipeline_digests.py: the listing and its comparison with a saved one;
tools/bench_record.py: its BENCH record, on canned benchmark output;
tools/layer_bench.py: its record, at tiny repetition counts."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pipeline_digests.py"


@pytest.fixture
def digests_tool(monkeypatch):
    # the tool sets BLAS thread variables on import; keep them out of os.environ
    monkeypatch.setattr(os, "environ", dict(os.environ))
    spec = importlib.util.spec_from_file_location("pipeline_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # a one-command pipeline keeps the test fast
    monkeypatch.setattr(tool, "pipeline", lambda: [[
        "synth", "--out", "synth", "--n-ars", "3",
        "--samples-per-ar", "4", "--seed", "1",
    ]])
    return tool


def test_differing_names_changed_and_one_sided_paths(digests_tool):
    saved = ["aa  same", "bb  changed", "cc  gone"]
    listing = ["aa  same", "bd  changed", "dd  new"]
    assert digests_tool.differing(listing, saved) == ["changed", "gone", "new"]
    assert digests_tool.differing(saved, saved) == []


def test_against_a_saved_listing(digests_tool, tmp_path, capsys):
    out, saved = tmp_path / "out", tmp_path / "saved.txt"
    assert digests_tool.main(["--out", str(out)]) == 0
    listing = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[1] for line in listing] == [
        "synth/data.csv", "synth/data_manifest.json", "synth/run_manifest_synth.json"]

    saved.write_text("\n".join(listing) + "\n", encoding="utf-8")
    shutil.rmtree(out)
    assert digests_tool.main(["--out", str(out), "--against", str(saved)]) == 0
    assert capsys.readouterr().out == ""

    saved.write_text("\n".join(["0" * 64 + "  synth/data.csv", *listing[1:2]]) + "\n",
                     encoding="utf-8")
    shutil.rmtree(out)
    assert digests_tool.main(["--out", str(out), "--against", str(saved)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "synth/data.csv", "synth/run_manifest_synth.json"]


def test_listing_does_not_depend_on_the_out_directory(digests_tool, tmp_path, capsys):
    # the run manifests record the paths the commands were given
    cwd = os.getcwd()
    assert digests_tool.main(["--out", str(tmp_path / "a")]) == 0
    first = capsys.readouterr().out
    assert digests_tool.main(["--out", str(tmp_path / "deeper" / "b")]) == 0
    assert capsys.readouterr().out == first
    assert os.getcwd() == cwd
    manifest = json.loads((tmp_path / "a" / "synth" / "run_manifest_synth.json").read_text())
    assert manifest["config"]["out"] == "synth"


def test_unreadable_saved_listing_exits_2(digests_tool, tmp_path):
    assert digests_tool.main(["--out", str(tmp_path / "out"),
                              "--against", str(tmp_path / "missing.txt")]) == 2


RECORD_TOOL = TOOL.parent / "bench_record.py"
BENCHMARK = TOOL.parent.parent / "BENCHMARK.json"


def canned_stdout(workload, trace, metrics, correct=True):
    """What perfbench/run.py prints: comment lines, then the JSON result."""
    env = {"python": "3.11.7", "seed": 3, "git_commit": "abc"}
    result = {"correct": correct, "attempted": 4, "failed": 0 if correct else 1,
              "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}
              if correct else {}}
    return "\n".join([f"# {workload} seed=3 trace={trace} environment {json.dumps(env)}",
                      "# end-to-end, median [q1, q3] over n cycles", json.dumps(result)]) + "\n"


@pytest.fixture
def record_tool(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("bench_record", RECORD_TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # BENCH files go to a scratch root that holds BENCHMARK.json
    (tmp_path / "BENCHMARK.json").write_text(BENCHMARK.read_text(encoding="utf-8"),
                                             encoding="utf-8")
    monkeypatch.setattr(tool, "ROOT", str(tmp_path))
    return tool


class FakeRuns:
    """Stands in for run_once: wall_s counts up per side and call, one run
    of the parent's train workload fails, and every call is logged."""

    def __init__(self, parent_root):
        self.parent_root, self.calls = parent_root, []

    def __call__(self, root, workload, seed, seconds, trace):
        side = "parent" if root == self.parent_root else "this"
        self.calls.append((workload, side, trace))
        if trace:
            return 0, canned_stdout(workload, 1, {"model.forward.calls": 509})
        k = sum(c[:2] == (workload, side) and c[2] == 0 for c in self.calls)
        if (workload, side, k) == ("train", "parent", 2):
            return 1, canned_stdout(workload, 0, {}, correct=False)
        wall = (2.0 if side == "parent" else 1.0) + 0.1 * k
        return 0, canned_stdout(workload, 0, {"setup_s": 3.0, "wall_s": wall,
                                              "peak_rss_mb": 50.0, "tss": 0.97})


def test_parse_run_reads_the_last_line(record_tool):
    run = record_tool.parse_run(0, canned_stdout("train", 0, {"wall_s": 1.5}))
    assert run == {"rc": 0, "correct": True, "metrics": {"wall_s": 1.5},
                   "environment": {"python": "3.11.7", "seed": 3, "git_commit": "abc"}}
    for rc, stdout in [(1, canned_stdout("train", 0, {}, correct=False)), (-9, ""),
                       (0, "Traceback (most recent call last):\n"),
                       (1, canned_stdout("train", 0, {"wall_s": 1.5}))]:
        assert record_tool.parse_run(rc, stdout)["correct"] is False


def test_quartiles(record_tool):
    assert record_tool.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {
        "median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5}
    assert record_tool.quartiles([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}


def test_against_alternates_pairs_and_keeps_failed_runs(record_tool, tmp_path, monkeypatch):
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text("", encoding="utf-8")
    fake = FakeRuns(str(parent))
    monkeypatch.setattr(record_tool, "run_once", fake)
    monkeypatch.setattr(record_tool, "PAIRS", 3)
    assert record_tool.main(["--label", "t", "--against", str(parent)]) == 1

    workloads = [w["name"] for w in json.loads(BENCHMARK.read_text(encoding="utf-8"))["workloads"]]
    per_workload = ["parent", "this", "this", "parent", "parent", "this", "this", "parent"]
    assert fake.calls == [(w, side, int(i >= 6)) for w in workloads
                          for i, side in enumerate(per_workload)]

    bench = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert bench["pairs"] == 3 and bench["seed"] == 3 and bench["run_seconds"] == 22
    assert set(bench["sides"]) == {"this", "parent"}
    assert bench["sides"]["this"]["environment"]["python"] == "3.11.7"
    for w in workloads:
        entry = bench["workloads"][w]
        assert entry["this"]["end_to_end"]["wall_s"] == {
            "median": 1.2, "q1": 1.1, "q3": 1.3, "n": 3}
        assert entry["this"]["per_layer"] == {"model.forward.calls": 509}
        assert len(entry["parent"]["runs"]) == 3
    train = bench["workloads"]["train"]
    assert train["parent"]["failed"] == 1
    assert train["parent"]["runs"][1] == {"rc": 1, "correct": False, "metrics": {},
                                          "stages": None, "minor_faults": 0}
    assert train["parent"]["end_to_end"]["wall_s"]["n"] == 2
    assert train["wins"] == {"pairs": 2, "this_better": {
        "setup_s": 0, "wall_s": 2, "peak_rss_mb": 0, "tss": 0}}
    assert bench["workloads"][workloads[0]]["wins"]["pairs"] == 3


def canned_results(explain_global_s, cpu):
    """The record perfbench/run.py writes to .perfbench/results/: an
    end_to_end block with two of BENCHMARK.json's metrics and one stage
    metric, and one untraced cycle per ``cpu`` value plus a traced one."""
    block = {name: {"median": v, "q1": v, "q3": v, "n": 1, "unit": "s"} for name, v in
             {"wall_s": 1.0, "setup_s": 2.0, "explain_global_s": explain_global_s}.items()}
    cycles = [{"cpu_s": c, "traced": False, "wall_s": 1.0} for c in cpu]
    return json.dumps({"end_to_end": block, "cycles": cycles + [
        {"cpu_s": 99.0, "traced": True, "wall_s": 1.5}]})


class StageRuns(FakeRuns):
    """FakeRuns that also writes the results record of each --trace 0 run:
    a correct one on the parent; on this checkout none in the first pair, a
    malformed one in the second and a correct one in the third."""

    def __call__(self, root, workload, seed, seconds, trace):
        rc, stdout = super().__call__(root, workload, seed, seconds, trace)
        side = "parent" if root == self.parent_root else "this"
        k = sum(c[:2] == (workload, side) and c[2] == 0 for c in self.calls)
        path = Path(root) / ".perfbench" / "results" / f"{workload}-seed3-trace{trace}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        if trace:
            path.write_text("{}", encoding="utf-8")  # never read
        elif side == "parent":
            path.write_text(canned_results(0.25 * k, [k, k + 1.0, k + 2.0]), encoding="utf-8")
        elif k == 2:
            path.write_text('{"end_to_end": {"explain_global_s": 0.5}}', encoding="utf-8")
        elif k == 3:
            path.write_text(canned_results(0.5, [3.0, 5.0]), encoding="utf-8")
        return rc, stdout


def test_stage_figures_read_from_each_runs_results_file(record_tool, tmp_path, monkeypatch):
    parent, this = tmp_path / "parent", tmp_path / "this"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text("", encoding="utf-8")
    # a record left from an earlier run must not stand in for the first pair's
    stale = this / ".perfbench" / "results" / "train-seed3-trace0.json"
    stale.parent.mkdir(parents=True)
    stale.write_text(canned_results(9.0, [9.0]), encoding="utf-8")
    monkeypatch.setattr(record_tool, "ROOT", str(this))
    shutil.copy(tmp_path / "BENCHMARK.json", this / "BENCHMARK.json")
    monkeypatch.setattr(record_tool, "run_once", StageRuns(str(parent)))
    monkeypatch.setattr(record_tool, "PAIRS", 3)
    assert record_tool.main(["--label", "t", "--against", str(parent)]) == 1

    bench = json.loads((this / "BENCH_t.json").read_text(encoding="utf-8"))
    for name, entry in bench["workloads"].items():
        assert [r["stages"] for r in entry["this"]["runs"]] == [
            None, None, {"explain_global_s": 0.5, "cpu_s": 4.0}], name
        assert entry["this"]["stages"] == {
            "explain_global_s": record_tool.quartiles([0.5]),
            "cpu_s": record_tool.quartiles([4.0])}
        ks = [1, 3] if name == "train" else [1, 2, 3]  # the parent's second train run failed
        assert entry["parent"]["stages"] == {
            "explain_global_s": record_tool.quartiles([0.25 * k for k in ks]),
            "cpu_s": record_tool.quartiles([k + 1.0 for k in ks])}
        assert entry["this"]["end_to_end"]["wall_s"]["n"] == 3


class FaultRuns(FakeRuns):
    """FakeRuns that also counts minor page faults for the finished children:
    each --trace 0 run adds 1,000 times its pair number on the parent and
    100 times it on this checkout; the traced runs add none."""

    faults = 0

    def __call__(self, root, workload, seed, seconds, trace):
        rc, stdout = super().__call__(root, workload, seed, seconds, trace)
        side = "parent" if root == self.parent_root else "this"
        k = sum(c[:2] == (workload, side) and c[2] == 0 for c in self.calls)
        if not trace:
            self.faults += (1000 if side == "parent" else 100) * k
        return rc, stdout


def test_minor_faults_kept_per_run_and_summarized_per_side(record_tool, tmp_path, monkeypatch):
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text("", encoding="utf-8")
    fake = FaultRuns(str(parent))
    monkeypatch.setattr(record_tool, "run_once", fake)
    monkeypatch.setattr(record_tool, "child_minor_faults", lambda: fake.faults)
    monkeypatch.setattr(record_tool, "PAIRS", 3)
    assert record_tool.main(["--label", "t", "--against", str(parent)]) == 1

    bench = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    for name, entry in bench["workloads"].items():
        assert [r["minor_faults"] for r in entry["this"]["runs"]] == [100, 200, 300]
        assert [r["minor_faults"] for r in entry["parent"]["runs"]] == [1000, 2000, 3000]
        assert entry["this"]["minor_faults"] == record_tool.quartiles([100, 200, 300])
        # the parent's second train run failed, so its faults are left out
        parent_ok = [1000, 3000] if name == "train" else [1000, 2000, 3000]
        assert entry["parent"]["minor_faults"] == record_tool.quartiles(parent_ok)


def test_child_minor_faults_count_a_finished_child(record_tool):
    before = record_tool.child_minor_faults()
    subprocess.run([sys.executable, "-c", "b'x' * (8 << 20)"], check=True)
    # a Python start alone touches well over a hundred pages
    assert record_tool.child_minor_faults() - before > 100


@pytest.mark.parametrize("argv", [["--label", "a/b", "--against", "parent"],
                                  ["--label", "", "--against", "parent"], ["--label", "x"],
                                  ["--label", "x", "--against", "missing-checkout"]])
def test_bad_arguments_exit_2(record_tool, tmp_path, monkeypatch, argv):
    (tmp_path / "parent" / "perfbench").mkdir(parents=True)
    (tmp_path / "parent" / "perfbench" / "run.py").write_text("", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(record_tool, "run_once", None)  # nothing may run
    with pytest.raises(SystemExit) as exc:
        record_tool.main(argv)
    assert exc.value.code == 2


LAYER_TOOL = TOOL.parent / "layer_bench.py"
SRC = TOOL.parent.parent / "src"


@pytest.fixture
def layer_tool(monkeypatch):
    # the tool sets BLAS thread variables on import; keep them out of os.environ
    monkeypatch.setattr(os, "environ", dict(os.environ))
    spec = importlib.util.spec_from_file_location("layer_bench", LAYER_TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_layer_record_times_each_call_type_on_both_sides(layer_tool, capsys):
    assert layer_tool.main(["--src", str(SRC), "--rounds", "3", "--reps", "1"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["shape"] == {"T": 10, "d": 12, "H": 16}
    assert (record["rounds"], record["reps"]) == (3, 1)
    assert list(record["calls"]) == ["forward_400", "forward_walk_5000", "train_step_64",
                                     "input_gradient_400"]
    for name, call in record["calls"].items():
        for side in ("this", "other"):
            q = call[side]
            assert 0 < q["q1"] <= q["median"] <= q["q3"], (name, side)
        assert call["ratio"] == call["this"]["median"] / call["other"]["median"]
        assert 0 <= call["this_faster"] <= 3


def test_layer_record_refuses_trees_whose_outputs_differ(layer_tool, tmp_path, capsys):
    # the other tree's forward pass moves every probability by one ulp
    other = tmp_path / "src"
    shutil.copytree(SRC / "stormlens", other / "stormlens",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(other / "stormlens" / "model.py", "a", encoding="utf-8") as fh:
        fh.write("\n_forward_batch = forward_batch\n\n\n"
                 "def forward_batch(*args, **kwargs):\n"
                 "    p, alpha, cache = _forward_batch(*args, **kwargs)\n"
                 "    return np.nextafter(p, 2.0), alpha, cache\n")
    assert layer_tool.main(["--src", str(other), "--rounds", "1", "--reps", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: forward_400 outputs differ between the two trees\n"


@pytest.mark.parametrize("argv", [["--src", "missing-tree"], ["--rounds", "1"],
                                  ["--src", str(SRC), "--reps", "0"]])
def test_layer_bad_arguments_exit_2(layer_tool, argv):
    with pytest.raises(SystemExit) as exc:
        layer_tool.main(argv)
    assert exc.value.code == 2
