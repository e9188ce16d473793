"""tools/pipeline_digests.py: the listing and its comparison with a saved one."""

import importlib.util
import os
import shutil
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
    monkeypatch.setattr(tool, "pipeline", lambda out: [[
        "synth", "--out", os.path.join(out, "synth"), "--n-ars", "3",
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


def test_unreadable_saved_listing_exits_2(digests_tool, tmp_path):
    assert digests_tool.main(["--out", str(tmp_path / "out"),
                              "--against", str(tmp_path / "missing.txt")]) == 2
