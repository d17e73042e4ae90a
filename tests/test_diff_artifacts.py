"""``bench/diff_artifacts.py compare`` on small hand-made artifact trees."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "diff_artifacts.py"


@pytest.fixture(scope="module")
def diff_artifacts():
    spec = importlib.util.spec_from_file_location("diff_artifacts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root: Path, value: float = 0.25) -> Path:
    checks = [
        {"name": "ratio", "anchor": "a", "value": value, "threshold": 1.0, "pass": True},
        {"name": "count", "anchor": "a", "value": 3.0, "threshold": 5.0, "pass": True},
    ]
    (root / "exp").mkdir(parents=True)
    (root / "exp" / "summary.json").write_text(json.dumps({"checks": checks}), encoding="ascii")
    (root / "exp" / "table.csv").write_text("x,y\n1,2\n", encoding="ascii")
    return root


def compare(diff_artifacts, capsys, a: Path, b: Path):
    code = diff_artifacts.main(["compare", str(a), str(b)])
    return code, capsys.readouterr().out


def test_identical_trees_exit_zero(tmp_path, diff_artifacts, capsys):
    code, out = compare(diff_artifacts, capsys, write_tree(tmp_path / "a"), write_tree(tmp_path / "b"))
    assert code == 0
    assert "files compared: 2, differing: 0" in out
    assert "largest relative check-value change: 0.0\n" in out


def test_changed_check_value_exits_one_with_relative_change(tmp_path, diff_artifacts, capsys):
    a = write_tree(tmp_path / "a", value=0.25)
    b = write_tree(tmp_path / "b", value=0.5)
    code, out = compare(diff_artifacts, capsys, a, b)
    assert code == 1
    assert "differs: exp/summary.json\n" in out
    assert "differing: 1" in out
    assert "largest relative check-value change: 0.5 at exp/ratio" in out


def test_null_check_value_is_an_infinite_change(tmp_path, diff_artifacts, capsys):
    # summary.json writes a NaN check value as null
    a = write_tree(tmp_path / "a", value=0.25)
    b = write_tree(tmp_path / "b", value=None)
    code, out = compare(diff_artifacts, capsys, a, b)
    assert code == 1
    assert "largest relative check-value change: inf at exp/ratio" in out


def test_file_in_one_tree_only_exits_one(tmp_path, diff_artifacts, capsys):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b")
    (b / "exp" / "extra.csv").write_text("x\n", encoding="ascii")
    code, out = compare(diff_artifacts, capsys, a, b)
    assert code == 1
    assert f"differs: exp/extra.csv (only in {b})" in out
    assert "files compared: 3, differing: 1" in out


def test_differing_csv_reports_how_far_its_floats_moved(tmp_path, diff_artifacts, capsys):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b")
    tables = {
        "moved.csv": ("n,kind,r\n1,chain,0.5\n2,chain,1e-3\n", "n,kind,r\n1,chain,0.25\n2,chain,1e-3\n"),
        "recounted.csv": ("n,r\n1,0.5\n", "n,r\n2,0.5\n"),
        "longer.csv": ("n,r\n1,0.5\n", "n,r\n1,0.5\n2,0.5\n"),
    }
    for name, (text_a, text_b) in tables.items():
        (a / "exp" / name).write_text(text_a, encoding="ascii")
        (b / "exp" / name).write_text(text_b, encoding="ascii")
    code, out = compare(diff_artifacts, capsys, a, b)
    assert code == 1
    assert (
        "differs: exp/moved.csv (same header and rows; non-float fields match; "
        "largest relative float change: 0.5)\n" in out
    )
    assert (
        "differs: exp/recounted.csv (same header and rows; non-float fields differ; "
        "largest relative float change: 0.0)\n" in out
    )
    assert "differs: exp/longer.csv\n" in out
    assert "files compared: 5, differing: 3" in out
    assert "largest relative check-value change: 0.0\n" in out


def test_csv_with_dropped_rows_lists_the_rows_in_one_tree_only(tmp_path, diff_artifacts, capsys):
    # a multiset difference: the repeated row "2,0.1" is dropped once of twice
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b")
    rows = [f"{k},0.{k}" for k in range(1, 14)]
    (a / "exp" / "r_table.csv").write_text("\n".join(["n,r", "2,0.1", *rows, "2,0.1"]) + "\n", encoding="ascii")
    (b / "exp" / "r_table.csv").write_text("\n".join(["n,r", "2,0.1", "1,0.1", "9,0.9"]) + "\n", encoding="ascii")
    code, out = compare(diff_artifacts, capsys, a, b)
    assert code == 1
    dropped = ["2,0.1", *[r for r in rows if r not in ("1,0.1", "9,0.9")]]
    listed = "".join(f"    {line}\n" for line in dropped[:10])
    assert f"differs: exp/r_table.csv\n  12 row(s) only in {a}:\n{listed}    ... 2 more\n  0 row(s) only in {b}\n" in out
    assert "files compared: 3, differing: 1" in out
