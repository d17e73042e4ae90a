"""Run every registered experiment at default config, or compare two such runs.

    python bench/diff_artifacts.py run OUT --seed N
    python bench/diff_artifacts.py compare A B

``run`` writes each experiment's artifacts to ``OUT/<name>/``, importing
triangulab from the ``src/`` of the checkout this script sits in.
``compare`` lists every file that is not byte-identical between the two
trees (or exists in only one) and the largest relative change of any check
value in their ``summary.json`` files; it exits 1 on any difference.  For a
differing CSV with the same header and row count in both trees it also
says whether every non-float field matches and how far the float fields
moved (the largest relative change).

BLAS rounding depends on the thread count, so set ``OPENBLAS_NUM_THREADS=1``
for both runs when comparing two checkouts bit for bit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_all(out: Path, seed: int) -> None:
    sys.path.insert(0, str(SRC))
    from triangulab.experiments import REGISTRY, ExperimentConfig, run_experiment

    for name in sorted(REGISTRY):
        config = {"experiment": name, "seed": seed, "output_dir": str(out / name)}
        summary = run_experiment(ExperimentConfig.from_dict(config))
        print(f"{name}: {'PASS' if summary.passed else 'FAIL'}", flush=True)


def _check_values(path: Path) -> dict:
    checks = json.loads(path.read_text(encoding="ascii"))["checks"]
    return {c["name"]: c["value"] for c in checks}


def _rel_change(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _float_field(field: str):
    """The value of a CSV field written as a float ``repr``; None for an integer or a string."""
    if field.lstrip("-").isdigit():
        return None
    try:
        return float(field)
    except ValueError:
        return None


def _csv_drift(a: Path, b: Path):
    """How far CSV ``b`` moved from ``a``: ``(non-float fields match, largest relative float change)``.

    None unless the two files have the same header and the same row count.
    """
    lines_a = a.read_text(encoding="ascii").splitlines()
    lines_b = b.read_text(encoding="ascii").splitlines()
    if lines_a[:1] != lines_b[:1] or len(lines_a) != len(lines_b):
        return None
    match, worst = True, 0.0
    for row_a, row_b in zip(lines_a[1:], lines_b[1:]):
        fields_a, fields_b = row_a.split(","), row_b.split(",")
        match = match and len(fields_a) == len(fields_b)
        for fa, fb in zip(fields_a, fields_b):
            xa, xb = _float_field(fa), _float_field(fb)
            if xa is None or xb is None:
                match = match and fa == fb
            else:
                worst = max(worst, _rel_change(xa, xb))
    return match, worst


def compare(a: Path, b: Path) -> int:
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    differing = sorted(files_a ^ files_b)
    worst, worst_at = 0.0, None
    for rel in sorted(files_a & files_b):
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            differing.append(rel)
        if rel.name == "summary.json":
            va, vb = _check_values(a / rel), _check_values(b / rel)
            for name in va.keys() & vb.keys():
                change = _rel_change(va[name], vb[name])
                if change > worst:
                    worst, worst_at = change, f"{rel.parent}/{name}"
    for rel in differing:
        if rel not in files_a or rel not in files_b:
            print(f"differs: {rel} (only in {a if rel in files_a else b})")
            continue
        drift = _csv_drift(a / rel, b / rel) if rel.suffix == ".csv" else None
        if drift is None:
            print(f"differs: {rel}")
        else:
            match, moved = drift
            print(
                f"differs: {rel} (same header and rows; non-float fields "
                f"{'match' if match else 'differ'}; largest relative float change: {moved!r})"
            )
    print(f"files compared: {len(files_a | files_b)}, differing: {len(differing)}")
    print(f"largest relative check-value change: {worst!r}" + (f" at {worst_at}" if worst_at else ""))
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run every experiment at default config into OUT/<name>/")
    run_p.add_argument("out", type=Path)
    run_p.add_argument("--seed", type=int, required=True)
    cmp_p = sub.add_parser("compare", help="list files that differ between two run trees")
    cmp_p.add_argument("a", type=Path)
    cmp_p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        run_all(args.out, args.seed)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
