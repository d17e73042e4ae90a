"""Record ``reference.json``: check values and verdicts at the reference seed.

    python3 perfbench/record_reference.py

Runs every experiment the workloads use once at default config and seed
2024 and stores what the correctness gate compares.  Re-record only when a
change is meant to move a check value or verdict, and say so in the change.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import BENCH, REFERENCE_SEED, WORK, WORKLOADS, import_package, summary_record


def main() -> int:
    experiments = import_package()
    names = [name for names, _cache in WORKLOADS.values() for name in names]
    recorded = {}
    WORK.mkdir(parents=True, exist_ok=True)
    for name in names:
        out = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
        try:
            config = {"experiment": name, "seed": REFERENCE_SEED, "output_dir": str(out)}
            experiments.run_experiment(experiments.ExperimentConfig.from_dict(config))
            summary = json.loads((out / "summary.json").read_text(encoding="ascii"))
        finally:
            shutil.rmtree(out)
        if not all(check["pass"] for check in summary["checks"]):
            print(f"{name}: a check failed; not a reference", file=sys.stderr)
            return 1
        recorded[name] = summary_record(summary)
        print(name, recorded[name]["verdicts"], flush=True)
    payload = {"seed": REFERENCE_SEED, "experiments": recorded}
    (BENCH / "reference.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                                          encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
