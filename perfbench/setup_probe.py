"""Time one set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py [CACHE_DIR]

Imports triangulab the way the CLI does and, when CACHE_DIR is given, fills
it with the log-singular matrix that the ``levinson`` experiment reads at
default config.  Prints one JSON line ``{"import_s": ..., "fill_s": ...}``.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from triangulab import experiments  # noqa: E402
from triangulab.grid import make_grid  # noqa: E402

import_s = time.perf_counter() - start

fill_s = 0.0
if len(sys.argv) > 1:
    start = time.perf_counter()
    config = experiments.ExperimentConfig.from_dict({"experiment": "levinson", "cache_dir": sys.argv[1]})
    # levinson's defaults: n = 256, beta = 2; the experiment's own cache helper names the file
    experiments._cached_ebeta(config, make_grid(config.omega, 256), 2.0)
    fill_s = time.perf_counter() - start

print(json.dumps({"import_s": import_s, "fill_s": fill_s}))
