"""One timed set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Prints {"setup_s": ...}: the seconds from before `import infopower` until the
workload's inputs exist as program objects, without the benchmark's own input
generation. Nothing but the interpreter's start-up modules is imported before
the clock starts, and every program module the workload calls is imported
inside the timed span, so the figure holds the whole import cost a user pays.
run.py runs this several times per run and reports the median.
"""

import importlib
import os
import sys
import time

# infopower/__init__.py imports every layer but cli
MODULES = {"solvers": ("infopower",), "io-cli": ("infopower", "infopower.cli")}


def main():
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    for module in MODULES[name]:
        importlib.import_module(module)
    t_import = time.perf_counter() - t0
    infopower = sys.modules["infopower"]
    if os.path.dirname(os.path.abspath(infopower.__file__)) != os.path.join(src, "infopower"):
        raise SystemExit(f"error: imported infopower from {infopower.__file__}")
    import json

    import workloads

    _, t_build = workloads.setup(name, seed, workdir)
    print(json.dumps({"setup_s": t_import + t_build}))


if __name__ == "__main__":
    main()
