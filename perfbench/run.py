"""Run one benchmark workload and print its result as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload kernel-dense --seed 1 --seconds 30 --trace 0

``--trace 0`` measures and prints every end-to-end metric named in
``BENCHMARK.json``; ``--trace 1`` wraps the program's layer entry points
and prints every per-layer metric instead.  Both check the program's
outputs first: a wrong output makes ``correct`` false (details go to
stderr).  The inputs are a pure function of ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SOURCE = ROOT / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _with_units(values: dict, declared: "list[dict]") -> dict:
    """Attach the declared units; every declared metric must be present."""
    names = [entry["name"] for entry in declared]
    missing = [name for name in names if name not in values]
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, undeclared {extra}")
    out = {}
    for entry in declared:
        value = float(values[entry["name"]])
        if not math.isfinite(value):
            raise RuntimeError(f"metric {entry['name']} is not finite: {value}")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SOURCE / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"perfbench: no program sources under {SOURCE}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    # Scratch files (saved indexes) live inside the checkout, per process.
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    traced = bool(args.trace)
    try:
        if args.workload == "serve-mixed":
            import serve

            attempted, failed, errors, values = serve.run(
                args.seed, args.seconds, traced, workdir
            )
        else:
            import inproc

            attempted, failed, errors, values = inproc.run(
                args.workload, args.seed, args.seconds, traced, workdir
            )
    finally:
        # Pools close their workers; reap anything a failure left behind.
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    for error in errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": _with_units(values, declared),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
