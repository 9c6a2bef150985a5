"""Open-loop serving benchmark for the monitor server and fleet.

Run from the repository root::

    python3 wirebench/run.py --workload video-2shard --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run that reports the per-layer metrics. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result (with the environment it ran
in) is written under ``.wirebench/results/``. Compare two sets of
results with ``python3 wirebench/compare.py``. See ``README.md`` next to
this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".wirebench")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="result file (default .wirebench/results/...)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so the server and helper
    # processes are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, refuse

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: {refuse(args.workload)}", file=sys.stderr)
        return 2
    from bench import run

    result = run(workload, args.seed, args.seconds, bool(args.trace))
    result["env"] = environment(result.pop("command"))
    out = args.out or os.path.join(
        WORK, "results",
        f"{workload.name}-s{args.seed}-t{args.trace}-{int(time.time() * 1e3)}.json",
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"result written to {os.path.relpath(out, ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


def environment(command: list) -> dict:
    """What a result needs to be read later: machine, load and code."""
    return {
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": LOADAVG_AT_START,
        "python": platform.python_version(),
        "commit": _commit(),
        "server_command": command,
    }


def _commit() -> str:
    """The git commit, or a hash of ``src/`` when not in a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()


LOADAVG_AT_START = list(os.getloadavg())

if __name__ == "__main__":
    sys.exit(main())
