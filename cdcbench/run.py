"""CDC-lake benchmark: one run of one workload.

    python3 cdcbench/run.py --workload {backfill,tail,serve} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout of the repository.  Inputs are made by
``gen.py`` in a child process and cached under ``.cdcbench_work/inputs``
per (workload, seed, seconds, scale); lakes are always built fresh.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  Everything else
the run prints, Ray's output included, goes to standard error.

``--scale tiny`` and ``--plant {state,answer}`` serve the self-test
(``test_selftest.py``): a tiny input, and a planted wrong content sha in
the engine's state or a planted wrong expected lookup answer, which the
checks must report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PACKAGE = "standardized_omop_data_etl_ray"
WORK = ".cdcbench_work"


def _units() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _kill_on_parent_death() -> None:
    """preexec_fn: the child gets SIGKILL if this driver dies."""
    import ctypes

    ctypes.CDLL(None).prctl(1, signal.SIGKILL, 0, 0, 0)  # PR_SET_PDEATHSIG


def ensure_inputs(root: Path, a) -> Path:
    out = root / WORK / "inputs" / f"{a.workload}-{a.seed}-{a.seconds}-{a.scale}"
    if not (out / "meta.json").exists():
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", a.workload,
             "--seed", str(a.seed), "--seconds", str(a.seconds),
             "--scale", a.scale, "--out", str(out)],
            check=True, stdout=sys.stderr, timeout=300,
            env={**os.environ, "PYTHONPATH": str(root)},
            preexec_fn=_kill_on_parent_death,
        )
    return out


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    ap = argparse.ArgumentParser(description="CDC-lake benchmark run")
    ap.add_argument("--workload", required=True, choices=["backfill", "tail", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", default="full", choices=["full", "tiny"])
    ap.add_argument("--plant", choices=["state", "answer"])
    a = ap.parse_args()

    root = Path.cwd()
    if not (root / PACKAGE / "__init__.py").is_file():
        print(f"run from a checkout root: ./{PACKAGE} is missing", file=sys.stderr)
        return 2
    units = _units()
    signal.signal(signal.SIGTERM, _on_sigterm)
    # Ray and its children inherit fd 1; point it at stderr so that only
    # the result line reaches standard output
    sys.stdout.flush()
    result_fd = os.dup(1)
    os.dup2(2, 1)

    sys.path.insert(0, str(root))
    inputs = ensure_inputs(root, a)
    from session import RaySession
    from workloads import WORKLOADS, Run

    work = root / WORK / "run"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = RaySession(work, root)
    try:
        run = Run(inputs, work, session, bool(a.trace), a.plant)
        res = WORKLOADS[a.workload](run, a.seconds)
    finally:
        session.stop()
        shutil.rmtree(work, ignore_errors=True)
    print(f"samples: {res['samples']}", file=sys.stderr)
    values = res["layers"] if a.trace else res["e2e"]
    out = {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in values.items()},
    }
    sys.stdout.flush()
    os.dup2(result_fd, 1)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
