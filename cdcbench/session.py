"""Ray session for one benchmark run, and the processes it leaves behind.

The session runs with a fixed ``num_cpus`` and keeps Ray's temp, log and
spill files in the run's work directory.  Every process the run starts
inherits an environment marker unique to the run.  ``stop`` shuts Ray
down and waits until no marked process is left, killing any that outlive
a grace period.  A watchdog process in its own session does the same if
the driver dies without stopping (killed on a timeout): Ray's dashboard
and runtime-env agents survive their raylet otherwise.

    python3 cdcbench/session.py --watch <driver pid> <marker>   # the watchdog
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

NUM_CPUS = 1  # no larger than nproc on the reference host
OBJECT_STORE_MB = 400
MARKER = "CDCBENCH_RUN"
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
_MAX_TEMP_DIR = 107 - 62


def marked(token: str) -> list[int]:
    """Live processes, other than this one, that carry the run's marker."""
    needle = f"{MARKER}={token}".encode()
    out = []
    for d in os.listdir("/proc"):
        if not d.isdigit() or int(d) == os.getpid():
            continue
        try:
            with open(f"/proc/{d}/environ", "rb") as f:
                if needle in f.read().split(b"\0") and _alive(int(d)):
                    out.append(int(d))
        except OSError:
            continue
    return out


def _alive(pid: int) -> bool:
    """True unless the process is gone or a zombie (reaping it if ours)."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reap(token: str, grace_s: float, exclude=()) -> None:
    """Wait for the marked processes to exit; SIGKILL what outlives grace."""
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        if not [p for p in marked(token) if p not in exclude]:
            return
        time.sleep(0.05)
    for p in marked(token):
        if p not in exclude:
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
    deadline = time.monotonic() + 5.0
    while [p for p in marked(token) if p not in exclude] and time.monotonic() < deadline:
        time.sleep(0.05)


class RaySession:
    def __init__(self, work: Path, repo_root: Path):
        self.work = work
        self.repo_root = repo_root
        self.token = f"{os.getpid()}-{time.time_ns()}"
        self._watchdog: subprocess.Popen | None = None
        self._ray_tmp: Path | None = None
        self._own_tmp = False

    def start(self) -> None:
        import logging

        os.environ[MARKER] = self.token
        self._watchdog = subprocess.Popen(
            [sys.executable, __file__, "--watch", str(os.getpid()), self.token],
            start_new_session=True, stdin=subprocess.DEVNULL,
        )
        os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
        # workers import the package from the checkout
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [str(self.repo_root)]
            + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        tmp = self.work / "ray"
        if len(str(tmp)) > _MAX_TEMP_DIR:
            # the checkout path is too deep for Ray's socket names
            tmp, self._own_tmp = Path(tempfile.mkdtemp(prefix="cdcb")), True
        tmp.mkdir(parents=True, exist_ok=True)
        self._ray_tmp = tmp
        spill = self.work / "spill"
        spill.mkdir(parents=True, exist_ok=True)

        import ray
        from ray.data import DataContext

        ray.init(
            num_cpus=NUM_CPUS,
            object_store_memory=OBJECT_STORE_MB * 2**20,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="ERROR",
            _temp_dir=str(tmp),
            _system_config={"object_spilling_config": json.dumps(
                {"type": "filesystem",
                 "params": {"directory_path": str(spill)}})},
        )
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        for name in ("ray", "ray.data"):
            logging.getLogger(name).setLevel(logging.ERROR)

    def peak_rss_mb(self) -> float:
        """Sum of the kernel RSS high-water marks of the driver and every
        live process of the run (Ray's head processes and workers)."""
        exclude = {self._watchdog.pid} if self._watchdog else set()
        pids = [os.getpid()] + [p for p in marked(self.token) if p not in exclude]
        return sum(_hwm_kb(p) for p in pids) / 1024.0

    def stop(self, grace_s: float = 15.0) -> None:
        import ray

        try:
            if ray.is_initialized():
                ray.shutdown()
        finally:
            wd = self._watchdog
            reap(self.token, grace_s, exclude={wd.pid} if wd else ())
            if wd is not None:
                wd.terminate()
                wd.wait(timeout=10)
            if self._own_tmp and self._ray_tmp is not None:
                shutil.rmtree(self._ray_tmp, ignore_errors=True)


def _watch(driver: int, token: str) -> int:
    signal.signal(signal.SIGTERM, lambda *_: os._exit(0))
    while os.getppid() == driver:
        time.sleep(0.2)
    reap(token, grace_s=1.0)
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--watch":
        sys.exit(_watch(int(sys.argv[2]), sys.argv[3]))
    sys.exit(__doc__)
