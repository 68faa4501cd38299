"""Spawning, observing and stopping ``repro serve`` subprocesses."""

from __future__ import annotations

import ctypes
import os
import select
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from typing import List, Optional, Set

#: The server's hash seed is pinned so set-iteration order — and with
#: it the per-document work and every count the bench reports —
#: repeats across runs.
SERVER_HASH_SEED = "0"

READY_TIMEOUT_S = 60.0


def cpu_split():
    """(driver CPUs, server CPUs): one CPU each when there are two."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, {cpus[1]}


_PR_SET_PDEATHSIG = 1


def prepare_child(cpus: Optional[Set[int]]) -> None:
    """In the forked server, before exec: die with the driver (so a
    killed driver leaves no server behind) and move to ``cpus``.

    The CPU set comes from the parent: a child inherits the driver's
    own one-CPU affinity, so it cannot work out the split itself.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if cpus is not None:
        os.sched_setaffinity(0, cpus)


class Server:
    """One ``python -m repro serve`` process with its WAL directory.

    ``traced`` launches the same CLI through ``traced_serve.py``, which
    wraps the layers' entry points before handing over to
    ``repro.__main__``.
    """

    def __init__(
        self,
        root: Path,
        wal_dir: Path,
        capacity: int,
        log_path: Path,
        traced: bool = False,
        trace_out: Optional[Path] = None,
        cpus: Optional[Set[int]] = None,
    ) -> None:
        self.wal_dir = wal_dir
        self.trace_out = trace_out
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = SERVER_HASH_SEED
        env["PYTHONPATH"] = str(root / "src")
        env.pop("PYTHONSTARTUP", None)
        args: List[str] = [
            "serve",
            "--port", "0",
            "--nodes", "8",
            "--capacity", str(capacity),
            "--seed", "0",
            "--wal-dir", str(wal_dir),
        ]
        if traced:
            env["PERFBENCH_TRACE_OUT"] = str(trace_out)
            command = [
                sys.executable,
                str(Path(__file__).with_name("traced_serve.py")),
            ] + args
        else:
            command = [sys.executable, "-m", "repro"] + args
        self._log = open(log_path, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            preexec_fn=partial(prepare_child, cpus),
            cwd=str(root),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            # Unbuffered, so select() sees every line readline() would.
            bufsize=0,
        )
        self.port = 0

    def wait_ready(self) -> float:
        """Block until ``READY``; returns seconds since spawn."""
        deadline = self.started + READY_TIMEOUT_S
        line = b""
        while True:
            remaining = deadline - time.perf_counter()
            # A server that hangs before READY must not hang the run.
            if remaining <= 0 or not select.select(
                [self.proc.stdout], [], [], remaining
            )[0]:
                break
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith(b"READY"):
                fields = dict(
                    part.split("=", 1)
                    for part in line.decode().split()[1:]
                )
                self.port = int(fields["port"])
                return time.perf_counter() - self.started
        self.kill()
        raise RuntimeError(
            f"server did not become ready (last line {line!r}); "
            f"see {self._log.name}"
        )

    def status_kb(self, field: str) -> int:
        """A ``/proc/<pid>/status`` memory field, in kB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for row in handle:
                if row.startswith(field + ":"):
                    return int(row.split()[1])
        raise RuntimeError(f"{field} missing from /proc status")

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def kill(self) -> None:
        """``kill -9`` and reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
