"""Start the program under test through its public CLI, and read the
kernel's accounting of its processes.

A server is ``python -m repro serve DOMAIN`` or ``python -m repro fleet
DOMAIN --shards N``, started with program defaults only: the benchmark
passes the domain, the shard count and deployment paths
(``--ready-file``, ``--workdir``), never a tuning flag, so a later change
that removes or retunes a knob cannot break it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

#: Seconds a server gets to write its ready file.
READY_TIMEOUT = 60.0
#: Seconds a server gets to exit after SIGTERM before it is killed.
STOP_TIMEOUT = 20.0

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class ServerProcess:
    """One running server: the spawned CLI process plus, for a fleet, the
    shard worker processes named in its ready file."""

    def __init__(self, command: list, workdir: str, ready_file: str, env: dict):
        self.command = command
        self.workdir = workdir
        self.ready_file = ready_file
        self.env = env
        self.proc: "subprocess.Popen | None" = None
        self.ready: dict = {}
        self.setup_s = 0.0

    def start(self) -> None:
        if os.path.exists(self.ready_file):
            os.unlink(self.ready_file)
        log = open(os.path.join(self.workdir, "server.log"), "ab")
        try:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                self.command, stdout=log, stderr=subprocess.STDOUT, env=self.env
            )
        finally:
            log.close()
        deadline = t0 + READY_TIMEOUT
        while True:
            if os.path.exists(self.ready_file):
                try:
                    with open(self.ready_file) as handle:
                        self.ready = json.load(handle)
                    break
                except (OSError, ValueError):
                    pass  # written atomically, but be tolerant
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.proc.returncode} before "
                    f"its ready file appeared; see {self.workdir}/server.log"
                )
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError(f"server not ready after {READY_TIMEOUT:.0f} s")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - t0

    @property
    def address(self) -> tuple:
        return self.ready["host"], self.ready["port"]

    @property
    def shard_addresses(self) -> dict:
        """``{shard: (host, port)}`` for a fleet; empty for one server."""
        return {
            name: (spec["host"], spec["port"])
            for name, spec in self.ready.get("shards", {}).items()
        }

    @property
    def pids(self) -> dict:
        """``{role: pid}`` of every server process."""
        pids = {"server": self.ready["pid"]}
        for name, spec in self.ready.get("shards", {}).items():
            pids[name] = spec["pid"]
        return pids

    def stop(self) -> None:
        """SIGTERM the CLI process (a fleet stops its own workers) and
        wait for it; kill whatever is still alive after the timeout."""
        if self.proc is None:
            return
        children = [pid for role, pid in self.pids.items() if role != "server"] \
            if self.ready else []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pid in children:
            _reap(pid)
        self.proc = None


def _reap(pid: int) -> None:
    """Wait for a worker the fleet CLI should already have stopped."""
    deadline = time.perf_counter() + STOP_TIMEOUT
    while _alive(pid):
        if time.perf_counter() > deadline:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = time.perf_counter() + STOP_TIMEOUT
        time.sleep(0.01)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid`` (all its threads)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is field 3 (state); utime and stime are fields 14 and 15.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def host_times() -> list:
    """The machine-wide CPU time counters of ``/proc/stat`` (jiffies)."""
    with open("/proc/stat") as handle:
        return [int(x) for x in handle.readline().split()[1:]]


def steal_frac(before: list, after: list) -> float:
    """Share of CPU time the host took from this machine between two
    :func:`host_times` readings (the ``steal`` counter)."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta))


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def server_command(domain: str, shards: int, ready_file: str, workdir: str) -> list:
    """The exact CLI invocation of the server under test."""
    command = [sys.executable, "-m", "repro"]
    if shards == 1:
        command += ["serve", domain, "--ready-file", ready_file]
    else:
        command += [
            "fleet", domain, "--shards", str(shards),
            "--ready-file", ready_file, "--workdir", workdir,
        ]
    return command


_SPIN = (
    "import ctypes, os, signal, sys\n"
    "ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # die with the benchmark\n"
    "if os.getppid() != int(sys.argv[1]):\n"
    "    sys.exit()\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "while True:\n"
    "    pass\n"
)


class IdleSpinners:
    """One ``SCHED_IDLE`` busy loop per CPU while a run measures.

    A virtual CPU that halts when idle takes the host milliseconds to
    wake, and that wake-up delay would land in every latency at low
    load. The spinners keep the CPUs from halting but run only when
    nothing else is runnable, so the benchmark and the server preempt
    them at once.
    """

    def __init__(self) -> None:
        self.procs: list = []

    def __enter__(self) -> "IdleSpinners":
        for _ in range(os.cpu_count() or 1):
            self.procs.append(
                subprocess.Popen([sys.executable, "-c", _SPIN, str(os.getpid())])
            )
        return self

    def __exit__(self, *exc_info) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()
