"""Shared helpers: statistics, /proc readers, host facts, server processes."""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import speedprobe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(values: Sequence[float]) -> Tuple[float, float, int]:
    """(q, value, samples beyond): the highest of p99/p90/p50 with at least
    10 samples above it."""
    n = len(values)
    for q in (99.0, 90.0, 50.0):
        above = int(n * (1 - q / 100.0))
        if above >= 10:
            return q, percentile(values, q), above
    return 50.0, percentile(values, 50.0), n // 2


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- host facts ---------------------------------------------------------------


def cpus() -> int:
    return len(os.sched_getaffinity(0))


def calibration_ms() -> float:
    """Median of 21 runs of the fixed pure-python loop that timings are
    calibrated by (speedprobe.probe_ms), in ms."""
    return median(speedprobe.probe_runs(21))


def host_facts() -> Dict[str, object]:
    return {
        "cpus": cpus(),
        "python": platform.python_version(),
        "calibration_ms": calibration_ms(),
    }


def digest(document: object) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- /proc --------------------------------------------------------------------


def proc_cpu_s(pid: int) -> float:
    """CPU seconds of a live process, summed over its threads.

    Read from ``schedstat`` (nanoseconds) rather than ``stat`` (clock
    ticks), so sub-second windows are not quantized."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat", encoding="ascii") as handle:
                total += int(handle.read().split()[0])
        except FileNotFoundError:  # the thread ended between listing and reading
            continue
    return total / 1e9


def pin(pid: int, cpu: int) -> None:
    """Bind every thread of a live process to one CPU."""
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(task), {cpu})
        except ProcessLookupError:  # the thread ended between listing and pinning
            continue


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# -- server processes ---------------------------------------------------------


class Server:
    """One spawned repro server process, ready once its /healthz answers."""

    def __init__(self, name: str, argv: List[str], workdir: Path) -> None:
        self.name = name
        self.log_path = workdir / f"{name}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable] + argv,
            cwd=str(ROOT),
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.port: Optional[int] = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_listening(self, timeout: float = 60.0) -> int:
        """Read the boot line ("listening on host:port") off stdout."""
        deadline = time.perf_counter() + timeout
        buffered = b""
        while b"\n" not in buffered:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError(f"{self.name} did not boot; see {self.log_path}")
            readable, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if readable:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(f"{self.name} closed stdout; see {self.log_path}")
                buffered += chunk
        line = buffered.split(b"\n", 1)[0].decode("utf-8", "replace")
        address = line.split("listening on ", 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])
        return self.port

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until /healthz answers 200."""
        self.wait_listening(timeout)
        deadline = time.perf_counter() + timeout
        while True:
            try:
                status, _ = http_get(self.port, "/healthz")
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError(f"{self.name} never became healthy")
            time.sleep(0.002)

    def cpu_s(self) -> float:
        return proc_cpu_s(self.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.pid)

    def stop(self, timeout: float = 20.0) -> None:
        """SIGTERM (drain) and wait; SIGKILL if it will not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def http_get(port: int, path: str, timeout: float = 10.0) -> Tuple[int, object]:
    """One blocking GET to a local server (set-up and checks only)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request("GET", path, headers={"Connection": "close"})
        response = connection.getresponse()
        body = response.read()
    finally:
        connection.close()
    try:
        return response.status, json.loads(body) if body else None
    except ValueError:
        return response.status, body.decode("utf-8", "replace")


def stop_all(servers: Sequence[Server]) -> None:
    for server in reversed(list(servers)):
        server.stop()
