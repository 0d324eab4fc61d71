"""The daemon-campaign workload: every fig10 pair through a live daemon.

A closed loop from one client: each POST ``/api/v1/jobs`` is sent after
the previous reply, then the client fetches every job's result in
submission order, polling while a job is still pending.  A *cycle* is two
passes over the same pairs:

* **cold** — a fresh daemon and an empty ``--cache-dir``: every job is
  simulated and writes journal records, a checkpoint and a cache entry;
* **warm** — another fresh daemon (new state dir) sharing only the cache
  dir: every job resolves at admission by reading the cache.

The daemons run with their defaults (thread isolation, one worker,
fsync'd journal) plus ``--cache-dir``.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import (
    DAEMON_N_INSTRS,
    ROOT,
    child_env,
    pair_key,
    peak_rss_mb_of,
)

HERE = Path(__file__).resolve().parent
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
POLL_S = 0.005


class Daemon:
    """One ``serve`` process; ``setup_s`` is spawn to ready file."""

    def __init__(self, state_dir: Path, cache_dir: Path, *,
                 isolation: str = "thread", trace_stem: str | None = None,
                 trace_dir: Path | None = None) -> None:
        argv = [sys.executable]
        if trace_stem is not None:
            argv += [str(HERE / "traced_serve.py"), str(trace_dir), trace_stem]
        else:
            argv += ["-m", "repro.service"]
        argv += ["serve", str(state_dir), "--cache-dir", str(cache_dir)]
        if isolation != "thread":
            argv += ["--isolation", isolation]
        state_dir.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(state_dir.parent / f"{state_dir.name}.log", "wb")
        ready = state_dir / "service.json"
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        try:
            while not ready.exists():
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"daemon exited with {self.proc.returncode} before "
                        f"ready (log: {self._log.name})"
                    )
                if time.perf_counter() - t0 > READY_TIMEOUT_S:
                    raise RuntimeError("daemon not ready in time")
                time.sleep(0.002)
            self.setup_s = time.perf_counter() - t0
            info = json.loads(ready.read_text())
        except BaseException:
            self.stop()
            raise
        self.host, self.port = info["host"], info["port"]

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_of(self.proc.pid)

    def stop(self) -> None:
        """Graceful SIGINT shutdown; waits until the process has ended."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class Client:
    """One request at a time, each on a new connection.

    This is how the repository's own client (``python -m repro.service``,
    urllib) talks to the daemon.  A single keep-alive connection is not
    used: the daemon writes a response's headers and body in two sends,
    so on a persistent connection Nagle's algorithm holds the body until
    the client's delayed ACK (about 40 ms on Linux) on every request, and
    the workload would measure that timer instead of the daemon.
    """

    def __init__(self, daemon: Daemon) -> None:
        self.host, self.port = daemon.host, daemon.port

    def request(self, method: str, path: str, body: dict | None = None):
        headers = {"Connection": "close"}
        data = None
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stats(self) -> dict:
        status, body = self.request("GET", "/api/v1/stats")
        if status != 200:
            raise RuntimeError(f"GET /api/v1/stats -> {status}")
        return json.loads(body)


def run_pass(daemon: Daemon, order, n_instrs: int = DAEMON_N_INSTRS) -> dict:
    """Submit every pair, then collect every result; all timed."""
    client = Client(daemon)
    submit_ms, result_ms, errors, jobs, payloads = [], [], [], [], {}
    t0 = time.perf_counter()
    for config, name in order:
        ts = time.perf_counter()
        status, body = client.request("POST", "/api/v1/jobs", {
            "preset": config, "workload": name, "n_instrs": n_instrs,
            "submitter": "campaign-bench",
        })
        submit_ms.append((time.perf_counter() - ts) * 1e3)
        if status != 202:
            errors.append(f"submit {config}/{name}: HTTP {status} {body[:200]!r}")
            continue
        jobs.append((pair_key(config, name), json.loads(body)["job_id"]))
    for key, job_id in jobs:
        while True:
            ts = time.perf_counter()
            status, body = client.request("GET", f"/api/v1/jobs/{job_id}/result")
            if status != 202:
                break
            time.sleep(POLL_S)
        if status != 200:
            errors.append(f"result {key}: HTTP {status} {body[:200]!r}")
            continue
        result_ms.append((time.perf_counter() - ts) * 1e3)
        payloads[key] = json.loads(body)["result"]
    makespan = time.perf_counter() - t0
    return {
        "makespan_s": makespan,
        "submit_ms": submit_ms,
        "result_ms": result_ms,
        "payloads": payloads,
        "errors": errors,
        "stats": client.stats(),
    }


def reported_run_s(stats: dict) -> float:
    """Total simulation time the daemon reports (its ``run`` SLO phase)."""
    run = stats["latency"]["run"]
    return run["count"] * run["mean_s"]


def run_cycle(work: Path, order, *, trace_dir: Path | None = None) -> dict:
    """One cold pass and one warm pass over ``order``; ``work`` must be new."""
    cache_dir = work / "cache"
    passes, setup_s, rss = {}, [], []
    for phase in ("cold", "warm"):
        stem = f"daemon-campaign-{phase}" if trace_dir is not None else None
        with Daemon(work / phase, cache_dir, trace_stem=stem, trace_dir=trace_dir) as daemon:
            setup_s.append(daemon.setup_s)
            passes[phase] = run_pass(daemon, order)
            rss.append(daemon.peak_rss_mb())
    return {"cold": passes["cold"], "warm": passes["warm"],
            "setup_s": setup_s, "peak_rss_mb": max(rss)}


def slice_ms_per_job(work: Path, order, isolation: str) -> float:
    """Cold makespan per job of a small slice under one isolation mode."""
    with Daemon(work / "state", work / "cache", isolation=isolation) as daemon:
        done = run_pass(daemon, order)
    if done["errors"]:
        raise RuntimeError(f"{isolation} slice failed: {done['errors']}")
    return done["makespan_s"] * 1e3 / len(order)
