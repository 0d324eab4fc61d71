"""Tests for the process-isolated parallel executor (:mod:`repro.runner.fleet`).

The acceptance flow of the fleet — a parallel sweep with an injected worker
crash and an injected hang, both contained as failure records, followed by a
``--resume`` that re-runs only the casualties — lives here, alongside the
determinism guarantee (parallel result payloads byte-identical to serial)
and the graceful-interrupt flow (driver subprocess, SIGINT mid-sweep,
resume manifest).

Everything here spawns real worker processes, so the trace lengths are kept
tiny; the suite still costs a few seconds of wall clock by nature.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro import obs
from repro.errors import RunFailure
from repro.runner import ExperimentRunner, FleetRunner, ResultStore
from repro.runner.fleet import MANIFEST_NAME, hard_deadline_s
from repro.sim.config import no_l2, skylake_server
from repro.sim.serialization import result_to_dict

N = 2000
CFG = skylake_server()
CFG2 = no_l2(skylake_server(), 6.5)
WORKLOADS = ["hmmer_like", "mcf_like"]


def checkpoints(path):
    return sorted(p for p in path.glob("*.json") if p.name != MANIFEST_NAME)


class TestDeterminism:
    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        fleet = FleetRunner(ResultStore(tmp_path / "par"), jobs=2)
        parallel = fleet.sweep([CFG, CFG2], WORKLOADS, N)
        serial = ExperimentRunner(ResultStore(tmp_path / "ser")).sweep(
            [CFG, CFG2], WORKLOADS, N
        )
        for cfg_name, per_workload in parallel.items():
            for workload, result in per_workload.items():
                assert result_to_dict(result) == result_to_dict(
                    serial[cfg_name][workload]
                )
        parallel_files = checkpoints(tmp_path / "par")
        serial_files = checkpoints(tmp_path / "ser")
        assert [p.name for p in parallel_files] == [p.name for p in serial_files]
        for par_file, ser_file in zip(parallel_files, serial_files):
            assert par_file.read_bytes() == ser_file.read_bytes()
        assert fleet.stats.completed == 4
        assert fleet.last_manifest["status"] == "complete"
        assert fleet.last_manifest["counts"] == {
            "completed": 4, "failed": 0, "pending": 0,
        }

    def test_single_run_round_trips(self):
        fleet = FleetRunner(jobs=2)
        result = fleet.run(CFG, "hmmer_like", N)
        assert result.ipc > 0
        serial = ExperimentRunner().run(CFG, "hmmer_like", N)
        assert result_to_dict(result) == result_to_dict(serial)

    def test_store_hits_skip_workers(self):
        fleet = FleetRunner(jobs=2)
        fleet.run(CFG, "hmmer_like", N)
        spawned = fleet.fleet_stats.workers_spawned
        again = fleet.run(CFG, "hmmer_like", N)
        assert again.ipc > 0
        assert fleet.stats.store_hits == 1
        assert fleet.fleet_stats.workers_spawned == spawned

    def test_duplicate_jobs_dispatch_once(self):
        fleet = FleetRunner(jobs=2)
        job = (CFG, "hmmer_like", N)
        first, second = fleet.run_many([job, job])
        assert first is second
        assert fleet.stats.executed == 1


class TestResultTiers:
    def test_store_hit_cache_hit_and_miss_in_one_batch(self, tmp_path):
        """Only the miss reaches a worker; the cache hit is promoted into
        the store, through the same recall path as the serial runner."""
        from repro.cache import ResultCache

        serial = ExperimentRunner()
        stored = serial.run(CFG, "hmmer_like", N)
        cached = serial.run(CFG, "mcf_like", N)
        cache = ResultCache(tmp_path / "cache")
        cache.put(CFG, "mcf_like", N, cached)
        store = ResultStore(tmp_path / "ckpt", resume=True)
        store.put(CFG, "hmmer_like", N, stored)

        fleet = FleetRunner(store, jobs=1, cache=cache)
        results = fleet.run_many([
            (CFG, "hmmer_like", N), (CFG, "mcf_like", N), (CFG2, "mcf_like", N),
        ])
        assert fleet.fleet_stats.jobs_dispatched == 1
        assert fleet.stats.store_hits == 1
        assert fleet.stats.cache_hits == 1
        assert fleet.stats.completed == 1
        assert result_to_dict(results[1]) == result_to_dict(cached)
        promoted = ResultStore(tmp_path / "ckpt", resume=True)
        assert result_to_dict(promoted.get(CFG, "mcf_like", N)) == (
            result_to_dict(cached)
        )
        # The store hit and the simulated miss both fed the cache.
        assert cache.stats.puts == 1 + 2


class TestContainment:
    def test_worker_crash_contained(self, tmp_path):
        fleet = FleetRunner(
            ResultStore(tmp_path), jobs=2,
            fault_specs=["worker-crash:workload=mcf_like:at=500"],
        )
        with pytest.raises(RunFailure, match="1 of 4 jobs failed"):
            fleet.sweep([CFG, CFG2], WORKLOADS, N)
        (record,) = fleet.failures
        assert record.error_type == "WorkerCrashError"
        assert "exited with code 41" in record.message
        assert record.workload == "mcf_like"
        assert fleet.fleet_stats.workers_crashed == 1
        assert fleet.stats.completed == 3
        assert len(checkpoints(tmp_path)) == 3  # survivors all checkpointed

    def test_worker_hang_reaped_by_hard_deadline(self, tmp_path):
        fleet = FleetRunner(
            ResultStore(tmp_path), jobs=2, timeout_s=1.5,
            fault_specs=["worker-hang:workload=mcf_like:config=noL2:at=500"],
        )
        with pytest.raises(RunFailure):
            fleet.sweep([CFG, CFG2], WORKLOADS, N)
        (record,) = fleet.failures
        assert record.error_type == "RunTimeoutError"
        assert "hard deadline" in record.message
        assert record.config_name == "noL2_6.5MB"
        assert fleet.fleet_stats.hard_timeouts == 1
        assert fleet.fleet_stats.workers_killed == 1
        assert fleet.stats.timeouts == 1
        assert fleet.stats.completed == 3

    def test_worker_oom_reaped_by_rss_guard(self):
        fleet = FleetRunner(
            jobs=1, max_rss_mb=200.0,
            fault_specs=["worker-oom:workload=mcf_like:at=500"],
        )
        with pytest.raises(RunFailure):
            fleet.sweep([CFG], WORKLOADS, N)
        (record,) = fleet.failures
        assert record.error_type == "WorkerOOMError"
        assert "exceeded the 200 MiB guard" in record.message
        assert fleet.fleet_stats.rss_kills == 1
        assert fleet.stats.completed == 1

    def test_in_worker_failure_keeps_the_worker(self):
        # A plain exception is contained *inside* the worker (the serial
        # runner's own isolation): no crash, no respawn.
        fleet = FleetRunner(
            jobs=1, fault_specs=["raise:workload=mcf_like:at=500:times=99"],
        )
        with pytest.raises(RunFailure):
            fleet.sweep([CFG], WORKLOADS, N)
        (record,) = fleet.failures
        assert record.error_type == "InjectedFault"
        assert fleet.fleet_stats.workers_crashed == 0
        assert fleet.fleet_stats.workers_spawned == 1

    def test_transient_fault_retried_inside_worker(self):
        fleet = FleetRunner(
            jobs=1, retries=1,
            fault_specs=["raise:workload=hmmer_like:at=500:times=1"],
        )
        result = fleet.run(CFG, "hmmer_like", N)
        assert result.ipc > 0
        assert fleet.stats.retries == 1  # shipped back from the worker
        assert fleet.failures == []

    def test_acceptance_crash_and_hang_then_resume(self, tmp_path):
        """ISSUE acceptance: 4 jobs, one crash + one hang injected, both
        recorded; a resume re-runs exactly the two failed jobs."""
        fleet = FleetRunner(
            ResultStore(tmp_path), jobs=4, timeout_s=2.0,
            fault_specs=[
                "worker-crash:workload=hmmer_like:config=baseline:at=500",
                "worker-hang:workload=mcf_like:config=noL2:at=500",
            ],
        )
        with pytest.raises(RunFailure, match="2 of 4 jobs failed"):
            fleet.sweep([CFG, CFG2], WORKLOADS, N)
        kinds = sorted(record.error_type for record in fleet.failures)
        assert kinds == ["RunTimeoutError", "WorkerCrashError"]
        assert fleet.last_manifest["counts"] == {
            "completed": 2, "failed": 2, "pending": 0,
        }

        resumed = FleetRunner(
            ResultStore(tmp_path, resume=True), jobs=4, timeout_s=2.0,
        )
        results = resumed.sweep([CFG, CFG2], WORKLOADS, N)
        assert resumed.stats.store_hits == 2
        assert resumed.stats.executed == 2
        assert resumed.failures == []
        assert all(
            results[cfg.name][workload].ipc > 0
            for cfg in (CFG, CFG2)
            for workload in WORKLOADS
        )


class TestManifest:
    def test_manifest_rows_and_fingerprints(self, tmp_path):
        store = ResultStore(tmp_path)
        fleet = FleetRunner(store, jobs=2)
        fleet.sweep([CFG], WORKLOADS, N)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["manifest_version"] == 1
        assert manifest["status"] == "complete"
        assert manifest["total"] == 2
        rows = manifest["jobs"]
        assert [row["workload"] for row in rows] == WORKLOADS
        for row in rows:
            assert row["config"] == "baseline_server"
            assert row["n_instrs"] == N
            assert row["status"] == "completed"
            assert store.fingerprint(CFG).startswith(row["fingerprint"])

    def test_failed_jobs_marked_in_manifest(self, tmp_path):
        fleet = FleetRunner(
            ResultStore(tmp_path), jobs=2,
            fault_specs=["worker-crash:workload=mcf_like:at=500"],
        )
        with pytest.raises(RunFailure):
            fleet.sweep([CFG], WORKLOADS, N)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        statuses = {row["workload"]: row["status"] for row in manifest["jobs"]}
        assert statuses == {"hmmer_like": "completed", "mcf_like": "failed"}


DRIVER = textwrap.dedent("""
    import sys
    from repro.runner import FleetRunner, ResultStore
    from repro.sim.config import no_l2, skylake_server

    def main():
        fleet = FleetRunner(
            ResultStore(sys.argv[1]), jobs=1,
            fault_specs=["worker-hang:workload=mcf_like:config=baseline:at=500"],
        )
        cfgs = [skylake_server(), no_l2(skylake_server(), 6.5)]
        try:
            fleet.sweep(cfgs, ["hmmer_like", "mcf_like"], 2000)
        except KeyboardInterrupt:
            sys.exit(130)
        sys.exit(0)

    if __name__ == "__main__":
        main()
""")


class TestGracefulInterrupt:
    def test_sigint_flushes_results_and_writes_manifest(self, tmp_path):
        """SIGINT mid-sweep: completed runs stay checkpointed, the manifest
        records the interruption, and a resume finishes only the rest."""
        driver = tmp_path / "driver.py"
        driver.write_text(DRIVER)
        ckpt = tmp_path / "ckpt"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, str(driver), str(ckpt)],
            env=env, cwd="/root/repo",
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # With one worker, job 1 completes and job 2 hangs forever, so
            # once a checkpoint exists the campaign is provably mid-flight.
            deadline = time.monotonic() + 60
            while not (ckpt.exists() and checkpoints(ckpt)):
                assert time.monotonic() < deadline, "no checkpoint appeared"
                assert proc.poll() is None, f"driver died: {proc.returncode}"
                time.sleep(0.05)
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 130
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        completed = checkpoints(ckpt)
        assert len(completed) >= 1
        manifest = json.loads((ckpt / MANIFEST_NAME).read_text())
        assert manifest["status"] == "interrupted"
        counts = manifest["counts"]
        assert counts["completed"] == len(completed)
        assert counts["pending"] >= 1    # the hung job never finished

        resumed = FleetRunner(ResultStore(ckpt, resume=True), jobs=2)
        resumed.sweep(
            [skylake_server(), no_l2(skylake_server(), 6.5)],
            WORKLOADS, N,
        )
        assert resumed.stats.store_hits == len(completed)
        assert resumed.stats.executed == 4 - len(completed)
        assert resumed.last_manifest["counts"]["completed"] == 4


class TestObservability:
    def test_worker_telemetry_merged_into_parent_registry(self):
        with obs.use_metrics() as registry:
            fleet = FleetRunner(jobs=1)
            result = fleet.run(CFG, "hmmer_like", N)
        assert result.telemetry  # shipped across the process boundary
        snapshot = registry.snapshot()
        assert snapshot["counters"]["fleet.jobs.completed"] == 1
        phase_histograms = [
            name for name in snapshot["histograms"] if name.startswith("fleet.phase.")
        ]
        assert phase_histograms

    def test_hard_deadline_adds_slack(self):
        assert hard_deadline_s(None) is None
        assert hard_deadline_s(2.0) == 3.0          # floor: +1s
        assert hard_deadline_s(100.0) == 125.0      # +25%
