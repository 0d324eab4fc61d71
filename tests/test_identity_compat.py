"""Fingerprint-keyed stores: MP results, collisions, and journal identity.

Checkpoints, cache entries and service dedup are keyed by
``workload_fingerprint`` instead of display name.  These tests pin the
load-bearing consequences: multi-programmed results round-trip like any
``RunResult``, sanitisation collisions can no longer alias entries, and a
journaled job without a workload fingerprint does not replay.
"""

import json

import pytest

from repro.cache import ResultCache
from repro.runner.store import ResultStore
from repro.service.journal import Journal
from repro.service.queue import Job, JobQueue
from repro.sim.config import skylake_server
from repro.sim.metrics import MPRunResult, RunResult
from repro.sim.serialization import result_from_dict, result_to_dict


def _mp_result(config_name="baseline_server"):
    return MPRunResult(
        workload="hmmer_like+mcf_like+tpcc_like+bwaves_like",
        category="MP",
        config_name=config_name,
        instructions=4000,
        cycles=2500.0,
        avg_load_latency=9.5,
        mispredicts=17,
        mix=("hmmer_like", "mcf_like", "tpcc_like", "bwaves_like"),
        per_core_ipc={0: 1.5, 1: 0.7, 2: 1.1, 3: 0.4},
        per_core_cycles={0: 600.0, 1: 1400.0, 2: 900.0, 3: 2500.0},
        per_core_instructions={0: 1000, 1: 1000, 2: 1000, 3: 1000},
        per_core_stats={0: {"workload": "hmmer_like", "mispredicts": 3}},
    )


def _st_result(workload, instructions=1000):
    return RunResult(
        workload=workload,
        category="server",
        config_name="baseline_server",
        instructions=instructions,
        cycles=1000.0,
    )


class TestMPResultSerialization:
    def test_dict_roundtrip(self):
        res = _mp_result()
        back = result_from_dict(result_to_dict(res))
        assert isinstance(back, MPRunResult)
        assert back == res
        assert back.per_core_ipc[3] == pytest.approx(0.4)

    def test_json_roundtrip_restores_int_core_keys(self):
        payload = json.loads(json.dumps(result_to_dict(_mp_result())))
        back = result_from_dict(payload)
        assert set(back.per_core_ipc) == {0, 1, 2, 3}
        assert back.mix == ("hmmer_like", "mcf_like", "tpcc_like", "bwaves_like")

    def test_plain_result_payload_unchanged(self):
        # The MP extension must not leak keys into single-core payloads —
        # the golden-parity (byte-identical checkpoint) contract.
        payload = result_to_dict(_st_result("tpcc_like"))
        assert "kind" not in payload
        assert "per_core_ipc" not in payload

    def test_store_roundtrip(self, tmp_path):
        config = skylake_server()
        res = _mp_result(config.name)
        store = ResultStore(tmp_path, resume=True)
        store.put(config, res.workload, 4000, res)
        fresh = ResultStore(tmp_path, resume=True)
        back = fresh.get(config, res.workload, 4000)
        assert isinstance(back, MPRunResult)
        assert back == res


class TestSanitisationCollision:
    # "wl a" and "wl?a" both sanitise to the stem segment "wl_a"; keyed by
    # name alone they collide on one path.
    NAMES = ("wl a", "wl?a")

    def test_store_keeps_both(self, tmp_path):
        config = skylake_server()
        store = ResultStore(tmp_path, resume=True)
        for i, name in enumerate(self.NAMES):
            store.put(config, name, 500, _st_result(name, instructions=100 + i))
        fresh = ResultStore(tmp_path, resume=True)
        for i, name in enumerate(self.NAMES):
            got = fresh.get(config, name, 500)
            assert got is not None and got.workload == name
            assert got.instructions == 100 + i

    def test_cache_keeps_both(self, tmp_path):
        config = skylake_server()
        cache = ResultCache(tmp_path)
        for i, name in enumerate(self.NAMES):
            assert cache.put(config, name, 500, _st_result(name, 100 + i))
        for i, name in enumerate(self.NAMES):
            hit = cache.lookup(config, name, 500)
            assert hit is not None
            assert hit.workload == name
            assert hit.instructions == 100 + i


class TestJobDedupKey:
    def _job(self, **kw):
        defaults = dict(
            job_id="j1", seq=1, fingerprint="cfgfp", config_name="c",
            config={}, workload="tpcc_like", n_instrs=500,
        )
        defaults.update(kw)
        return Job(**defaults)

    def test_key_uses_workload_fingerprint(self):
        job = self._job(workload_fingerprint="abc123")
        assert job.key == ("cfgfp", "abc123", 500)

    def test_record_without_workload_fingerprint_does_not_replay(
        self, tmp_path
    ):
        payload = self._job(workload_fingerprint="abc123").to_dict()
        del payload["workload_fingerprint"]
        journal = Journal(tmp_path / "j.wal", fsync=False)
        journal.append({"op": "submit", "job": payload})
        journal.close()
        queue = JobQueue(Journal(tmp_path / "j.wal", fsync=False))
        assert len(queue) == 0
        (error,) = queue.replay_stats.errors
        assert "workload_fingerprint" in error
        queue.journal.close()
