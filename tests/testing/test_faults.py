"""The fault-injection harness itself: plans, parsing, file corruption."""

import pytest

from repro.errors import (
    ConfigurationError,
    InjectedCrashError,
    InjectedFaultError,
    PoolBrokenError,
)
from repro.testing.faults import (
    FaultPlan,
    corrupt_chunk_file,
    drop_manifest_tail,
    tear_journal_tail,
    truncate_chunk_file,
)


class TestFaultPlanHooks:
    def test_always_failing_chunk(self):
        plan = FaultPlan(worker_errors=(1,))
        for _ in range(3):
            with pytest.raises(InjectedFaultError, match="chunk 1"):
                plan.check_worker(1)
        plan.check_worker(0)  # other chunks untouched

    def test_hang_spares_other_chunks(self):
        # Only the scheduled chunk blocks; the engine calls this in pool
        # workers only (see tests/pipeline/test_dead_worker.py).
        FaultPlan(hangs=(1,)).check_hang(0)

    def test_pool_and_crash_hooks(self):
        plan = FaultPlan(pool_breaks=(3,), crash_after=5)
        plan.check_pool(2)
        with pytest.raises(PoolBrokenError):
            plan.check_pool(3)
        plan.check_crash(4)
        with pytest.raises(InjectedCrashError):
            plan.check_crash(5)

    def test_deterministic_across_calls(self):
        plan = FaultPlan(worker_errors=(0,), pool_breaks=(1,))
        for _ in range(3):
            with pytest.raises(InjectedFaultError):
                plan.check_worker(0)
            with pytest.raises(PoolBrokenError):
                plan.check_pool(1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(worker_errors=(-1,))
        with pytest.raises(ConfigurationError):
            FaultPlan(hangs=(-1,))
        with pytest.raises(ConfigurationError):
            FaultPlan(pool_breaks=(-2,))
        with pytest.raises(ConfigurationError):
            FaultPlan(crash_after=-1)

    def test_picklable(self):
        import pickle

        plan = FaultPlan(
            worker_errors=(1,), hangs=(2,), pool_breaks=(0,), crash_after=4
        )
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestFaultPlanParse:
    def test_full_mini_language(self):
        plan = FaultPlan.parse("worker@1, pool@0, crash@4, worker@7, hang@2")
        assert plan.worker_errors == (1, 7)
        assert plan.hangs == (2,)
        assert plan.pool_breaks == (0,)
        assert plan.crash_after == 4

    def test_empty_and_garbage(self):
        assert FaultPlan.parse("") == FaultPlan()
        for bad in (
            "worker", "worker@", "oven@3", "crash@1x2", "pool@2x9",
            "worker@1x2", "hang@1x2", "hang@",
        ):
            with pytest.raises(ConfigurationError):
                FaultPlan.parse(bad)

    def test_single_crash_only(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("crash@1,crash@2")

    def test_system_fault_directives(self):
        plan = FaultPlan.parse(
            "enospc@3, shm-alloc-fail@1, journal-torn@4"
        )
        assert plan.enospc_chunks == (3,)
        assert plan.shm_alloc_failures == (1,)
        assert plan.journal_torn_record == 4

    def test_system_fault_validation(self):
        for bad in (
            "enospc@-1",
            "enospc@1x2",
            "shm-alloc-fail@",
            "journal-torn@0",
            "journal-torn@1,journal-torn@2",
            "slow-client",
            "stalled-server",
        ):
            with pytest.raises(ConfigurationError):
                FaultPlan.parse(bad)

    def test_system_fault_plan_picklable(self):
        import pickle

        plan = FaultPlan.parse("enospc@2,shm-alloc-fail@0,journal-torn@3")
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestSystemFaultHooks:
    def test_enospc_fires_on_second_file_of_scheduled_chunk(self):
        import errno

        plan = FaultPlan.parse("enospc@2")
        plan.check_store_write(2, 0)  # first file lands
        with pytest.raises(OSError) as err:
            plan.check_store_write(2, 1)
        assert err.value.errno == errno.ENOSPC
        plan.check_store_write(1, 1)  # other chunks untouched

    def test_shm_publish_fault(self):
        plan = FaultPlan.parse("shm-alloc-fail@1")
        plan.check_shm_publish(0)
        with pytest.raises(OSError):
            plan.check_shm_publish(1)


class TestFileCorruptionHelpers:
    def test_corrupt_flips_exactly_one_byte(self, tmp_path):
        file = tmp_path / "chunk-00000.traces.npy"
        file.write_bytes(bytes(range(64)))
        corrupt_chunk_file(tmp_path, file.name, byte_offset=10)
        data = file.read_bytes()
        assert data[10] == 10 ^ 0xFF
        assert len(data) == 64
        assert bytes(data[:10]) == bytes(range(10))

    def test_truncate_keeps_prefix(self, tmp_path):
        file = tmp_path / "chunk-00000.traces.npy"
        file.write_bytes(bytes(range(64)))
        truncate_chunk_file(tmp_path, file.name, keep_bytes=8)
        assert file.read_bytes() == bytes(range(8))

    def test_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            corrupt_chunk_file(tmp_path, "chunk-00042.traces.npy")
        with pytest.raises(ConfigurationError):
            truncate_chunk_file(tmp_path, "chunk-00042.traces.npy")
        with pytest.raises(ConfigurationError):
            drop_manifest_tail(tmp_path)

    def test_drop_manifest_tail(self, tmp_path):
        from repro.store import MANIFEST_NAME

        manifest = tmp_path / MANIFEST_NAME
        manifest.write_text("x" * 100)
        drop_manifest_tail(tmp_path, drop_chars=30)
        assert manifest.read_text() == "x" * 70

    def test_tear_journal_tail_keeps_whole_records(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        journal.write_text('{"a": 1}\n{"b": 2}\n{"c": 33333333}\n')
        tear_journal_tail(journal, keep_fraction=0.5)
        text = journal.read_text()
        assert text.startswith('{"a": 1}\n{"b": 2}\n')
        tail = text.split("\n")[2]
        assert 0 < len(tail) < len('{"c": 33333333}')
        assert not text.endswith("\n")

    def test_tear_journal_tail_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            tear_journal_tail(tmp_path / "missing.jsonl")
        journal = tmp_path / "jobs.jsonl"
        journal.write_text("")
        with pytest.raises(ConfigurationError):
            tear_journal_tail(journal)
        journal.write_text('{"a": 1}\n')
        with pytest.raises(ConfigurationError):
            tear_journal_tail(journal, keep_fraction=1.0)
