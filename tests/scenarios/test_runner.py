"""Matrix runner contracts: cell payloads, resume, report byte-identity."""

import json
import types

import numpy as np
import pytest

from repro.errors import CheckpointError, ConfigurationError
from repro.obs import Observability
from repro.scenarios import MatrixRunner, MatrixSpec, render_report
from repro.scenarios.report import report_json, render_markdown
from repro.scenarios.runner import (
    STATE_SCHEMA,
    DisclosureConsumer,
    MatrixState,
    lattice_reference_for,
    run_cell,
)
from repro.scenarios.spec import ScenarioSpec


def small_matrix(seed: int = 1) -> MatrixSpec:
    return MatrixSpec(
        name="small",
        base={
            "target": "unprotected",
            "n_traces": 120,
            "chunk_size": 40,
            "noise_std": 1.0,
            "seed": seed,
        },
        axes=(
            ("adv", (("cpa", {}), ("tvla", {"adversary": "tvla"}))),
        ),
    )


def _chunk(rng, key, n=60, samples=32):
    """A fake acquisition chunk shaped like the engine's."""
    from repro.crypto.aes import AES

    aes = AES(key)
    plaintexts = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
    ciphertexts = np.array(
        [list(aes.encrypt(bytes(p))) for p in plaintexts], dtype=np.uint8
    )
    traces = rng.normal(size=(n, samples))
    return types.SimpleNamespace(
        traces=traces, ciphertexts=ciphertexts, plaintexts=plaintexts
    )


class TestDisclosureConsumer:
    def test_curve_grows_per_chunk(self, rng, key):
        consumer = DisclosureConsumer(key)
        consumer.consume(_chunk(rng, key))
        consumer.consume(_chunk(rng, key))
        result = consumer.result()
        assert result["trace_counts"] == [60, 120]
        assert len(result["ranks"]) == 2
        assert 0 <= result["true_byte_rank"] < 256

    def test_snapshot_restore_round_trip(self, rng, key):
        a = DisclosureConsumer(key)
        a.consume(_chunk(rng, key))
        b = DisclosureConsumer(key)
        b.restore(a.snapshot())
        assert b.result() == a.result()

    def test_restore_rejects_other_key(self, rng, key):
        a = DisclosureConsumer(key)
        a.consume(_chunk(rng, key))
        other = DisclosureConsumer(bytes(16))
        with pytest.raises(CheckpointError, match="different key"):
            other.restore(a.snapshot())

class TestRunCell:
    def test_cpa_payload_shape(self):
        cell = ScenarioSpec(
            target="unprotected", n_traces=120, chunk_size=40, seed=2
        )
        payload = run_cell(cell)
        assert payload["digest"] == cell.cell_digest()
        assert payload["adversary"] == "cpa"
        assert payload["completion"]["n_encryptions"] == 120
        cpa = payload["cpa"]
        assert set(cpa) == {
            "best_guess", "true_byte_rank", "peak_corr_max", "margin",
            "first_disclosure", "disclosed",
        }
        assert cpa["disclosed"] == (cpa["first_disclosure"] is not None)

    def test_tvla_payload_shape(self):
        cell = ScenarioSpec(
            target="unprotected", adversary="tvla",
            n_traces=120, chunk_size=40, seed=2,
        )
        payload = run_cell(cell)
        tvla = payload["tvla"]
        assert set(tvla) == {"max_abs_t", "leaking", "n_fixed", "n_random"}
        assert tvla["n_fixed"] + tvla["n_random"] == 120

    def test_checkpoint_removed_after_completion(self, tmp_path):
        cell = ScenarioSpec(
            target="unprotected", n_traces=80, chunk_size=40, seed=2
        )
        checkpoint = tmp_path / "cell.ckpt"
        run_cell(cell, checkpoint=checkpoint)
        assert not checkpoint.exists()

    def test_resume_from_engine_checkpoint_bit_identical(self, tmp_path):
        """A cell interrupted mid-run finishes to the same payload."""
        from repro.pipeline import StreamingCampaign
        from repro.scenarios.runner import cell_consumers

        cell = ScenarioSpec(
            target="unprotected", n_traces=120, chunk_size=40, seed=2
        )
        uninterrupted = run_cell(cell)

        # Run only the first two chunks, checkpointing, then resume.
        checkpoint = tmp_path / "cell.ckpt"
        engine = StreamingCampaign(
            cell.to_campaign(), chunk_size=cell.chunk_size, seed=cell.seed
        )
        consumers = cell_consumers(cell)

        class Stop(Exception):
            pass

        def interrupt(update):
            if update.done_traces >= 80:
                raise Stop

        with pytest.raises(Stop):
            engine.run(
                cell.n_traces,
                consumers=consumers,
                checkpoint=checkpoint,
                progress=interrupt,
            )
        assert checkpoint.is_file()
        resumed = run_cell(cell, checkpoint=checkpoint, resume=True)
        assert resumed == uninterrupted


class TestAdversaryCells:
    """The profiled / aligned adversaries as matrix cells."""

    def _cell(self, adversary, target="unprotected"):
        return ScenarioSpec(
            target=target,
            adversary=adversary,
            n_traces=240,
            chunk_size=80,
            seed=3,
        )

    def test_mlp_payload_shape(self):
        payload = run_cell(self._cell("mlp"))
        assert payload["adversary"] == "mlp"
        block = payload["mlp"]
        assert set(block) == {
            "best_guess", "true_byte_rank", "peak_corr_max", "margin",
            "first_disclosure", "disclosed",
        }
        assert block["disclosed"] == (block["first_disclosure"] is not None)

    def test_lattice_payload_records_reference(self):
        cell = self._cell("lattice", target="rftc")
        payload = run_cell(cell)
        block = payload["lattice"]
        assert "reference_ns" in block
        assert block["reference_ns"] == lattice_reference_for(cell)

    def test_lattice_reference_from_plan_for_rftc(self):
        from repro.rftc import cached_plan

        cell = self._cell("lattice", target="rftc")
        plan = cached_plan(cell.m_outputs, cell.p_configs, cell.plan_seed, True)
        assert lattice_reference_for(cell) == float(
            np.max(plan.all_completion_times_ns())
        )

    def test_lattice_reference_probe_is_deterministic(self):
        cell = self._cell("lattice")
        assert lattice_reference_for(cell) == lattice_reference_for(cell)

    def test_lattice_cell_worker_invariant(self, tmp_path):
        cell = self._cell("lattice", target="rftc")
        assert run_cell(cell, workers=1) == run_cell(cell, workers=2)

    def test_mlp_cell_deterministic(self):
        """The clone profile is a pure function of the cell spec, so two
        runs of the same mlp cell give identical payloads."""
        cell = self._cell("mlp")
        assert run_cell(cell) == run_cell(cell)

class TestMatrixState:
    def test_round_trip(self, tmp_path):
        state = MatrixState(path=tmp_path / "s.json", matrix_digest="abc")
        state.mark_done("d1", {"x": 1})
        loaded = MatrixState.load(tmp_path / "s.json")
        assert loaded.matrix_digest == "abc"
        assert loaded.cells == {"d1": {"x": 1}}

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{torn")
        with pytest.raises(CheckpointError, match="not JSON"):
            MatrixState.load(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"schema": "other/9", "matrix_digest": "x"}))
        with pytest.raises(CheckpointError, match=STATE_SCHEMA):
            MatrixState.load(path)


class TestMatrixRunner:
    def test_payloads_in_digest_order(self, tmp_path):
        matrix = small_matrix()
        payloads = MatrixRunner(matrix, tmp_path / "out").run()
        digests = [p["digest"] for p in payloads]
        assert digests == sorted(digests)
        assert digests == [c.cell_digest() for c in matrix.expand()]

    def test_report_byte_identical_across_worker_counts(self, tmp_path):
        matrix = small_matrix()
        one = MatrixRunner(matrix, tmp_path / "w1", workers=1).run()
        two = MatrixRunner(matrix, tmp_path / "w2", workers=2).run()
        assert report_json(render_report(matrix, one)) == report_json(
            render_report(matrix, two)
        )

    def test_resume_reuses_every_completed_cell(self, tmp_path):
        matrix = small_matrix()
        out = tmp_path / "out"
        first = MatrixRunner(matrix, out).run()

        statuses = []
        second = MatrixRunner(matrix, out).run(
            resume=True, on_cell=lambda cell, status: statuses.append(status)
        )
        assert statuses == ["cached"] * matrix.n_cells
        assert report_json(render_report(matrix, second)) == report_json(
            render_report(matrix, first)
        )

    def test_resume_finishes_partial_matrix_identically(self, tmp_path):
        matrix = small_matrix()
        out = tmp_path / "out"
        full = MatrixRunner(matrix, out).run()

        # Forget one finished cell, as if the run died before it.
        state = MatrixState.load(out / "matrix-state.json")
        dropped = sorted(state.cells)[-1]
        del state.cells[dropped]
        state.save()

        statuses = []
        resumed = MatrixRunner(matrix, out).run(
            resume=True, on_cell=lambda cell, status: statuses.append(status)
        )
        assert sorted(statuses) == ["cached", "done"]
        assert report_json(render_report(matrix, resumed)) == report_json(
            render_report(matrix, full)
        )

    def test_without_resume_state_is_recomputed(self, tmp_path):
        matrix = small_matrix()
        out = tmp_path / "out"
        MatrixRunner(matrix, out).run()
        statuses = []
        MatrixRunner(matrix, out).run(
            resume=False, on_cell=lambda cell, status: statuses.append(status)
        )
        assert statuses == ["done"] * matrix.n_cells

    def test_resume_rejects_foreign_state(self, tmp_path):
        out = tmp_path / "out"
        MatrixRunner(small_matrix(seed=1), out).run()
        with pytest.raises(ConfigurationError, match="different matrix"):
            MatrixRunner(small_matrix(seed=2), out).run(resume=True)

    def test_rejects_bad_workers(self, tmp_path):
        with pytest.raises(ConfigurationError):
            MatrixRunner(small_matrix(), tmp_path, workers=0)

    def test_metrics_emitted(self, tmp_path):
        matrix = small_matrix()
        out = tmp_path / "out"
        obs = Observability.create()
        MatrixRunner(matrix, out, obs=obs).run()
        assert obs.metrics.counter_value("scenario_cells_total") == matrix.n_cells
        MatrixRunner(matrix, out, obs=obs).run(resume=True)
        assert (
            obs.metrics.counter_value("scenario_cells_cached_total")
            == matrix.n_cells
        )

    def test_cell_rank_gauges_match_report_fresh_and_resumed(self, tmp_path):
        """One rank gauge per key-recovery cell, equal to report.json,
        also when ``--resume`` serves every cell from the state file."""
        from repro.cli import main
        from repro.obs import MetricsSnapshot

        spec = tmp_path / "matrix.json"
        spec.write_text(json.dumps({
            "schema": "rftc-scenario-matrix/1",
            "name": "ranks",
            "base": {"target": "unprotected", "n_traces": 120,
                     "chunk_size": 40, "noise_std": 1.0},
            "axes": {
                "adv": {"cpa": {}, "lattice": {"adversary": "lattice"},
                        "tvla": {"adversary": "tvla"}},
                "seed": {"s1": {"seed": 1}, "s2": {"seed": 2}},
            },
        }))
        out = tmp_path / "out"

        def rank_gauges(*flags):
            metrics = tmp_path / "metrics.json"
            assert main(["matrix", str(spec), "--out", str(out), "--quiet",
                         "--metrics-out", str(metrics), *flags]) == 0
            snapshot = MetricsSnapshot.from_json(metrics.read_text())
            return {
                labels: value
                for (name, labels), (_, value) in snapshot.gauges.items()
                if name == "scenario_cell_true_byte_rank"
            }

        fresh = rank_gauges()
        report = json.loads((out / "report.json").read_text())
        expected = {
            (("cell", p["cell"]),): float(p[p["adversary"]]["true_byte_rank"])
            for p in report["cells"]
            if p["adversary"] != "tvla"
        }
        assert len(expected) == 4
        assert fresh == expected
        assert rank_gauges("--resume") == expected


class TestReport:
    def test_summary_counts(self, tmp_path):
        matrix = small_matrix()
        payloads = MatrixRunner(matrix, tmp_path / "out").run()
        report = render_report(matrix, payloads)
        summary = report["summary"]
        assert summary["n_cells"] == 2
        assert summary["n_cpa_cells"] == 1
        assert summary["n_tvla_cells"] == 1
        assert summary["total_traces"] == 240
        assert report["matrix_digest"] == matrix.matrix_digest()

    def test_json_is_canonical(self, tmp_path):
        matrix = small_matrix()
        payloads = MatrixRunner(matrix, tmp_path / "out").run()
        text = report_json(render_report(matrix, payloads))
        assert text.endswith("\n")
        assert json.loads(text)["schema"].startswith("rftc-scenario-report/")

    def test_markdown_mentions_every_cell(self, tmp_path):
        matrix = small_matrix()
        payloads = MatrixRunner(matrix, tmp_path / "out").run()
        markdown = render_markdown(render_report(matrix, payloads))
        for cell in matrix.expand():
            assert cell.name in markdown

    def test_counts_new_adversaries_as_key_recovery(self, tmp_path):
        matrix = MatrixSpec(
            name="zoo",
            base={
                "target": "unprotected",
                "n_traces": 120,
                "chunk_size": 40,
                "seed": 1,
            },
            axes=(
                (
                    "adv",
                    (
                        ("cpa", {}),
                        ("mlp", {"adversary": "mlp"}),
                        ("lattice", {"adversary": "lattice"}),
                    ),
                ),
            ),
        )
        payloads = MatrixRunner(matrix, tmp_path / "out").run()
        report = render_report(matrix, payloads)
        summary = report["summary"]
        assert summary["n_cpa_cells"] == 1
        assert summary["n_mlp_cells"] == 1
        assert summary["n_lattice_cells"] == 1
        disclosed = sum(
            1 for p in payloads if p[p["adversary"]]["disclosed"]
        )
        assert summary["disclosed_cells"] == disclosed
        markdown = render_markdown(report)
        assert "Key-recovery cells disclosed" in markdown
