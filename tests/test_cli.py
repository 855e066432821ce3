"""Command-line interface."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in ("info", "plan", "attack", "tvla", "table1", "fig3",
                    "campaign"):
            args = parser.parse_args([cmd])
            assert callable(args.func)
        args = parser.parse_args(["store", "verify", "somewhere"])
        assert callable(args.func)


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "RFTC(3, 1024)" in out
        assert "67584" in out

    def test_info_custom_config(self, capsys):
        assert main(["info", "--m", "2", "--p", "16"]) == 0
        assert "RFTC(2, 16)" in capsys.readouterr().out

    def test_plan(self, capsys):
        assert main(["plan", "--m", "2", "--p", "8", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "overlap-free" in out
        assert "MMCM-exact" in out

    def test_plan_naive(self, capsys):
        assert main(["plan", "--m", "2", "--p", "8", "--naive"]) == 0
        assert "naive-grid" in capsys.readouterr().out

    def test_plan_export(self, capsys, tmp_path):
        stem = str(tmp_path / "design")
        assert main(["plan", "--m", "2", "--p", "4", "--out", stem]) == 0
        assert "exported" in capsys.readouterr().out
        from repro.rftc.export import load_plan, parse_coe

        plan = load_plan(f"{stem}.json")
        assert plan.n_sets == 4
        assert parse_coe(f"{stem}.coe").size > 0
        assert "localparam" in open(f"{stem}.vh").read()

    def test_attack_rejects_unknown_attack(self, capsys):
        rc = main(
            ["attack", "--attacks", "laser-cpa", "--traces", "100"]
        )
        assert rc == 2
        assert "unknown attacks" in capsys.readouterr().err

    def test_attack_small_run(self, capsys):
        rc = main(
            [
                "attack",
                "--target", "unprotected",
                "--attacks", "cpa",
                "--traces", "1200",
                "--repeats", "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "traces to SR>=0.8" in out

    def test_tvla_small_run(self, capsys):
        rc = main(["tvla", "--m", "1", "--p", "4", "--traces", "1500"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max |t|" in out

    def test_campaign_smoke(self, capsys, tmp_path):
        from repro.store import ChunkedTraceStore

        store_dir = tmp_path / "store"
        rc = main(
            [
                "campaign",
                "--target", "unprotected",
                "--traces", "400",
                "--chunk-size", "100",
                "--workers", "1",
                "--out", str(store_dir),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "traces/s" in out
        assert "CPA byte 0" in out
        assert ChunkedTraceStore.open(store_dir).n_traces == 400

    def test_campaign_observed_writes_metrics_and_trace(self, capsys, tmp_path):
        """--metrics-out/--trace-out cover every chunk of a 2-worker run."""
        from repro.obs import read_trace_jsonl

        metrics_txt = tmp_path / "metrics.prom"
        metrics_json = tmp_path / "metrics.json"
        trace = tmp_path / "trace.jsonl"
        base = [
            "campaign", "--target", "unprotected", "--traces", "300",
            "--chunk-size", "100", "--workers", "2", "--quiet",
            "--checkpoint", str(tmp_path / "ckpt.npz"),
            "--trace-out", str(trace),
        ]
        assert main(base + ["--metrics-out", str(metrics_txt)]) == 0
        out = capsys.readouterr().out
        assert "metrics written to" in out and "trace written to" in out
        prom = metrics_txt.read_text()
        assert "# TYPE campaign_chunks_total counter" in prom
        assert 'campaign_chunks_total{phase="fresh"} 3' in prom
        assert "campaign_traces_total 300" in prom
        events = read_trace_jsonl(trace)
        folds = [e for e in events if e["name"] == "fold_chunk"]
        assert sorted(e["attrs"]["chunk"] for e in folds) == [0, 1, 2]
        # .json extension selects the JSON snapshot; obs render reads it.
        assert main(base + ["--metrics-out", str(metrics_json)]) == 0
        capsys.readouterr()
        assert main(["obs", "render", str(metrics_json)]) == 0
        rendered = capsys.readouterr().out
        assert "campaign_traces_total" in rendered
        assert "histogram" in rendered

    def test_obs_render_rejects_prometheus_text(self, capsys, tmp_path):
        path = tmp_path / "metrics.prom"
        path.write_text("# TYPE x counter\nx 1\n")
        assert main(["obs", "render", str(path)]) == 2
        err = capsys.readouterr().err
        assert "--metrics-out <file>.json" in err
        assert len(err.splitlines()) == 1

    def test_obs_render_missing_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "absent.json"
        assert main(["obs", "render", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot render {path}: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_obs_render_undecodable_file_is_a_usage_error(
        self, capsys, tmp_path
    ):
        # A binary file passed by mistake (say, a checkpoint .npz).
        path = tmp_path / "metrics.json"
        path.write_bytes(b"\xff\xfe" + bytes(range(256)) * 2)
        assert main(["obs", "render", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot render {path}: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_matrix_undecodable_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_bytes(b"\xff\xfe" + bytes(range(256)) * 2)
        assert main(["matrix", str(path), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read matrix file {path}: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not (tmp_path / "d").exists()

    def test_campaign_tvla_mode(self, capsys):
        rc = main(
            [
                "campaign",
                "--target", "unprotected",
                "--mode", "tvla",
                "--traces", "300",
                "--chunk-size", "150",
                "--quiet",
            ]
        )
        assert rc == 0
        assert "TVLA: max |t|" in capsys.readouterr().out

    def test_campaign_float32_store_info(self, capsys, tmp_path):
        """--dtype flows through to the store, whose info totals its bytes."""
        from repro.store import ChunkedTraceStore

        store = str(tmp_path / "store")
        rc = main(
            [
                "campaign", "--target", "unprotected",
                "--traces", "200", "--chunk-size", "100", "--quiet",
                "--dtype", "float32", "--out", store,
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert main(["store", "info", store]) == 0
        out = capsys.readouterr().out
        assert "dtype    : float32" in out
        stored = ChunkedTraceStore.open(store).byte_counts()[1]
        assert f"stored   : {stored} bytes" in out
        assert main(["store", "verify", store]) == 0

    def test_campaign_crash_resume_and_store_verify(self, capsys, tmp_path):
        """The operator recovery workflow, end to end through the CLI."""
        store = str(tmp_path / "store")
        ckpt = str(tmp_path / "campaign.npz")
        base = [
            "campaign", "--target", "unprotected", "--traces", "400",
            "--chunk-size", "100", "--quiet", "--out", store,
            "--checkpoint", ckpt,
        ]
        assert main(base + ["--inject-fault", "crash@1"]) == 1
        capsys.readouterr()
        rc = main(["campaign", "--resume", "--checkpoint", ckpt,
                   "--out", store, "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resume  : continued at chunk 2" in out
        assert "CPA byte 0" in out
        assert main(["store", "info", store]) == 0
        assert "400" in capsys.readouterr().out
        assert main(["store", "verify", store]) == 0
        assert "all checksums match" in capsys.readouterr().out

    def test_campaign_resume_honours_store_budget(self, capsys, tmp_path):
        """--store-budget-bytes binds on --resume as on a fresh run."""
        from repro.store import ChunkedTraceStore

        store = str(tmp_path / "store")
        ckpt = str(tmp_path / "campaign.npz")
        assert main(["campaign", "--target", "unprotected", "--traces", "400",
                     "--chunk-size", "100", "--quiet", "--out", store,
                     "--checkpoint", ckpt, "--inject-fault", "crash@1"]) == 1
        capsys.readouterr()
        rc = main(["campaign", "--resume", "--checkpoint", ckpt,
                   "--out", store, "--store-budget-bytes", "1", "--quiet"])
        assert rc == 1
        assert "out of storage" in capsys.readouterr().err
        assert ChunkedTraceStore.open(store).n_chunks == 2
        assert main(["store", "verify", store]) == 0
        assert "all checksums match" in capsys.readouterr().out

    def test_store_verify_flags_damage(self, capsys, tmp_path):
        from repro.testing.faults import corrupt_chunk_file

        store = str(tmp_path / "store")
        assert main(["campaign", "--target", "unprotected", "--traces", "100",
                     "--chunk-size", "100", "--quiet", "--out", store]) == 0
        corrupt_chunk_file(store, "chunk-00000.traces.npy")
        capsys.readouterr()
        assert main(["store", "verify", store]) == 1
        assert "DAMAGED" in capsys.readouterr().out

    def test_store_missing_path_is_usage_error(self, capsys, tmp_path):
        """A path that never was a store exits 2, not the damage code 1."""
        assert main(["store", "verify", str(tmp_path / "nowhere")]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert main(["store", "info", str(tmp_path / "nowhere")]) == 2
        capsys.readouterr()
        regular = tmp_path / "file.npz"
        regular.write_bytes(b"not a store")
        for action in ("info", "verify"):
            assert main(["store", action, str(regular)]) == 2
            err = capsys.readouterr().err
            assert err == f"not a store directory: {regular}\n"

    def test_campaign_rejects_bad_fault_plan(self, capsys):
        rc = main(["campaign", "--inject-fault", "meteor@1"])
        assert rc == 2
        assert "bad --inject-fault" in capsys.readouterr().err

    def test_campaign_resume_requires_checkpoint(self, capsys):
        rc = main(["campaign", "--resume"])
        assert rc == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_campaign_resume_rejects_contradictory_flags(
        self, capsys, tmp_path
    ):
        """Explicit flags that disagree with the checkpoint are a usage
        error with a one-line diff; omitted flags inherit silently."""
        ckpt = str(tmp_path / "campaign.npz")
        assert main(["campaign", "--target", "unprotected", "--traces", "400",
                     "--chunk-size", "100", "--quiet", "--checkpoint", ckpt,
                     "--inject-fault", "crash@1"]) == 1
        capsys.readouterr()
        rc = main(["campaign", "--resume", "--checkpoint", ckpt,
                   "--target", "rftc", "--traces", "999", "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "flags contradict the checkpointed campaign" in err
        assert "--target rftc != unprotected" in err
        assert "--traces 999 != 400" in err

    def test_campaign_resume_refuses_removed_store_encoding(
        self, capsys, tmp_path
    ):
        from repro.pipeline import (
            CampaignCheckpoint,
            CampaignSpec,
            CompletionTimeConsumer,
        )

        ckpt = CampaignCheckpoint.capture(
            CampaignSpec(target="unprotected"), seed=1, chunk_size=100,
            n_traces=200, chunks_done=1, consumers=[CompletionTimeConsumer()],
        )
        ckpt.spec_fields["compression"] = "zstd-npz"
        path = str(ckpt.save(tmp_path / "old.npz"))
        rc = main(["campaign", "--resume", "--checkpoint", path, "--quiet"])
        assert rc == 2
        assert "'zstd-npz', which was removed" in capsys.readouterr().err

    @staticmethod
    def _crash_at_chunk_1(store, ckpt):
        assert main(["campaign", "--target", "unprotected", "--traces", "400",
                     "--chunk-size", "100", "--quiet", "--out", store,
                     "--checkpoint", ckpt, "--inject-fault", "crash@1"]) == 1

    def test_campaign_resume_refuses_missing_store(self, capsys, tmp_path):
        """--out naming no store is a refusal, not a traceback."""
        ckpt = str(tmp_path / "campaign.npz")
        self._crash_at_chunk_1(str(tmp_path / "store"), ckpt)
        capsys.readouterr()
        rc = main(["campaign", "--resume", "--checkpoint", ckpt,
                   "--out", str(tmp_path / "empty"), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot resume: no trace store at")
        assert "Traceback" not in err

    def test_campaign_resume_refuses_store_of_another_layout(
        self, capsys, tmp_path
    ):
        ckpt = str(tmp_path / "campaign.npz")
        self._crash_at_chunk_1(str(tmp_path / "store"), ckpt)
        other = str(tmp_path / "other")
        assert main(["campaign", "--target", "unprotected", "--traces", "400",
                     "--chunk-size", "200", "--quiet", "--out", other]) == 0
        capsys.readouterr()
        rc = main(["campaign", "--resume", "--checkpoint", ckpt,
                   "--out", other, "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("store chunk sizes do not match")

    def test_campaign_refuses_existing_store(self, capsys, tmp_path):
        """A fresh run never appends to a store it did not create."""
        from repro.store import ChunkedTraceStore

        store = str(tmp_path / "store")
        base = ["campaign", "--target", "unprotected", "--traces", "200",
                "--chunk-size", "100", "--quiet", "--out", store]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base) == 2
        captured = capsys.readouterr()
        assert "already holds a trace store" in captured.err
        assert "streaming" not in captured.out  # refused before acquiring
        assert ChunkedTraceStore.open(store).n_chunks == 2

    def test_campaign_resume_refuses_removed_store_encoding_manifest(
        self, capsys, tmp_path
    ):
        import json

        store = tmp_path / "store"
        ckpt = str(tmp_path / "campaign.npz")
        self._crash_at_chunk_1(str(store), ckpt)
        manifest = json.loads((store / "manifest.json").read_text())
        manifest["compression"] = "zstd-npz"
        (store / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = main(["campaign", "--resume", "--checkpoint", ckpt,
                   "--out", str(store), "--quiet"])
        assert rc == 2
        assert "no longer readable" in capsys.readouterr().err

    def test_fig3_small_run(self, capsys):
        rc = main(["fig3", "--encryptions", "20000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "unprotected 48 MHz" in out
        assert "overlap-free" in out

    def test_verify_single_suite(self, capsys):
        assert main(["verify", "--suite", "aes"]) == 0
        out = capsys.readouterr().out
        assert "aes" in out
        assert "verify: PASS" in out

    def test_verify_verbose_lists_checks(self, capsys):
        assert main(["verify", "--suite", "lint", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "lint:no-global-np-random" in out

    def test_verify_writes_drift_manifest(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "drift.json"
        assert main(["verify", "--suite", "drift",
                     "--drift-out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["format"] == "repro-drift-manifest-v1"
        assert set(payload["observed"]) == set(payload["budgets"])
        assert "drift manifest written" in capsys.readouterr().out

    def test_verify_rejects_unknown_suite(self):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "astrology"])


_SMOKE_MATRIX = str(REPO_ROOT / "examples" / "matrix_smoke.json")
_CAMPAIGN = ["campaign", "--target", "unprotected", "--traces", "200",
             "--chunk-size", "100"]
# Every command that reads a named input file, fed each kind of bad input.
_INPUT_COMMANDS = {
    "obs-render": ["obs", "render", "{input}"],
    "matrix": ["matrix", "{input}", "--out", "{tmp}/mx"],
    "store-info": ["store", "info", "{input}"],
    "store-verify": ["store", "verify", "{input}"],
    "campaign-resume": ["campaign", "--resume", "--checkpoint", "{input}"],
}
#: Refusals of a flag's value name the flag the user typed.
_NAMED_FLAGS = {
    "campaign-traces-0": "--traces",
    "campaign-traces-0-out": "--traces",
    "campaign-chunk-timeout-neg": "--chunk-timeout",
    "verify-plan-sets-0": "--plan-sets",
    "verify-schedules-0": "--schedules",
    "verify-schedules-0-all-suites": "--schedules",
}

_BAD_INPUT_CASES = [
    pytest.param(
        [arg.replace("{input}", "{" + kind + "}") for arg in argv],
        # A directory that is not a store opens and fails: a failed run.
        1 if command.startswith("store") and kind == "dir" else 2,
        None,
        id=f"{command}-{kind}",
    )
    for command, argv in _INPUT_COMMANDS.items()
    for kind in ("missing", "dir", "junk", "truncated")
] + [pytest.param(argv, 2, _NAMED_FLAGS.get(name), id=name) for name, argv in [
    ("obs-render-prometheus", ["obs", "render", "{prometheus}"]),
    ("campaign-traces-0", ["campaign", "--target", "unprotected",
                           "--traces", "0"]),
    ("campaign-traces-0-out", ["campaign", "--target", "unprotected",
                               "--traces", "0", "--out", "{tmp}/store"]),
    ("campaign-chunk-size-0", _CAMPAIGN + ["--chunk-size", "0"]),
    ("campaign-workers-0", _CAMPAIGN + ["--workers", "0"]),
    ("campaign-chunk-timeout-neg", _CAMPAIGN + ["--chunk-timeout", "-1"]),
    ("campaign-store-budget-neg", _CAMPAIGN + ["--store-budget-bytes", "-5"]),
    ("campaign-m-0", ["campaign", "--m", "0", "--traces", "200",
                      "--chunk-size", "100"]),
    ("campaign-m-0-out", ["campaign", "--m", "0", "--traces", "200",
                          "--chunk-size", "100", "--out", "{tmp}/store"]),
    ("campaign-out-file", _CAMPAIGN + ["--out", "{file}"]),
    ("campaign-out-blocked", _CAMPAIGN + ["--out", "{file}/store"]),
    *[(f"campaign-{flag[2:]}-{kind}",
       _CAMPAIGN + ["--out", "{tmp}/store", flag, path])
      for flag in ("--checkpoint", "--metrics-out", "--trace-out")
      for kind, path in (("blocked", "{file}/x.json"), ("dir", "{dir}"))],
    ("matrix-out-file", ["matrix", _SMOKE_MATRIX, "--out", "{file}"]),
    ("matrix-workers-0", ["matrix", _SMOKE_MATRIX, "--out", "{tmp}/store",
                          "--workers", "0"]),
    ("matrix-metrics-blocked", ["matrix", _SMOKE_MATRIX, "--out",
                                "{tmp}/store", "--metrics-out",
                                "{file}/m.prom"]),
    ("info-m-0", ["info", "--m", "0"]),
    ("plan-m-0", ["plan", "--m", "0"]),
    ("fig3-encryptions-0", ["fig3", "--encryptions", "0"]),
    ("attack-traces-0", ["attack", "--target", "unprotected",
                         "--traces", "0"]),
    ("attack-repeats-0", ["attack", "--target", "unprotected",
                          "--traces", "200", "--repeats", "0"]),
    ("tvla-traces-0", ["tvla", "--target", "unprotected", "--traces", "0"]),
    ("search-budget-0", ["search", "--budget", "0"]),
    ("verify-plan-sets-0", ["verify", "--suite", "drp", "--plan-sets", "0"]),
    ("verify-schedules-0", ["verify", "--suite", "accumulators",
                            "--schedules", "0"]),
    ("verify-schedules-0-all-suites", ["verify", "--schedules", "0"]),
    ("serve-data-dir-file", ["serve", "--data-dir", "{file}"]),
]]


class TestErrorBoundary:
    """main() turns every bad input into one stderr line and exit 2."""

    @staticmethod
    def _paths(tmp_path):
        paths = {
            "tmp": tmp_path,
            "missing": tmp_path / "absent.json",
            "dir": tmp_path / "a-directory",
            "junk": tmp_path / "junk.bin",
            "truncated": tmp_path / "truncated.json",
            "prometheus": tmp_path / "metrics.prom",
            "file": tmp_path / "regular-file",
        }
        paths["dir"].mkdir()
        rng = np.random.default_rng(400)
        paths["junk"].write_bytes(rng.integers(0, 256, 400, np.uint8).tobytes())
        paths["truncated"].write_text('{"schema": "rftc-')
        paths["prometheus"].write_text("# TYPE x counter\nx 1\n")
        paths["file"].write_text("not a directory")
        return {name: str(path) for name, path in paths.items()}

    @pytest.mark.parametrize("argv, code, flag", _BAD_INPUT_CASES)
    def test_bad_input_fails_in_one_line_before_work(
        self, argv, code, flag, capsys, tmp_path
    ):
        paths = self._paths(tmp_path)
        rc = main([arg.format(**paths) for arg in argv])
        captured = capsys.readouterr()
        assert rc == code
        assert len(captured.err.splitlines()) == 1, captured.err
        assert "Traceback" not in captured.err
        if flag is not None:
            assert captured.err.startswith(flag), captured.err
        # Refused before any work: no campaign announced, no chunk
        # acquired, no suite run, no store created.
        assert "streaming" not in captured.out
        assert "  chunk " not in captured.out
        assert "verify:" not in captured.out
        assert not (tmp_path / "store").exists()

    def test_failed_run_exits_1_in_one_line(self, capsys, tmp_path):
        rc = main(_CAMPAIGN + ["--quiet", "--inject-fault", "crash@1",
                               "--checkpoint", str(tmp_path / "c.npz")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "campaign failed: injected crash after folding chunk 1\n"
        )

    def test_missing_output_directories_are_created(self, capsys, tmp_path):
        stem = tmp_path / "plans" / "design"
        assert main(["plan", "--m", "2", "--p", "4", "--out", str(stem)]) == 0
        assert (tmp_path / "plans" / "design.json").is_file()
        metrics = tmp_path / "metrics" / "m.json"
        assert main(_CAMPAIGN + ["--quiet", "--metrics-out", str(metrics)]) == 0
        assert "campaign_traces_total" in metrics.read_text()


class TestSignalHandling:
    def test_sigint_exits_130_without_traceback(self, tmp_path):
        """Ctrl-C during a long campaign exits 130 with no traceback spray.

        The budget (2,000 chunks) cannot finish within the test's
        timeouts, and the signal goes out only once the first chunk's
        progress line shows the run is under way, so the campaign is
        always interrupted mid-run, however loaded the host is.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "campaign",
                "--target", "unprotected", "--traces", "10000000",
                "--chunk-size", "5000", "--workers", "1",
            ],
            cwd=tmp_path,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            for line in proc.stdout:
                if "chunk 1/" in line:
                    break
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130
        assert "interrupted" in err
        assert "Traceback" not in err

    def test_resume_flag_contradiction_exits_2_without_traceback(
        self, tmp_path
    ):
        """The satellite contract, through a real process: contradicting
        a checkpoint is exit code 2 + a diff line, never a traceback."""
        ckpt = str(tmp_path / "campaign.npz")
        assert main(["campaign", "--target", "unprotected", "--traces", "400",
                     "--chunk-size", "100", "--quiet", "--checkpoint", ckpt,
                     "--inject-fault", "crash@1"]) == 1
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "campaign", "--resume",
             "--checkpoint", ckpt, "--chunk-size", "999", "--quiet"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert "--chunk-size 999 != 100" in proc.stderr
        assert "Traceback" not in proc.stderr
