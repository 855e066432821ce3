"""Unit tests for the AST lint rules on synthetic snippets."""

import ast
import textwrap
from pathlib import Path

from repro.verify import Checks
from repro.verify.lint import (
    find_cli_exit_violations,
    find_clock_reads,
    find_global_random,
    find_incomplete_consumers,
    find_metric_names,
    find_unseeded_default_rng,
    run_lint_checks,
)


def _tree(source):
    return ast.parse(textwrap.dedent(source))


class TestGlobalRandomRule:
    def test_flags_global_state(self):
        src = """
        import numpy as np
        np.random.seed(1)
        x = np.random.normal(0, 1, 10)
        y = numpy.random.randint(4)
        """
        hits = find_global_random(_tree(src), "f.py")
        assert len(hits) == 3
        assert "f.py:3 np.random.seed" in hits

    def test_allows_generator_api(self):
        src = """
        import numpy as np
        rng = np.random.default_rng(np.random.SeedSequence([1, 2]))
        g = np.random.Generator(np.random.PCG64(7))
        """
        assert find_global_random(_tree(src), "f.py") == []

    def test_docstrings_and_comments_exempt(self):
        src = '''
        def f():
            """Never call np.random.seed here."""
            # np.random.normal would be wrong
            return 0
        '''
        assert find_global_random(_tree(src), "f.py") == []


class TestUnseededDefaultRngRule:
    def test_flags_both_call_forms(self):
        src = """
        import numpy as np
        from numpy.random import default_rng
        a = np.random.default_rng()
        b = default_rng()
        """
        hits = find_unseeded_default_rng(_tree(src), "f.py")
        assert len(hits) == 2
        assert all("without a seed" in h for h in hits)

    def test_any_argument_passes(self):
        src = """
        import numpy as np
        a = np.random.default_rng(0)
        b = np.random.default_rng(np.random.SeedSequence(7))
        c = np.random.default_rng(seed)
        d = np.random.default_rng(None)  # explicit, not the silent idiom
        """
        assert find_unseeded_default_rng(_tree(src), "f.py") == []

    def test_unrelated_calls_ignored(self):
        src = """
        rng()
        obj.default_rng_helper()
        """
        assert find_unseeded_default_rng(_tree(src), "f.py") == []


class TestConsumerProtocolRule:
    def test_flags_missing_restore(self):
        src = """
        class Partial:
            def consume(self, chunk): ...
            def result(self): ...
            def snapshot(self): ...
        """
        hits = find_incomplete_consumers(_tree(src), "f.py")
        assert hits == ["f.py:2 Partial lacks restore"]

    def test_full_contract_passes(self):
        """snapshot/restore complete the contract; no merge is needed."""
        src = """
        class Full:
            def consume(self, chunk): ...
            def result(self): ...
            def snapshot(self): ...
            def restore(self, state): ...
        """
        assert find_incomplete_consumers(_tree(src), "f.py") == []

    def test_non_consumer_classes_ignored(self):
        src = """
        class Unrelated:
            def consume(self, chunk): ...
        """
        assert find_incomplete_consumers(_tree(src), "f.py") == []


class TestMetricNamesRule:
    def test_collects_literal_names(self):
        src = """
        metrics.inc("campaign_chunks_total", 1)
        metrics.observe("fold_seconds", 0.1, worker=3)
        metrics.set_gauge("workers", 4)
        """
        names = [n for n, _ in find_metric_names(_tree(src))]
        assert names == ["campaign_chunks_total", "fold_seconds", "workers"]

    def test_skips_dynamic_names(self):
        src = """
        series.observe(float(value))
        metrics.inc(name, 1)
        """
        assert find_metric_names(_tree(src)) == []

    def test_collects_span_table_histograms(self):
        src = """
        SPAN_HISTOGRAMS: Dict[str, tuple] = {
            "consume": ("campaign_consume_seconds", "consumer"),
            "store_append": ("store_append_seconds", None),
        }
        OTHER = {"consume": ("not_a_metric", None)}
        """
        names = [n for n, _ in find_metric_names(_tree(src))]
        assert names == ["campaign_consume_seconds", "store_append_seconds"]

    def test_undocumented_span_histogram_fails_the_suite(self, tmp_path):
        _write(tmp_path, "src/repro/obs/tracing.py", """
            import time
            SPAN_HISTOGRAMS = {"consume": ("hidden_seconds", None)}
            started = time.perf_counter()
        """)
        _write(tmp_path, "docs/observability.md", "`other_seconds`\n")
        verdicts = _lint(tmp_path)
        assert verdicts["lint:metrics-documented"] is False
        assert verdicts["lint:one-clock"] is True


class TestOneClockRule:
    def test_flags_span_clock_reads(self):
        src = """
        import time
        from time import perf_counter
        a = time.perf_counter()
        b = time.process_time()
        timer = time.perf_counter_ns
        """
        hits = find_clock_reads(_tree(src), "f.py")
        assert len(hits) == 4
        assert "f.py:4 time.perf_counter" in hits
        assert "f.py:3 from time import perf_counter" in hits

    def test_deadline_clocks_pass(self):
        src = """
        import time
        deadline = time.monotonic() + 5.0
        time.sleep(0.01)
        stamp = time.time()
        """
        assert find_clock_reads(_tree(src), "f.py") == []

    def test_only_the_tracing_module_may_read_the_clock(self, tmp_path):
        _write(tmp_path, "src/repro/obs/tracing.py", """
            import time
            SPAN_HISTOGRAMS = {}
            started = time.perf_counter()
        """)
        _write(tmp_path, "docs/observability.md", "")
        assert _lint(tmp_path)["lint:one-clock"] is True
        _write(tmp_path, "src/repro/pipeline/engine.py", """
            import time
            started = time.perf_counter()
        """)
        assert _lint(tmp_path)["lint:one-clock"] is False


def _write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))


def _lint(root: Path) -> dict:
    checks = Checks()
    run_lint_checks(checks, src_root=str(root / "src"))
    return {c.name: c.ok for c in checks.results}


class TestCliExitRule:
    def test_flags_bare_return_and_fall_through(self):
        src = """
        def _cmd_bad(args):
            if args.x:
                return
            print("hi")
        """
        hits = find_cli_exit_violations(_tree(src), "cli.py")
        assert any("bare return" in h for h in hits)
        assert any("fall off the end" in h for h in hits)

    def test_flags_return_none(self):
        src = """
        def _cmd_none(args):
            return None
        """
        hits = find_cli_exit_violations(_tree(src), "cli.py")
        assert any("returns None" in h for h in hits)

    def test_if_else_both_returning_passes(self):
        src = """
        def _cmd_ok(args):
            if args.x:
                return 0
            else:
                return 1
        """
        assert find_cli_exit_violations(_tree(src), "cli.py") == []

    def test_trailing_return_after_try_passes(self):
        src = """
        def _cmd_try(args):
            try:
                do()
            except ValueError:
                return 1
            return 0
        """
        assert find_cli_exit_violations(_tree(src), "cli.py") == []

    def test_non_command_functions_ignored(self):
        src = """
        def helper(args):
            return
        """
        assert find_cli_exit_violations(_tree(src), "cli.py") == []
