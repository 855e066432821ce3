"""Differential verification subsystem (``repro verify``).

The paper's security claims rest on exact equivalences the rest of the
library asserts only at hand-picked points: the RT datapath must match
table AES, streaming accumulators must match their batch counterparts at
any worker count, and every planned frequency set must survive the DRP
encode/decode round trip unchanged — a silently snapped divider changes
the completion-time histogram the whole countermeasure depends on.  This
package checks those equivalences mechanically, via six suites:

``aes``
    AES RT-model vs. table AES vs. embedded NIST/FIPS-197 vectors across
    all key sizes (:mod:`repro.verify.aes_oracle`).
``accumulators``
    Every incremental accumulator vs. its batch counterpart under
    randomized chunk and snapshot-restore/replay schedules
    (:mod:`repro.verify.accumulators`, :mod:`repro.verify.schedules`).
``drp``
    ``synthesize_config -> encode_config -> decode_transactions ->
    re-synthesize`` round trips over the planner's full hardware lattice,
    including fractional ``odiv0``/``mult`` steps
    (:mod:`repro.verify.drp_oracle`).
``planner``
    Overlap-freedom re-audit of exported plans after a save/load cycle.
``drift``
    Numeric-drift sentinel: hot-path float64 reductions vs. compensated
    (``math.fsum``) references, against the committed per-kernel budgets
    in ``drift_manifest.json`` (:mod:`repro.verify.drift`).
``lint``
    AST-based repo invariants (:mod:`repro.verify.lint`).

Each suite appends :class:`CheckResult` verdicts to a shared collector;
:func:`run_suites` wraps them into a :class:`VerificationReport` the CLI
renders and CI gates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.obs.tracing import Tracer

#: The six suites, in the order ``repro verify`` runs them.
SUITE_NAMES = ("aes", "accumulators", "drp", "planner", "drift", "lint")


@dataclass(frozen=True)
class CheckResult:
    """One verified claim: a stable name, a verdict, and supporting detail."""

    name: str
    ok: bool
    detail: str = ""


class Checks:
    """Collector the suite modules append their verdicts to."""

    def __init__(self) -> None:
        self.results: List[CheckResult] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        """Append one verdict; returns ``ok`` so callers can chain."""
        self.results.append(CheckResult(name=name, ok=bool(ok), detail=detail))
        return bool(ok)


@dataclass
class SuiteResult:
    """Outcome of one suite: its checks plus wall-clock cost."""

    name: str
    checks: List[CheckResult]
    seconds: float

    @property
    def ok(self) -> bool:
        """A suite passes only if it ran at least one check and all passed."""
        return bool(self.checks) and all(c.ok for c in self.checks)

    @property
    def n_passed(self) -> int:
        return sum(1 for c in self.checks if c.ok)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.checks if not c.ok)

    def failures(self) -> List[CheckResult]:
        return [c for c in self.checks if not c.ok]


@dataclass
class VerificationReport:
    """All suite outcomes of one ``repro verify`` invocation."""

    suites: List[SuiteResult]

    @property
    def ok(self) -> bool:
        return bool(self.suites) and all(s.ok for s in self.suites)

    def summary(self, verbose: bool = False) -> str:
        """Human-readable report: one line per suite, failures expanded."""
        lines = []
        for suite in self.suites:
            verdict = "ok" if suite.ok else "FAIL"
            lines.append(
                f"{suite.name:<12s} {verdict:<4s} "
                f"{suite.n_passed}/{len(suite.checks)} checks "
                f"({suite.seconds:.1f} s)"
            )
            shown = suite.checks if verbose else suite.failures()
            for check in shown:
                mark = "+" if check.ok else "!"
                detail = f" — {check.detail}" if check.detail else ""
                lines.append(f"  {mark} {check.name}{detail}")
        total_failed = sum(s.n_failed for s in self.suites)
        total = sum(len(s.checks) for s in self.suites)
        verdict = "PASS" if self.ok else f"FAIL ({total_failed} failing)"
        lines.append(f"verify: {verdict} — {total} checks in "
                     f"{sum(s.seconds for s in self.suites):.1f} s")
        return "\n".join(lines)


def run_suite(
    name: str,
    seed: int = 2019,
    schedules: int = 50,
    plan_sets: int = 1024,
    drift_out: Optional[str] = None,
) -> SuiteResult:
    """Run one suite by name.  Suite modules are imported lazily."""
    if name not in SUITE_NAMES:
        raise ConfigurationError(
            f"unknown verify suite {name!r}; expected one of {SUITE_NAMES}"
        )
    checks = Checks()
    with Tracer().span("verify_suite", suite=name) as elapsed:
        if name == "aes":
            from repro.verify.aes_oracle import run_aes_checks

            run_aes_checks(checks, seed=seed)
        elif name == "accumulators":
            from repro.verify.accumulators import run_accumulator_checks

            run_accumulator_checks(checks, seed=seed, schedules=schedules)
        elif name == "drp":
            from repro.verify.drp_oracle import run_drp_checks

            run_drp_checks(checks, seed=seed, plan_sets=plan_sets)
        elif name == "planner":
            from repro.verify.drp_oracle import run_planner_checks

            run_planner_checks(checks, seed=seed)
        elif name == "drift":
            from repro.verify.drift import run_drift_checks

            run_drift_checks(checks, manifest_out=drift_out)
        else:
            from repro.verify.lint import run_lint_checks

            run_lint_checks(checks)
        seconds = elapsed()
    return SuiteResult(name=name, checks=checks.results, seconds=seconds)


def run_suites(
    names: Optional[Sequence[str]] = None,
    seed: int = 2019,
    schedules: int = 50,
    plan_sets: int = 1024,
    drift_out: Optional[str] = None,
) -> VerificationReport:
    """Run the named suites (all six by default) into one report."""
    selected = tuple(names) if names else SUITE_NAMES
    return VerificationReport(
        suites=[
            run_suite(
                name,
                seed=seed,
                schedules=schedules,
                plan_sets=plan_sets,
                drift_out=drift_out,
            )
            for name in selected
        ]
    )


__all__ = [
    "CheckResult",
    "Checks",
    "SuiteResult",
    "VerificationReport",
    "SUITE_NAMES",
    "run_suite",
    "run_suites",
]
