"""Experiment orchestration: attack suites and the regeneration code for
every table and figure in the paper's evaluation.

Every device they measure comes from
:meth:`repro.pipeline.CampaignSpec.build_device`."""

from repro.experiments.attack_suite import (
    ATTACK_NAMES,
    AttackSuiteResult,
    make_preprocessor,
    run_attack_suite,
)

__all__ = [
    "ATTACK_NAMES",
    "AttackSuiteResult",
    "make_preprocessor",
    "run_attack_suite",
]
