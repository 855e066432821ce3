"""Public API surface: everything advertised imports and exists."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.cli",
    "repro.crypto",
    "repro.crypto.modes",
    "repro.hw",
    "repro.rftc",
    "repro.power",
    "repro.power.modes_acquisition",
    "repro.power.drift",
    "repro.power.cloud",
    "repro.attacks",
    "repro.preprocess",
    "repro.leakage_assessment",
    "repro.baselines",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.tracing",
    "repro.pipeline",
    "repro.pipeline.engine",
    "repro.pipeline.consumers",
    "repro.store",
    "repro.service",
    "repro.service.tenancy",
    "repro.service.jobs",
    "repro.service.cache",
    "repro.service.scheduler",
    "repro.service.execution",
    "repro.service.service",
    "repro.service.server",
    "repro.service.client",
    "repro.scenarios",
    "repro.scenarios.spec",
    "repro.scenarios.runner",
    "repro.scenarios.report",
    "repro.scenarios.search",
    "repro.experiments",
    "repro.experiments.figures",
    "repro.experiments.tables",
    "repro.experiments.sweep",
    "repro.experiments.security_parameter",
    "repro.experiments.reporting",
]


class TestImports:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_module_imports(self, name):
        importlib.import_module(name)

    @pytest.mark.parametrize(
        "name",
        [
            "repro",
            "repro.hw",
            "repro.rftc",
            "repro.power",
            "repro.attacks",
            "repro.preprocess",
            "repro.leakage_assessment",
            "repro.baselines",
            "repro.crypto",
            "repro.utils",
            "repro.pipeline",
            "repro.store",
            "repro.obs",
            "repro.scenarios",
        ],
    )
    def test_all_entries_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.__all__ lists {symbol}"

    def test_version(self):
        import repro

        assert repro.__version__.count(".") == 2


class TestDocstrings:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_every_module_documented(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20

    def test_key_classes_documented(self):
        from repro.hw.mmcm import Mmcm, MmcmConfig
        from repro.power.acquisition import ProtectedAesDevice, TraceSet
        from repro.rftc.controller import RFTCController
        from repro.rftc.planner import FrequencyPlan

        for cls in (Mmcm, MmcmConfig, ProtectedAesDevice, TraceSet,
                    RFTCController, FrequencyPlan):
            assert cls.__doc__ and len(cls.__doc__.strip()) > 30
