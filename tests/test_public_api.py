"""Public-API contract: the documented surface imports and holds."""

import importlib

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.cluster",
    "repro.cli",
    "repro.sim",
    "repro.sim.engine",
    "repro.sim.rng",
    "repro.sim.stats",
    "repro.sim.units",
    "repro.net",
    "repro.net.addresses",
    "repro.net.packet",
    "repro.net.topology",
    "repro.net.clos",
    "repro.net.rail",
    "repro.net.ecmp",
    "repro.net.fabric",
    "repro.net.traceroute",
    "repro.net.telemetry",
    "repro.net.faults",
    "repro.net.pfc",
    "repro.host",
    "repro.host.rnic",
    "repro.host.verbs",
    "repro.host.ebpf",
    "repro.host.cpu",
    "repro.host.clockmodel",
    "repro.host.host",
    "repro.services",
    "repro.services.dml",
    "repro.services.traffic",
    "repro.services.congestion",
    "repro.services.storage",
    "repro.controlplane",
    "repro.controlplane.messages",
    "repro.controlplane.transport",
    "repro.controlplane.endpoint",
    "repro.controlplane.clients",
    "repro.core",
    "repro.core.agent",
    "repro.core.controller",
    "repro.core.analyzer",
    "repro.core.config",
    "repro.core.coverage",
    "repro.core.localization",
    "repro.core.records",
    "repro.core.sla",
    "repro.core.system",
    "repro.core.railprobe",
    "repro.core.aggregation",
    "repro.core.rootcause",
    "repro.core.remediation",
    "repro.core.tracker",
    "repro.core.audit",
    "repro.core.dashboard",
    "repro.diagnosis",
    "repro.diagnosis.backend",
    "repro.diagnosis.probe",
    "repro.diagnosis.inband",
    "repro.diagnosis.pingmesh",
    "repro.diagnosis.fusion",
    "repro.diagnosis.bakeoff",
    "repro.obs",
    "repro.obs.tracer",
    "repro.obs.metrics",
    "repro.obs.profiler",
    "repro.experiments",
    "repro.analysis",
    "repro.analysis.findings",
    "repro.analysis.rules",
    "repro.analysis.linter",
    "repro.analysis.runtime",
    "repro.analysis.cli",

    "repro.serve",
    "repro.serve.session",
    "repro.serve.checkpoint",
    "repro.serve.alerts",
    "repro.serve.http",
    "repro.serve.runner",
    "repro.serve.tui",

    "repro.fleet",
    "repro.fleet.spec",
    "repro.fleet.worker",
    "repro.fleet.runner",
    "repro.fleet.merge",
    "repro.fleet.presets",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


def test_root_package_surface():
    import repro
    assert set(repro.__all__) >= {"Cluster", "RPingmesh", "RPingmeshConfig"}
    assert repro.__version__


def test_core_all_exports_resolve():
    import repro.core
    for name in repro.core.__all__:
        assert hasattr(repro.core, name), name


def test_net_all_exports_resolve():
    import repro.net
    for name in repro.net.__all__:
        assert hasattr(repro.net, name), name


def test_public_classes_have_docstrings():
    import repro.core as core
    import repro.net as net
    for namespace in (core, net):
        for name in namespace.__all__:
            obj = getattr(namespace, name)
            if isinstance(obj, type):
                assert obj.__doc__, f"{name} lacks a class docstring"
