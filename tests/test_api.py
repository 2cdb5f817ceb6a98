"""The public surface: what each module exports, and what it no longer does."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import cpstream

# every module that declares an export list (errors.py is only exception classes)
MODULES = sorted(
    name
    for name in (f"cpstream.{info.name}" for info in pkgutil.iter_modules(cpstream.__path__))
    if hasattr(importlib.import_module(name), "__all__")
)

# (module, name) pairs removed from the public surface because nothing used
# them or they restated what the caller already knew
DELETED = [
    ("cpstream.critvals", "simulate_brownian_motion"),
    ("cpstream.timeseries", "sample_mean"),
    ("cpstream.longrun", "autocov"),
    ("cpstream.trend", "ema"),
    ("cpstream.trend", "macd"),
    ("cpstream.online", "boundary_weight"),
    ("cpstream.online", "ratio_boundary_weight"),
    ("cpstream.trend", "TrendMode"),
    ("cpstream.critvals", "replication_stats"),
    ("cpstream.monitor", "select_training"),
    ("cpstream.timeseries", "SeriesSegment"),
]

# attributes of public classes removed for the same reason
DELETED_ATTRIBUTES = [
    ("cpstream.timeseries", "TimeSeries", "column"),
    ("cpstream.timeseries", "TimeSeries", "period"),
    ("cpstream.timeseries", "TimeSeries", "label"),
    ("cpstream.netsim", "Topology", "cluster_heads"),
    ("cpstream.netsim", "ExperimentResult", "detection_by_hop_distance"),
    ("cpstream.netsim", "TraceSet", "seed"),
    ("cpstream.online", "OnlineDetectorState", "training_mean"),
    ("cpstream.online", "OnlineDetectorState", "ratio_denominator"),
    ("cpstream.trend", "TrendVerdict", "mode"),
    ("cpstream.timeseries", "TimeSeries", "segment"),
    ("cpstream.trend", "TrendMemo", "indicator"),
    ("cpstream.netsim", "TraceSet", "senders_up_to"),
]

# parameters no caller set, or that restated another argument
DELETED_PARAMETERS = [
    ("cpstream.timeseries", "load_csv", "period"),
    ("cpstream.timeseries", "load_csv", "label"),
    ("cpstream.netsim", "random_scenario", "max_tries"),
    ("cpstream.offline", "offline_test", "alpha"),
    ("cpstream.offline", "segment", "memo"),
    ("cpstream.longrun", "bartlett_lrv", "centred"),
]


@pytest.mark.parametrize("module_name", ["cpstream", *MODULES])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert len(module.__all__) == len(set(module.__all__))
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.__all__ names missing {name!r}"


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse(Path(cpstream.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(cpstream.__all__) == imported | {"__version__"}


@pytest.mark.parametrize("module_name, name", DELETED)
def test_deleted_name_is_gone(module_name, name):
    module = importlib.import_module(module_name)
    assert name not in module.__all__
    assert name not in cpstream.__all__
    assert not hasattr(module, name)
    assert not hasattr(cpstream, name)


@pytest.mark.parametrize("module_name, owner, name", DELETED_ATTRIBUTES)
def test_deleted_attribute_is_gone(module_name, owner, name):
    cls = getattr(importlib.import_module(module_name), owner)
    assert not hasattr(cls, name)
    fields = getattr(cls, "__dataclass_fields__", {})
    assert name not in fields


@pytest.mark.parametrize("module_name, function, name", DELETED_PARAMETERS)
def test_deleted_parameter_is_gone(module_name, function, name):
    func = getattr(importlib.import_module(module_name), function)
    assert name not in inspect.signature(func).parameters
