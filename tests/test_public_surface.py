"""The curated public surface: ``repro`` exports exactly the Session
front door (locked alongside the ruff F401/F822 rules); every former
top-level re-export is gone from the root and lives only in its home
module."""

import importlib
import warnings

import pytest

import repro


EXPECTED_ALL = [
    "Backend",
    "DistributedArray",
    "ExecutionReport",
    "MachineConfig",
    "Session",
    "__version__",
]


def test_all_is_exactly_the_front_door():
    assert sorted(repro.__all__) == EXPECTED_ALL


def test_front_door_importable_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        for name in EXPECTED_ALL:
            getattr(repro, name)


#: the names the package root re-exported before the Session front
#: door -> the module each one lives in
FORMER_REEXPORTS = {
    "DataSpace": "repro.core.dataspace",
    "TemplateDataSpace": "repro.templates.model",
    "Procedure": "repro.core.procedures",
    "DummySpec": "repro.core.procedures",
    "DummyMode": "repro.core.procedures",
    "run_program": "repro.directives.analyzer",
    "Block": "repro.distributions",
    "BlockVariant": "repro.distributions",
    "Collapsed": "repro.distributions",
    "Cyclic": "repro.distributions",
    "GeneralBlock": "repro.distributions",
    "Triplet": "repro.fortran.triplet",
    "IndexDomain": "repro.fortran.domain",
    "ArrayRef": "repro.engine.expr",
    "Assignment": "repro.engine.assignment",
    "SimulatedExecutor": "repro.engine.executor",
    "DistributedMachine": "repro.machine.simulator",
}


@pytest.mark.parametrize("name", sorted(FORMER_REEXPORTS))
def test_shims_warn_and_resolve(name):
    """The shims are removed, not kept: the root no longer resolves the
    name (no warning, no fallback) and its home module does."""
    with pytest.raises(AttributeError):
        getattr(repro, name)
    assert name not in dir(repro)
    home = importlib.import_module(FORMER_REEXPORTS[name])
    assert getattr(home, name) is not None


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        repro.NotAThing


def test_internal_modules_do_not_use_shims():
    """No module inside src/repro imports names from the package root —
    the root is the external front door, internals import from home
    modules."""
    import ast
    import pathlib
    src = pathlib.Path(repro.__file__).resolve().parent
    offenders = []
    for path in src.rglob("*.py"):
        if path == src / "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "repro":
                offenders.append(path)
                break
    assert not offenders, f"internal shim use in {offenders}"
