"""Package exports: importing a package loads none of its submodules, and
every name a package exports still resolves on first access."""

import ast
import importlib
import json
import os

import pytest

from tests.net.fresh_process import SRC_ROOT, run_python


def _packages() -> list:
    found = []
    for folder, _dirs, files in os.walk(os.path.join(SRC_ROOT, "repro")):
        if "__init__.py" in files:
            found.append(os.path.relpath(folder, SRC_ROOT).replace(os.sep, "."))
    return sorted(found)


PACKAGES = _packages()


def test_importing_every_package_loads_no_submodule():
    loaded = json.loads(run_python(
        "import importlib, json, sys\n"
        f"for name in {PACKAGES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))\n"
    ))
    assert loaded == PACKAGES


def test_src_imports_names_from_their_defining_modules():
    """Nothing in ``src/`` reads a package export, so no lookup resolves
    lazily in the middle of a run."""
    offenders = []
    for folder, _dirs, files in os.walk(os.path.join(SRC_ROOT, "repro")):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            for node in ast.walk(tree):
                if not (isinstance(node, ast.ImportFrom) and node.module in PACKAGES):
                    continue
                package_dir = os.path.join(SRC_ROOT, *node.module.split("."))
                offenders += [
                    f"{os.path.relpath(path, SRC_ROOT)}: from {node.module} import {alias.name}"
                    for alias in node.names
                    if not os.path.exists(os.path.join(package_dir, alias.name + ".py"))
                    and not os.path.isdir(os.path.join(package_dir, alias.name))
                    and (node.module, alias.name) != ("repro", "lazy_exports")
                ]
    assert offenders == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    listed = dir(module)
    for name in exported:
        assert getattr(module, name) is not None, name
        assert name in listed, name
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


def test_the_readme_facade_resolves_to_the_defining_modules():
    import repro
    from repro.core.runtime_sim import SimulatedRuntime
    from repro.simnet.topology import Network

    assert repro.SimulatedRuntime is SimulatedRuntime
    assert repro.Network is Network
    assert "__version__" in repro.__all__
