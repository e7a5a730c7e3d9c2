"""Package exports: importing a package loads none of its submodules, and
every name a package exports still resolves on first access.  That
``src/`` imports no package export is the GA529 row of
:data:`repro.analysis.rules.RULES`."""

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
