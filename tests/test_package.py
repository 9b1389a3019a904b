"""The package surface: ``rspin.__all__`` resolves lazily to the submodules' objects."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import rspin

HOMES = ("core", "genus0", "dr1", "store", "verify")


def test_every_public_name_is_its_home_modules_object():
    homes = {name: getattr(rspin, name) for name in HOMES}
    for name in rspin.__all__:
        value = getattr(rspin, name)
        if name == "__version__":
            assert isinstance(value, str)
            continue
        owners = [module for module in homes.values() if name in vars(module)]
        assert owners, name
        assert all(vars(module)[name] is value for module in owners), name
        home = getattr(value, "__module__", "")
        if home.startswith("rspin."):
            assert vars(sys.modules[home])[name] is value, name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from rspin import *", namespace)
    assert set(rspin.__all__) <= set(namespace)
    assert set(rspin.__all__) <= set(dir(rspin))
    assert len(set(rspin.__all__)) == len(rspin.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rspin.no_such_name
    assert not hasattr(rspin, "cli_helpers")


def test_bare_import_runs_no_submodule_until_one_is_used():
    probe = (
        "import sys, rspin\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('rspin'))\n"
        "print(*loaded())\n"
        "print(rspin.dr1.b_value(4, (2, 2)))\n"
        "print(*loaded())\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(rspin.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines() == [
        "rspin",
        "1/96",
        "rspin rspin.core rspin.dr1 rspin.store",
    ]
