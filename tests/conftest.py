"""Shared test set-up.

Several tests run the CLI in a child interpreter.  The child gets the
directory the package was imported from on its ``PYTHONPATH``, so it runs
the same source tree as the tests, also when that directory reached the
tests only through pytest's ``pythonpath`` setting.
"""
import os
from pathlib import Path

import pytest

import influence_lab


@pytest.fixture(autouse=True, scope="session")
def _child_interpreters_import_this_source_tree():
    source_root = str(Path(influence_lab.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", source_root, prepend=os.pathsep)
        yield
