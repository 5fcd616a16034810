"""Shared test set-up.

Several tests run the CLI in a child interpreter.  The child gets the
directory the package was imported from on its ``PYTHONPATH``, so it runs
the same source tree as the tests, also when that directory reached the
tests only through pytest's ``pythonpath`` setting.

Every test must leave numpy's ufunc buffer size and floating-point error
state as it found them: the kernel passes change both inside an
``np.errstate`` block, and a setting that leaked out of one would change
the state every later test runs in.
"""
import os
from pathlib import Path

import numpy as np
import pytest

import influence_lab


@pytest.fixture(autouse=True, scope="session")
def _child_interpreters_import_this_source_tree():
    source_root = str(Path(influence_lab.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", source_root, prepend=os.pathsep)
        yield


@pytest.fixture(autouse=True)
def _numpy_state_is_left_as_found():
    found = np.getbufsize(), np.geterr()
    yield
    left = np.getbufsize(), np.geterr()
    if left != found:
        np.setbufsize(found[0])  # so that later tests start from the state found here
        np.seterr(**found[1])
        pytest.fail(f"numpy buffer size and error state {found} were left as {left}")
