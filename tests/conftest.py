import shutil
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis caches into ./.hypothesis by default, starting at collection;
# a throwaway directory keeps a test run from writing into the tree
HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    config.stash[HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="fantope-hypothesis-")
    set_hypothesis_home_dir(config.stash[HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[HYPOTHESIS_HOME], ignore_errors=True)
