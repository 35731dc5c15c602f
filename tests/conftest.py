"""Hypothesis writes a cache of source constants under its storage directory,
./.hypothesis by default, even with database=None.  It does so while pytest
collects, before any fixture runs, so the directory is set at session start,
inside pytest's own temporary directory (the one tmp_path_factory uses)."""

import os


def pytest_sessionstart(session):
    storage = session.config._tmp_path_factory.mktemp("hypothesis")
    os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = str(storage)
