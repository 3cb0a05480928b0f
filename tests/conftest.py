"""Fixtures shared across test modules."""

from __future__ import annotations

from functools import lru_cache

import pytest

from rckit.rcmaps import rc_solution_space


@pytest.fixture(scope="session")
def full_walk():
    """rc_solution_space with no target, memoized per space for the whole
    session: the certified-stop test and the class-case reference test each
    compare against the full walk on the same codim <= 1 spaces."""
    return lru_cache(maxsize=None)(rc_solution_space)
