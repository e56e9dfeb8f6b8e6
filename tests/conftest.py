"""Shared helpers: fixture loading and the cached sweep of each fixture."""

from __future__ import annotations

import functools
import time
from importlib import resources

import pytest
from hypothesis import settings

from arrgroup import Arrangement, Sweep, parse_arrangement, sweep

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")

SESSION_T0 = time.perf_counter()

FIXTURE_NAMES = (
    "pencil",
    "nearpencil",
    "triangle",
    "triangle_plus_line",
    "cycle5",
    "ceva",
)


def fixture_text(name: str) -> str:
    return resources.files("arrgroup").joinpath(f"fixtures/{name}.lines").read_text()


def fixture_arrangement(name: str) -> Arrangement:
    return parse_arrangement(fixture_text(name))


@functools.cache
def pipeline(name: str) -> Sweep:
    """The sweep of one fixture, computed once per session."""
    return sweep(fixture_arrangement(name))


@pytest.fixture(scope="session")
def session_start() -> float:
    return SESSION_T0


def pytest_collection_modifyitems(items):
    # the acceptance gate checks whole-suite wall clock, so it goes last
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")
