"""Unit tests for the selector registry."""

import pytest

from repro.selection import SELECTOR_NAMES, SELECTORS
from repro.selection.base import Selector


class TestFactory:
    def test_all_registered_names_build(self):
        for name in SELECTOR_NAMES:
            selector = SELECTORS.create(name)
            assert isinstance(selector, Selector)
            assert selector.name == name

    def test_both_exact_solvers_registered(self):
        assert "dp" in SELECTOR_NAMES
        assert "branch-and-bound" in SELECTOR_NAMES

    def test_kwargs_forwarded(self):
        selector = SELECTORS.create("dp", max_exact_tasks=9)
        assert selector.max_exact_tasks == 9

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ValueError, match="greedy"):
            SELECTORS.create("oracle")
