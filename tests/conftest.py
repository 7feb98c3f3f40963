import inspect
import os
import sys

import pytest

HERE = os.path.dirname(__file__)
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
sys.path.insert(0, HERE)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) replaces module.name by a wrapper that
    records each call's arguments, as one positional tuple with the
    defaults filled in, and returns the list they are recorded in."""

    def install(module, name):
        inner = getattr(module, name)
        signature = inspect.signature(inner)
        calls = []

        def counted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(tuple(bound.arguments.values()))
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install
