"""The names that the benchmark's span tracer replaces must exist.

``perfbench/spans.py`` times the layers by replacing names that
``perronnet.cli`` and ``perronnet.recommend`` import from the other
modules.  A name dropped from those imports would otherwise fail only a
traced benchmark run, with ``AttributeError``.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    return spans


def test_every_spanned_and_counted_name_is_callable(spans):
    tables = (spans.SPANNED, spans.COUNTED)
    assert all(tables)
    for table in tables:
        for mod, name in table:
            assert callable(getattr(mod, name, None)), \
                f"{mod.__name__}.{name} is gone"
