"""Shared fixtures and checks of the margin registry (`stepfdr.pvalue`)."""

import pytest

from stepfdr import pvalue


@pytest.fixture
def empty_registry(monkeypatch):
    """Give the margin registry no margins, chunks or made supports for one
    test, restored afterwards; the fixture's value empties it again."""
    def empty():
        for name, value in (("_margins", {}), ("_chunks", []), ("_made", ([], [])), ("_live", 0)):
            monkeypatch.setattr(pvalue, name, value)

    empty()
    return empty


def assert_registry_consistent():
    """Each chunk's flats start where the margins before it end, in made
    lists that every chunk shares, one entry per registered margin, and
    every live id (from since the last reset) names one of them."""
    margins = 0
    for chunk in pvalue._chunks:
        for flat, made in zip(chunk.flats, pvalue._made, strict=True):
            assert flat.base == margins and flat.made is made
        margins += chunk.cuts.size - 1
    assert [len(made) for made in pvalue._made] == [margins, margins]
    assert all(at - pvalue._live < margins for at in pvalue._margins.values())
