"""Cylinder events: construction, matching, label round-trips."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinbond.cylinders import CylinderEvent, parse_cylinder_label


def test_construction_and_matching():
    cyl = CylinderEvent.of(sites={0: 1, 2: -1}, edges={1: -1})
    sites = np.array([1, 1, -1], dtype=np.int8)
    assert cyl.matches(sites, np.array([1, -1], dtype=np.int8))
    assert not cyl.matches(sites, np.array([1, 1], dtype=np.int8))
    assert not cyl.matches(-sites, np.array([1, -1], dtype=np.int8))


def test_full_event_matches_everything():
    cyl = CylinderEvent.of()
    assert cyl.label() == "full"
    assert cyl.matches(np.array([1], dtype=np.int8), np.array([], dtype=np.int8))


def test_bad_signs_rejected():
    with pytest.raises(ValueError):
        CylinderEvent.of(sites={0: 0})
    with pytest.raises(ValueError):
        CylinderEvent.of(edges={0: 2})


def test_label_round_trip_examples():
    cyl = CylinderEvent.of(sites={3: 1}, edges={0: -1})
    assert cyl.label() == "site3=+1&edge0=-1"
    assert parse_cylinder_label(cyl.label()) == cyl
    assert parse_cylinder_label("full") == CylinderEvent.of()


def test_parse_rejects_garbage():
    for bad in ("", "site", "site0=2", "edge0=+1&edge0=-1", "vertex0=+1", "site0"):
        with pytest.raises(ValueError):
            parse_cylinder_label(bad)


@given(
    sites=st.dictionaries(st.integers(0, 30), st.sampled_from([-1, 1]), max_size=5),
    edges=st.dictionaries(st.integers(0, 30), st.sampled_from([-1, 1]), max_size=5),
)
def test_label_round_trip_property(sites, edges):
    cyl = CylinderEvent.of(sites=sites, edges=edges)
    assert parse_cylinder_label(cyl.label()) == cyl
