"""What the spatial index path is *not* allowed to cost.

Detaching an object visits that object's regions only, a snapshot holds each
attachment once (both maps are rebuilt from its ``attached`` table), and the
active-set selection never walks the known population.
"""

import numpy as np

from repro.config import SpatialIndexConfig
from repro.geometry.box import Box
from repro.inference.spatial import ActiveSetSelector
from repro.spatial.region_index import SensingRegionIndex


def box_at(x):
    return Box((x, 0.0, 0.0), (x + 1.0, 1.0, 0.0))


class TestObjectRegionMap:
    def test_tracks_every_mutation(self):
        index = SensingRegionIndex(max_regions=4)
        first = index.record(box_at(0.0), [1, 2])
        index.record(box_at(2.0), [2, 3])
        assert index.attach(first, [3, 4]) is True
        assert index.attach(first, [3]) is False
        index.check_consistent()
        assert index.remove_object(2) is True
        assert index.remove_object(2) is False
        assert index.objects_registered() == {1, 3, 4}
        index.check_consistent()
        for k in range(4):  # evicts the first two regions
            index.record(box_at(10.0 + k), [k + 10, 3] if k == 0 else [k + 10])
        index.check_consistent()
        assert index.objects_registered() == {3, 10, 11, 12, 13}
        assert index.case2_candidates(box_at(0.0)) == set()

    def test_is_derived_not_snapshotted(self):
        index = SensingRegionIndex()
        index.record(box_at(0.0), [5, 6])
        index.record(box_at(0.5), [6])
        state = index.snapshot()
        assert set(state) == {"next_id", "regions", "attached"}
        assert set(state["regions"]) == {"ids", "lo", "hi"}
        assert set(state["attached"]) == {"ids", "counts", "regions"}
        np.testing.assert_array_equal(state["attached"]["ids"], [5, 6])
        np.testing.assert_array_equal(state["attached"]["regions"], [0, 0, 1])
        clone = SensingRegionIndex()
        clone.load_snapshot(state)
        clone.check_consistent()
        assert clone.remove_object(6) is True
        assert clone.case2_candidates(box_at(0.0)) == {5}
        again = clone.snapshot()
        np.testing.assert_array_equal(again["regions"]["ids"], [0, 1])  # region 1 stays
        np.testing.assert_array_equal(again["attached"]["ids"], [5])

    def test_remove_object_visits_only_its_own_regions(self):
        index = SensingRegionIndex()
        for k in range(300):
            index.record(box_at(float(k)), [k])

        class Untouchable(set):
            def discard(self, _):
                raise AssertionError("a region the object is not attached to was visited")

            __contains__ = discard

        for region_id, ids in list(index._objects.items()):
            if 7 not in ids:
                index._objects[region_id] = Untouchable(ids)
        assert index.remove_object(7) is True
        assert 7 not in index.objects_registered()


class TestSelectDoesNotWalkThePopulation:
    def test_known_objects_are_only_probed(self):
        class Population:
            """Answers membership; iterating or copying it is the bug."""

            def __init__(self, members):
                self._members = members

            def __contains__(self, number):
                return number in self._members

            def __len__(self):
                return 10**6

            def __iter__(self):
                raise AssertionError("select() walked the whole population")

        selector = ActiveSetSelector(SpatialIndexConfig(enabled=True))
        near = Box((0.0, 0.0, 0.0), (2.0, 2.0, 0.0))
        selector.record_region(near, [1, 2, 3])
        active = selector.select({9}, Population({2, 3, 9}), near)
        assert active == {2, 3, 9}
        assert selector.select({9}, Population({2, 3, 9}), None) == {9}
