"""What the spatial index path is *not* allowed to cost.

The R*-tree does its node arithmetic on raw float bounds (no ``Box``
instances), detaching an object visits that object's regions only, and the
active-set selection never walks the known population.
"""

import numpy as np

from repro.config import SpatialIndexConfig
from repro.geometry.box import Box
from repro.inference.spatial import ActiveSetSelector
from repro.spatial.region_index import SensingRegionIndex
from repro.spatial.rtree import RStarTree, _bounds_of, _Entry, _sweep


def random_boxes(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        x, y, z = rng.uniform(0.0, 60.0, size=3)
        w, h, d = rng.uniform(0.1, 6.0, size=3)
        out.append(Box((x, y, z), (x + w, y + h, z + d)))
    return out


class TestBoxFreeTree:
    def test_tree_operations_construct_no_box(self, monkeypatch):
        boxes = random_boxes(500, seed=11)
        probes = random_boxes(200, seed=12)
        built = [0]
        validate = Box.__post_init__

        def counting(self):
            built[0] += 1
            validate(self)

        tree = RStarTree(max_entries=8)
        live = {}
        hits = []
        with monkeypatch.context() as patch:
            patch.setattr(Box, "__post_init__", counting)
            for k, box in enumerate(boxes):
                tree.insert(box, k)
                live[k] = box
            for k in range(0, 500, 5):
                assert tree.delete(live.pop(k), lambda value, k=k: value == k) == 1
            for probe in probes:
                hits.append(sorted(tree.search(probe)))
            entries = tree.search_entries(probes[0])
            Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        assert built[0] == 1  # only the one built above, to show the counter counts
        tree.check_invariants()
        assert len(tree) == 400
        for probe, found in zip(probes, hits):
            assert found == sorted(k for k, box in live.items() if box.intersects(probe))
        assert all(box is live[k] for box, k in entries)

    def test_sweep_bounds_equal_a_union_per_distribution(self):
        """The split's running prefix / suffix bounds are what a fresh union
        of each candidate distribution's two groups gives."""
        entries = [_Entry(box, k) for k, box in enumerate(random_boxes(17, seed=3))]
        prefix, suffix = _sweep(entries)
        for k in range(1, len(entries)):
            assert prefix[k - 1] == _bounds_of(entries[:k])
            assert suffix[k] == _bounds_of(entries[k:])


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
        assert set(state) == {"next_id", "regions"}
        assert all(set(rec) == {"id", "lo", "hi", "objects"} for rec in state["regions"])
        clone = SensingRegionIndex()
        clone.load_snapshot(state)
        clone.check_consistent()
        assert clone.remove_object(6) is True
        assert clone.case2_candidates(box_at(0.0)) == {5}
        assert clone.snapshot()["regions"][1]["objects"] == []

    def test_remove_object_visits_only_its_own_regions(self):
        index = SensingRegionIndex()
        for k in range(300):
            index.record(box_at(float(k)), [k])

        class Untouchable(set):
            def discard(self, _):
                raise AssertionError("a region the object is not attached to was visited")

            __contains__ = discard

        for region_id, (box, ids) in list(index._regions.items()):
            if 7 not in ids:
                index._regions[region_id] = (box, Untouchable(ids))
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
