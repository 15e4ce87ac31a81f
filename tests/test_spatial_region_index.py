"""Tests for the sensing-region index (Section IV-C data structures)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError
from repro.geometry.box import Box
from repro.spatial.region_index import SensingRegionIndex


def region(x, y, size=2.0):
    return Box((x, y, 0.0), (x + size, y + size, 0.0))


class TestRecordAndQuery:
    def test_case2_from_overlapping_region(self):
        index = SensingRegionIndex()
        index.record(region(0, 0), [1, 2])
        index.record(region(10, 10), [3])
        hits = index.case2_candidates(region(1, 1))
        assert hits == {1, 2}

    def test_case2_union_over_regions(self):
        index = SensingRegionIndex()
        index.record(region(0, 0), [1])
        index.record(region(1, 1), [2])
        assert index.case2_candidates(region(0.5, 0.5)) == {1, 2}

    def test_no_overlap_no_candidates(self):
        index = SensingRegionIndex()
        index.record(region(0, 0), [1])
        assert index.case2_candidates(region(50, 50)) == set()

    def test_empty_region_recorded(self):
        index = SensingRegionIndex()
        index.record(region(0, 0), [])
        assert index.case2_candidates(region(0, 0)) == set()
        assert len(index) == 1

    def test_attach_extends_region(self):
        index = SensingRegionIndex()
        rid = index.record(region(0, 0), [1])
        index.attach(rid, [2, 3])
        assert index.case2_candidates(region(0, 0)) == {1, 2, 3}

    def test_attach_unknown_region_raises(self):
        index = SensingRegionIndex()
        with pytest.raises(GeometryError):
            index.attach(99, [1])

    def test_overlapping_regions_returns_pairs(self):
        index = SensingRegionIndex()
        index.record(region(0, 0), [1])
        out = index.overlapping_regions(region(0.5, 0.5))
        assert len(out) == 1
        box, ids = out[0]
        assert ids == frozenset({1})


class TestEviction:
    def test_max_regions_evicts_oldest(self):
        index = SensingRegionIndex(max_regions=3)
        for k in range(5):
            index.record(region(k * 10, 0), [k])
        assert len(index) == 3
        # Regions 0 and 1 evicted.
        assert index.case2_candidates(region(0, 0)) == set()
        assert index.case2_candidates(region(40, 0)) == {4}
        index.check_consistent()

    def test_max_regions_validation(self):
        with pytest.raises(GeometryError):
            SensingRegionIndex(max_regions=0)


class TestObjectRemoval:
    def test_remove_object_everywhere(self):
        index = SensingRegionIndex()
        index.record(region(0, 0), [1, 2])
        index.record(region(1, 1), [1])
        index.remove_object(1)
        assert index.case2_candidates(region(0, 0)) == {2}

    def test_objects_registered(self):
        index = SensingRegionIndex()
        index.record(region(0, 0), [1, 2])
        index.record(region(5, 5), [2, 7])
        assert index.objects_registered() == {1, 2, 7}


def test_consistency_over_mixed_workload():
    index = SensingRegionIndex(max_regions=16)
    for k in range(60):
        index.record(region((k * 3) % 30, (k * 7) % 20), [k, k + 1])
    index.check_consistent()
    assert len(index) == 16


# ---------------------------------------------------------------------------
# Overlap search: every region whose box meets the probe, and no other.  Each
# region gets its own object id, so the Case-2 set names the regions found.
# ---------------------------------------------------------------------------
def make_box(x, y, w, h):
    return Box((x, y, 0.0), (x + w, y + h, 0.0))


def brute_force_hits(entries, probe):
    return {k for box, k in entries if box.intersects(probe)}


def indexed(entries):
    index = SensingRegionIndex()
    for box, k in entries:
        index.record(box, [k])
    return index


class TestOverlapSearch:
    def test_empty_tree(self):
        index = SensingRegionIndex()
        assert len(index) == 0
        assert index.case2_candidates(make_box(0, 0, 1, 1)) == set()
        assert index.overlapping_regions(make_box(0, 0, 1, 1)) == []

    def test_insert_and_search_single(self):
        index = indexed([(make_box(0, 0, 1, 1), 7)])
        assert index.case2_candidates(make_box(0.5, 0.5, 1, 1)) == {7}
        assert index.case2_candidates(make_box(5, 5, 1, 1)) == set()
        [(box, ids)] = index.overlapping_regions(make_box(1, 1, 1, 1))  # touching
        assert box == make_box(0, 0, 1, 1) and ids == frozenset({7})

    def test_grid_inserts_and_queries(self):
        entries = [
            (make_box(i * 2.0, j * 2.0, 1.5, 1.5), i * 12 + j)
            for i in range(12)
            for j in range(12)
        ]
        index = indexed(entries)
        assert len(index) == 144
        probe = make_box(3.0, 3.0, 4.0, 4.0)
        assert index.case2_candidates(probe) == brute_force_hits(entries, probe)

    def test_duplicate_boxes_allowed(self):
        box = make_box(0, 0, 1, 1)
        index = indexed([(box, k) for k in range(20)])
        assert index.case2_candidates(box) == set(range(20))
        assert len(index.overlapping_regions(box)) == 20


boxes_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0.1, max_value=10),
        st.floats(min_value=0.1, max_value=10),
    ),
    min_size=1,
    max_size=120,
)


class TestOverlapProperties:
    @settings(max_examples=30, deadline=None)
    @given(boxes_strategy)
    def test_search_matches_brute_force(self, specs):
        entries = [(make_box(*spec), k) for k, spec in enumerate(specs)]
        probe = make_box(25, 25, 30, 30)
        assert indexed(entries).case2_candidates(probe) == brute_force_hits(entries, probe)

    @settings(max_examples=20, deadline=None)
    @given(boxes_strategy)
    def test_every_entry_findable_by_its_own_box(self, specs):
        index = indexed([(make_box(*spec), k) for k, spec in enumerate(specs)])
        for k, spec in enumerate(specs):
            assert k in index.case2_candidates(make_box(*spec))


# Operations over a small world: few objects and overlapping boxes, so
# attachments collide, removals hit several regions and eviction runs.
_corner = st.integers(min_value=0, max_value=12).map(float)
_objects = st.lists(st.integers(min_value=0, max_value=9), max_size=4)
_operation = st.one_of(
    st.tuples(st.just("record"), _corner, _corner, st.integers(0, 4).map(float), _objects),
    st.tuples(st.just("attach"), _objects),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=9)),
)


class TestIndexMatchesALoopOverLiveRegions:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_operation, max_size=40),
        st.lists(_operation, max_size=40),
        st.sampled_from([None, 1, 3, 8]),
    )
    def test_case2_candidates_equal_the_brute_force_union(self, before, after, max_regions):
        """Random record / attach / remove_object / eviction sequences with
        a snapshot -> load_snapshot round trip in the middle: the Case-2
        set is always the union over live regions whose ``Box`` overlaps."""
        index = SensingRegionIndex(max_regions=max_regions)
        live = {}  # the oracle: region id -> (box, objects), recording order

        def apply(operation):
            if operation[0] == "record":
                _, x, y, size, objects = operation
                box = make_box(x, y, size, size)
                live[index.record(box, objects)] = (box, set(objects))
                while max_regions is not None and len(live) > max_regions:
                    del live[next(iter(live))]
            elif operation[0] == "attach" and live:
                region_id = list(live)[-1]
                grew = not set(operation[1]) <= live[region_id][1]
                assert index.attach(region_id, operation[1]) is grew
                live[region_id][1].update(operation[1])
            elif operation[0] == "remove":
                attached = any(operation[1] in objects for _, objects in live.values())
                assert index.remove_object(operation[1]) is attached
                for _, objects in live.values():
                    objects.discard(operation[1])

        def agree():
            index.check_consistent()
            assert len(index) == len(live)
            for x in range(0, 16, 3):
                for y in range(0, 16, 3):
                    probe = make_box(float(x), float(y), 2.0, 2.0)
                    expected = set().union(
                        *(objects for box, objects in live.values() if box.intersects(probe))
                    )
                    assert index.case2_candidates(probe) == expected

        for operation in before:
            apply(operation)
        agree()
        restored = SensingRegionIndex(max_regions=max_regions)
        restored.load_snapshot(index.snapshot())
        index = restored
        agree()
        for operation in after:
            apply(operation)
        agree()
