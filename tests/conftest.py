"""Shared fixtures for the test suite.

Simulation-backed fixtures are deliberately tiny (few objects, short
traces, few particles) so the whole suite stays fast; the benchmark suite
owns the paper-scale runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import InferenceConfig
from repro.geometry.box import Box
from repro.geometry.shapes import ShelfRegion, ShelfSet
from repro.models.joint import RFIDWorldModel
from repro.models.motion import MotionParams
from repro.models.sensing import SensingNoiseParams
from repro.models.sensor import SensorParams
from repro.simulation.layout import LayoutConfig
from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def single_shelf():
    """One shelf box: x in [2, 3], y in [0, 8]."""
    return ShelfSet([ShelfRegion(0, Box((2.0, 0.0, 0.0), (3.0, 8.0, 0.0)))])


@pytest.fixture
def two_shelves():
    """Two parallel shelves mirrored across the aisle."""
    return ShelfSet(
        [
            ShelfRegion(0, Box((2.0, 0.0, 0.0), (3.0, 8.0, 0.0))),
            ShelfRegion(1, Box((-3.0, 0.0, 0.0), (-2.0, 8.0, 0.0))),
        ]
    )


@pytest.fixture
def small_model(single_shelf):
    """A joint model over the single shelf with known dynamics."""
    return RFIDWorldModel.build(
        single_shelf,
        shelf_tags={0: np.array([2.0, 1.0, 0.0]), 1: np.array([2.0, 7.0, 0.0])},
        sensor_params=SensorParams(a=(4.0, 0.0, -0.9), b=(0.0, -6.0)),
        motion_params=MotionParams(velocity=(0.0, 0.1, 0.0), sigma=(0.01, 0.01, 0.0)),
        sensing_params=SensingNoiseParams(mean=(0.0, 0.0, 0.0), sigma=(0.01, 0.01, 0.0)),
    )


@pytest.fixture
def fast_config():
    """Small particle counts: fast and still accurate on tiny scenes."""
    return InferenceConfig(reader_particles=60, object_particles=120, seed=7)


@pytest.fixture
def small_warehouse():
    """A 6-object warehouse simulator with the paper's default knobs."""
    return WarehouseSimulator(
        WarehouseConfig(
            layout=LayoutConfig(n_objects=6, n_shelf_tags=3),
            seed=11,
        )
    )


@pytest.fixture
def small_trace(small_warehouse):
    return small_warehouse.generate()


class CheckpointFiles:
    """Build and tamper with single-file checkpoints, byte by byte.

    Offsets follow ``repro.state.checkpoint``'s layout: preamble, JSON
    header, body (arrays then the query blob), SHA-256 trailer.
    """

    @staticmethod
    def write(path, header, body=b""):
        """Seal ``header`` + ``body`` into a well-formed checkpoint file."""
        import hashlib
        import json

        from repro.state.checkpoint import FORMAT_VERSION, MAGIC, PREAMBLE

        encoded = json.dumps(header).encode()
        content = PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(encoded), len(body))
        content += encoded + bytes(body)
        with open(path, "wb") as fp:
            fp.write(content + hashlib.sha256(content).digest())

    @staticmethod
    def sections(path):
        """``{section: (start, end)}`` byte ranges of a checkpoint file."""
        from repro.state.checkpoint import PREAMBLE, TRAILER_BYTES

        with open(path, "rb") as fp:
            _, _, header_bytes, body_bytes = PREAMBLE.unpack(fp.read(PREAMBLE.size))
        bounds = [0, PREAMBLE.size, PREAMBLE.size + header_bytes]
        bounds.append(bounds[-1] + body_bytes)
        bounds.append(bounds[-1] + TRAILER_BYTES)
        names = ("preamble", "header", "body", "trailer")
        return {name: (bounds[i], bounds[i + 1]) for i, name in enumerate(names)}

    @classmethod
    def edit_header(cls, path, mutate):
        """Apply ``mutate(header)`` and re-seal: lengths and digest stay
        consistent, so only the *meaning* of the header changed."""
        from repro.state import read_checkpoint_header

        header = read_checkpoint_header(path)
        start, end = cls.sections(path)["body"]
        with open(path, "rb") as fp:
            body = fp.read()[start:end]
        mutate(header)
        cls.write(path, header, body)

    @staticmethod
    def flip_bit(path, offset, bit=0):
        with open(path, "r+b") as fp:
            fp.seek(offset)
            byte = fp.read(1)[0]
            fp.seek(offset)
            fp.write(bytes([byte ^ (1 << bit)]))


@pytest.fixture(scope="session")
def checkpoint_files():
    return CheckpointFiles
