"""A dispatch budget for ``FactoredParticleFilter.step``.

At the benchmark's shapes a filter step costs its Python-level calls, not
its arithmetic: every numpy wrapper (``np.clip``, ``np.repeat``,
``np.linalg.norm``, ``.sum()``) adds interpreter work to each of a few
dozen small-array kernels.  This counts calls per step with ``cProfile``
(``total_calls / steps``) on two seeded in-process scenarios and holds the
count under a ceiling, so a later change cannot quietly put the dispatch
back.

Measured with numpy 2.4 on CPython 3.11 (calls per step):

============================  ==========  ===========  =======
scenario                      before       after        ceiling
============================  ==========  ===========  =======
20 tags, 20/20 particles        440.3        222.3       245
200 tags, 100/100, index +      1136.4       634.6       698
compression
============================  ==========  ===========  =======

"before" is the filter ahead of the dispatch-lean rewrite of its per-epoch
kernels.  Each ceiling is the measured count plus 10 % (numpy versions
differ in how many Python frames a wrapper or dispatcher costs), and sits
below the budget the rewrite was held to: 0.65x and 0.8x of "before".
"""

import cProfile
import pstats

import pytest

from repro.config import InferenceConfig
from repro.inference.factored import FactoredParticleFilter
from repro.models.priors import config_for_sensor
from repro.simulation.layout import LayoutConfig
from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator

BEFORE = {"small": 440.3, "dense": 1136.4}
CEILING = {"small": 245, "dense": 698}
BUDGET = {"small": 0.65, "dense": 0.8}


def calls_per_step(n_objects, spacing_ft, particles, index_and_compression):
    simulator = WarehouseSimulator(
        WarehouseConfig(
            layout=LayoutConfig(
                n_objects=n_objects, object_spacing_ft=spacing_ft, n_shelf_tags=4
            ),
            seed=100,
        )
    )
    model = simulator.world_model()
    config = InferenceConfig(
        reader_particles=particles, object_particles=particles, seed=100
    )
    if index_and_compression:
        config = config.with_index().with_compression()
    engine = FactoredParticleFilter(model, config_for_sensor(config, model.sensor))
    epochs = simulator.generate().epochs()
    profile = cProfile.Profile()
    for epoch in epochs:
        profile.runcall(engine.step, epoch)
    return pstats.Stats(profile).total_calls / len(epochs)


@pytest.mark.parametrize(
    "scenario, shape",
    [("small", (20, 0.5, 20, False)), ("dense", (200, 0.2, 100, True))],
)
def test_calls_per_step_stay_under_the_ceiling(scenario, shape):
    assert CEILING[scenario] <= BUDGET[scenario] * BEFORE[scenario]
    calls = calls_per_step(*shape)
    assert calls <= CEILING[scenario], (
        f"{scenario}: {calls:.1f} Python-level calls per step, ceiling "
        f"{CEILING[scenario]} (before the rewrite: {BEFORE[scenario]})"
    )
