"""Public-API smoke tests: everything advertised in __all__ importable and
the README quickstart snippet runs."""

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version(self):
        assert repro.__version__ == "1.1.0"

    def test_key_classes_present(self):
        for name in (
            "FactoredParticleFilter",
            "NaiveParticleFilter",
            "CleaningPipeline",
            "WarehouseSimulator",
            "LabDeployment",
            "SmurfLocationEstimator",
            "UniformSampler",
            "SensingRegionIndex",
            "QueryEngine",
        ):
            assert hasattr(repro, name)


class TestQuickstartSnippet:
    def test_docstring_flow(self):
        from repro import (
            CleaningPipeline,
            FactoredParticleFilter,
            InferenceConfig,
            WarehouseConfig,
            WarehouseSimulator,
        )
        from repro.simulation import LayoutConfig

        sim = WarehouseSimulator(
            WarehouseConfig(layout=LayoutConfig(n_objects=3), seed=0)
        )
        trace = sim.generate()
        model = sim.world_model()
        engine = FactoredParticleFilter(
            model, InferenceConfig(reader_particles=40, object_particles=80)
        )
        events = CleaningPipeline(engine).run(trace.epochs())
        assert len(list(events)) >= 3
