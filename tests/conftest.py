import dataclasses
import time

import pytest

from crossphy import sim


@pytest.fixture(scope="session")
def acceptance_cfg():
    """The headline configuration: 32-byte payload, default offset, qam64."""
    return sim.ExperimentConfig(
        payload=bytes(range(32)),
        snr_db=(12.0, 8.0, 4.0, 0.0),
        trials=100,
        seed=0,
        epochs=300,
    )


@pytest.fixture(scope="session")
def trained_plan(acceptance_cfg):
    """Analog-mode trained frame plan; training wall time recorded."""
    cfg = dataclasses.replace(acceptance_cfg, quantizer_mode="trained",
                              emulation_mode="analog")
    t0 = time.time()
    plan = sim.plan_frame(cfg)
    plan.wall_seconds = time.time() - t0
    return plan


@pytest.fixture(scope="session")
def digital_plan(acceptance_cfg):
    cfg = dataclasses.replace(acceptance_cfg, quantizer_mode="trained",
                              emulation_mode="digital")
    return sim.plan_frame(cfg)


@pytest.fixture(scope="session")
def webee_plan(acceptance_cfg):
    cfg = dataclasses.replace(acceptance_cfg, quantizer_mode="webee")
    return sim.plan_frame(cfg)


@pytest.fixture(scope="session")
def nn_webee_plan(acceptance_cfg, trained_plan):
    """The webee rule with the trained plan's scales: a trained plan given
    that plan's model, the path of ``--model-file``."""
    cfg = dataclasses.replace(acceptance_cfg, quantizer_mode="trained")
    return sim.plan_frame(cfg, model=trained_plan.model)
