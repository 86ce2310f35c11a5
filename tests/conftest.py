import numpy as np
import pytest

from fastgate.chain import TrapConfig, build_chain


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="run slow full-scale optimisation checks",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(scope="session")
def chain2():
    return build_chain(TrapConfig(num_ions=2))


@pytest.fixture(scope="session")
def chain5():
    return build_chain(TrapConfig(num_ions=5))


@pytest.fixture(scope="session")
def chain20():
    return build_chain(TrapConfig(num_ions=20))


@pytest.fixture(scope="session")
def small_chains():
    """Chains for N = 2..10, shared across randomized consistency tests."""
    return {n: build_chain(TrapConfig(num_ions=n)) for n in range(2, 11)}


def random_half_sequence(rng, max_groups=8, max_size=5, gate_time_range=(0.5e-6, 1.5e-6)):
    """Random antisymmetric half-specification (sizes, times, gate time)."""
    d = int(rng.integers(2, max_groups + 1))
    sizes = rng.integers(-max_size, max_size + 1, size=d)
    gate_time = float(rng.uniform(*gate_time_range))
    while True:
        times = np.sort(rng.uniform(0.02 * gate_time, 0.5 * gate_time, size=d))
        if np.all(np.diff(times) > 1e-9):
            break
    return [int(v) for v in sizes], [float(t) for t in times], gate_time
