import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from ltpsid import fixtures
from ltpsid.model import LtpModel, normalize_gain
from ltpsid.signal import Ensemble, collect_ensemble

# The property tests draw the same examples on every run and machine and replay no stored
# failure, so a tree's verdict does not depend on the draw. HYPOTHESIS_PROFILE=explore
# restores hypothesis's own defaults: fresh random examples and a database of failures.
settings.register_profile("explore", settings.get_profile("default"))
settings.register_profile("default", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def example1():
    return fixtures.example1()


@pytest.fixture(scope="session")
def example2():
    return fixtures.example2()


@pytest.fixture(scope="session")
def example1_norm():
    return normalize_gain(fixtures.example1())


@pytest.fixture(scope="session")
def example2_norm():
    return normalize_gain(fixtures.example2())


@pytest.fixture(scope="session")
def mimo_ensemble():
    """A 2x2 MIMO ensemble of period 12 at J = 48 and N = 200, for the memory tests."""
    model = random_stable_model(3, P=12, nx=6, ny=2, nu=2)
    return collect_ensemble(model, J=48, N=200, sigma=1.0, master_seed=5)


def traced_peak(fn, *args) -> int:
    """Peak bytes traced while ``fn(*args)`` runs, above the traced bytes at its start."""
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()


def random_stable_model(
    seed: int,
    P: int | None = None,
    nx: int | None = None,
    ny: int | None = None,
    nu: int | None = None,
    rho_max: float = 0.9,
) -> LtpModel:
    """Random LTP model rescaled so the monodromy spectral radius is below rho_max."""
    rng = np.random.default_rng(seed)
    P = P or int(rng.integers(1, 4))
    nx = nx or int(rng.integers(1, 4))
    ny = ny or int(rng.integers(1, 3))
    nu = nu or int(rng.integers(1, 3))
    A = [rng.uniform(-1, 1, (nx, nx)) for _ in range(P)]
    psi = np.eye(nx)
    for a in reversed(A):
        psi = psi @ a  # A_{P-1} ... A_0
    rho = max(np.abs(np.linalg.eigvals(psi)), default=0.0)
    if rho >= rho_max:
        scale = (rho_max / rho) ** (1.0 / P) * 0.99
        A = [a * scale for a in A]
    B = [rng.uniform(-1, 1, (nx, nu)) for _ in range(P)]
    C = [rng.uniform(-1, 1, (ny, nx)) for _ in range(P)]
    return LtpModel(A=tuple(A), B=tuple(B), C=tuple(C))


def impulse_series_oracle(model: LtpModel, t: int, lags: int) -> np.ndarray:
    """Impulse-response coefficients g^t_r for r = 1..lags by direct accumulation."""
    out = np.empty((lags, model.ny, model.nu))
    left = model.C[t % model.P]
    for r in range(1, lags + 1):
        out[r - 1] = left @ model.B[(t - r) % model.P]
        left = left @ model.A[(t - r) % model.P]
    return out


def with_shared_input(ens: Ensemble) -> Ensemble:
    """``ens`` with experiment 0's input in every experiment: a rank-one input spectrum."""
    return Ensemble(np.repeat(ens.u[:1], ens.J, 0), ens.y, ens.P, ens.N)


def assert_export_conjugate_symmetric(path, N: int) -> None:
    """Check the mirror of an exported ``response.csv`` on the text of its rows.

    The rows of grid point k and N-k hold the same entries, with the
    written ``imag`` negated. Grid points 0 and N/2 are their own mirror
    images, so their ``imag`` is written as ``0.0``.
    """
    by_k: dict[int, list[list[str]]] = {}
    for line in path.read_text().splitlines()[1:]:
        k, _, *entry = line.split(",")
        by_k.setdefault(int(k), []).append(entry)
    assert sorted(by_k) == list(range(N))
    own_mirror = [0, N // 2] if N % 2 == 0 else [0]
    for k in range(N):
        if k in own_mirror:
            assert {entry[-1] for entry in by_k[k]} == {"0.0"}
            continue
        mirrored = [
            entry[:-1] + [entry[-1][1:] if entry[-1][0] == "-" else "-" + entry[-1]]
            for entry in by_k[N - k]
        ]
        assert by_k[k] == mirrored
