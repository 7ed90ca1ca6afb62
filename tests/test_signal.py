from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_stable_model
from ltpsid.errors import ConfigError, DataError, LengthNotDivisible, SingularMatrix
import ltpsid.signal as signal_module
from ltpsid.model import LtpModel, impulse_response, is_stable
from ltpsid.signal import (
    Ensemble,
    add_noise,
    assemble_spectra,
    collect_ensemble,
    derive_seed,
    dft_lifted,
    generate_periodic_input,
    lift_signal,
    simulate,
    simulate_steady_state,
)


def test_input_deterministic_given_seed():
    a = generate_periodic_input(2, 10, 1, seed=42)
    b = generate_periodic_input(2, 10, 1, seed=42)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (20, 1)


def test_input_moments_at_scale():
    x = generate_periodic_input(2, 50_000, 1, seed=5).ravel()
    assert -0.02 < x.mean() < 0.02
    assert 0.98 < x.var() < 1.02


def test_input_different_seeds_differ():
    a = generate_periodic_input(3, 4, 2, seed=1)
    b = generate_periodic_input(3, 4, 2, seed=2)
    assert np.any(a != b)


def test_simulate_impulse_gives_impulse_response(example1):
    u = np.zeros((12, 1))
    u[0, 0] = 1.0
    y = simulate(example1, u)
    assert y[0, 0] == 0.0
    for t in range(1, 12):
        np.testing.assert_allclose(
            y[t : t + 1].T, impulse_response(example1, t, t), atol=1e-13
        )


def test_simulate_zero_everything(example2):
    y = simulate(example2, np.zeros((9, 1)))
    assert np.all(y == 0)


def test_simulate_example1_impulse_hand_values(example1):
    u = np.zeros((4, 1))
    u[0, 0] = 1.0
    y = simulate(example1, u)
    assert y[1, 0] == 0.0  # C_1 is the zero row
    expected_y2 = (example1.C[0] @ example1.A[1] @ example1.B[0])[0, 0]
    np.testing.assert_allclose(y[2, 0], expected_y2, atol=1e-15)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_simulate_linearity(seed):
    m = random_stable_model(seed)
    rng = np.random.default_rng(seed + 1)
    u1 = rng.standard_normal((4 * m.P, m.nu))
    u2 = rng.standard_normal((4 * m.P, m.nu))
    a, b = 1.7, -0.4
    lhs = simulate(m, a * u1 + b * u2)
    rhs = a * simulate(m, u1) + b * simulate(m, u2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


@given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 5), J=st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_steady_state_periodic_under_extra_repetition(seed, N, J):
    m = random_stable_model(seed)
    patterns = np.random.default_rng(seed + 1).standard_normal((J, N * m.P, m.nu))
    kernel = signal_module._simulate_with_state
    final_states = []

    def recording_kernel(model, u, x0):
        y, x_end = kernel(model, u, x0)
        final_states.append(x_end)
        return y, x_end

    with mock.patch.object(signal_module, "_simulate_with_state", recording_kernel):
        stacked = simulate_steady_state(m, patterns)
    assert stacked.shape == (J, N * m.P, m.ny)
    for u, y, x_end in zip(patterns, stacked, final_states[-1]):
        # A stacked call matches the per-pattern call.
        np.testing.assert_allclose(simulate_steady_state(m, u), y, rtol=0, atol=1e-12)
        # One more repetition from the final state reproduces the outputs.
        again = simulate(m, u, x_end)
        np.testing.assert_allclose(again, y, rtol=0, atol=1e-10 * np.max(np.abs(y)))


def test_steady_state_memoryless_single_repetition():
    m = LtpModel(
        A=(np.zeros((1, 1)),), B=(np.ones((1, 1)),), C=(np.ones((1, 1)),)
    )
    pattern = generate_periodic_input(1, 5, 1, seed=9)
    # With A = 0 the steady-state output is the input delayed by one sample,
    # wrapping around the pattern.
    y = simulate_steady_state(m, pattern)
    np.testing.assert_array_equal(y, np.roll(pattern, 1, axis=0))


def test_steady_state_matches_direct_fixed_point(example1):
    # Oracle: solve (I - Phi) x* = f for the state at pattern start, where
    # Phi and f come from propagating the basis/zero state over one pattern.
    pattern = generate_periodic_input(2, 10, 1, seed=21)
    nx = example1.nx
    Phi = np.eye(nx)
    for t in range(pattern.shape[0]):
        Phi = example1.A_at(t) @ Phi
    x = np.zeros(nx)
    for t in range(pattern.shape[0]):
        x = example1.A_at(t) @ x + example1.B_at(t) @ pattern[t]
    x_star = np.linalg.solve(np.eye(nx) - Phi, x)
    y_exact = []
    xs = x_star.copy()
    for t in range(pattern.shape[0]):
        y_exact.append(example1.C_at(t) @ xs)
        xs = example1.A_at(t) @ xs + example1.B_at(t) @ pattern[t]
    y = simulate_steady_state(example1, pattern)
    np.testing.assert_allclose(y, np.array(y_exact), atol=1e-9)


def test_steady_state_near_unit_root_exactly_periodic():
    a = 1.0 - 1e-9
    m = LtpModel(A=(np.array([[a]]),), B=(np.ones((1, 1)),), C=(np.ones((1, 1)),))
    # Constant unit input: the fixed point of x -> a x + 1 is 1 / (1 - a).
    y = simulate_steady_state(m, np.ones((1, 1)))
    np.testing.assert_allclose(y, 1.0 / (1.0 - a), rtol=1e-12)
    # Starting from it, further repetitions stay on it.
    again = simulate(m, np.ones((30, 1)), x0=y[0])
    np.testing.assert_allclose(again, 1.0 / (1.0 - a), rtol=1e-12)


def test_steady_state_unstable_model_rejected():
    m = LtpModel(A=(np.array([[1.5]]),), B=(np.ones((1, 1)),), C=(np.ones((1, 1)),))
    with pytest.raises(ConfigError, match="not stable"):
        simulate_steady_state(m, np.ones((4, 1)))


def test_steady_state_near_unit_eigenvalue_message():
    # Stable, but over a 4-period pattern 1 - a^4 ~ 4e-15: I - Psi^4 is
    # singular to working precision without the model being unstable.
    m = LtpModel(
        A=(np.diag([1.0 - 1e-15, 0.5]),), B=(np.ones((2, 1)),), C=(np.ones((1, 2)),)
    )
    assert is_stable(m).stable
    with pytest.raises(SingularMatrix) as excinfo:
        simulate_steady_state(m, np.ones((4, 1)))
    message = str(excinfo.value)
    assert "not stable" not in message
    assert "condition number" in message and "within rounding of 1" in message


def test_steady_state_rejects_bad_length(example1):
    with pytest.raises(LengthNotDivisible):
        simulate_steady_state(example1, np.ones((5, 1)))


def test_add_noise_sigma_zero_unchanged():
    y = np.arange(12.0).reshape(6, 2)
    np.testing.assert_array_equal(add_noise(y, 0.0, seed=1), y)


def test_add_noise_variance_at_scale():
    y = np.zeros((100_000, 1))
    for sigma in (0.5, 2.0):
        w = add_noise(y, sigma, seed=13)
        assert 0.98 * sigma**2 < w.var() < 1.02 * sigma**2


def test_add_noise_independent_seeds_uncorrelated():
    y = np.zeros((10_000, 1))
    w1 = add_noise(y, 1.0, seed=derive_seed(0, 0, "noise")).ravel()
    w2 = add_noise(y, 1.0, seed=derive_seed(0, 1, "noise")).ravel()
    corr = np.corrcoef(w1, w2)[0, 1]
    assert abs(corr) < 0.02


def test_add_noise_ma1_variance_and_lag_correlation():
    theta = 0.6
    y = np.zeros((200_000, 1))
    w = add_noise(y, 1.0, seed=3, ma_theta=theta).ravel()
    assert 0.97 < w.var() < 1.03
    lag1 = np.corrcoef(w[1:], w[:-1])[0, 1]
    np.testing.assert_allclose(lag1, theta / (1 + theta**2), atol=0.01)


def test_collect_ensemble_example1_shapes(example1_norm):
    ens = collect_ensemble(example1_norm, J=20, N=50, sigma=1.0, master_seed=7)
    assert ens.J == 20
    assert all(e.length == 100 for e in ens.experiments)


def test_collect_ensemble_rank_requirement_boundary(example1_norm):
    with pytest.raises(ConfigError, match="P\\*n_u"):
        collect_ensemble(example1_norm, J=1, N=10, sigma=0.0, master_seed=0)


def test_collect_ensemble_noise_free_outputs_periodic(example1_norm):
    ens = collect_ensemble(example1_norm, J=2, N=6, sigma=0.0, master_seed=5)
    for exp in ens.experiments:
        # The steady state of the pattern played twice is the record twice.
        doubled = simulate_steady_state(example1_norm, np.concatenate([exp.u, exp.u]))
        assert np.max(np.abs(doubled - np.concatenate([exp.y, exp.y]))) < 1e-10


def test_collect_ensemble_unstable_model_rejected():
    m = LtpModel(A=(2 * np.eye(1),), B=(np.ones((1, 1)),), C=(np.ones((1, 1)),))
    with pytest.raises(ConfigError, match="stable"):
        collect_ensemble(m, J=1, N=4, sigma=0.0, master_seed=0)


def test_collect_ensemble_shared_input_switch(example1_norm):
    ens = collect_ensemble(
        example1_norm, J=3, N=4, sigma=0.0, master_seed=1, shared_input=True
    )
    for exp in ens.experiments[1:]:
        np.testing.assert_array_equal(exp.u, ens.experiments[0].u)


def test_collect_ensemble_deterministic(example2_norm):
    a = collect_ensemble(example2_norm, J=3, N=4, sigma=0.5, master_seed=9)
    b = collect_ensemble(example2_norm, J=3, N=4, sigma=0.5, master_seed=9)
    for ea, eb in zip(a.experiments, b.experiments):
        np.testing.assert_array_equal(ea.y, eb.y)


def test_derive_seed_roles_and_indices_distinct():
    seeds = {
        derive_seed(0, i, role) for i in range(50) for role in ("input", "noise")
    }
    assert len(seeds) == 100
    assert derive_seed(0, 3, "input") == derive_seed(0, 3, "input")


def test_lift_p1_identity():
    x = np.arange(8.0).reshape(8, 1)
    np.testing.assert_array_equal(lift_signal(x, 1), x)


def test_lift_p2_scalar_example():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    np.testing.assert_array_equal(lift_signal(x, 2), [[1.0, 2.0], [3.0, 4.0]])


def test_lift_rejects_bad_length():
    with pytest.raises(LengthNotDivisible):
        lift_signal(np.ones((7, 1)), 2)


def test_dft_constant_sequence():
    c = np.array([2.5, -1.0])
    x = np.tile(c, (6, 1))
    X = dft_lifted(x)
    np.testing.assert_allclose(X[0], 6 * c, atol=1e-12)
    np.testing.assert_allclose(X[1:], 0, atol=1e-12)


def test_dft_unit_sample_flat_spectrum():
    x = np.zeros((5, 1))
    x[0] = 3.0
    np.testing.assert_allclose(dft_lifted(x), 3.0, atol=1e-13)


def test_dft_matches_naive_summation():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((8, 2))
    X = dft_lifted(x)
    # Oracle: direct O(N^2) summation.
    naive = np.zeros((8, 2), dtype=complex)
    for k in range(8):
        for n in range(8):
            naive[k] += x[n] * np.exp(-2j * np.pi * n * k / 8)
    np.testing.assert_allclose(X, naive, atol=1e-10)


def test_dft_inverse_recovers_input():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((16, 3))
    np.testing.assert_allclose(np.fft.ifft(dft_lifted(x), axis=0).real, x, atol=1e-10)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_dft_parseval(seed):
    x = np.random.default_rng(seed).standard_normal((12, 2))
    X = dft_lifted(x)
    energy_time = np.sum(x**2)
    energy_freq = np.sum(np.abs(X) ** 2) / 12
    np.testing.assert_allclose(energy_freq, energy_time, rtol=1e-8)


def test_assemble_spectra_siso_single_experiment():
    m = random_stable_model(2, P=1, nx=1, ny=1, nu=1)
    ens = collect_ensemble(m, J=1, N=8, sigma=0.0, master_seed=4)
    spectra = assemble_spectra(ens)
    assert spectra.U.shape == (8, 1, 1)
    assert spectra.Y.shape == (8, 1, 1)


def test_assemble_spectra_example1_shapes(example1_norm):
    ens = collect_ensemble(example1_norm, J=20, N=50, sigma=1.0, master_seed=7)
    spectra = assemble_spectra(ens)
    assert spectra.U.shape == (50, 2, 20)
    assert spectra.Y.shape == (50, 2, 20)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_assemble_spectra_conjugate_symmetry(seed):
    m = random_stable_model(seed, P=2, nx=2, ny=1, nu=1)
    ens = collect_ensemble(m, J=2, N=6, sigma=0.3, master_seed=seed)
    spectra = assemble_spectra(ens)
    N = spectra.N
    for k in range(N):
        np.testing.assert_allclose(
            spectra.U[k], np.conj(spectra.U[(N - k) % N]), atol=1e-9
        )
        np.testing.assert_allclose(
            spectra.Y[k], np.conj(spectra.Y[(N - k) % N]), atol=1e-9
        )


def test_experiment_rejects_non_finite_samples():
    from ltpsid.signal import Experiment

    with pytest.raises(DataError, match="non-finite"):
        Experiment(u=np.ones((4, 1)), y=np.array([[0.0], [np.inf], [1.0], [2.0]]))
    with pytest.raises(DataError, match="non-finite"):
        Experiment(u=np.array([[np.nan], [0.0]]), y=np.ones((2, 1)))


def test_ensemble_rejects_mixed_lengths(example1):
    from ltpsid.signal import Experiment

    e1 = Experiment(u=np.ones((4, 1)), y=np.ones((4, 1)))
    e2 = Experiment(u=np.ones((6, 1)), y=np.ones((6, 1)))
    with pytest.raises(ConfigError):
        Ensemble(experiments=(e1, e2), P=2, N=2)
