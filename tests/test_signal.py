import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import impulse_series_oracle, random_stable_model
from ltpsid.errors import ConfigError, DataError, LengthNotDivisible, SingularMatrix
from ltpsid.model import LiftedFrequencyResponse, LtpModel, is_stable
from ltpsid.signal import (
    Ensemble,
    collect_ensemble,
    INPUT_STREAM,
    NOISE_STREAM,
    _generators,
    derive_seed,
    simulate_steady_state,
)
from oracles import add_ma_noise, add_noise, generate_periodic_input, ma_ensemble, simulate


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
            y[t : t + 1].T, impulse_series_oracle(example1, t, t)[t - 1], atol=1e-13
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


def _fixed_point_state(model, pattern):
    # Oracle: solve (I - Phi) x* = x_T for the state at pattern start, where
    # Phi and x_T come from stepping the basis and the zero state over one
    # pattern sample by sample.
    Phi = np.eye(model.nx)
    x = np.zeros(model.nx)
    for t in range(pattern.shape[0]):
        Phi = model.A[t % model.P] @ Phi
        x = model.A[t % model.P] @ x + model.B[t % model.P] @ pattern[t]
    return np.linalg.solve(np.eye(model.nx) - Phi, x)


@given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 5), J=st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_steady_state_periodic_under_extra_repetition(seed, N, J):
    m = random_stable_model(seed)
    patterns = np.random.default_rng(seed + 1).standard_normal((J, N * m.P, m.nu))
    stacked = simulate_steady_state(m, patterns)
    assert stacked.shape == (J, N * m.P, m.ny)
    for u, y in zip(patterns, stacked):
        # A stacked call matches the per-pattern call.
        np.testing.assert_allclose(simulate_steady_state(m, u), y, rtol=0, atol=1e-12)
        # From the fixed point, two repetitions reproduce the outputs twice.
        again = simulate(m, np.concatenate([u, u]), _fixed_point_state(m, u))
        np.testing.assert_allclose(
            again, np.concatenate([y, y]), rtol=0, atol=1e-10 * np.max(np.abs(y))
        )


@given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 4), J=st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_steady_state_matches_long_transient(seed, N, J):
    # The lifted steady state against the last repetition of a transient
    # run from the zero state, long enough for the start to die out.
    m = random_stable_model(seed, rho_max=0.9)
    patterns = np.random.default_rng(seed + 1).standard_normal((J, N * m.P, m.nu))
    rho = max(is_stable(m).spectral_radius, 1e-6)
    reps = int(np.ceil(np.log(1e-14) / (N * np.log(rho)))) + 1
    stacked = simulate_steady_state(m, patterns)
    for u, y in zip(patterns, stacked):
        transient = simulate(m, np.tile(u, (reps, 1)))
        np.testing.assert_allclose(
            transient[-N * m.P :], y, rtol=0, atol=1e-9 * np.max(np.abs(y))
        )


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
    pattern = generate_periodic_input(2, 10, 1, seed=21)
    xs = _fixed_point_state(example1, pattern)
    y_exact = []
    for t in range(pattern.shape[0]):
        y_exact.append(example1.C[t % example1.P] @ xs)
        xs = example1.A[t % example1.P] @ xs + example1.B[t % example1.P] @ pattern[t]
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


def test_steady_state_refuses_patterns_of_the_wrong_shape(example1):
    with pytest.raises(ConfigError, match=r"patterns must have shape \(T, n_u\) or \(J, T, n_u\)"):
        simulate_steady_state(example1, np.ones(4))
    with pytest.raises(ConfigError, match="input has 2 channels, model expects 1"):
        simulate_steady_state(example1, np.ones((4, 2)))


def test_steady_state_unstable_model_rejected():
    # On every call: a failed stability check leaves nothing in the model's memo.
    m = LtpModel(A=(np.array([[1.5]]),), B=(np.ones((1, 1)),), C=(np.ones((1, 1)),))
    for _ in range(2):
        with pytest.raises(ConfigError, match="not stable"):
            simulate_steady_state(m, np.ones((4, 1)))
    assert ("resolvent", 4) not in m._memo


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


@pytest.mark.parametrize("a, raises", [(1e-13, False), (1e-15, True)])
def test_steady_state_resolvent_verdict_a_decade_either_side_of_cond_1e14(a, raises):
    # P = N = 1 and A = diag(1 - a, 0): I - Psi^N = diag(~a, 1) has 1-norm
    # condition number ~1/a, and the model is stable, so only the bound decides.
    m = LtpModel(A=(np.diag([1.0 - a, 0.0]),), B=(np.ones((2, 1)),), C=(np.ones((1, 2)),))
    assert is_stable(m).stable
    np.testing.assert_allclose(np.linalg.cond(np.eye(2) - m.A[0], 1), 1 / a, rtol=0.2)
    if raises:
        with pytest.raises(SingularMatrix, match="condition number"):
            simulate_steady_state(m, np.ones((1, 1)))
    else:
        assert np.all(np.isfinite(simulate_steady_state(m, np.ones((1, 1)))))


def test_steady_state_rejects_bad_length(example1):
    with pytest.raises(LengthNotDivisible):
        simulate_steady_state(example1, np.ones((5, 1)))


@pytest.mark.parametrize("shape", [(0, 1), (3, 0, 1), (0, 4, 1)])
def test_steady_state_rejects_empty_patterns(example1, shape):
    with pytest.raises(ConfigError, match="at least one sample"):
        simulate_steady_state(example1, np.zeros(shape))


def test_add_noise_sigma_zero_unchanged():
    y = np.arange(12.0).reshape(6, 2)
    np.testing.assert_array_equal(add_noise(y, 0.0, seed=1), y)


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -1.0])
def test_add_noise_rejects_sigma_not_finite_nonnegative(example1_norm, sigma):
    with pytest.raises(ConfigError, match="sigma must be a finite number >= 0"):
        add_noise(np.zeros((4, 1)), sigma, seed=1)
    with pytest.raises(ConfigError, match="sigma must be a finite number"):
        collect_ensemble(example1_norm, J=2, N=4, sigma=sigma, master_seed=0)


def test_collect_ensemble_checks_sigma_before_any_work():
    # The sigma check comes before the stability check of the simulation.
    unstable = LtpModel(A=(2 * np.eye(1),), B=(np.ones((1, 1)),), C=(np.ones((1, 1)),))
    with pytest.raises(ConfigError, match="sigma must be a finite number >= 0, got nan"):
        collect_ensemble(unstable, J=1, N=4, sigma=np.nan, master_seed=0)


def test_add_noise_variance_at_scale():
    y = np.zeros((100_000, 1))
    for sigma in (0.5, 2.0):
        w = add_noise(y, sigma, seed=13)
        assert 0.98 * sigma**2 < w.var() < 1.02 * sigma**2


def test_add_noise_independent_seeds_uncorrelated():
    y = np.zeros((10_000, 1))
    w1 = add_noise(y, 1.0, seed=derive_seed(0, 0, NOISE_STREAM)).ravel()
    w2 = add_noise(y, 1.0, seed=derive_seed(0, 1, NOISE_STREAM)).ravel()
    corr = np.corrcoef(w1, w2)[0, 1]
    assert abs(corr) < 0.02


def test_add_noise_ma1_variance_and_lag_correlation():
    theta = 0.6
    y = np.zeros((200_000, 1))
    w = add_ma_noise(y, 1.0, seed=3, theta=theta).ravel()
    assert 0.97 < w.var() < 1.03
    lag1 = np.corrcoef(w[1:], w[:-1])[0, 1]
    np.testing.assert_allclose(lag1, theta / (1 + theta**2), atol=0.01)


def test_ma_ensemble_at_theta_zero_is_collect_ensemble(example2_norm):
    # The coloured-noise oracle draws from the same noise seeds as the pipeline.
    white = collect_ensemble(example2_norm, J=6, N=10, sigma=0.7, master_seed=4)
    oracle = ma_ensemble(example2_norm, J=6, N=10, sigma=0.7, master_seed=4, theta=0.0)
    np.testing.assert_array_equal(oracle.u, white.u)
    np.testing.assert_array_equal(oracle.y, white.y)
    assert (oracle.sigma, oracle.noise_seeds) == (white.sigma, white.noise_seeds)


def test_collect_ensemble_example1_shapes(example1_norm):
    ens = collect_ensemble(example1_norm, J=20, N=50, sigma=1.0, master_seed=7)
    assert ens.J == 20
    assert ens.u.shape == (20, 100, 1) and ens.y.shape == (20, 100, 1)


def test_collect_ensemble_rank_requirement_boundary(example1_norm):
    with pytest.raises(ConfigError, match="P\\*n_u"):
        collect_ensemble(example1_norm, J=1, N=10, sigma=0.0, master_seed=0)


def test_collect_ensemble_noise_free_outputs_periodic(example1_norm):
    ens = collect_ensemble(example1_norm, J=2, N=6, sigma=0.0, master_seed=5)
    for u, y in zip(ens.u, ens.y):
        # The steady state of the pattern played twice is the record twice.
        doubled = simulate_steady_state(example1_norm, np.concatenate([u, u]))
        assert np.max(np.abs(doubled - np.concatenate([y, y]))) < 1e-10


def test_collect_ensemble_unstable_model_rejected():
    m = LtpModel(A=(2 * np.eye(1),), B=(np.ones((1, 1)),), C=(np.ones((1, 1)),))
    for _ in range(2):
        with pytest.raises(ConfigError, match="stable"):
            collect_ensemble(m, J=1, N=4, sigma=0.0, master_seed=0)


def test_collect_ensemble_deterministic(example2_norm):
    # The first call on a newly built model fills its memo; a later call reads it.
    # Both give the ensemble of the shared fixture, bit for bit.
    model = LtpModel(A=example2_norm.A, B=example2_norm.B, C=example2_norm.C)
    a = collect_ensemble(model, J=3, N=4, sigma=0.5, master_seed=9)
    assert {"lift_model", ("resolvent", 4)} <= model._memo.keys()
    for other in (model, example2_norm):
        b = collect_ensemble(other, J=3, N=4, sigma=0.5, master_seed=9)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.y, b.y)


_MASTERS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**100, 2**200 + 7] + [
    int(m) for m in np.random.default_rng(31).integers(0, 2**64, 200, dtype=np.uint64)
]


def _seed_sequence(*entropy):
    return int(np.random.SeedSequence(list(entropy)).generate_state(1, np.uint64)[0])


def test_derive_seed_equals_seed_sequence_bit_for_bit():
    for master in _MASTERS:
        for indices in [(), (0,), (7,), (2**32 - 1,), (3, INPUT_STREAM), (3, NOISE_STREAM)]:
            seed = derive_seed(master, *indices)
            assert type(seed) is int and seed == _seed_sequence(master, *indices)
        grid = derive_seed(master, np.arange(5)[:, None], [INPUT_STREAM, NOISE_STREAM])
        assert grid.shape == (5, 2) and grid.dtype == np.uint64
        expected = [[_seed_sequence(master, i, s) for s in (0, 1)] for i in range(5)]
        assert grid.tolist() == expected


def test_derive_seed_single_entry_batch_keeps_its_array_type():
    # A batch of one skips the batched hash; it still returns a uint64 array of its shape.
    for master in _MASTERS[:20]:
        for indices in [(np.arange(1),), (np.array([[7]]),), ([3], [NOISE_STREAM])]:
            seeds = derive_seed(master, *indices)
            assert type(seeds) is np.ndarray and seeds.dtype == np.uint64
            assert seeds.shape == np.broadcast_shapes(*(np.shape(i) for i in indices))
            expected = [_seed_sequence(master, *(int(np.ravel(i)[0]) for i in indices))]
            assert seeds.ravel().tolist() == expected


@pytest.mark.parametrize(
    "master, indices, needle",
    [(-3, (0,), "master seed must be >= 0, got -3"),
     (0, (-1,), r"seed indices must lie in 0..2\*\*32-1"),
     (0, (2**32, 0), r"seed indices must lie in 0..2\*\*32-1"),
     (0, (np.array([0, 2**32]),), r"seed indices must lie in 0..2\*\*32-1")],
)
def test_derive_seed_rejects_negative_master_and_wide_indices(master, indices, needle):
    with pytest.raises(ConfigError, match=needle):
        derive_seed(master, *indices)


@pytest.mark.parametrize("master", [2.5, np.nan, "7", True, None])
def test_derive_seed_rejects_a_master_that_is_not_an_integer(example1_norm, master):
    # Without the check 2.5 seeds as 2, True as 1 and "7" as 7.
    with pytest.raises(ConfigError, match="master seed must be an integer"):
        derive_seed(master, 0)
    with pytest.raises(ConfigError, match="master seed must be an integer"):
        collect_ensemble(example1_norm, J=2, N=4, sigma=0.0, master_seed=master)


def test_derive_seed_takes_numpy_integer_masters():
    for master in (np.uint64(5), np.int32(5)):
        assert derive_seed(master) == derive_seed(5)
        assert derive_seed(master, np.arange(3)).tolist() == derive_seed(5, np.arange(3)).tolist()


@pytest.mark.parametrize("index", [2.5, True, np.nan, np.array([0.0, 1.0]), [0, 1.5], "3"])
def test_derive_seed_rejects_an_index_that_is_not_an_integer(index):
    # Without the check 2.5 seeds as 2, True as 1, and NaN as whatever the cast gives.
    with pytest.raises(ConfigError, match="seed indices must be integers"):
        derive_seed(0, index)
    with pytest.raises(ConfigError, match="seed indices must be integers"):
        derive_seed(0, np.arange(2)[:, None], index)


def test_derive_seed_takes_numpy_integer_indices():
    for index in (np.uint32(2), np.int8(2), np.array(2, dtype=np.uint64)):
        assert derive_seed(0, index) == derive_seed(0, 2)


def test_collect_ensemble_rejects_negative_master_seed(example1_norm):
    with pytest.raises(ConfigError, match="master seed must be >= 0, got -3"):
        collect_ensemble(example1_norm, J=2, N=4, sigma=0.0, master_seed=-3)


def test_generators_equal_default_rng_bit_for_bit():
    seeds = [0, 2**32 - 1, 2**32, 2**64 - 1] + [
        int(s) for s in np.random.default_rng(37).integers(0, 2**64, 496, dtype=np.uint64)
    ]
    for seed, rng in zip(seeds, _generators(seeds), strict=True):
        reference = np.random.default_rng(seed)
        assert rng.bit_generator.state == reference.bit_generator.state
        np.testing.assert_array_equal(rng.standard_normal(16), reference.standard_normal(16))


@pytest.mark.parametrize("sigma", [0.0, 1.0])
@pytest.mark.parametrize("model_name", ["example1", "example2", "random_p12_mimo"])
def test_collect_ensemble_equals_per_experiment_recipe(request, model_name, sigma):
    # The batched ensemble is the per-experiment reference recipe bit for bit:
    # an input from each input seed, the steady state, noise from each noise seed.
    if model_name == "random_p12_mimo":
        model = random_stable_model(12, P=12, nx=4, ny=2, nu=2)
    else:
        model = request.getfixturevalue(model_name + "_norm")
    N = 6
    for J in (model.P * model.nu, 10 * model.P):
        ens = collect_ensemble(model, J=J, N=N, sigma=sigma, master_seed=2024 + J)
        input_seeds = tuple(_seed_sequence(2024 + J, i, INPUT_STREAM) for i in range(J))
        noise_seeds = tuple(_seed_sequence(2024 + J, i, NOISE_STREAM) for i in range(J))
        u = np.stack([generate_periodic_input(model.P, N, model.nu, s) for s in input_seeds])
        y = simulate_steady_state(model, u)
        y = np.stack([add_noise(y_i, sigma, s) for y_i, s in zip(y, noise_seeds)])
        assert (ens.input_seeds, ens.noise_seeds) == (input_seeds, noise_seeds)
        np.testing.assert_array_equal(ens.u, u)
        np.testing.assert_array_equal(ens.y, y)


def test_derive_seed_roles_and_indices_distinct():
    seeds = {
        derive_seed(0, i, stream) for i in range(50) for stream in (INPUT_STREAM, NOISE_STREAM)
    }
    assert len(seeds) == 100
    assert derive_seed(0, 3, INPUT_STREAM) == derive_seed(0, 3, INPUT_STREAM)


def test_lifted_frequency_response_rejects_wrong_grid_length():
    # The response is held on the half grid k = 0..N//2 of the lifted spectra.
    G = np.zeros((5, 4, 2), dtype=complex)
    for N in (8, 9):
        assert LiftedFrequencyResponse(P=2, N=N, ny=2, nu=1, G=G).N == N
    for N in (7, 10):
        with pytest.raises(ConfigError, match=r"\(N//2\+1, P\*ny, P\*nu\)"):
            LiftedFrequencyResponse(P=2, N=N, ny=2, nu=1, G=G)
    with pytest.raises(ConfigError, match=r"got \(5, 4, 2\)"):
        LiftedFrequencyResponse(P=2, N=8, ny=1, nu=1, G=G)


def test_experiment_rejects_non_finite_samples():
    with pytest.raises(DataError, match="non-finite"):
        Ensemble(u=np.ones((1, 4, 1)), y=np.array([[[0.0], [np.inf], [1.0], [2.0]]]), P=1, N=4)
    with pytest.raises(DataError, match="non-finite"):
        Ensemble(u=np.array([[[np.nan], [0.0]]]), y=np.ones((1, 2, 1)), P=1, N=2)


def test_ensemble_seeds_one_per_experiment():
    ens = Ensemble(u=np.ones((2, 4, 1)), y=np.ones((2, 4, 1)), P=2, N=2)
    assert ens.input_seeds == ens.noise_seeds == (None, None)
    with pytest.raises(ConfigError, match="expected J=2"):
        Ensemble(u=np.ones((2, 4, 1)), y=np.ones((2, 4, 1)), P=2, N=2, input_seeds=(1,))


@pytest.mark.parametrize(
    "u_shape, y_shape", [((0, 4, 1), (0, 4, 1)), ((6, 4, 0), (6, 4, 1)), ((6, 4, 1), (6, 4, 0))],
    ids=["J-0", "nu-0", "ny-0"],
)
def test_ensemble_refuses_an_empty_dimension(u_shape, y_shape):
    # As a model refuses an empty matrix: a CSV cannot hold zero channels either.
    with pytest.raises(ConfigError, match="u and y must have no empty dimension"):
        Ensemble(u=np.ones(u_shape), y=np.ones(y_shape), P=2, N=2)


def test_ensemble_rejects_mixed_lengths(example1):
    with pytest.raises(ConfigError, match="expected N\\*P=4"):
        Ensemble(u=np.ones((2, 6, 1)), y=np.ones((2, 6, 1)), P=2, N=2)
    with pytest.raises(ConfigError, match="must have shapes"):
        Ensemble(u=np.ones((2, 4, 1)), y=np.ones((2, 6, 1)), P=2, N=2)
