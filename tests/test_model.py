import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_export_conjugate_symmetric, impulse_series_oracle, random_stable_model
from ltpsid.errors import (
    ConfigError,
    DegenerateGain,
    DimensionMismatch,
    SingularMatrix,
    UnstableEstimate,
)
from ltpsid.evaluation import fit_metric
from ltpsid.fileio import export_frequency_response
from ltpsid.model import (
    LtpModel,
    _inverse_of_identity_minus,
    dc_gain,
    impulse_table,
    is_stable,
    lift_model,
    markov_rows,
    normalize_gain,
)
from ltpsid.signal import collect_ensemble, simulate_steady_state
from ltpsid.subspace import estimate_B, identify
from oracles import aliased_impulse_response_true, monodromy, true_lifted_frequency_response


def test_validate_example1_ok(example1):
    assert (example1.P, example1.nx, example1.ny, example1.nu) == (2, 2, 1, 1)


def test_validate_wrong_B_shape():
    with pytest.raises(DimensionMismatch, match=r"B\[1\]"):
        LtpModel(
            A=(np.eye(2), np.eye(2)),
            B=(np.ones((2, 1)), np.ones((1, 1))),
            C=(np.ones((1, 2)), np.ones((1, 2))),
        )


def test_validate_p1_lti_ok():
    m = LtpModel(A=(np.eye(3),), B=(np.ones((3, 2)),), C=(np.ones((1, 3)),))
    assert m.P == 1


def test_validate_zero_state_order_refused():
    # n_x, n_y and n_u are >= 1: a model with no state is refused, not called stable.
    with pytest.raises(DimensionMismatch, match=r"^A\[0\] must be a 2-D matrix with no empty "
                       r"dimension, got shape \(0, 0\)$"):
        LtpModel(A=(np.zeros((0, 0)),), B=(np.zeros((0, 1)),), C=(np.zeros((1, 0)),))


def test_validate_empty_sequences_refused():
    with pytest.raises(ConfigError, match=r"model needs at least one set of matrices \(P >= 1\)"):
        LtpModel(A=(), B=(), C=())


def test_validate_unequal_sequence_lengths():
    with pytest.raises(ConfigError, match="length"):
        LtpModel(A=(np.eye(1), np.eye(1)), B=(np.ones((1, 1)),), C=(np.ones((1, 1)),))


def test_monodromy_example2_hand_product(example2):
    # Oracle: plain ordered multiplication of the stored matrices.
    expected = example2.A[2] @ example2.A[1] @ example2.A[0]
    psi = monodromy(example2, 0)
    np.testing.assert_allclose(psi, expected, atol=1e-14)
    # Upper triangular with diagonal (3*0.2*1, 1*0.4*2).
    assert psi[1, 0] == 0.0
    np.testing.assert_allclose(np.diag(psi), [0.6, 0.8], atol=1e-14)


def test_monodromy_p1_is_single_matrix():
    m = random_stable_model(3, P=1)
    for t in (-3, 0, 5):
        np.testing.assert_array_equal(monodromy(m, t), m.A[0])


def test_monodromy_example1_stable_eigensolve(example1):
    psi = example1.A[1] @ example1.A[0]  # oracle product
    moduli = np.abs(np.linalg.eigvals(psi))
    assert np.all(moduli < 1)
    np.testing.assert_allclose(monodromy(example1, 0), psi, atol=1e-15)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_monodromy_eigenvalues_invariant_in_t(seed):
    m = random_stable_model(seed)
    ref = np.sort_complex(np.linalg.eigvals(monodromy(m, 0)))
    for t in range(1, m.P):
        eigs = np.sort_complex(np.linalg.eigvals(monodromy(m, t)))
        np.testing.assert_allclose(eigs, ref, atol=1e-10)


def test_is_stable_example2(example2):
    verdict = is_stable(example2)
    assert verdict.stable
    np.testing.assert_allclose(verdict.spectral_radius, 0.8, atol=1e-12)


def test_is_stable_example1(example1):
    # Frozen from the eigensolve of A_1 @ A_0.
    verdict = is_stable(example1)
    assert verdict.stable
    np.testing.assert_allclose(verdict.spectral_radius, 0.26264612898908346, atol=1e-10)


@pytest.mark.parametrize("P", [1, 2, 3])
def test_is_stable_scaled_identity_unstable(P):
    m = LtpModel(
        A=tuple(2.0 * np.eye(2) for _ in range(P)),
        B=tuple(np.ones((2, 1)) for _ in range(P)),
        C=tuple(np.ones((1, 2)) for _ in range(P)),
    )
    verdict = is_stable(m)
    assert not verdict.stable
    np.testing.assert_allclose(verdict.spectral_radius, 2.0**P, rtol=1e-12)


def _verdicts(A, B, C) -> tuple[bool, bool, bool]:
    """Whether is_stable, simulate_steady_state and estimate_B each accept the stacks."""
    model = LtpModel(A=tuple(A), B=tuple(B), C=tuple(C))
    try:
        simulate_steady_state(model, np.zeros((model.P, model.nu)))
        simulated = True
    except ConfigError as exc:
        assert "not stable" in str(exc)
        simulated = False
    try:
        h = np.zeros((model.P, 4 * model.P, model.ny, model.nu))
        estimate_B(np.asarray(model.A), np.asarray(model.C), h)
        fitted = True
    except UnstableEstimate:
        fitted = False
    return is_stable(model).stable, simulated, fitted


def test_the_aliasing_resolvent_raises_each_callers_error_and_message():
    # One resolvent owner serves the steady-state simulation and the B fit; each keeps
    # its own error class and message, and a refused model memoizes no resolvent.
    model = LtpModel(A=(np.array([[2.0]]),), B=(np.ones((1, 1)),), C=(np.ones((1, 1)),))
    with pytest.raises(ConfigError, match=r"^model is not stable \(spectral radius 2\.0000\); "
                       r"steady-state data collection requires stability$"):
        simulate_steady_state(model, np.zeros((1, 1)))
    assert ("resolvent", 1) not in model._memo
    with pytest.raises(UnstableEstimate, match=r"^estimated monodromy has spectral radius "
                       r"2\.0000 >= 1; cannot form the aliasing resolvent$"):
        estimate_B(np.asarray(model.A), np.asarray(model.C), np.zeros((1, 4, 1, 1)))


def _transformed(A, B, C, T, kb, kc):
    """The stacks under A_t -> T_{t+1} A_t T_t^-1, and with B, C rescaled by 10^kb, 10^kc."""
    T_next, T_inv = np.roll(T, -1, axis=0), np.linalg.inv(T)
    return [(T_next @ A @ T_inv, T_next @ B, C @ T_inv), (A, 10.0**kb * B, 10.0**kc * C)]


@given(
    seed=st.integers(0, 2**32 - 1),
    rho=st.sampled_from([0.3, 0.9, 0.99, 1.01, 1.1, 5.0]),
    kb=st.integers(-6, 6),
    kc=st.integers(-6, 6),
)
@settings(max_examples=40, deadline=None)
def test_stability_verdict_shared_and_invariant(seed, rho, kb, kc):
    # The three stability checks agree, and a periodic similarity or a change
    # of the units of u and y leaves the verdict alone.
    rng = np.random.default_rng(seed)
    P, nx, ny, nu = (int(v) for v in rng.integers(1, 4, size=4))
    A = rng.uniform(-1, 1, (P, nx, nx))
    psi = np.eye(nx)
    for a in A:
        psi = a @ psi
    A *= (rho / np.max(np.abs(np.linalg.eigvals(psi)))) ** (1.0 / P)
    B = rng.uniform(-1, 1, (P, nx, nu))
    C = rng.uniform(-1, 1, (P, ny, nx))
    # Orthogonal times a diagonal scaling: condition number at most 100.
    T = np.linalg.qr(rng.standard_normal((P, nx, nx)))[0] * 10.0 ** rng.uniform(-1, 1, (P, 1, nx))
    for stacks in [(A, B, C), *_transformed(A, B, C, T, kb, kc)]:
        assert _verdicts(*stacks) == (rho < 1,) * 3


@pytest.mark.parametrize("factors", [(1.0,), (2.0, 0.5), (4.0, 0.25, 1.0)])
@given(k=st.lists(st.integers(-8, 8), min_size=3, max_size=3), kb=st.integers(-6, 6),
       kc=st.integers(-6, 6))
@settings(max_examples=10, deadline=None)
def test_stability_verdict_rejects_radius_exactly_one(factors, k, kb, kc):
    # Scalar stacks whose monodromy is exactly 1; a power-of-two similarity
    # keeps it exactly 1. All three checks reject them.
    P = len(factors)
    A = np.array(factors).reshape(P, 1, 1)
    B, C = np.ones((P, 1, 1)), np.ones((P, 1, 1))
    T = 2.0 ** np.array(k[:P], dtype=float).reshape(P, 1, 1)
    for stacks in [(A, B, C), *_transformed(A, B, C, T, kb, kc)]:
        assert _verdicts(*stacks) == (False, False, False)


def test_impulse_response_example2_first_lag(example2):
    # g at tag 0, lag 1 is C_0 B_{-1} = C_0 B_2 = [1 0] @ [1; 2] = 1.
    np.testing.assert_allclose(impulse_table(example2, 1)[0, 0], [[1.0]], atol=1e-15)


def test_impulse_response_zero_input_map():
    m = random_stable_model(7)
    zeroed = LtpModel(A=m.A, B=tuple(np.zeros_like(b) for b in m.B), C=m.C)
    assert np.all(impulse_table(zeroed, 8) == 0)


def _aliased_series_oracle(model, N, K):
    """Truncated tail sum h^t_r ~= sum_{i=0}^{K} g^t_{r+i*N*P}."""
    NP = N * model.P
    out = np.zeros((model.P, NP, model.ny, model.nu))
    for t in range(model.P):
        g = impulse_series_oracle(model, t, (K + 1) * NP)
        for r in range(1, NP + 1):
            out[t, r - 1] = g[r - 1 :: NP][: K + 1].sum(axis=0)
    return out


def test_aliased_closed_form_vs_series_example1(example1):
    N = 6
    rho = is_stable(example1).spectral_radius
    K = 1
    while rho ** (K * N) >= 1e-12:
        K += 1
    expected = _aliased_series_oracle(example1, N, K)
    table = aliased_impulse_response_true(example1, N)
    np.testing.assert_allclose(table, expected, atol=1e-9)


@given(
    seed=st.integers(0, 2**32 - 1),
    P=st.integers(1, 4),
    nx=st.integers(1, 4),
    nu=st.integers(1, 3),
    ny=st.integers(1, 3),
)
@settings(max_examples=25, deadline=None)
def test_aliased_closed_form_vs_series_random(seed, P, nx, nu, ny):
    m = random_stable_model(seed, P=P, nx=nx, nu=nu, ny=ny, rho_max=0.9)
    N = 4
    rho = max(is_stable(m).spectral_radius, 1e-6)
    K = max(2, int(np.ceil(np.log(1e-12) / (N * np.log(rho)))) + 1)
    expected = _aliased_series_oracle(m, N, K)
    table = aliased_impulse_response_true(m, N)
    np.testing.assert_allclose(table, expected, atol=1e-9)


@given(
    seed=st.integers(0, 2**32 - 1),
    P=st.integers(1, 4),
    nx=st.integers(1, 4),
    nu=st.integers(1, 3),
    ny=st.integers(1, 3),
)
@settings(max_examples=30, deadline=None)
def test_impulse_table_matches_per_entry_response(seed, P, nx, nu, ny):
    # The batched kernel against the per-entry product it replaces.
    m = random_stable_model(seed, P=P, nx=nx, nu=nu, ny=ny, rho_max=0.9)
    n_g = 3 * P + 2
    reference = np.array([impulse_series_oracle(m, t, n_g) for t in range(P)])
    scale = max(np.max(np.abs(reference)), 1e-300)
    np.testing.assert_allclose(impulse_table(m, n_g), reference, rtol=0, atol=1e-13 * scale)


@given(
    seed=st.integers(0, 2**32 - 1),
    P=st.integers(1, 5),
    nx=st.integers(1, 4),
    ny=st.integers(1, 3),
    N=st.integers(1, 4),
)
@settings(max_examples=30, deadline=None)
def test_markov_rows_period_edges_match_per_entry_product(seed, P, nx, ny, N):
    # The kernel steps lag by lag through every period; check it at each
    # period edge against per-entry products: fewer lags than P, exactly P,
    # a multiple of P, one past it, and a partial last period, started from
    # C_t and, as the B fit starts it, from the aliasing resolvent
    # C_t (I - Psi_t^N)^{-1}.
    m = random_stable_model(seed, P=P, nx=nx, ny=ny, nu=1, rho_max=0.9)
    eye = np.eye(nx)
    state = LtpModel(A=m.A, B=(eye,) * P, C=(eye,) * P)
    resolvent = np.stack(
        [np.linalg.inv(eye - np.linalg.matrix_power(monodromy(m, t), N)) for t in range(P)]
    )
    for max_lag in sorted({max(P - 1, 1), P, P + 1, 3 * P, 3 * P + 2, N * P}):
        transitions = [impulse_series_oracle(state, t, max_lag) for t in range(P)]
        for C in (np.stack(m.C), np.stack(m.C) @ resolvent):
            reference = np.array([[C[t] @ M for M in transitions[t]] for t in range(P)])
            rows = markov_rows(m.A, C, max_lag)
            assert rows.shape == (P, max_lag, ny, nx)
            scale = max(np.max(np.abs(reference)), 1e-300)
            np.testing.assert_allclose(rows, reference, rtol=0, atol=1e-13 * scale)


@pytest.mark.parametrize("seed", range(12))
def test_markov_rows_is_its_lag_recursion_bit_for_bit(seed):
    # The kernel's defining recursion, exactly and past every period edge:
    # entry 0 is C_t and lag r is lag r-1 times A_{t-r}, batched over tags,
    # started from C_t and from the aliasing resolvent C_t (I - Psi_t^N)^{-1}.
    m = random_stable_model(seed, P=2 + seed % 4)
    A, P, N, t = np.stack(m.A), m.P, 1 + seed % 3, np.arange(m.P)
    resolvent = np.stack([np.linalg.inv(np.eye(m.nx) - np.linalg.matrix_power(monodromy(m, tag), N))
                          for tag in range(P)])
    for C in (np.stack(m.C), np.stack(m.C) @ resolvent):
        rows = markov_rows(A, C, 3 * P + 2)
        assert np.array_equal(rows[:, 0], C)
        for r in range(1, 3 * P + 2):
            assert np.array_equal(rows[:, r], rows[:, r - 1] @ A[(t - r) % P]), r


def test_aliased_zero_input_map(example2):
    zeroed = LtpModel(
        A=example2.A, B=tuple(np.zeros_like(b) for b in example2.B), C=example2.C
    )
    table = aliased_impulse_response_true(zeroed, 5)
    assert np.all(table == 0)


def test_aliased_scalar_geometric_by_hand():
    # P=1, A=0.5, B=C=1, N=4: h_r = 0.5^(r-1) / (1 - 0.5^4).
    m = LtpModel(A=(np.array([[0.5]]),), B=(np.array([[1.0]]),), C=(np.array([[1.0]]),))
    table = aliased_impulse_response_true(m, 4)
    for r in range(1, 5):
        np.testing.assert_allclose(
            table[0, r - 1], [[0.5 ** (r - 1) / (1 - 0.5**4)]], atol=1e-14
        )


def test_aliased_marginally_stable_raises():
    m = LtpModel(A=(np.array([[1.0]]),), B=(np.array([[1.0]]),), C=(np.array([[1.0]]),))
    with pytest.raises(SingularMatrix):
        aliased_impulse_response_true(m, 4)


def test_lift_p1_is_identity():
    m = random_stable_model(11, P=1)
    lifted = lift_model(m)
    np.testing.assert_array_equal(lifted.A, m.A[0])
    np.testing.assert_array_equal(lifted.B, m.B[0])
    np.testing.assert_array_equal(lifted.C, m.C[0])
    assert np.all(lifted.D == 0)


def test_lift_example1_feedthrough_blocks(example1):
    lifted = lift_model(example1)
    np.testing.assert_allclose(
        lifted.D[1:2, 0:1], impulse_series_oracle(example1, 1, 1)[0], atol=1e-15
    )
    assert np.all(lifted.D[0:1, 0:1] == 0)
    assert np.all(lifted.D[1:2, 1:2] == 0)


def test_lift_state_matrix_is_monodromy(example2):
    np.testing.assert_allclose(
        lift_model(example2).A, monodromy(example2, 0), atol=1e-14
    )


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_lift_markov_parameters_are_impulse_blocks(seed, k):
    m = random_stable_model(seed)
    lifted = lift_model(m)
    markov = (
        lifted.D
        if k == 0
        else lifted.C @ np.linalg.matrix_power(lifted.A, k - 1) @ lifted.B
    )
    for l in range(m.P):
        for mm in range(m.P):
            lag = k * m.P + l - mm
            block = markov[l * m.ny : (l + 1) * m.ny, mm * m.nu : (mm + 1) * m.nu]
            if lag >= 1:
                np.testing.assert_allclose(
                    block, impulse_series_oracle(m, l, lag)[lag - 1], atol=1e-12
                )
            else:
                np.testing.assert_allclose(block, 0, atol=1e-15)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_lift_feedthrough_strictly_causal(seed):
    m = random_stable_model(seed)
    lifted = lift_model(m)
    for l in range(m.P):
        for mm in range(l, m.P):
            block = lifted.D[l * m.ny : (l + 1) * m.ny, mm * m.nu : (mm + 1) * m.nu]
            assert np.all(block == 0)


def _response_series_oracle(model, N, terms):
    """Frequency response by truncating the impulse-response sum."""
    P, ny, nu = model.P, model.ny, model.nu
    G = np.zeros((N, P * ny, P * nu), dtype=complex)
    omega = 2 * np.pi * np.arange(N) / N
    for l in range(P):
        g = impulse_series_oracle(model, l, terms * P + P)
        for m in range(P):
            for s in range(terms):
                lag = s * P + l - m
                if lag >= 1:
                    G[:, l * ny : (l + 1) * ny, m * nu : (m + 1) * nu] += (
                        g[lag - 1][None, :, :]
                        * np.exp(-1j * omega * s)[:, None, None]
                    )
    return G


def test_frequency_response_example1_vs_series(example1):
    resp = true_lifted_frequency_response(example1, 8)
    expected = _response_series_oracle(example1, 8, terms=200)[: 8 // 2 + 1]
    np.testing.assert_allclose(resp.G[0], expected[0], atol=1e-10)
    np.testing.assert_allclose(resp.G, expected, atol=1e-10)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_frequency_response_random_vs_series(seed):
    m = random_stable_model(seed, rho_max=0.9)
    resp = true_lifted_frequency_response(m, 5)
    expected = _response_series_oracle(m, 5, terms=300)[: 5 // 2 + 1]
    np.testing.assert_allclose(resp.G, expected, atol=1e-8)


def test_frequency_response_zero_input_map(example1):
    zeroed = LtpModel(
        A=example1.A, B=tuple(np.zeros_like(b) for b in example1.B), C=example1.C
    )
    assert np.all(true_lifted_frequency_response(zeroed, 6).G == 0)


@pytest.mark.parametrize("N", [9, 10])
@pytest.mark.parametrize("fixture", ["example1_norm", "example2_norm"])
def test_frequency_response_exactly_conjugate_symmetric(fixture, N, request, tmp_path):
    # Only k = 0..N//2 is stored; the export writes G[N-k] as exactly conj(G[k]).
    resp = true_lifted_frequency_response(request.getfixturevalue(fixture), N)
    assert resp.G.shape[0] == N // 2 + 1
    assert_export_conjugate_symmetric(export_frequency_response(resp, tmp_path / "r.csv"), N)


def test_frequency_response_names_lowest_singular_grid_point():
    # Eigenvalues -1 and +-j lie on the 8-point grid at k = 4, 2 and 6.
    A = np.zeros((3, 3))
    A[0, 0] = -1.0
    A[1:, 1:] = [[0.0, -1.0], [1.0, 0.0]]
    m = LtpModel(A=(A,), B=(np.ones((3, 1)),), C=(np.ones((1, 3)),))
    with pytest.raises(SingularMatrix, match="grid point 2;"):
        true_lifted_frequency_response(m, 8)


def test_frequency_response_unit_delay():
    m = LtpModel(A=(np.zeros((1, 1)),), B=(np.ones((1, 1)),), C=(np.ones((1, 1)),))
    resp = true_lifted_frequency_response(m, 8)
    omega = 2 * np.pi * np.arange(8 // 2 + 1) / 8
    np.testing.assert_allclose(resp.G[:, 0, 0], np.exp(-1j * omega), atol=1e-13)


def test_memo_results_are_shared_read_only_and_pickled(example2):
    model = LtpModel(A=example2.A, B=example2.B, C=example2.C)
    lifted, table = lift_model(model), impulse_table(model, 7)
    simulate_steady_state(model, np.ones((3 * model.P, model.nu)))
    assert lift_model(model) is lifted and impulse_table(model, 7) is table
    assert model._memo.keys() == {"lift_model", ("impulse_table", 7), ("resolvent", 3)}
    for arr in (*vars(lifted).values(), table, model._memo[("resolvent", 3)]):
        assert not arr.flags.writeable
    assert "_memo" not in repr(model)
    # A pickled model is rebuilt by its constructor, so its copy starts an empty memo.
    copy = pickle.loads(pickle.dumps(model))
    assert copy._memo == {}
    np.testing.assert_array_equal(impulse_table(copy, 7), table)


def test_an_unpickled_model_and_its_memo_stay_read_only(example2):
    # pickle drops numpy's read-only flag; a study's worker gets exactly such a copy.
    model = LtpModel(A=example2.A, B=example2.B, C=example2.C)
    lifted = lift_model(model)
    copy = pickle.loads(pickle.dumps(model))
    assert copy._memo == {}
    for arr, original in zip([*copy.A, *copy.B, *copy.C], [*model.A, *model.B, *model.C],
                             strict=True):
        np.testing.assert_array_equal(arr, original)
        assert not arr.flags.writeable
    for name, arr in vars(lift_model(copy)).items():
        assert arr.tobytes() == getattr(lifted, name).tobytes() and not arr.flags.writeable
    assert lift_model(copy) is copy._memo["lift_model"]


def test_models_and_ensembles_compare_by_identity(example2):
    # Their fields, and those of the results built from them, hold arrays, which
    # compare element-wise; each object equals only itself, and hashes.
    ens = collect_ensemble(example2, J=9, N=8, sigma=0.1, master_seed=0)
    result = identify(ens, q=4, r=4, n_x=2)
    report = fit_metric(example2, result.model, n_g=5)
    for obj in (example2, ens, result, result.response, lift_model(example2), report):
        copy = pickle.loads(pickle.dumps(obj))
        assert obj == obj and not obj != obj
        assert copy != obj and not copy == obj
        assert len({obj, copy, obj}) == 2


def test_normalize_gain_starts_an_empty_memo(example2):
    model = LtpModel(A=example2.A, B=example2.B, C=example2.C)
    normalize_gain(model)  # reads the lifted model of `model`, filling its memo
    assert "lift_model" in model._memo and normalize_gain(model)._memo == {}


@pytest.mark.parametrize("M", [np.eye(2), np.stack([0.5 * np.eye(2), np.eye(2)])])
def test_inverse_of_identity_minus_identity_is_singular(M):
    with pytest.raises(SingularMatrix, match="condition number inf: .* within rounding of 1"):
        _inverse_of_identity_minus(M)


def test_inverse_of_identity_minus_is_the_lu_inverse():
    M = np.random.default_rng(3).uniform(-0.4, 0.4, (5, 3, 3))
    np.testing.assert_array_equal(_inverse_of_identity_minus(M), np.linalg.inv(np.eye(3) - M))


def test_normalize_gain_idempotent(example2):
    once = normalize_gain(example2)
    twice = normalize_gain(once)
    for b1, b2 in zip(once.B, twice.B):
        np.testing.assert_allclose(b1, b2, atol=1e-12)


def test_normalize_gain_fixed_point(example1):
    normed = normalize_gain(example1)
    again = normalize_gain(normed)
    for b1, b2 in zip(normed.B, again.B):
        np.testing.assert_allclose(b1, b2, atol=1e-12)


def test_normalize_gain_example2_dc_oracle(example2):
    # Oracle: 400-term series sum of the impulse response at z = 1.
    P = example2.P
    gamma = 0.0
    for l in range(P):
        g = impulse_series_oracle(example2, l, 400 * P + P)
        for m in range(P):
            for s in range(400):
                lag = s * P + l - m
                if lag >= 1:
                    gamma += float(g[lag - 1][0, 0])
    gamma /= P * P
    np.testing.assert_allclose(dc_gain(example2), gamma, rtol=1e-10)
    normed = normalize_gain(example2)
    np.testing.assert_allclose(dc_gain(normed), 1.0, atol=1e-12)


def test_normalize_gain_degenerate():
    m = LtpModel(A=(np.array([[0.5]]),), B=(np.array([[1.0]]),), C=(np.array([[0.0]]),))
    with pytest.raises(DegenerateGain):
        normalize_gain(m)
    zero_b = LtpModel(A=m.A, B=(np.zeros((1, 1)),), C=(np.array([[1.0]]),))
    with pytest.raises(DegenerateGain):
        normalize_gain(zero_b)
    # The two inputs' steady-state gains cancel exactly: a zero average
    # gain at every scale of B, though no entry of the response is zero.
    for scale in (1e-20, 1e-10, 1.0, 1e10):
        cancelling = LtpModel(A=m.A, B=(scale * np.array([[1.0, -1.0]]),), C=zero_b.C)
        with pytest.raises(DegenerateGain):
            normalize_gain(cancelling)


@pytest.mark.parametrize("ratio, raises", [(1e-13, True), (1e-11, False)])
def test_normalize_gain_verdict_a_decade_either_side_of_1e_12(ratio, raises):
    # Gains (2, -2, 2*delta): their mean is 2*delta/3 and their mean magnitude
    # (4 + 2*delta)/3, so the mean gain is delta/2 of the mean magnitude.
    delta = 2 * ratio
    m = LtpModel(A=(np.array([[0.5]]),), B=(np.array([[1.0, -1.0, delta]]),),
                 C=(np.array([[1.0]]),))
    np.testing.assert_allclose(dc_gain(m) / (4 / 3), ratio, rtol=1e-12)
    if raises:
        with pytest.raises(DegenerateGain):
            normalize_gain(m)
    else:
        np.testing.assert_allclose(dc_gain(normalize_gain(m)), 1.0, rtol=1e-12)


@pytest.mark.parametrize("fixture", ["example1", "example2"])
def test_normalize_gain_invariant_to_units(fixture, request):
    model = request.getfixturevalue(fixture)
    expected = normalize_gain(model)
    for s in (1e-20, 1e-10, 1e10):
        scaled = LtpModel(A=model.A, B=tuple(s * b for b in model.B), C=model.C)
        for b, b_ref in zip(normalize_gain(scaled).B, expected.B):
            np.testing.assert_allclose(b, b_ref, rtol=1e-10, atol=0)
