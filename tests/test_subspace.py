import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import impulse_series_oracle, random_stable_model
from ltpsid.errors import (
    BlockRangeExceeded,
    ConfigError,
    IllConditioned,
    OrderTooLarge,
    PipelineError,
    ShiftRankDeficient,
    UnstableEstimate,
)
from ltpsid.etfe import etfe
from ltpsid.evaluation import fit_metric
from ltpsid.model import (
    LiftedFrequencyResponse,
    LtpModel,
    _input_times,
    aliased_impulse_response_true,
    impulse_response,
    impulse_table,
    markov_rows,
    monodromy,
    true_lifted_frequency_response,
)
from ltpsid.signal import (
    Ensemble,
    Experiment,
    assemble_spectra,
    collect_ensemble,
    generate_periodic_input,
)
from ltpsid.subspace import (
    _aliased_lags,
    assemble_aliased,
    build_hankels,
    estimate_AC,
    estimate_B,
    identify,
    idft_blocks,
    svd_order,
)


def _extended_observability(model, tau, q):
    rows = [model.C_at(tau)]
    prod = np.eye(model.nx)
    for s in range(1, q):
        prod = model.A_at(tau + s - 1) @ prod
        rows.append(model.C_at(tau + s) @ prod)
    return np.vstack(rows)


def _extended_controllability(model, tau, r):
    cols = [model.B_at(tau - 1)]
    prod = np.eye(model.nx)
    for s in range(2, r + 1):
        prod = prod @ model.A_at(tau - s + 1)
        cols.append(prod @ model.B_at(tau - s))
    return np.hstack(cols)


# ---------------------------------------------------------------------------
# IDFT of response blocks
# ---------------------------------------------------------------------------


def test_idft_inverts_dft_of_random_blocks():
    rng = np.random.default_rng(4)
    w_true = rng.standard_normal((8, 2, 2))
    G = np.fft.fft(w_true, axis=0)
    resp = LiftedFrequencyResponse(P=2, ny=1, nu=1, G=G)
    w = idft_blocks(resp)
    assert w.dtype == np.float64
    np.testing.assert_allclose(w, w_true, atol=1e-10)


@pytest.mark.parametrize("N", [9, 10])
def test_idft_half_grid_matches_full_inverse(N, example2_norm):
    # The real half-grid inverse against the full complex inverse of the
    # conjugate-symmetric ETFE, at odd and even N.
    ens = collect_ensemble(example2_norm, J=6, N=N, sigma=1.0, master_seed=3)
    resp = etfe(assemble_spectra(ens))
    w = idft_blocks(resp)
    full = np.fft.ifft(resp.G, axis=0)
    assert w.dtype == np.float64 and w.shape == full.shape
    np.testing.assert_allclose(w, full.real, rtol=0, atol=1e-14 * np.max(np.abs(full)))


def test_idft_constant_response_all_in_first_block():
    G0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    resp = LiftedFrequencyResponse(P=2, ny=1, nu=1, G=np.tile(G0, (5, 1, 1)))
    w = idft_blocks(resp)
    np.testing.assert_allclose(w[0], G0, atol=1e-12)
    np.testing.assert_allclose(w[1:], 0, atol=1e-12)


def test_idft_example1_matches_folded_series(example1_norm):
    # Oracle: w_{l,m}(n) sums the impulse response over lags spaced N*P
    # apart, starting from n*P+l-m (shifted by one record when <= 0).
    N = 8
    m = example1_norm
    resp = true_lifted_frequency_response(m, N)
    w = idft_blocks(resp)
    K = 200
    for l in range(m.P):
        g = impulse_series_oracle(m, l, (K + 2) * N * m.P)
        for mm in range(m.P):
            for n in range(N):
                base = n * m.P + l - mm
                if base <= 0:
                    base += N * m.P
                expected = g[base - 1 :: N * m.P][: K + 1].sum(axis=0)
                np.testing.assert_allclose(
                    w[n, l : l + 1, mm : mm + 1], expected, atol=1e-8
                )


# ---------------------------------------------------------------------------
# Aliased impulse-response assembly
# ---------------------------------------------------------------------------


def test_assemble_p1_reduces_to_lti_map():
    # For P=1 the lag is n for n > 0 and N for n = 0.
    N = 6
    blocks = np.arange(N, dtype=float).reshape(N, 1, 1)
    table = assemble_aliased(blocks, P=1, N=N)
    assert table.shape == (1, N, 1, 1) and table.dtype == np.float64
    for n in range(1, N):
        assert table[0, n - 1, 0, 0] == n
    assert table[0, N - 1, 0, 0] == 0.0  # block at n=0 lands at lag N


def test_assemble_index_arithmetic_p2_marker():
    # P=2, N=3, l=0, m=1, n=0: lag = 0*2+0-1 = -1 <= 0 -> (0+3)*2+0-1 = 5.
    P, N = 2, 3
    blocks = np.zeros((N, 2, 2))
    blocks[0, 0, 1] = 42.0
    table = assemble_aliased(blocks, P=P, N=N)
    assert table[0, 4, 0, 0] == 42.0


@pytest.mark.parametrize("P", [1, 2, 3, 5])
@pytest.mark.parametrize("N", [2, 4, 8])
def test_assemble_bijection_exhaustive(P, N):
    # For every tag the index map sends the N*P pairs (n, m) onto the lags
    # 1..N*P one to one, so the single scatter fills every slot exactly once.
    lags = _aliased_lags(P, N)
    for l in range(P):
        np.testing.assert_array_equal(np.sort(lags[l].ravel()), np.arange(1, N * P + 1))
    # Markers make the mapping observable from outside.
    blocks = np.empty((N, P, P))
    for n in range(N):
        for l in range(P):
            for m in range(P):
                blocks[n, l, m] = 1 + n * P * P + l * P + m
    table = assemble_aliased(blocks, P=P, N=N)
    seen = set()
    for l in range(P):
        for m in range(P):
            for n in range(N):
                lag = n * P + l - m
                if lag <= 0:
                    lag += N * P
                assert 1 <= lag <= N * P
                value = table[l, lag - 1, 0, 0]
                assert value == 1 + n * P * P + l * P + m
                seen.add((l, lag))
    assert len(seen) == P * N * P  # all slots hit exactly once across (l, m, n)
    assert np.all(table != 0)


def test_assemble_pipeline_matches_closed_form(example1_norm):
    N = 12
    resp = true_lifted_frequency_response(example1_norm, N)
    assembled = assemble_aliased(idft_blocks(resp), P=example1_norm.P, N=N)
    expected = aliased_impulse_response_true(example1_norm, N)
    np.testing.assert_allclose(assembled, expected, atol=1e-7)


def test_assemble_rejects_complex_blocks():
    # Blocks come real from idft_blocks; a complex array, even one with a
    # zero imaginary part, is a caller error.
    for blocks in (np.full((4, 1, 1), 1.0 + 1e-3j), np.zeros((4, 1, 1), dtype=complex)):
        with pytest.raises(ConfigError):
            assemble_aliased(blocks, P=1, N=4)


# ---------------------------------------------------------------------------
# Hankel construction
# ---------------------------------------------------------------------------


def test_hankel_single_block_is_first_lag(example2_norm):
    h = aliased_impulse_response_true(example2_norm, 4)
    hankels = build_hankels(h, q=1, r=1)
    for tau in range(3):
        np.testing.assert_array_equal(hankels[tau], h[tau, 0])


def test_hankel_rank_two_noise_free(example1_norm):
    h = aliased_impulse_response_true(example1_norm, 10)
    hankels = build_hankels(h, q=4, r=4)
    for H in hankels:
        s = np.linalg.svd(H, compute_uv=False)
        assert s[2] / s[0] < 1e-10
        assert s[1] / s[0] > 1e-8  # genuinely rank 2, not rank 1


@pytest.mark.parametrize("fixture", ["example1_norm", "example2_norm"])
def test_hankel_factorization_against_direct_product(fixture, request):
    # Oracle: H^tau = O_q^tau (I - Psi_tau^N)^{-1} C_r^tau from true matrices.
    model = request.getfixturevalue(fixture)
    N, q, r = 9, 5, 4
    h = aliased_impulse_response_true(model, N)
    hankels = build_hankels(h, q=q, r=r)
    for tau in range(model.P):
        O = _extended_observability(model, tau, q)
        Ctrb = _extended_controllability(model, tau, r)
        K = np.linalg.inv(
            np.eye(model.nx) - np.linalg.matrix_power(monodromy(model, tau), N)
        )
        np.testing.assert_allclose(hankels[tau], O @ K @ Ctrb, atol=1e-9)


def test_hankel_block_range_guard(example1_norm):
    h = aliased_impulse_response_true(example1_norm, 3)  # max lag 6
    with pytest.raises(BlockRangeExceeded):
        build_hankels(h, q=4, r=4)


# ---------------------------------------------------------------------------
# Order selection
# ---------------------------------------------------------------------------


def test_svd_order_rank_one_synthetic():
    u = np.array([[1.0], [2.0], [-1.0]])
    v = np.array([[3.0, 0.5]])
    hankels = (u @ v)[None]  # (1, 3, 2): P=1, q=3, r=2, n_y=n_u=1
    bases, _, _ = svd_order(hankels, n_x=1)
    basis = bases[0]
    # The basis must span the column space of H exactly.
    proj = basis @ basis.T @ u
    np.testing.assert_allclose(proj, u, atol=1e-12)


def test_svd_order_threshold_finds_two(example1_norm):
    h = aliased_impulse_response_true(example1_norm, 10)
    hankels = build_hankels(h, q=6, r=6)
    bases, _, counts = svd_order(hankels, threshold=1e-8)
    assert bases.shape[-1] == 2
    assert counts.tolist() == [2, 2]


def test_svd_order_bases_orthonormal(example2_norm):
    h = aliased_impulse_response_true(example2_norm, 8)
    bases, svals, _ = svd_order(build_hankels(h, q=5, r=5), n_x=2)
    for basis in bases:
        np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)
        assert np.all(np.diff(svals[0]) <= 1e-15)


def test_svd_order_too_large(example1_norm):
    h = aliased_impulse_response_true(example1_norm, 10)
    hankels = build_hankels(h, q=3, r=3)
    with pytest.raises(OrderTooLarge):
        svd_order(hankels, n_x=4)


def _noisy_aliased_response(model, N, seed):
    h = aliased_impulse_response_true(model, N)
    return h + 1e-2 * np.random.default_rng(seed).standard_normal(h.shape)


@pytest.mark.parametrize("threshold", [None, 1e-3])
@pytest.mark.parametrize("fixture", ["example1_norm", "example2_norm"])
def test_svd_order_matches_per_matrix_svd(fixture, threshold, request):
    # Reference: one SVD per Hankel matrix, as before the batched stage.
    model = request.getfixturevalue(fixture)
    hankels = build_hankels(_noisy_aliased_response(model, 10, 3), q=6, r=5)
    n_x = 2 if threshold is None else None
    bases, svals, counts = svd_order(hankels, n_x=n_x, threshold=threshold)
    per_matrix = [np.linalg.svd(H, full_matrices=False) for H in hankels]
    np.testing.assert_array_equal(svals, [s for _, s, _ in per_matrix])
    if threshold is None:
        assert counts is None
        order = 2
    else:
        ref_counts = [int(np.sum(s > threshold * s[0])) for _, s, _ in per_matrix]
        np.testing.assert_array_equal(counts, ref_counts)
        order = max(ref_counts)
    assert bases.shape == (model.P, 6 * model.ny, order)
    for tau, (U, _, _) in enumerate(per_matrix):
        assert np.array_equal(bases[tau], U[:, :order])


# ---------------------------------------------------------------------------
# A/C recovery by shift invariance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["example1_norm", "example2_norm"])
def test_estimate_AC_from_exact_observability(fixture, request):
    # Feeding the exact extended observability matrices (coordinate change
    # = identity) must return the true A_t and C_t.
    model = request.getfixturevalue(fixture)
    q = 6
    bases = tuple(_extended_observability(model, tau, q) for tau in range(model.P))
    A_est, C_est = estimate_AC(bases, ny=model.ny)
    for tau in range(model.P):
        np.testing.assert_allclose(A_est[tau], model.A[tau], atol=1e-10)
        np.testing.assert_allclose(C_est[tau], model.C[tau], atol=1e-10)


def test_estimate_AC_lti_shift_invariance():
    m = random_stable_model(19, P=1, nx=3, ny=2, nu=1)
    bases = (_extended_observability(m, 0, 5),)
    A_est, C_est = estimate_AC(bases, ny=2)
    np.testing.assert_allclose(A_est[0], m.A[0], atol=1e-10)
    np.testing.assert_allclose(C_est[0], m.C[0], atol=1e-10)


def test_estimate_AC_noise_free_pipeline_eigenvalues(example1_norm):
    ens = collect_ensemble(
        example1_norm, J=20, N=50, sigma=0.0, master_seed=7
    )
    result = identify(ens, q=10, r=10, n_x=2)
    est_eigs = np.sort_complex(np.linalg.eigvals(monodromy(result.model, 0)))
    true_eigs = np.sort_complex(np.linalg.eigvals(monodromy(example1_norm, 0)))
    np.testing.assert_allclose(est_eigs, true_eigs, atol=1e-6)


def test_estimate_AC_shift_rank_deficient():
    # One block row and two states: dropping a row leaves a 0-row matrix.
    bases = (np.array([[1.0, 0.0]]),)
    with pytest.raises(ShiftRankDeficient):
        estimate_AC(bases, ny=1)


@pytest.mark.parametrize("fixture", ["example1_norm", "example2_norm"])
def test_estimate_AC_matches_per_tag_pinv(fixture, request):
    # Reference: the per-tag-time rank check and pinv loop the stage replaced.
    model = request.getfixturevalue(fixture)
    bases, _, _ = svd_order(
        build_hankels(_noisy_aliased_response(model, 10, 4), q=6, r=6), n_x=2
    )
    A_est, C_est = estimate_AC(bases, ny=model.ny)
    assert A_est.shape == (model.P, 2, 2) and C_est.shape == (model.P, model.ny, 2)
    for tau in range(model.P):
        top = bases[(tau + 1) % model.P][: -model.ny]
        assert np.linalg.svd(top, compute_uv=False)[-1] > 1e-12
        assert np.array_equal(A_est[tau], np.linalg.pinv(top) @ bases[tau][model.ny :])
        assert np.array_equal(C_est[tau], bases[tau][: model.ny])


def test_estimate_AC_names_first_deficient_tag():
    # Tag time tau reads the basis of tau + 1: bases 2 and 0 have a rank-one
    # top part, so tags 1 and 2 are both deficient and tag 1 is reported.
    good = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    bad = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ShiftRankDeficient) as excinfo:
        estimate_AC(np.stack([bad, good, bad]), ny=1)
    assert excinfo.value.tag == 1


# ---------------------------------------------------------------------------
# B recovery
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["example1_norm", "example2_norm"])
def test_estimate_B_exact_inputs(fixture, request):
    model = request.getfixturevalue(fixture)
    N = 10
    h = aliased_impulse_response_true(model, N)
    B_est, residual, _ = estimate_B(list(model.A), list(model.C), h, N)
    for tau in range(model.P):
        np.testing.assert_allclose(B_est[tau], model.B[tau], atol=1e-8)
    assert residual < 1e-16


def test_estimate_B_zero_target(example2_norm):
    model = example2_norm
    N = 6
    zero = np.zeros((model.P, N * model.P, model.ny, model.nu))
    B_est, residual, _ = estimate_B(list(model.A), list(model.C), zero, N)
    for b in B_est:
        np.testing.assert_allclose(b, 0, atol=1e-12)
    assert residual == 0.0


def test_estimate_B_unstable_estimate():
    h = np.zeros((1, 4, 1, 1))
    with pytest.raises(UnstableEstimate):
        estimate_B([np.array([[1.1]])], [np.array([[1.0]])], h, 4)


def test_estimate_B_ill_conditioned_zero_output_map():
    h = np.zeros((1, 4, 1, 1))
    with pytest.raises(IllConditioned):
        estimate_B([np.array([[0.5]])], [np.array([[0.0]])], h, 4)


def test_estimate_B_names_first_ill_conditioned_beta():
    # With A = 0 only lag 1 survives, so the regressor of B_beta is C_{beta+1}
    # alone: C_2 = C_0 = 0 leaves betas 1 and 2 singular, and 1 is reported.
    A = [np.zeros((1, 1))] * 3
    C = [np.zeros((1, 1)), np.ones((1, 1)), np.zeros((1, 1))]
    with pytest.raises(IllConditioned, match="at time 1 "):
        estimate_B(A, C, np.zeros((3, 12, 1, 1)), 4)


def _estimate_B_per_beta(A, C, h, N):
    # Reference: the per-beta boolean mask and lstsq loop the stage replaced.
    P, max_lag, _, nu = h.shape
    rows = markov_rows(A, C, max_lag, N)
    beta_of = _input_times(P, max_lag)
    B, residual = [], 0.0
    for beta in range(P):
        G = rows[beta_of == beta].reshape(-1, rows.shape[-1])
        T = h[beta_of == beta].reshape(-1, nu)
        sol = np.linalg.lstsq(G, T, rcond=None)[0]
        B.append(sol)
        residual += float(np.sum((T - G @ sol) ** 2))
    return np.array(B), residual


@pytest.mark.parametrize("fixture", ["example1_norm", "example2_norm", "random"])
def test_estimate_B_matches_per_beta_lstsq(fixture, request):
    if fixture == "random":
        model = random_stable_model(23, P=3, nx=3, ny=2, nu=2)
    else:
        model = request.getfixturevalue(fixture)
    N = 10
    h = _noisy_aliased_response(model, N, 5)
    B, residual, fitted = estimate_B(model.A, model.C, h, N)
    B_ref, residual_ref = _estimate_B_per_beta(model.A, model.C, h, N)
    assert B.shape == (model.P, model.nx, model.nu)
    np.testing.assert_allclose(B, B_ref, rtol=0, atol=1e-12 * np.max(np.abs(B_ref)))
    assert residual > 0
    np.testing.assert_allclose(residual, residual_ref, rtol=1e-12)
    fitted_ref = impulse_table(LtpModel(A=model.A, B=tuple(B_ref), C=model.C), N * model.P, N)
    np.testing.assert_allclose(
        fitted, fitted_ref, rtol=0, atol=1e-12 * np.max(np.abs(fitted_ref))
    )


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["example1_norm", "example2_norm"])
def test_identify_noise_free_recovery(fixture, request):
    model = request.getfixturevalue(fixture)
    ens = collect_ensemble(
        model, J=10 * model.P, N=50, sigma=0.0, master_seed=7
    )
    result = identify(ens, q=10, r=10, n_x=2)
    for t in range(model.P):
        for r in range(1, 51):
            np.testing.assert_allclose(
                impulse_response(result.model, t, r),
                impulse_response(model, t, r),
                atol=1e-6,
            )
    assert result.order_used == 2
    assert np.max(result.h_reconstruction_error) < 1e-8


@pytest.mark.parametrize("scale", [1e10, 1e12])
@pytest.mark.parametrize("fixture", ["example1_norm", "example2_norm"])
def test_identify_noise_free_recovery_in_large_units(fixture, scale, request):
    base = request.getfixturevalue(fixture)
    model = LtpModel(A=base.A, B=tuple(scale * b for b in base.B), C=base.C)
    ens = collect_ensemble(model, J=10 * model.P, N=50, sigma=0.0, master_seed=7)
    result = identify(ens, q=10, r=10, n_x=2)
    assert fit_metric(model, result.model, n_g=50).W >= 100 - 1e-6


def test_identify_default_block_counts(example1_norm):
    ens = collect_ensemble(
        example1_norm, J=4, N=8, sigma=0.0, master_seed=3
    )
    result = identify(ens, n_x=2)  # q = r = floor((N*P+1)/2) = 8
    assert (result.q, result.r) == (8, 8)
    assert result.q + result.r - 1 <= 16
    rep_errors = [
        np.abs(
            impulse_response(result.model, t, r) - impulse_response(example1_norm, t, r)
        ).max()
        for t in range(2)
        for r in range(1, 9)
    ]
    assert max(rep_errors) < 1e-6


def test_identify_stage_annotation_on_rank_failure(example1_norm):
    ens = collect_ensemble(
        example1_norm, J=4, N=8, sigma=0.0, master_seed=2, shared_input=True
    )
    with pytest.raises(PipelineError) as excinfo:
        identify(ens, q=4, r=4, n_x=2)
    assert excinfo.value.stage == "etfe"


def test_identify_config_errors_not_wrapped(example1_norm):
    # Bad block counts or orders are configuration errors, not numerical
    # failures of a stage.
    ens = collect_ensemble(example1_norm, J=4, N=8, sigma=0.0, master_seed=3)
    for kwargs in (dict(q=0, r=4, n_x=2), dict(q=4, r=4, n_x=5), dict(q=4, r=4, n_x=0)):
        with pytest.raises(ConfigError) as excinfo:
            identify(ens, **kwargs)
        assert not isinstance(excinfo.value, PipelineError)


def test_identify_infeasible_blocks(example1_norm):
    ens = collect_ensemble(example1_norm, J=2, N=4, sigma=0.0, master_seed=2)
    with pytest.raises(BlockRangeExceeded):
        identify(ens, q=5, r=5, n_x=2)


def test_identify_deterministic(example2_norm):
    ens = collect_ensemble(example2_norm, J=30, N=20, sigma=1.0, master_seed=5)
    r1 = identify(ens, q=8, r=8, n_x=2)
    r2 = identify(ens, q=8, r=8, n_x=2)
    for a, b in zip(r1.model.A, r2.model.A):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(
        r1.h_reconstruction_error, r2.h_reconstruction_error
    )


@pytest.mark.parametrize("fixture", ["example1_norm", "example2_norm"])
def test_identify_invariant_under_experiment_order(fixture, request):
    # Reordering the experiments permutes the columns of every U_k and Y_k,
    # which leaves the least-squares response and so the estimate unchanged
    # up to rounding.
    model = request.getfixturevalue(fixture)
    ens = collect_ensemble(model, J=10 * model.P, N=50, sigma=1.0, master_seed=7)
    order = np.random.default_rng(1).permutation(ens.J)
    permuted = Ensemble(
        experiments=tuple(ens.experiments[i] for i in order), P=ens.P, N=ens.N
    )
    h = impulse_table(identify(ens, q=10, r=10, n_x=2).model, 50)
    h_perm = impulse_table(identify(permuted, q=10, r=10, n_x=2).model, 50)
    np.testing.assert_allclose(h_perm, h, rtol=0, atol=1e-12 * np.max(np.abs(h)))


@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_identify_covariant_under_period_rotation(sigma, example2):
    # Delaying every input and output record by s samples (cyclically, so
    # the records stay periodic steady states) turns the response at tag t
    # into the one at tag t - s, so the estimated impulse table rolls by s
    # tags. The lifted re-blocking is an invertible map at each frequency.
    ens = collect_ensemble(example2, J=30, N=50, sigma=sigma, master_seed=11)
    h = impulse_table(identify(ens, q=10, r=10, n_x=2).model, 50)
    for s in (1, 2, 3):
        rotated = Ensemble(
            experiments=tuple(
                Experiment(u=np.roll(e.u, s, axis=0), y=np.roll(e.y, s, axis=0))
                for e in ens.experiments
            ),
            P=ens.P,
            N=ens.N,
        )
        h_rot = impulse_table(identify(rotated, q=10, r=10, n_x=2).model, 50)
        np.testing.assert_allclose(
            h_rot, np.roll(h, s, axis=0), rtol=0, atol=1e-12 * np.max(np.abs(h))
        )


@pytest.mark.parametrize("fixture", ["example1_norm", "example2_norm"])
def test_identify_reconstruction_error_from_fitted_model(fixture, request):
    model = request.getfixturevalue(fixture)
    N = 20
    ens = collect_ensemble(model, J=10 * model.P, N=N, sigma=0.3, master_seed=9)
    result = identify(ens, q=8, r=8, n_x=2)
    h_est = assemble_aliased(idft_blocks(result.response), model.P, N)
    expected = np.linalg.norm(
        aliased_impulse_response_true(result.model, N) - h_est,
        axis=(2, 3),
    )
    np.testing.assert_allclose(
        result.h_reconstruction_error, expected, rtol=0, atol=1e-12 * np.max(expected)
    )


def _transform(model, T_seq):
    P = model.P
    A = tuple(
        T_seq[(t + 1) % P] @ model.A[t] @ np.linalg.inv(T_seq[t]) for t in range(P)
    )
    B = tuple(T_seq[(t + 1) % P] @ model.B[t] for t in range(P))
    C = tuple(model.C[t] @ np.linalg.inv(T_seq[t]) for t in range(P))
    return LtpModel(A=A, B=B, C=C)


def test_identify_invariant_under_similarity_transform(example1_norm):
    T_seq = [
        np.array([[1.0, 0.3], [-0.2, 1.1]]),
        np.array([[0.9, -0.1], [0.4, 1.2]]),
    ]
    transformed = _transform(example1_norm, T_seq)
    kwargs = dict(J=8, N=16, sigma=0.0, master_seed=9)
    ens_a = collect_ensemble(example1_norm, **kwargs)
    ens_b = collect_ensemble(transformed, **kwargs)
    # The assembled aliased response is already transform invariant.
    h_a = assemble_aliased(idft_blocks(etfe(assemble_spectra(ens_a))), P=2, N=16)
    h_b = assemble_aliased(idft_blocks(etfe(assemble_spectra(ens_b))), P=2, N=16)
    np.testing.assert_allclose(h_a, h_b, atol=1e-8)
    res_a = identify(ens_a, q=8, r=8, n_x=2)
    res_b = identify(ens_b, q=8, r=8, n_x=2)
    for t in range(2):
        for r in range(1, 17):
            np.testing.assert_allclose(
                impulse_response(res_a.model, t, r),
                impulse_response(res_b.model, t, r),
                atol=1e-8,
            )


def test_p1_pipeline_reduces_to_lti_algorithm():
    # First-order system: the assembled response must equal the geometric
    # closed form and the identified model must match on the grid.
    m = LtpModel(A=(np.array([[0.5]]),), B=(np.array([[1.0]]),), C=(np.array([[1.0]]),))
    N = 16
    ens = collect_ensemble(m, J=3, N=N, sigma=0.0, master_seed=1)
    h_est = assemble_aliased(
        idft_blocks(etfe(assemble_spectra(ens))), P=1, N=N
    )
    for r in range(1, N + 1):
        np.testing.assert_allclose(
            h_est[0, r - 1], [[0.5 ** (r - 1) / (1 - 0.5**N)]], atol=1e-9
        )
    result = identify(ens, q=4, r=4, n_x=1)
    G_est = true_lifted_frequency_response(result.model, N).G
    G_true = true_lifted_frequency_response(m, N).G
    assert np.max(np.abs(G_est - G_true)) < 1e-6


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_identify_random_models_noise_free(seed):
    m = random_stable_model(seed, rho_max=0.85)
    N = 16
    ens = collect_ensemble(
        m, J=max(2 * m.P * m.nu, m.P * m.nu + 1), N=N, sigma=0.0,
        master_seed=seed,
    )
    try:
        result = identify(ens, q=6, r=6, n_x=m.nx)
    except PipelineError:
        # Random draws can be nearly unobservable/unreachable; the pipeline
        # must fail loudly rather than return garbage.
        return
    errs = [
        np.abs(impulse_response(result.model, t, r) - impulse_response(m, t, r)).max()
        for t in range(m.P)
        for r in range(1, 2 * m.P + 1)
    ]
    assert max(errs) < 1e-5
