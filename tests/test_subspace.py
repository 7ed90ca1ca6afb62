import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import impulse_series_oracle, random_stable_model, traced_peak, with_shared_input
from ltpsid import subspace
from ltpsid.errors import (
    BlockRangeExceeded,
    ConfigError,
    DimensionMismatch,
    IllConditioned,
    LtpsidError,
    NumericalError,
    OrderTooLarge,
    PipelineError,
    RankDeficient,
    ShiftRankDeficient,
    UnstableEstimate,
)
from ltpsid.etfe import etfe
from ltpsid.evaluation import MonteCarloConfig, fit_metric, monte_carlo
from ltpsid.model import (
    LiftedFrequencyResponse,
    LtpModel,
    _input_times,
    _monodromies,
    impulse_table,
    markov_rows,
)
from ltpsid.signal import Ensemble, collect_ensemble
from ltpsid.subspace import (
    assemble_aliased,
    build_hankels,
    estimate_AC,
    estimate_B,
    identify,
    svd_order,
)
from oracles import (
    _aliased_lags,
    _input_slots,
    aliased_impulse_response_true,
    monodromy,
    true_lifted_frequency_response,
)


def _extended_observability(model, tau, q):
    rows = [model.C[tau % model.P]]
    prod = np.eye(model.nx)
    for s in range(1, q):
        prod = model.A[(tau + s - 1) % model.P] @ prod
        rows.append(model.C[(tau + s) % model.P] @ prod)
    return np.vstack(rows)


def _extended_controllability(model, tau, r):
    cols = [model.B[(tau - 1) % model.P]]
    prod = np.eye(model.nx)
    for s in range(2, r + 1):
        prod = prod @ model.A[(tau - s + 1) % model.P]
        cols.append(prod @ model.B[(tau - s) % model.P])
    return np.hstack(cols)


# ---------------------------------------------------------------------------
# IDFT of response blocks
# ---------------------------------------------------------------------------


def _idft_blocks(h):
    """The (N, P*n_y, P*n_u) IDFT blocks an aliased table was gathered from, put back
    through ``_input_times``: block (t, m) holds lag r at index ((r - t + m) mod N*P) / P.
    A block entry the table does not fill stays NaN."""
    P, lags, ny, nu = h.shape
    t, r, m = np.arange(P)[:, None], np.arange(1, lags + 1), _input_times(P, lags)
    w = np.full((lags // P, P, ny, P, nu), np.nan)
    w[((r - t + m) % lags) // P, t, :, m] = h
    return w.reshape(lags // P, P * ny, P * nu)


def test_idft_inverts_dft_of_random_blocks():
    rng = np.random.default_rng(4)
    w_true = rng.standard_normal((8, 2, 2))
    G = np.fft.fft(w_true, axis=0)[: 8 // 2 + 1]
    resp = LiftedFrequencyResponse(P=2, N=8, ny=1, nu=1, G=G)
    w = _idft_blocks(assemble_aliased(resp))
    assert w.dtype == np.float64
    np.testing.assert_allclose(w, w_true, atol=1e-10)


@pytest.mark.parametrize("N", [9, 10])
def test_idft_half_grid_matches_full_inverse(N, example2_norm):
    # The real half-grid inverse against the full complex inverse of the
    # conjugate mirror of the ETFE, at odd and even N.
    ens = collect_ensemble(example2_norm, J=6, N=N, sigma=1.0, master_seed=3)
    resp = etfe(ens)
    w = _idft_blocks(assemble_aliased(resp))
    G = np.concatenate([resp.G, resp.G[1 : (N + 1) // 2][::-1].conj()])
    full = np.fft.ifft(G, axis=0)
    assert w.dtype == np.float64 and w.shape == full.shape
    np.testing.assert_allclose(w, full.real, rtol=0, atol=1e-14 * np.max(np.abs(full)))


def test_idft_constant_response_all_in_first_block():
    G0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    resp = LiftedFrequencyResponse(P=2, N=5, ny=1, nu=1, G=np.tile(G0, (5 // 2 + 1, 1, 1)))
    w = _idft_blocks(assemble_aliased(resp))
    np.testing.assert_allclose(w[0], G0, atol=1e-12)
    np.testing.assert_allclose(w[1:], 0, atol=1e-12)


def test_idft_example1_matches_folded_series(example1_norm):
    # Oracle: w_{l,m}(n) sums the impulse response over lags spaced N*P
    # apart, starting from n*P+l-m (shifted by one record when <= 0).
    N = 8
    m = example1_norm
    resp = true_lifted_frequency_response(m, N)
    w = _idft_blocks(assemble_aliased(resp))
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


def _response(blocks, P):
    """The response whose real inverse DFT is the (N, P*n_y, P*n_u) array ``blocks``."""
    N, height, width = blocks.shape
    return LiftedFrequencyResponse(P, N, height // P, width // P, G=np.fft.rfft(blocks, axis=0))


def test_assemble_p1_reduces_to_lti_map():
    # For P=1 the lag is n for n > 0 and N for n = 0; the integer markers
    # come back from the DFT round trip within rounding.
    N = 6
    blocks = np.arange(N, dtype=float).reshape(N, 1, 1)
    table = assemble_aliased(_response(blocks, 1))
    assert table.shape == (1, N, 1, 1) and table.dtype == np.float64
    table = np.round(table)
    for n in range(1, N):
        assert table[0, n - 1, 0, 0] == n
    assert table[0, N - 1, 0, 0] == 0.0  # block at n=0 lands at lag N


def test_assemble_index_arithmetic_p2_marker():
    # P=2, N=3, l=0, m=1, n=0: lag = 0*2+0-1 = -1 <= 0 -> (0+3)*2+0-1 = 5.
    P, N = 2, 3
    blocks = np.zeros((N, 2, 2))
    blocks[0, 0, 1] = 42.0
    table = np.round(assemble_aliased(_response(blocks, P)))
    assert table[0, 4, 0, 0] == 42.0


@pytest.mark.parametrize("P", [1, 2, 3, 5])
@pytest.mark.parametrize("N", [2, 4, 8])
def test_assemble_bijection_exhaustive(P, N):
    # For every tag the index map sends the N*P pairs (n, m) onto the lags
    # 1..N*P one to one, so the gather fills every slot exactly once.
    lags = _aliased_lags(P, N)
    for l in range(P):
        np.testing.assert_array_equal(np.sort(lags[l].ravel()), np.arange(1, N * P + 1))
    # Markers make the mapping observable from outside.
    blocks = np.empty((N, P, P))
    for n in range(N):
        for l in range(P):
            for m in range(P):
                blocks[n, l, m] = 1 + n * P * P + l * P + m
    table = np.round(assemble_aliased(_response(blocks, P)))
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


@pytest.mark.parametrize("P", [1, 2, 3, 12])
@pytest.mark.parametrize("N", [1, 4, 50])
def test_assemble_gather_equals_the_old_scatter(P, N):
    # Reference: the scatter of the response's real inverse DFT through the
    # (n, l, m) -> lag map the gather replaced.
    ny, nu = 2, 3
    response = _response(
        np.random.default_rng(100 * P + N).standard_normal((N, P * ny, P * nu)), P
    )
    blocks = np.fft.irfft(response.G, n=N, axis=0)
    scattered = np.empty((P, N * P, ny, nu))
    scattered[np.arange(P)[:, None, None], _aliased_lags(P, N) - 1] = (
        blocks.reshape(N, P, ny, P, nu).transpose(1, 0, 3, 2, 4)
    )
    assert np.array_equal(assemble_aliased(response), scattered)


@pytest.mark.parametrize("P", [0, -1])
def test_assemble_rejects_period_below_one(P):
    # The response owns the period rule, so no such response reaches the assembly.
    with pytest.raises(ConfigError, match=f"^P must be >= 1, got {P}"):
        assemble_aliased(LiftedFrequencyResponse(P, 4, 1, 1, G=np.zeros((3, 2, 2))))


def test_assemble_pipeline_matches_closed_form(example1_norm):
    N = 12
    resp = true_lifted_frequency_response(example1_norm, N)
    assembled = assemble_aliased(resp)
    expected = aliased_impulse_response_true(example1_norm, N)
    np.testing.assert_allclose(assembled, expected, atol=1e-7)


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
    # Same rule and message as identify's check on the record length.
    h = aliased_impulse_response_true(example1_norm, 3)  # max lag 6
    with pytest.raises(BlockRangeExceeded, match=r"^q\+r-1 = 7 exceeds record length N\*P = 6$"):
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


def test_svd_order_takes_exactly_one_of_order_and_threshold():
    for kwargs in ({"n_x": 1, "threshold": 1e-8}, {}):
        with pytest.raises(ConfigError, match="specify exactly one of n_x or threshold"):
            svd_order(np.ones((1, 3, 2)), **kwargs)


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


@pytest.mark.parametrize("threshold", [np.nan, -1.0, np.inf, 1.0, 2.0])
def test_svd_order_rejects_threshold_not_finite_nonnegative(example1_norm, threshold):
    # Without the check nan and any threshold >= 1 select order 0 (a
    # misleading OrderTooLarge) and -1 the full order, which fails later in
    # estimate_AC.
    hankels = build_hankels(aliased_impulse_response_true(example1_norm, 10), q=5, r=5)
    match = "order threshold must be a finite number >= 0"
    with pytest.raises(ConfigError, match=match) as excinfo:
        svd_order(hankels, threshold=threshold)
    assert not isinstance(excinfo.value, OrderTooLarge)
    ens = collect_ensemble(example1_norm, J=4, N=10, sigma=0.1, master_seed=5)
    with pytest.raises(ConfigError, match=match):
        identify(ens, q=5, r=5, order_threshold=threshold)


@pytest.mark.parametrize("order", [{"n_x": 5}, {"order_threshold": 0.0}])
def test_identify_rejects_order_above_shift_invariance_bound(example1_norm, order):
    # q = 5 block rows of one output leave (q-1)*ny = 4 rows for the shift
    # relation, too few for order 5, whether fixed or picked by a zero
    # threshold from noisy data: a configuration error, not a numerical one.
    ens = collect_ensemble(example1_norm, J=4, N=10, sigma=0.5, master_seed=5)
    with pytest.raises(OrderTooLarge, match=r"shift-invariance bound \(q-1\)\*ny = 4"):
        identify(ens, q=5, r=5, **order)


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
    # One block row and two states: dropping a row leaves a 0-row matrix,
    # so the order exceeds the shift-invariance bound.
    bases = (np.array([[1.0, 0.0]]),)
    with pytest.raises(OrderTooLarge, match=r"\(q-1\)\*ny = 0"):
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


def test_zero_state_order_is_refused_by_the_stages_and_empty_in_the_kernel():
    # Order 0 is refused by name, not by a bare numpy error, while the Markov
    # kernel on an n_x = 0 stack returns its empty table.
    with pytest.raises(OrderTooLarge, match="order 0"):
        estimate_AC(np.zeros((2, 4, 0)), 1)
    rows = markov_rows(np.zeros((2, 0, 0)), np.zeros((2, 1, 0)), 5)
    assert rows.shape == (2, 5, 1, 0)


def test_estimate_AC_names_first_deficient_tag():
    # Tag time tau reads the basis of tau + 1: bases 2 and 0 have a rank-one
    # top part, so tags 1 and 2 are both deficient and tag 1 is reported.
    good = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    bad = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ShiftRankDeficient) as excinfo:
        estimate_AC(np.stack([bad, good, bad]), ny=1)
    assert excinfo.value.tag == 1


@pytest.mark.parametrize("s_min, raises", [(1e-13, True), (1e-11, False)])
def test_estimate_AC_shift_rank_verdict_a_decade_either_side_of_1e_12(s_min, raises):
    # Orthonormal bases whose shifted block is diag(1, s_min); tag 1 reads basis 2.
    good = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    near = np.array([[1.0, 0.0], [0.0, s_min], [0.0, np.sqrt(1 - s_min**2)]])
    bases = np.stack([good, good, near])
    assert np.linalg.svd(near[:-1], compute_uv=False)[-1] == s_min
    if raises:
        with pytest.raises(ShiftRankDeficient, match="at tag time 1;") as excinfo:
            estimate_AC(bases, ny=1)
        assert excinfo.value.tag == 1
    else:
        assert np.isfinite(estimate_AC(bases, ny=1)[0]).all()


# ---------------------------------------------------------------------------
# B recovery
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["example1_norm", "example2_norm"])
def test_estimate_B_exact_inputs(fixture, request):
    model = request.getfixturevalue(fixture)
    N = 10
    h = aliased_impulse_response_true(model, N)
    B_est, residual = estimate_B(list(model.A), list(model.C), h)
    for tau in range(model.P):
        np.testing.assert_allclose(B_est[tau], model.B[tau], atol=1e-8)
    assert np.sum(residual**2) < 1e-16


def test_estimate_B_zero_target(example2_norm):
    model = example2_norm
    N = 6
    zero = np.zeros((model.P, N * model.P, model.ny, model.nu))
    B_est, residual = estimate_B(list(model.A), list(model.C), zero)
    for b in B_est:
        np.testing.assert_allclose(b, 0, atol=1e-12)
    assert np.sum(residual**2) == 0.0


def test_estimate_B_unstable_estimate():
    h = np.zeros((1, 4, 1, 1))
    with pytest.raises(UnstableEstimate):
        estimate_B([np.array([[1.1]])], [np.array([[1.0]])], h)


def test_estimate_B_eigensolver_failure_is_numerical_error():
    # A non-finite estimate makes the eigensolver fail; that surfaces as the
    # package's own error, as in every other stability check.
    h = np.zeros((1, 4, 1, 1))
    with pytest.raises(NumericalError, match="eigensolver"):
        estimate_B([np.array([[np.nan]])], [np.array([[1.0]])], h)


def test_estimate_B_rejects_a_lag_count_that_is_not_a_positive_multiple_of_P():
    # The lag count fixes N = lags / P, so no lags, or a part period, is no record.
    for lags in (0, 7):
        with pytest.raises(DimensionMismatch, match="estimate_B needs A"):
            estimate_B([[[0.5]]] * 2, [[[1.0]]] * 2, np.zeros((2, lags, 1, 1)))


def test_estimate_B_ill_conditioned_zero_output_map():
    h = np.zeros((1, 4, 1, 1))
    with pytest.raises(IllConditioned):
        estimate_B([np.array([[0.5]])], [np.array([[0.0]])], h)


def test_estimate_B_names_first_ill_conditioned_beta():
    # With A = 0 only lag 1 survives, so the regressor of B_beta is C_{beta+1}
    # alone: C_2 = C_0 = 0 leaves betas 1 and 2 singular, and 1 is reported.
    A = [np.zeros((1, 1))] * 3
    C = [np.zeros((1, 1)), np.ones((1, 1)), np.zeros((1, 1))]
    with pytest.raises(IllConditioned, match="at time 1 "):
        estimate_B(A, C, np.zeros((3, 12, 1, 1)))


@pytest.mark.parametrize("eps, raises", [(1e-11, False), (1e-13, True)])
def test_estimate_B_condition_verdict_at_the_limit(eps, raises):
    # As above, the regressor of B_1 is C_2 = diag(1, eps), of condition 1/eps:
    # the verdict read off R11 must fall on the same side of the limit as cond.
    A = np.zeros((3, 2, 2))
    C = np.stack([np.eye(2), np.eye(2), np.diag([1.0, eps])])
    h = np.random.default_rng(0).standard_normal((3, 12, 2, 1))
    if raises:
        with pytest.raises(IllConditioned, match="at time 1 "):
            estimate_B(A, C, h)
    else:
        assert np.all(np.isfinite(estimate_B(A, C, h)[0]))


@pytest.mark.parametrize(
    "A, C, h",
    [
        ([[[0.5]]] * 2, [[[1.0]]] * 2, np.zeros((2, 8, 2, 1))),  # h has n_y = 2, C has 1
        ([[[0.5]]] * 2, [np.ones((1, 2))] * 2, np.zeros((2, 8, 1, 1))),  # C is 2 wide, A is 1
        ([[[0.5]]] * 2, [[[1.0]]] * 2, np.zeros((3, 12, 1, 1))),  # h has P = 3, A and C have 2
        (np.zeros((2, 0, 0)), np.zeros((2, 1, 0)), np.zeros((2, 8, 1, 1))),  # no state
    ],
    ids=["h-ny", "C-width", "h-P", "n_x-0"],
)
def test_estimate_B_rejects_shapes_that_disagree(A, C, h):
    with pytest.raises(DimensionMismatch, match="estimate_B needs A"):
        estimate_B(A, C, h)


@pytest.mark.parametrize("P", [1, 2, 3, 12])
@pytest.mark.parametrize("N", [1, 4, 50])
def test_by_input_time_is_the_stable_argsort_of_input_times(P, N):
    reference = np.argsort(_input_times(P, N * P), axis=None, kind="stable")
    t, s = _input_slots(P)
    flat = np.arange(P * N * P).reshape(P, N, P)[t, :, s]
    np.testing.assert_array_equal(flat.ravel(), reference)


@pytest.mark.parametrize("P", [1, 2, 3, 12])
@pytest.mark.parametrize("N", [1, 4, 50])
def test_estimate_B_slot_index_equals_input_slots(P, N):
    # estimate_B's (beta, t) lag offsets, read off the input-time map, gather
    # a (tag, lag) table exactly as the old closed-form slot index did.
    table = np.random.default_rng(100 * P + N).standard_normal((P, N * P, 2))
    t, s = _input_slots(P)
    slot = _input_times(P, P).argsort(axis=1).T
    np.testing.assert_array_equal(slot, np.broadcast_to(s, (P, P)))
    gathered = table.reshape(P, N, P, -1)[np.arange(P), :, slot]
    assert np.array_equal(gathered, table.reshape(P, N, P, -1)[t, :, s])


def _estimate_B_per_beta(A, C, h, N):
    # Reference: the per-beta boolean mask and lstsq loop the stage replaced.
    P, max_lag, _, nu = h.shape
    A, C = np.asarray(A), np.asarray(C)
    resolvent = np.linalg.inv(np.eye(A.shape[1]) - np.linalg.matrix_power(_monodromies(A), N))
    rows = markov_rows(A, C @ resolvent, max_lag)
    beta_of = _input_times(P, max_lag)
    B, residual = [], 0.0
    for beta in range(P):
        G = rows[beta_of == beta].reshape(-1, rows.shape[-1])
        T = h[beta_of == beta].reshape(-1, nu)
        sol = np.linalg.lstsq(G, T, rcond=None)[0]
        B.append(sol)
        residual += float(np.sum((T - G @ sol) ** 2))
    return np.array(B), residual


@pytest.mark.parametrize(
    "fixture, N",
    [pytest.param(name, 10, id=name) for name in ("example1_norm", "example2_norm", "random")]
    # The identify-mimo size; N = 1 is one period, and 3, 5 end on a part-period step.
    + [pytest.param("mimo", N, id=f"mimo-N{N}") for N in (1, 3, 5, 50)],
)
def test_estimate_B_matches_per_beta_lstsq(fixture, N, request):
    if fixture == "random":
        model = random_stable_model(23, P=3, nx=3, ny=2, nu=2)
    elif fixture == "mimo":
        model = random_stable_model(24, P=12, nx=6, ny=2, nu=2)
    else:
        model = request.getfixturevalue(fixture)
    h = _noisy_aliased_response(model, N, 5)
    B, residual = estimate_B(model.A, model.C, h)
    B_ref, residual_ref = _estimate_B_per_beta(model.A, model.C, h, N)
    assert B.shape == (model.P, model.nx, model.nu)
    np.testing.assert_allclose(B, B_ref, rtol=0, atol=1e-12 * np.max(np.abs(B_ref)))
    assert residual.shape == h.shape and np.sum(residual**2) > 0
    np.testing.assert_allclose(np.sum(residual**2), residual_ref, rtol=1e-12)
    # The residual is h less the aliased table of the fitted model, entry by entry.
    fitted = aliased_impulse_response_true(LtpModel(A=model.A, B=tuple(B), C=model.C), N)
    np.testing.assert_allclose(residual, h - fitted, rtol=0, atol=1e-12 * np.max(np.abs(fitted)))


def test_estimate_B_peak_memory_holds_at_most_one_and_a_half_regressor_stacks(mimo_ensemble):
    # The stack of regressors and targets and numpy's copy of one input time's slice
    # inside its QR are alive at the peak; the fitted response comes after the stack.
    result = identify(mimo_ensemble, q=10, r=10, n_x=6)
    h = assemble_aliased(result.response)
    P, lags, ny, nu = h.shape
    stack = P * (result.model.nx + nu) * lags * ny * 8
    peak = traced_peak(estimate_B, result.model.A, result.model.C, h)
    assert peak <= 1.5 * stack, peak / stack


def test_identify_reads_its_fit_diagnostics_off_the_B_residual(mimo_ensemble):
    # b_residual and h_reconstruction_error are the sum of squares and the per-(tag, lag)
    # Frobenius norm of the one residual array estimate_B returns, bit for bit.
    result = identify(mimo_ensemble, q=10, r=10, n_x=6)
    B, residual = estimate_B(result.model.A, result.model.C, assemble_aliased(result.response))
    np.testing.assert_array_equal(B, result.model.B)
    assert result.b_residual == np.sum(residual * residual)
    np.testing.assert_array_equal(result.h_reconstruction_error,
                                  np.linalg.norm(residual, axis=(2, 3)))


def test_identify_peak_memory_is_set_by_etfe(mimo_ensemble):
    peak = traced_peak(identify, mimo_ensemble, 10, 10, 6)
    etfe_peak = traced_peak(etfe, mimo_ensemble)
    assert peak <= 1.1 * etfe_peak, peak / etfe_peak


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
        np.testing.assert_allclose(
            impulse_series_oracle(result.model, t, 50),
            impulse_series_oracle(model, t, 50),
            atol=1e-6,
        )
    assert result.model.nx == 2
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
            impulse_series_oracle(result.model, t, 8) - impulse_series_oracle(example1_norm, t, 8)
        ).max()
        for t in range(2)
    ]
    assert max(rep_errors) < 1e-6


def test_identify_stage_annotation_on_rank_failure(example1_norm):
    ens = with_shared_input(
        collect_ensemble(example1_norm, J=4, N=8, sigma=0.0, master_seed=2)
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


def test_identify_programming_errors_not_recorded_as_numerical(example1_norm, monkeypatch):
    # Only numerical failures become a PipelineError (and so a recorded
    # trial failure); a bug in a stage propagates as it is.
    def broken(*args):
        raise TypeError("broken stage")

    monkeypatch.setattr(subspace, "build_hankels", broken)
    ens = collect_ensemble(example1_norm, J=4, N=8, sigma=0.0, master_seed=3)
    with pytest.raises(TypeError, match="broken stage"):
        identify(ens, q=4, r=4, n_x=2)
    cfg = MonteCarloConfig(J=4, N=8, sigma=0.1, trials=3, q=4, r=4, n_x=2, seed=1)
    with pytest.raises(TypeError, match="broken stage"):
        monte_carlo(example1_norm, cfg, jobs=1)


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
    permuted = Ensemble(u=ens.u[order], y=ens.y[order], P=ens.P, N=ens.N)
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
            u=np.roll(ens.u, s, axis=1), y=np.roll(ens.y, s, axis=1), P=ens.P, N=ens.N
        )
        h_rot = impulse_table(identify(rotated, q=10, r=10, n_x=2).model, 50)
        np.testing.assert_allclose(
            h_rot, np.roll(h, s, axis=0), rtol=0, atol=1e-12 * np.max(np.abs(h))
        )


def _rotation_outcome(ens, **kwargs):
    """Impulse table, Hankel spectra and threshold counts of ``identify``, or its verdict."""
    try:
        result = identify(ens, q=6, r=6, **kwargs)
    except PipelineError as exc:
        return f"{exc.stage}: {type(exc.cause).__name__}"
    except LtpsidError as exc:
        return type(exc).__name__
    return impulse_table(result.model, 2 * ens.P), result.singular_values, result.threshold_counts


@given(
    seed=st.integers(0, 2**31 - 1),
    sizes=st.tuples(st.integers(2, 4), st.integers(1, 3), st.integers(1, 2), st.integers(1, 2)),
    data=st.data(),
)
@settings(max_examples=20, deadline=None)
@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_identify_covariant_under_period_rotation_of_random_models(sigma, seed, sizes, data):
    # Advancing every record by s samples turns tag t into tag t + s, so
    # every tag-indexed output rolls by -s; this pins the beta-major
    # indexing of the B fit and the tag bookkeeping of every stage.
    P, nx, ny, nu = sizes
    m = random_stable_model(seed, P=P, nx=nx, ny=ny, nu=nu, rho_max=0.85)
    s = data.draw(st.integers(1, P - 1), label="shift")
    ens = collect_ensemble(m, J=2 * P * m.nu, N=16, sigma=sigma, master_seed=seed)
    rolled = Ensemble(np.roll(ens.u, -s, axis=1), np.roll(ens.y, -s, axis=1), P, ens.N)
    for kwargs in ({"n_x": m.nx}, {"order_threshold": 0.1}):
        base, moved = _rotation_outcome(ens, **kwargs), _rotation_outcome(rolled, **kwargs)
        if isinstance(base, str):
            assert moved == base
            continue
        for x, y in zip(base[:2], moved[:2]):
            np.testing.assert_allclose(
                y, np.roll(x, -s, axis=0), rtol=0, atol=1e-12 * np.max(np.abs(x))
            )
        if base[2] is not None:
            np.testing.assert_array_equal(moved[2], np.roll(base[2], -s))


@pytest.mark.parametrize("fixture", ["example1_norm", "example2_norm"])
def test_identify_reconstruction_error_from_fitted_model(fixture, request):
    model = request.getfixturevalue(fixture)
    N = 20
    ens = collect_ensemble(model, J=10 * model.P, N=N, sigma=0.3, master_seed=9)
    result = identify(ens, q=8, r=8, n_x=2)
    h_est = assemble_aliased(result.response)
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
    h_a = assemble_aliased(etfe(ens_a))
    h_b = assemble_aliased(etfe(ens_b))
    np.testing.assert_allclose(h_a, h_b, atol=1e-8)
    res_a = identify(ens_a, q=8, r=8, n_x=2)
    res_b = identify(ens_b, q=8, r=8, n_x=2)
    for t in range(2):
        np.testing.assert_allclose(
            impulse_series_oracle(res_a.model, t, 16),
            impulse_series_oracle(res_b.model, t, 16),
            atol=1e-8,
        )


def test_p1_pipeline_reduces_to_lti_algorithm():
    # First-order system: the assembled response must equal the geometric
    # closed form and the identified model must match on the grid.
    m = LtpModel(A=(np.array([[0.5]]),), B=(np.array([[1.0]]),), C=(np.array([[1.0]]),))
    N = 16
    ens = collect_ensemble(m, J=3, N=N, sigma=0.0, master_seed=1)
    h_est = assemble_aliased(etfe(ens))
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
    # Noise-free data of a draw this stable is always identified: 3300 seeds
    # (0-299 and 3000 random ones) all succeeded, within 3.5e-14.
    result = identify(ens, q=6, r=6, n_x=m.nx)
    errs = [
        np.abs(
            impulse_series_oracle(result.model, t, 2 * m.P) - impulse_series_oracle(m, t, 2 * m.P)
        ).max()
        for t in range(m.P)
    ]
    assert max(errs) < 1e-5


def _identify_outcome(ens, truth, nx):
    """W of the estimate against ``truth``, or the stage and error class that stopped it."""
    try:
        return fit_metric(truth, identify(ens, q=6, r=6, n_x=nx).model).W
    except PipelineError as exc:
        return exc.stage, type(exc.cause)


@given(seed=st.integers(0, 2**31 - 1), k=st.integers(-6, 6), shared=st.booleans())
@settings(max_examples=25, deadline=None)
def test_estimates_covariant_under_signal_scaling(seed, k, shared):
    # Rescaling u or y by c = 10^k is a change of units: the response
    # estimate scales by 1/c or by c, while the rank verdict, every other
    # guard's verdict and the score W against the rescaled truth stay.
    m = random_stable_model(seed, rho_max=0.85)
    ens = collect_ensemble(m, J=m.P * m.nu + 2, N=12, sigma=0.3, master_seed=seed)
    if shared:
        ens = with_shared_input(ens)
    c = 10.0**k
    base = _identify_outcome(ens, m, m.nx)
    for u_scale, y_scale in ((c, 1.0), (1.0, c)):
        scaled = Ensemble(u=u_scale * ens.u, y=y_scale * ens.y, P=ens.P, N=ens.N)
        try:
            G = etfe(ens).G * (y_scale / u_scale)
        except RankDeficient as exc:
            with pytest.raises(RankDeficient) as scaled_exc:
                etfe(scaled)
            assert scaled_exc.value.frequency_index == exc.frequency_index
            continue
        G_scaled = etfe(scaled).G
        assert np.max(np.abs(G_scaled - G)) <= 1e-9 * np.max(np.abs(G))
        truth = LtpModel(
            A=m.A, B=tuple(b / u_scale for b in m.B), C=tuple(y_scale * C for C in m.C)
        )
        outcome = _identify_outcome(scaled, truth, m.nx)
        if isinstance(base, float):
            assert outcome == pytest.approx(base, rel=0, abs=1e-8)
        else:
            assert outcome == base
