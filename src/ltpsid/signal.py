"""Excitation, steady-state simulation, and spectral preprocessing of periodic experiments.

An experiment drives the system with a periodic input of length ``N*P``
(N periods of the system's period P) and records one full repetition of
the steady-state response plus i.i.d. Gaussian measurement noise; the
steady state is computed exactly from the periodic fixed point of the state.
Ensembles stack J such experiments in two arrays; ``assemble_spectra``
lifts them over one period and runs one stacked real DFT to give the
half-grid data matrices consumed by the frequency-response estimator.

All randomized operations are pure functions of their seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, LengthNotDivisible
from .model import LtpModel, _inverse_of_identity_minus, _stability, lift_model

__all__ = [
    "Ensemble",
    "LiftedSpectra",
    "derive_seed",
    "generate_periodic_input",
    "simulate_steady_state",
    "add_noise",
    "collect_ensemble",
    "assemble_spectra",
]

# Last index of an experiment's seed: which of its two random streams it drives.
INPUT_STREAM = 0
NOISE_STREAM = 1


def derive_seed(master_seed: int, *indices: int) -> int:
    """Deterministic sub-seed of ``master_seed`` for one index path.

    Experiment i of an ensemble draws its input from
    ``derive_seed(master, i, INPUT_STREAM)`` and its noise from
    ``derive_seed(master, i, NOISE_STREAM)``; the studies derive one
    master seed per trial as ``derive_seed(master, t)``.
    """
    ss = np.random.SeedSequence([int(master_seed), *[int(i) for i in indices]])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Ensemble:
    """J experiments sharing the same period P and record length N*P, stacked.

    ``u`` has shape (J, N*P, n_u) and ``y`` shape (J, N*P, n_y); experiment
    i is ``u[i], y[i]``. The seeds (one per experiment, ``None`` when
    unknown) and ``sigma`` record how the experiments were produced.
    Requires ``J >= P * n_u`` so the lifted input spectrum can have full
    row rank at every frequency.
    """

    u: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    P: int
    N: int
    input_seeds: tuple[int | None, ...] | None = None
    noise_seeds: tuple[int | None, ...] | None = None
    sigma: float = 0.0

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if u.ndim != 3 or y.ndim != 3 or u.shape[:2] != y.shape[:2]:
            raise ConfigError(
                f"u and y must have shapes (J, N*P, n_u) and (J, N*P, n_y), "
                f"got {u.shape} and {y.shape}"
            )
        if u.shape[0] == 0:
            raise ConfigError("ensemble needs at least one experiment")
        if u.shape[1] != self.N * self.P:
            raise ConfigError(
                f"records have length {u.shape[1]}, expected N*P={self.N * self.P}"
            )
        if not (np.isfinite(u).all() and np.isfinite(y).all()):
            raise DataError("experiment holds non-finite samples")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)
        for name in ("input_seeds", "noise_seeds"):
            seeds = getattr(self, name)
            seeds = (None,) * self.J if seeds is None else tuple(seeds)
            if len(seeds) != self.J:
                raise ConfigError(f"{name} holds {len(seeds)} entries, expected J={self.J}")
            object.__setattr__(self, name, seeds)
        if self.J < self.P * self.nu:
            raise ConfigError(
                f"need J >= P*n_u = {self.P * self.nu} experiments for full row-rank "
                f"excitation, got J={self.J}"
            )

    @property
    def J(self) -> int:
        return self.u.shape[0]

    @property
    def nu(self) -> int:
        return self.u.shape[2]

    @property
    def ny(self) -> int:
        return self.y.shape[2]


def generate_periodic_input(P: int, N: int, n_u: int, seed: int) -> np.ndarray:
    """One full period of excitation: (N*P, n_u) i.i.d. standard normal entries."""
    if P < 1 or N < 1 or n_u < 1:
        raise ConfigError(f"P, N, n_u must be >= 1, got {(P, N, n_u)}")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((N * P, n_u))


def simulate_steady_state(model: LtpModel, patterns: np.ndarray) -> np.ndarray:
    """Steady-state output of a stable model under periodically repeated input.

    ``patterns`` is one (T, n_u) pattern or a (J, T, n_u) stack, with T a
    multiple of P. Each pattern is lifted to N = T/P samples of one period
    and run, batched over J, through ``lift_model``: a pass of the lifted
    step from the zero state ends in ``x_N``, the periodic fixed point is
    ``x0 = (I - A_L^N)^{-1} x_N``, and a pass from ``x0`` records the N
    period-start states that give the (T, n_y) or (J, T, n_y) outputs.
    """
    u = np.asarray(patterns, dtype=np.float64)
    if u.ndim not in (2, 3):
        raise ConfigError(
            f"patterns must have shape (T, n_u) or (J, T, n_u), got {u.shape}"
        )
    if u.shape[-1] != model.nu:
        raise ConfigError(f"input has {u.shape[-1]} channels, model expects {model.nu}")
    if u.shape[-2] % model.P != 0:
        raise LengthNotDivisible(
            f"pattern length {u.shape[-2]} not divisible by P={model.P}"
        )
    lifted = lift_model(model)
    _stability(lifted.A[None], ConfigError, "model is not stable (spectral radius {rho:.4f}); "
               "steady-state data collection requires stability")
    N = u.shape[-2] // model.P
    u_lifted = u.reshape(u.shape[:-2] + (N, -1))
    drive = u_lifted @ lifted.B.T
    x = np.zeros(drive.shape[:-2] + (model.nx,))
    for n in range(N):
        x = x @ lifted.A.T + drive[..., n, :]
    x = x @ _inverse_of_identity_minus(np.linalg.matrix_power(lifted.A, N)).T
    X = np.empty(drive.shape)
    for n in range(N):
        X[..., n, :] = x
        x = x @ lifted.A.T + drive[..., n, :]
    y = X @ lifted.C.T + u_lifted @ lifted.D.T
    return y.reshape(u.shape[:-1] + (model.ny,))


def add_noise(y: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """Add zero-mean i.i.d. Gaussian measurement noise of std ``sigma`` per channel."""
    if not 0 <= sigma < np.inf:
        raise ConfigError(f"sigma must be a finite number >= 0, got {sigma}")
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if sigma == 0:
        return y.copy()
    rng = np.random.default_rng(seed)
    return y + sigma * rng.standard_normal(y.shape)


def collect_ensemble(
    model: LtpModel, J: int, N: int, sigma: float, master_seed: int
) -> Ensemble:
    """Run J independent steady-state experiments with noisy outputs.

    Each experiment gets a fresh input pattern and an independent noise
    stream, both seeded deterministically from ``master_seed`` and the
    experiment index. The fresh patterns are what make the lifted input
    spectrum full row rank with probability one.
    """
    if J < model.P * model.nu:
        raise ConfigError(
            f"need J >= P*n_u = {model.P * model.nu} experiments, got J={J}"
        )
    input_seeds = tuple(derive_seed(master_seed, i, INPUT_STREAM) for i in range(J))
    noise_seeds = tuple(derive_seed(master_seed, i, NOISE_STREAM) for i in range(J))
    u = np.stack(
        [generate_periodic_input(model.P, N, model.nu, seed) for seed in input_seeds]
    )
    y = simulate_steady_state(model, u)
    for i, seed in enumerate(noise_seeds):
        y[i] = add_noise(y[i], sigma, seed)
    return Ensemble(u, y, model.P, N, input_seeds, noise_seeds, sigma)


@dataclass(frozen=True)
class LiftedSpectra:
    """Per-frequency data matrices of a lifted ensemble on the half grid.

    ``U[k]`` is (P*n_u, J) and ``Y[k]`` is (P*n_y, J): column i holds
    experiment i's lifted input/output spectrum at grid frequency
    ``2*pi*k/N`` for k = 0..N//2; the rest of the grid of real data is the
    conjugate mirror ``U[N-k] = conj(U[k])`` and is not stored.
    """

    P: int
    N: int
    U: np.ndarray = field(repr=False)  # (N//2+1, P*nu, J) complex
    Y: np.ndarray = field(repr=False)  # (N//2+1, P*ny, J) complex

    def __post_init__(self) -> None:
        U = np.asarray(self.U, dtype=np.complex128)
        Y = np.asarray(self.Y, dtype=np.complex128)
        half = self.N // 2 + 1
        if U.ndim != 3 or Y.ndim != 3 or U.shape[2] != Y.shape[2] or {len(U), len(Y)} != {half}:
            raise ConfigError(
                f"spectra shapes incompatible with N={self.N}: U {U.shape}, Y {Y.shape}; "
                "expected (N//2+1, P*nu, J) and (N//2+1, P*ny, J)"
            )
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "Y", Y)


def assemble_spectra(ensemble: Ensemble) -> LiftedSpectra:
    """Lift every experiment over one period and DFT it, one real transform per signal.

    Lifted sample n of an experiment stacks its samples ``nP .. nP+P-1``;
    ``U[k]`` holds, column per experiment, the unnormalized DFT
    ``sum_n u_lifted[n] * exp(-2j*pi*n*k/N)`` for k = 0..N//2, and likewise ``Y[k]``.
    """
    J, N = ensemble.J, ensemble.N

    def spectra(signals: np.ndarray) -> np.ndarray:
        return np.fft.rfft(signals.reshape(J, N, -1), axis=1).transpose(1, 2, 0)

    return LiftedSpectra(P=ensemble.P, N=N, U=spectra(ensemble.u), Y=spectra(ensemble.y))
