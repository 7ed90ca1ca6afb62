"""Excitation, simulation, and spectral preprocessing of periodic experiments.

An experiment drives the system with a periodic input of length ``N*P``
(N periods of the system's period P) and records one full repetition of
the steady-state response plus measurement noise; the steady state is
computed exactly from the periodic fixed point of the state.
Ensembles bundle J such experiments; ``assemble_spectra`` lifts them over
one period and runs one stacked DFT to give the per-frequency data
matrices consumed by the frequency-response estimator.

All randomized operations are pure functions of their seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, LengthNotDivisible
from .model import LtpModel, _inverse_of_identity_minus, is_stable, lift_model

__all__ = [
    "Experiment",
    "Ensemble",
    "LiftedSpectra",
    "derive_seed",
    "generate_periodic_input",
    "simulate",
    "simulate_steady_state",
    "add_noise",
    "collect_ensemble",
    "assemble_spectra",
]

_ROLE_CODES = {"input": 0, "noise": 1}


def derive_seed(master_seed: int, index: int, role: str) -> int:
    """Deterministic per-experiment seed for one role ("input" or "noise")."""
    ss = np.random.SeedSequence([int(master_seed), int(index), _ROLE_CODES[role]])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Experiment:
    """One input-output record of length N*P.

    ``u`` has shape (N*P, n_u) and ``y`` shape (N*P, n_y). The meta fields
    record how the experiment was produced.
    """

    u: np.ndarray
    y: np.ndarray
    input_seed: int | None = None
    noise_seed: int | None = None
    sigma: float = 0.0

    def __post_init__(self) -> None:
        u = np.atleast_2d(np.asarray(self.u, dtype=np.float64))
        y = np.atleast_2d(np.asarray(self.y, dtype=np.float64))
        if u.shape[0] != y.shape[0]:
            raise ConfigError(
                f"input and output lengths differ: {u.shape[0]} vs {y.shape[0]}"
            )
        if not (np.isfinite(u).all() and np.isfinite(y).all()):
            raise DataError("experiment holds non-finite samples")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    @property
    def length(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True)
class Ensemble:
    """J experiments sharing the same period P and record length N*P.

    Requires ``J >= P * n_u`` so the lifted input spectrum can have full
    row rank at every frequency.
    """

    experiments: tuple[Experiment, ...]
    P: int
    N: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "experiments", tuple(self.experiments))
        if not self.experiments:
            raise ConfigError("ensemble needs at least one experiment")
        length = self.N * self.P
        nu, ny = self.nu, self.ny
        for i, exp in enumerate(self.experiments):
            if exp.length != length:
                raise ConfigError(
                    f"experiment {i} has length {exp.length}, expected N*P={length}"
                )
            if exp.u.shape[1] != nu or exp.y.shape[1] != ny:
                raise ConfigError(
                    f"experiment {i} has channel counts "
                    f"({exp.u.shape[1]}, {exp.y.shape[1]}), expected ({nu}, {ny})"
                )
        if self.J < self.P * nu:
            raise ConfigError(
                f"need J >= P*n_u = {self.P * nu} experiments for full row-rank "
                f"excitation, got J={self.J}"
            )

    @property
    def J(self) -> int:
        return len(self.experiments)

    @property
    def nu(self) -> int:
        return self.experiments[0].u.shape[1]

    @property
    def ny(self) -> int:
        return self.experiments[0].y.shape[1]


def generate_periodic_input(P: int, N: int, n_u: int, seed: int) -> np.ndarray:
    """One full period of excitation: (N*P, n_u) i.i.d. standard normal entries."""
    if P < 1 or N < 1 or n_u < 1:
        raise ConfigError(f"P, N, n_u must be >= 1, got {(P, N, n_u)}")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((N * P, n_u))


def simulate(model: LtpModel, u: np.ndarray, x0: np.ndarray | None = None) -> np.ndarray:
    """Noise-free response to ``u`` from initial state ``x0`` (default zero).

    Time starts at t=0, so ``u[t]`` meets the matrices at index ``t mod P``.
    Steps one sample at a time: the time-domain reference for the lifted steady state.
    """
    u = np.atleast_2d(np.asarray(u, float))
    if u.shape[-1] != model.nu:
        raise ConfigError(f"input has {u.shape[-1]} channels, model expects {model.nu}")
    x = np.zeros(model.nx) if x0 is None else np.asarray(x0, float).reshape(model.nx)
    y = np.empty((u.shape[0], model.ny))
    for t in range(u.shape[0]):
        i = t % model.P
        y[t] = x @ model.C[i].T
        x = x @ model.A[i].T + u[t] @ model.B[i].T
    return y


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
    stab = is_stable(model)
    if not stab.stable:
        raise ConfigError(
            f"model is not stable (spectral radius {stab.spectral_radius:.4f}); "
            "steady-state data collection requires stability"
        )
    lifted = lift_model(model)
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


def add_noise(
    y: np.ndarray, sigma: float, seed: int, ma_theta: float = 0.0
) -> np.ndarray:
    """Add zero-mean Gaussian measurement noise of std ``sigma`` per channel.

    With ``ma_theta != 0`` the noise is a first-order moving average
    ``(e(t) + theta*e(t-1)) / sqrt(1 + theta^2)`` of i.i.d. draws, which
    keeps the marginal variance at ``sigma^2`` but introduces one-lag
    correlation in time.
    """
    if sigma < 0:
        raise ConfigError(f"sigma must be >= 0, got {sigma}")
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if sigma == 0:
        return y.copy()
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(y.shape)
    if ma_theta != 0.0:
        w = e.copy()
        w[1:] += ma_theta * e[:-1]
        w /= np.sqrt(1.0 + ma_theta**2)
    else:
        w = e
    return y + sigma * w


def collect_ensemble(
    model: LtpModel,
    J: int,
    N: int,
    sigma: float,
    master_seed: int,
    shared_input: bool = False,
    ma_theta: float = 0.0,
) -> Ensemble:
    """Run J independent steady-state experiments with noisy outputs.

    Each experiment gets a fresh input pattern and an independent noise
    stream, both seeded deterministically from ``master_seed`` and the
    experiment index. ``shared_input=True`` reuses experiment 0's pattern
    everywhere (ablation switch; the default fresh patterns are what make
    the lifted input spectrum full row rank with probability one).
    """
    if J < model.P * model.nu:
        raise ConfigError(
            f"need J >= P*n_u = {model.P * model.nu} experiments, got J={J}"
        )
    input_seeds = [
        derive_seed(master_seed, 0 if shared_input else i, "input") for i in range(J)
    ]
    noise_seeds = [derive_seed(master_seed, i, "noise") for i in range(J)]
    patterns = np.stack(
        [generate_periodic_input(model.P, N, model.nu, seed) for seed in input_seeds]
    )
    clean = simulate_steady_state(model, patterns)
    experiments = tuple(
        Experiment(
            u=u,
            y=add_noise(y, sigma, noise_seed, ma_theta=ma_theta),
            input_seed=input_seed,
            noise_seed=noise_seed,
            sigma=sigma,
        )
        for u, y, input_seed, noise_seed in zip(patterns, clean, input_seeds, noise_seeds)
    )
    return Ensemble(experiments=experiments, P=model.P, N=N)


@dataclass(frozen=True)
class LiftedSpectra:
    """Per-frequency data matrices of a lifted ensemble.

    ``U[k]`` is (P*n_u, J) and ``Y[k]`` is (P*n_y, J): column i holds
    experiment i's lifted input/output spectrum at grid frequency
    ``2*pi*k/N``. Real time-domain data makes the grid conjugate
    symmetric.
    """

    P: int
    U: np.ndarray = field(repr=False)  # (N, P*nu, J) complex
    Y: np.ndarray = field(repr=False)  # (N, P*ny, J) complex

    def __post_init__(self) -> None:
        U = np.asarray(self.U, dtype=np.complex128)
        Y = np.asarray(self.Y, dtype=np.complex128)
        if U.ndim != 3 or Y.ndim != 3 or U.shape[0] != Y.shape[0] or U.shape[2] != Y.shape[2]:
            raise ConfigError(
                f"spectra shapes incompatible: U {U.shape}, Y {Y.shape}"
            )
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "Y", Y)

    @property
    def N(self) -> int:
        return self.U.shape[0]


def assemble_spectra(ensemble: Ensemble) -> LiftedSpectra:
    """Lift every experiment over one period and DFT it, all in one transform.

    Lifted sample n of an experiment stacks its samples ``nP .. nP+P-1``;
    ``U[k]`` holds, column per experiment, the unnormalized DFT
    ``sum_n u_lifted[n] * exp(-2j*pi*n*k/N)``, and likewise ``Y[k]``.
    """
    J, N, P = ensemble.J, ensemble.N, ensemble.P

    def spectra(signals) -> np.ndarray:
        lifted = np.stack(signals).reshape(J, N, -1)
        return np.ascontiguousarray(np.fft.fft(lifted, axis=1).transpose(1, 2, 0))

    return LiftedSpectra(
        P=P,
        U=spectra([e.u for e in ensemble.experiments]),
        Y=spectra([e.y for e in ensemble.experiments]),
    )
