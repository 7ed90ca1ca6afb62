"""Excitation and steady-state simulation of periodic experiments.

An experiment drives the system with a periodic input of length ``N*P``
(N periods of the system's period P) and records one full repetition of
the steady-state response plus i.i.d. Gaussian measurement noise; the
steady state is computed exactly from the periodic fixed point of the state.
Ensembles stack J such experiments in two arrays and check their own
values by the rules of ``errors`` (a NaN or infinite sample is a
``ConfigError`` naming ``u`` or ``y``), in memory as in a manifest; the
frequency-response estimator ``etfe`` reads them as they are.

All randomized operations are pure functions of their seeds. A batch of seeds or generators
comes from one batched pass of numpy's SeedSequence hash, equal to it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, LengthNotDivisible, _array_fits, _integer, _real, _real_array
from .model import LtpModel, _aliasing_resolvent, _memoized, lift_model

__all__ = [
    "Ensemble",
    "derive_seed",
    "simulate_steady_state",
    "collect_ensemble",
]

# Last index of an experiment's seed: which of its two random streams it drives.
INPUT_STREAM = 0
NOISE_STREAM = 1

# numpy's SeedSequence hash: a pool of 4 uint32 words, its hash and mix constants.
_POOL, _WORD = 4, 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """(n+1, 1) uint32 constants ``h_k = init * mult**k`` mod 2**32 of n successive hashes."""
    return np.array([init] + [mult] * n, dtype=np.uint32).cumprod(dtype=np.uint32)[:, None]


def _hash(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hash k of a run: xor with ``h_k``, multiply by ``h_{k+1}``, xorshift."""
    values = (values ^ xor) * mul
    return values ^ (values >> np.uint32(16))


def _seed_state(entropy_words: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(n_words, np.uint64)`` for B entropies at once.

    Takes (B, W) words below 2**32 and gives (B, n_words) uint64: numpy's documented algorithm
    without a spawn key, on (4, B) pools, where uint32 arithmetic wraps silently.
    """
    B, W = np.shape(entropy_words)
    words = np.zeros((max(W, _POOL), B), dtype=np.uint32)  # zeros past the W words
    words[:W] = np.transpose(entropy_words)
    src, dst = np.arange(len(words))[:, None], np.arange(_POOL)
    h = _hash_constants(_INIT_A, _MULT_A, _POOL * len(words))
    pool = _hash(words[:_POOL], h[:_POOL], h[1 : _POOL + 1])
    # Word s (the pool's, then those past it) mixes into each other pool word as hash k[s, dst].
    k = _POOL * src + np.maximum(_POOL - src, 0) + dst - (dst >= src)
    for s, (xor, mul) in enumerate(zip(h[k], h[k + 1])):
        mixed = _MIX_L * pool - _MIX_R * _hash(pool[s] if s < _POOL else words[s], xor, mul)
        pool = np.where(dst[:, None] == s, pool, mixed ^ (mixed >> np.uint32(16)))
    h = _hash_constants(_INIT_B, _MULT_B, 2 * n_words)
    state = _hash(pool[np.arange(2 * n_words) % _POOL], h[:-1], h[1:])
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)  # low word first


def derive_seed(master_seed: int, *indices) -> int | np.ndarray:
    """``SeedSequence([master_seed, *indices]).generate_state(1, np.uint64)[0]``.

    The master is an integer >= 0 and each index an integer (of integer dtype, not bool)
    in 0..2**32-1, else ``ConfigError``; array indices broadcast to a uint64 array of seeds.
    Experiment i of an ensemble draws its input and noise from indices ``(i, INPUT_STREAM)``
    and ``(i, NOISE_STREAM)``, and trial t of a study runs on the master
    ``derive_seed(master, t)``.
    """
    master = _integer("master seed", master_seed, 0, np.inf)
    index = [np.asarray(i) for i in indices]
    if any(i.dtype.kind not in "iu" for i in index):
        raise ConfigError(f"seed indices must be integers, got {indices}")
    if any(np.any((i < 0) | (i > _WORD)) for i in index):
        raise ConfigError(f"seed indices must lie in 0..2**32-1, got {indices}")
    # numpy splits an integer into little-endian 32-bit words, at least one.
    words = [(master >> s) & _WORD for s in range(0, max(master.bit_length(), 1), 32)]
    shape = np.broadcast_shapes(*(i.shape for i in index))
    entropy = np.empty((*shape, len(words) + len(index)), dtype=np.uint32)
    for k, column in enumerate(words + index):
        entropy[..., k] = column
    rows = entropy.reshape(-1, entropy.shape[-1])
    seeds = (_seed_state(rows, 1)[:, 0] if len(rows) != 1  # numpy's hash is quicker for one
             else np.random.SeedSequence(rows[0].tolist()).generate_state(1, np.uint64))
    return int(seeds[0]) if shape == () else seeds.reshape(shape)


@dataclass(eq=False)
class _State(np.random.bit_generator.ISeedSequence):
    """One seed's precomputed SeedSequence state, handed to PCG64 to seed itself."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _generators(seeds) -> list[np.random.Generator]:
    """``default_rng(seed)`` for every uint64 seed, from one batched hash of ``(lo, hi)`` words.

    A seed below 2**32 hashes as ``[lo, 0]``: a zero word inside the pool changes nothing.
    """
    state = _seed_state(np.asarray(seeds, dtype="<u8").view("<u4").reshape(-1, 2), 4)
    return [np.random.Generator(np.random.PCG64(_State(row))) for row in state]


@dataclass(frozen=True, eq=False)
class Ensemble:
    """J experiments sharing the same period P and record length N*P, stacked.

    ``u`` has shape (J, N*P, n_u) and ``y`` shape (J, N*P, n_y); experiment
    i is ``u[i], y[i]``. The seeds (one per experiment, ``None`` when
    unknown) and ``sigma`` record how the experiments were produced.
    P and N are integers >= 1, J, n_u and n_y at least 1, each seed None or
    an integer >= 0 (kept as an int) and sigma a finite number >= 0, else
    ``ConfigError``. Requires ``J >= P * n_u`` so the lifted input spectrum
    can have full row rank at every frequency. These rules hold in memory as
    in a manifest.
    """

    u: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    P: int
    N: int
    input_seeds: tuple[int | None, ...] | None = None
    noise_seeds: tuple[int | None, ...] | None = None
    sigma: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "P", _integer("P", self.P, 1))
        object.__setattr__(self, "N", _integer("N", self.N, 1))
        object.__setattr__(self, "sigma", _real("sigma", self.sigma, 0))
        u, y = _real_array("u", self.u), _real_array("y", self.y)
        if u.ndim != 3 or y.ndim != 3 or u.shape[:2] != y.shape[:2]:
            raise ConfigError(
                f"u and y must have shapes (J, N*P, n_u) and (J, N*P, n_y), "
                f"got {u.shape} and {y.shape}"
            )
        if 0 in u.shape or 0 in y.shape:
            raise ConfigError(f"u and y must have no empty dimension, got {u.shape} and {y.shape}")
        if u.shape[1] != self.N * self.P:
            raise ConfigError(f"records have length {u.shape[1]}, expected N*P={self.N * self.P}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)
        for name in ("input_seeds", "noise_seeds"):
            seeds = getattr(self, name)
            seeds = (None,) * self.J if seeds is None else tuple(seeds)
            if len(seeds) != self.J:
                raise ConfigError(f"{name} holds {len(seeds)} entries, expected J={self.J}")
            object.__setattr__(self, name, tuple(s if s is None else _integer(
                f"{name}[{i}]", s, 0, np.inf) for i, s in enumerate(seeds)))
        if self.J < self.P * self.nu:
            raise ConfigError(f"need J >= P*n_u = {self.P * self.nu} experiments, got J={self.J}; "
                              "full row-rank excitation needs that many")

    @property
    def J(self) -> int:
        return self.u.shape[0]

    @property
    def nu(self) -> int:
        return self.u.shape[2]

    @property
    def ny(self) -> int:
        return self.y.shape[2]


def simulate_steady_state(model: LtpModel, patterns: np.ndarray) -> np.ndarray:
    """Steady-state output of a stable model under periodically repeated input.

    ``patterns`` is one (T, n_u) pattern or a (J, T, n_u) stack, with T a
    multiple of P. Each pattern is lifted to N = T/P samples of one period
    and run, batched over J, through ``lift_model``: a pass of the lifted
    step from the zero state ends in ``x_N``, the periodic fixed point is
    ``x0 = (I - A_L^N)^{-1} x_N``, and a pass from ``x0`` records the N
    period-start states that give the (T, n_y) or (J, T, n_y) outputs.
    ``model._aliasing_resolvent`` checks stability and gives the resolvent, memoized per N.
    """
    u = _real_array("patterns", patterns)
    if u.ndim not in (2, 3):
        raise ConfigError(f"patterns must have shape (T, n_u) or (J, T, n_u), got {u.shape}")
    if u.shape[-1] != model.nu:
        raise ConfigError(f"input has {u.shape[-1]} channels, model expects {model.nu}")
    if u.size == 0:
        raise ConfigError(f"patterns must hold at least one sample, got shape {u.shape}")
    if u.shape[-2] % model.P != 0:
        raise LengthNotDivisible(f"pattern length {u.shape[-2]} not divisible by P={model.P}")
    lifted, N = lift_model(model), u.shape[-2] // model.P
    to_fixed_point = _memoized(model, ("resolvent", N), lambda: _aliasing_resolvent(
        lifted.A[None], N, ConfigError, "model is not stable (spectral radius {rho:.4f}); "
        "steady-state data collection requires stability")[0]).T
    u_lifted = u.reshape(u.shape[:-2] + (N, -1))
    drive = u_lifted @ lifted.B.T
    x = np.zeros(drive.shape[:-2] + (model.nx,))
    for n in range(N):
        x = x @ lifted.A.T + drive[..., n, :]
    x = x @ to_fixed_point
    X = np.empty(drive.shape)
    for n in range(N):
        X[..., n, :] = x
        x = x @ lifted.A.T + drive[..., n, :]
    y = X @ lifted.C.T + u_lifted @ lifted.D.T
    return y.reshape(u.shape[:-1] + (model.ny,))


def collect_ensemble(
    model: LtpModel, J: int, N: int, sigma: float, master_seed: int
) -> Ensemble:
    """Run J independent steady-state experiments with noisy outputs.

    Each experiment gets a fresh input pattern and an independent noise
    stream, both seeded deterministically from ``master_seed`` and the
    experiment index. The fresh patterns are what make the lifted input
    spectrum full row rank with probability one. Experiment i's input is
    ``default_rng(input_seeds[i]).standard_normal((N*P, n_u))`` and its
    noise ``sigma * default_rng(noise_seeds[i]).standard_normal((N*P, n_y))``.
    J and N are integers >= 1 and sigma a finite number >= 0, else ``ConfigError``;
    ``Ensemble`` checks ``J >= P*n_u``, and ``_array_fits`` that numpy can hold the samples.
    """
    sigma = _real("sigma", sigma, 0)
    J, N = _integer("J", J, 1), _integer("N", N, 1)
    _array_fits("ensemble (J, N, P, channels)", J, N, model.P, max(model.nu, model.ny))
    seeds = derive_seed(master_seed, np.arange(J)[:, None], [INPUT_STREAM, NOISE_STREAM])
    rngs = _generators(seeds.ravel())
    u = np.empty((J, N * model.P, model.nu))
    for i in range(J):
        rngs[2 * i + INPUT_STREAM].standard_normal(out=u[i])
    y = simulate_steady_state(model, u)
    if sigma:
        noise = np.empty_like(y)
        for i in range(J):
            rngs[2 * i + NOISE_STREAM].standard_normal(out=noise[i])
        noise *= sigma
        y += noise
    return Ensemble(u, y, model.P, N, *map(tuple, seeds.T.tolist()), sigma)
