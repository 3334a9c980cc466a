"""Rayleigh-fading CNR ensembles and per-subcarrier order statistics.

CNRs are sampled directly in power space: the squared envelope of a
Rayleigh channel with unit noise is exponential, so each entry is an
independent exponential draw with mean ``rho``.

Each realization is produced from its own counter-based Philox stream
keyed by ``(seed, index)``, so realization ``i`` is a pure function of
the seed and its index: regeneration is bit-identical for any count,
prefix-stable when the count grows, and safe to parallelize.

Both solver families read the per-subcarrier order statistics from
here: an ensemble's ``alpha`` is read-only, so what no price changes is
computed once per ensemble and kept, read-only, by ``ensemble.memo``:
``order_stats``, the strongest-NU index and its breakpoint order, and
the dual solver's no-secrecy price.  ``ensemble.su_columns(k1)`` are the
columns an SU can win, ``secrecy_limit`` its cap on them, and
``check_reachable`` the one test of the targets against that cap.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import ProblemConfig, whole_number

_MAGIC = b"CNR1"
_HEADER = struct.Struct("<4sIIIdq")  # magic, K, N, count, rho, seed


def _checked_seed(seed) -> int:
    """``seed`` as an int: Philox needs a key >= 0 and the header an int64."""
    return whole_number("seed", seed, 0, 2**63)


@dataclass(frozen=True)
class ChannelEnsemble:
    """Ordered stack of i.i.d. channel realizations.

    The ensemble does not copy ``alpha``: it keeps a read-only view, so
    nothing writes through it under what ``memo`` keeps.  The caller's
    own array stays writable and must not change under it.
    """

    alpha: np.ndarray  # shape (count, K, N)
    seed: int
    rho: float
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        if a.ndim != 3 or a.shape[0] < 1 or a.shape[1] < 2 or a.shape[2] < 1:
            raise ValueError("alpha must be a nonempty (count, K, N) stack "
                             "of K >= 2 users and N >= 1 subcarriers")
        # two reductions and no temporaries; a NaN propagates and fails both
        if not (a.min() > 0 and a.max() < np.inf):
            raise ValueError("alpha entries must be positive and finite")
        if not 0 < self.rho < np.inf:
            raise ValueError("rho must be finite and > 0")
        a = a.view()
        a.flags.writeable = False
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "seed", _checked_seed(self.seed))

    def memo(self, key, build):
        """The value kept under ``key``, from ``build()`` on its first lookup.

        Every solve on the ensemble shares it, so each array kept, alone
        or in a tuple, is made read-only.
        """
        if key not in self._kept:
            value = build()
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.flags.writeable = False
            self._kept[key] = value
        return self._kept[key]

    @property
    def order_stats(self):
        """``column_order_stats(alpha)``, computed once.

        ``kmax`` is kept in the smallest unsigned type that holds a user
        index (uint8 up to 256 users), not the int64 ``argmax`` returns.
        """
        def build():
            nu1, nu2, kmax = column_order_stats(self.alpha)
            return nu1, nu2, kmax.astype(np.min_scalar_type(self.n_users - 1))
        return self.memo("order_stats", build)

    def su_columns(self, k1: int):
        """The columns whose largest CNR belongs to one of the ``k1`` SUs.

        Returns ``(idx, su, nu1, nu2)``: the ascending flat ``t*N + n``
        index of each column, the SU holding its maximum and its top two
        CNRs.  Only these columns can pay an SU a positive secrecy rate.
        """
        nu1, nu2, kmax = self.order_stats
        idx = np.flatnonzero(kmax < k1)
        return idx, kmax.ravel()[idx], nu1.ravel()[idx], nu2.ravel()[idx]

    @property
    def count(self) -> int:
        return self.alpha.shape[0]

    @property
    def n_users(self) -> int:
        return self.alpha.shape[1]

    @property
    def n_subcarriers(self) -> int:
        return self.alpha.shape[2]


def check_dimensions(ensemble: ChannelEnsemble, config: ProblemConfig) -> None:
    """Reject an ensemble whose user or subcarrier count is not the config's."""
    if (ensemble.n_users, ensemble.n_subcarriers) != (
        config.n_users, config.n_subcarriers,
    ):
        raise ValueError("ensemble dimensions do not match the config")


def generate_ensemble(config: ProblemConfig, count: int, seed: int) -> ChannelEnsemble:
    """Draw ``count`` i.i.d. exponential CNR matrices with mean ``config.rho``."""
    count = whole_number("count", count, 1)
    seed = _checked_seed(seed)  # before the draw, which needs a valid key
    k, n = config.n_users, config.n_subcarriers
    alpha = np.empty((count, k, n), dtype=float)
    # one generator, reset before each draw to realization i's own 256-bit
    # counter block (2**128 draws of room): the stream of a fresh
    # Philox(key=seed, counter=i << 128), without building one per draw
    bits = np.random.Philox(key=seed)
    draw = np.random.Generator(bits).random
    fresh = bits.state
    for i in range(count):
        fresh["state"]["counter"][2] = i
        bits.state = fresh
        draw(out=alpha[i])
    # alpha = -rho * log1p(-u), in place
    np.negative(alpha, out=alpha)
    np.log1p(alpha, out=alpha)
    np.multiply(-config.rho, alpha, out=alpha)
    # u == 0 happens with probability 2**-53 per draw; keep alpha > 0 strict
    np.maximum(alpha, np.finfo(float).tiny, out=alpha)
    return ChannelEnsemble(alpha=alpha, seed=seed, rho=float(config.rho))


def column_order_stats(alpha: np.ndarray):
    """Vectorized top-two statistics along the user axis.

    ``alpha`` has shape (..., K, N); returns ``(nu1, nu2, kmax)`` each of
    shape (..., N), with first-index tie-breaking on ``kmax``.
    """
    if alpha.shape[-2] < 2:
        raise ValueError("order statistics need at least 2 users")
    kmax = np.argmax(alpha, axis=-2)
    nu1 = np.take_along_axis(alpha, kmax[..., None, :], axis=-2)[..., 0, :]
    masked = np.array(alpha, copy=True)
    np.put_along_axis(masked, kmax[..., None, :], -np.inf, axis=-2)
    nu2 = masked.max(axis=-2)
    return nu1, nu2, kmax


def secrecy_limit(nu1, nu2, su, k1: int, t_count: int) -> np.ndarray:
    """Per-SU mean secrecy rate at unbounded power over SU-max columns.

    Every column with a positive gap is active at rate ``ln(nu1/nu2)``;
    ``su`` is the SU holding each column, ``t_count`` the frame count.
    """
    pos = nu1 > nu2
    return np.bincount(su[pos], np.log(nu1[pos] / nu2[pos]), minlength=k1) / t_count


class SecrecyInfeasibleError(RuntimeError):
    """A secrecy target at or above its SU's unbounded-power limit."""

    def __init__(self, su_index: int, achievable: float, target: float):
        self.su_index, self.achievable, self.target = su_index, achievable, target
        super().__init__(
            f"SU {su_index}: secrecy target {target:.4g} is not below the "
            f"ensemble's unbounded-power limit {achievable:.4g}"
        )


def check_reachable(targets, limit) -> None:
    """Raise ``SecrecyInfeasibleError`` for the first SU with 0 < C_k >= limit_k:
    the rate reaches ``secrecy_limit`` only at unbounded power."""
    out = np.flatnonzero((targets > 0) & (targets >= limit))
    if out.size:
        k = out[0]
        raise SecrecyInfeasibleError(int(k), float(limit[k]), float(targets[k]))


def _encode(ensemble: ChannelEnsemble):
    """The file's 32-byte header and its float64 payload, as bytes."""
    header = _HEADER.pack(_MAGIC, ensemble.n_users, ensemble.n_subcarriers,
                          ensemble.count, ensemble.rho, ensemble.seed)
    return header, np.ascontiguousarray(ensemble.alpha, dtype="<f8").tobytes()


def save_ensemble(ensemble: ChannelEnsemble, path) -> None:
    """Write the documented flat binary format.

    Layout: 32-byte little-endian header ``(magic 'CNR1', K:u32, N:u32,
    count:u32, rho:f64, seed:i64)`` followed by ``count`` row-major
    float64 (K, N) matrices.  Round-trips losslessly at 64-bit precision.
    """
    with open(path, "wb") as fh:
        fh.writelines(_encode(ensemble))


def load_ensemble(path) -> ChannelEnsemble:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: not an ensemble file")
        magic, k, n, count, rho, seed = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not an ensemble file")
        payload = fh.read()
    expected = 8 * count * k * n
    if len(payload) != expected:
        kind = "truncated" if len(payload) < expected else "oversized"
        raise ValueError(f"{path}: {kind} ensemble payload: {len(payload)} bytes, "
                         f"expected {expected}")
    alpha = np.frombuffer(payload, dtype="<f8").reshape(count, k, n).astype(float)
    return ChannelEnsemble(alpha=alpha, seed=seed, rho=rho)


def ensemble_hash(ensemble: ChannelEnsemble) -> str:
    """Content hash of the ensemble (header fields plus raw samples)."""
    h = hashlib.sha256()
    for part in _encode(ensemble):
        h.update(part)
    return h.hexdigest()
