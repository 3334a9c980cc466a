"""Problem and solver configuration containers.

All quantities are linear and noise-normalized: channel entries are CNRs,
rates are in nats per OFDM symbol, and the power budget is the total
transmit SNR in linear scale.  dB conversion happens only at the CLI /
file boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

MODES = ("average", "peak")
CONFIG_KEYS = {"N", "K", "K1", "C", "omega", "snr_db", "mode", "rho"}
RUN_KEYS = CONFIG_KEYS | {"realizations", "seed", "epsilon", "solver"}


def snr_db_to_power(snr_db: float) -> float:
    """Total transmit SNR in dB -> linear power budget (unit noise)."""
    return float(10.0 ** (snr_db / 10.0))


def power_to_snr_db(power: float) -> float:
    return float(10.0 * np.log10(power))


@dataclass
class ProblemConfig:
    """Static description of one allocation problem instance.

    Users 0..n_secure-1 are secure users (SUs) with average secrecy-rate
    targets; users n_secure..n_users-1 are best-effort normal users (NUs)
    with positive objective weights.
    """

    n_subcarriers: int
    n_users: int
    n_secure: int
    secrecy_targets: np.ndarray    # shape (n_secure,), nat/OFDM symbol
    weights: np.ndarray            # shape (n_users - n_secure,)
    power: float                   # total power budget, linear
    mode: str = "average"
    rho: float = 1.0               # mean CNR of the fading distribution

    def __post_init__(self):
        self.secrecy_targets = np.atleast_1d(
            np.asarray(self.secrecy_targets, dtype=float)
        )
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if self.n_subcarriers < 1:
            raise ValueError("n_subcarriers must be >= 1")
        if not (1 <= self.n_secure < self.n_users):
            raise ValueError("need 1 <= n_secure < n_users")
        if self.secrecy_targets.shape != (self.n_secure,):
            raise ValueError("secrecy_targets must have one entry per SU")
        if self.weights.shape != (self.n_normal,):
            raise ValueError("weights must have one entry per NU")
        # each test is written to fail on NaN as well
        if not np.all((self.secrecy_targets >= 0) & (self.secrecy_targets < np.inf)):
            raise ValueError("secrecy targets must be finite and >= 0")
        if not np.all((self.weights > 0) & (self.weights < np.inf)):
            raise ValueError("NU weights must be finite and > 0")
        if not 0 < self.power < np.inf:
            raise ValueError("power budget must be finite and > 0")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not 0 < self.rho < np.inf:
            raise ValueError("rho must be finite and > 0")

    @property
    def n_normal(self) -> int:
        return self.n_users - self.n_secure

    @property
    def snr_db(self) -> float:
        return power_to_snr_db(self.power)

    def with_targets(self, targets) -> "ProblemConfig":
        """Copy of this config with new secrecy targets (scalar broadcasts)."""
        t = np.broadcast_to(np.asarray(targets, dtype=float), (self.n_secure,))
        return replace(self, secrecy_targets=t.copy())

    def with_power(self, power: float) -> "ProblemConfig":
        return replace(self, power=float(power))

    def to_dict(self) -> dict:
        return {
            "N": self.n_subcarriers,
            "K": self.n_users,
            "K1": self.n_secure,
            "C": self.secrecy_targets.tolist(),
            "omega": self.weights.tolist(),
            "snr_db": self.snr_db,
            "mode": self.mode,
            "rho": self.rho,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemConfig":
        """Build from the documented config-file fields.

        ``C`` and ``omega`` accept a scalar (broadcast to every SU / NU) or
        an explicit list.  Power is given as ``snr_db``.  A key outside
        ``CONFIG_KEYS`` is an error, so a misspelt field fails at load.
        """
        unknown = set(d) - CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        n = int(d["N"])
        k = int(d["K"])
        k1 = int(d["K1"])
        c = d.get("C", 0.0)
        c = np.broadcast_to(np.asarray(c, dtype=float), (k1,)).copy()
        omega = d.get("omega", 1.0)
        omega = np.broadcast_to(np.asarray(omega, dtype=float), (k - k1,)).copy()
        return cls(
            n_subcarriers=n,
            n_users=k,
            n_secure=k1,
            secrecy_targets=c,
            weights=omega,
            power=snr_db_to_power(float(d["snr_db"])),
            mode=d.get("mode", "average"),
            rho=float(d.get("rho", 1.0)),
        )


@dataclass
class SolverOptions:
    """Tunables shared by the dual, suboptimal, and baseline solvers."""

    epsilon: float = 1e-2              # relative constraint tolerance
    max_iterations: int = 5000
    multiplier_ceiling: float = 1e6

    def __post_init__(self):
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must be in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.multiplier_ceiling <= 0:
            raise ValueError("multiplier_ceiling must be > 0")

    @classmethod
    def from_dict(cls, d: dict) -> "SolverOptions":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown solver options: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_spec(cls, d: dict) -> "SolverOptions":
        """The ``"solver"`` block of a spec, with a top-level ``epsilon``."""
        opts = dict(d.get("solver", {}))
        if "epsilon" in d:
            opts.setdefault("epsilon", float(d["epsilon"]))
        return cls.from_dict(opts)


@dataclass
class RunSpec:
    """One CLI run: problem config plus simulation parameters."""

    config: ProblemConfig
    realizations: int = 2000
    seed: int = 0
    options: SolverOptions = field(default_factory=SolverOptions)

    @classmethod
    def from_dict(cls, d: dict) -> "RunSpec":
        unknown = set(d) - RUN_KEYS
        if unknown:
            raise ValueError(f"unknown run config keys: {sorted(unknown)}")
        block = {k: v for k, v in d.items() if k in CONFIG_KEYS}
        return cls(
            config=ProblemConfig.from_dict(block),
            realizations=int(d.get("realizations", 2000)),
            seed=int(d.get("seed", 0)),
            options=SolverOptions.from_spec(d),
        )

    @classmethod
    def from_file(cls, path) -> "RunSpec":
        with open(Path(path)) as fh:
            return cls.from_dict(json.load(fh))
