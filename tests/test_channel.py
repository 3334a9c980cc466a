import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secure_ofdma import (
    ChannelEnsemble,
    ensemble_hash,
    generate_ensemble,
    load_ensemble,
    save_ensemble,
    solve_average,
    solve_fsa,
    solve_peak,
    solve_suboptimal,
)
from secure_ofdma import nu_phase, rates
from secure_ofdma.channel import _HEADER, column_order_stats
from secure_ofdma.dual_solver import _Prepared

from conftest import make_config
from oracles import order_stats


def test_generate_is_deterministic():
    cfg = make_config(n=1, k=2, k1=1)
    a = generate_ensemble(cfg, 1, seed=123).alpha
    b = generate_ensemble(cfg, 1, seed=123).alpha
    assert np.array_equal(a, b)


def test_generate_differs_across_seeds():
    cfg = make_config(n=4, k=2, k1=1)
    a = generate_ensemble(cfg, 3, seed=1).alpha
    b = generate_ensemble(cfg, 3, seed=2).alpha
    assert not np.array_equal(a, b)


def test_realizations_are_prefix_stable():
    # realization i depends only on (seed, i), not on the requested count
    cfg = make_config(n=8, k=3, k1=1)
    short = generate_ensemble(cfg, 5, seed=99).alpha
    long = generate_ensemble(cfg, 20, seed=99).alpha
    assert np.array_equal(short, long[:5])


def test_sample_mean_and_variance_match_the_distribution():
    cfg = make_config(rho=1.0)
    ens = generate_ensemble(cfg, 10_000, seed=7)
    assert 0.97 <= ens.alpha.mean() <= 1.03

    cfg2 = make_config(rho=2.0)
    ens2 = generate_ensemble(cfg2, 2_000, seed=3)
    n_samp = ens2.alpha.size
    se_mean = 2.0 / np.sqrt(n_samp)
    assert abs(ens2.alpha.mean() - 2.0) < 4 * se_mean
    assert abs(ens2.alpha.var() - 4.0) < 0.1


def test_generate_rejects_bad_arguments():
    cfg = make_config()
    # a bool (JSON's true) is an int subclass, not a count
    for bad in (0, 2.5, np.nan, True):
        with pytest.raises(ValueError, match="count must be a whole number"):
            generate_ensemble(cfg, bad, seed=1)
    with pytest.raises(ValueError):
        make_config(rho=-1.0)
    # the file header packs the seed as int64, and Philox needs a key >= 0
    for bad in (2**63, -1, 2.5, np.nan, False):
        with pytest.raises(ValueError, match="seed must be a whole number"):
            generate_ensemble(cfg, 1, seed=bad)
    top = generate_ensemble(make_config(n=1, k=2, k1=1), 1, seed=2**63 - 1)
    assert ensemble_hash(top) and top.seed == 2**63 - 1
    assert generate_ensemble(cfg, 1, seed=np.int64(4)).seed == 4


def test_ensemble_rejects_a_seed_the_file_cannot_hold():
    alpha = np.ones((1, 2, 3))
    for bad in (2**63, -1, 2.5, True):
        with pytest.raises(ValueError, match="seed must be a whole number"):
            ChannelEnsemble(alpha=alpha, seed=bad, rho=1.0)
    top = ChannelEnsemble(alpha=alpha, seed=np.int64(2**63 - 1), rho=1.0)
    assert type(top.seed) is int and ensemble_hash(top)


def test_order_stats_examples():
    nu1, nu2, kmax = column_order_stats(np.array([[3.0], [1.0], [2.0]]))
    assert (kmax[0], nu1[0], nu2[0]) == (0, 3.0, 2.0)

    nu1, nu2, kmax = column_order_stats(np.array([[2.0], [2.0]]))
    assert (kmax[0], nu1[0], nu2[0]) == (0, 2.0, 2.0)

    with pytest.raises(ValueError):
        column_order_stats(np.array([[5.0]]))


@given(st.integers(2, 8), st.integers(1, 6), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_order_stats_invariants(k, n, seed):
    rng = np.random.default_rng(seed)
    alpha = rng.exponential(size=(k, n))
    nu1, nu2, kmax = column_order_stats(alpha)
    for col in range(n):
        best = kmax[col]
        assert nu1[col] >= nu2[col]
        assert nu1[col] == alpha[:, col].max()
        assert alpha[best, col] == nu1[col]
        assert nu2[col] == np.delete(alpha[:, col], best).max()


def test_column_order_stats_matches_scalar_path():
    rng = np.random.default_rng(5)
    alpha = rng.exponential(size=(7, 5, 9))
    nu1, nu2, kmax = column_order_stats(alpha)
    for t in range(7):
        for n in range(9):
            best, v1, v2 = order_stats(alpha[t], n)
            assert kmax[t, n] == best
            assert nu1[t, n] == v1
            assert nu2[t, n] == v2


def test_rho_rescales_the_same_draws():
    # inverse-CDF sampling makes the mean CNR a pure scale factor
    cfg1 = make_config(n=4, k=3, k1=1, rho=1.0)
    cfg2 = make_config(n=4, k=3, k1=1, rho=2.5)
    a1 = generate_ensemble(cfg1, 6, seed=13).alpha
    a2 = generate_ensemble(cfg2, 6, seed=13).alpha
    assert np.allclose(a2, 2.5 * a1, rtol=1e-15)


def test_ratio_distribution_is_scale_invariant():
    # nu1/nu2 has the same law at any mean CNR
    from scipy.stats import ks_2samp

    def ratios(rho, seed):
        cfg = make_config(n=1, k=8, k1=4, rho=rho)
        ens = generate_ensemble(cfg, 100_000, seed=seed)
        nu1, nu2, _ = column_order_stats(ens.alpha)
        return (nu1 / nu2).ravel()

    stat = ks_2samp(ratios(1.0, 21), ratios(4.0, 22)).statistic
    assert stat < 0.02


def test_save_load_roundtrip(tmp_path):
    cfg = make_config(n=6, k=4, k1=2, rho=1.7)
    ens = generate_ensemble(cfg, 9, seed=42)
    path = tmp_path / "channels.bin"
    save_ensemble(ens, path)
    back = load_ensemble(path)
    assert np.array_equal(back.alpha, ens.alpha)
    assert back.seed == ens.seed and back.rho == ens.rho
    assert ensemble_hash(back) == ensemble_hash(ens)
    # the hash covers exactly the bytes the file holds
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ensemble_hash(ens)


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not an ensemble file at all....")   # 31 bytes: no header
    with pytest.raises(ValueError, match="not an ensemble file"):
        load_ensemble(path)
    saved = tmp_path / "saved.bin"
    save_ensemble(generate_ensemble(make_config(n=4, k=3, k1=1), 2, seed=1), saved)
    data = saved.read_bytes()
    # a full 32-byte header whose magic is wrong
    path.write_bytes(b"CNR0" + data[4:])
    with pytest.raises(ValueError, match="not an ensemble file"):
        load_ensemble(path)
    # a payload cut short by one float, by less than one, or one float too
    # long: the byte count is checked before any float is read, and the
    # error names the file and both sizes
    for off in (-8, -3, 8):
        path.write_bytes(data[:off] if off < 0 else data + bytes(off))
        kind = "truncated" if off < 0 else "oversized"
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(path))}: {kind} ensemble payload: "
                f"{len(data) - 32 + off} bytes, expected {8 * 2 * 3 * 4}$")):
            load_ensemble(path)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_ensemble_validation(bad):
    alpha = np.ones((2, 3, 4))
    alpha[1, 2, 3] = bad
    with pytest.raises(ValueError, match="positive and finite"):
        ChannelEnsemble(alpha=alpha, seed=0, rho=1.0)
    with pytest.raises(ValueError, match="positive and finite"):
        ChannelEnsemble(alpha=np.full((1, 3, 4), bad), seed=0, rho=1.0)


def test_ensemble_keeps_a_read_only_view_and_its_order_stats():
    alpha = np.random.default_rng(0).exponential(size=(2, 3, 4))
    ens = ChannelEnsemble(alpha=alpha, seed=0, rho=1.0)
    with pytest.raises(ValueError, match="read-only"):
        ens.alpha[0, 0, 0] = 2.0
    assert alpha.flags.writeable and np.shares_memory(ens.alpha, alpha)
    stats = ens.order_stats
    assert ens.order_stats is stats
    for got, want in zip(stats, column_order_stats(alpha)):
        assert np.array_equal(got, want) and not got.flags.writeable
    assert stats[2].dtype == np.uint8   # a user index, not argmax's int64


def test_memo_builds_once_and_keeps_every_array_read_only():
    ens = ChannelEnsemble(alpha=np.ones((2, 3, 4)), seed=0, rho=1.0)
    built = []

    def build(value):
        def make():
            built.append(value)
            return value
        return make

    alone, pair, price = np.zeros(3), (np.ones(2), np.arange(3), 0.5), 2.0
    for key, value in (("alone", alone), ("pair", pair), ("price", price)):
        assert ens.memo(key, build(value)) is value
        assert ens.memo(key, lambda: pytest.fail(f"{key} built again")) is value
    assert built == [alone, pair, price]
    for arr in (alone, *pair[:2]):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    # the order statistics are kept there too, under their own key
    stats = ens.order_stats
    assert ens.memo("order_stats", lambda: pytest.fail("rebuilt")) is stats


def test_ensemble_builds_each_strongest_nu_table_once(monkeypatch):
    # two weight classes: NUs 0 and 2 weigh 1, NUs 1 and 3 weigh 2
    cfg = make_config(n=8, k=6, k1=2, omega=[1.0, 2.0, 1.0, 2.0], power=20.0)
    ens = generate_ensemble(cfg, 12, seed=3)
    built = []
    strongest = rates._strongest_nu

    def counted(*args):
        built.append(args)
        return strongest(*args)

    monkeypatch.setattr(rates, "_strongest_nu", counted)
    prep = _Prepared(ens, cfg)
    nu_phase(ens, cfg, 5.0, np.zeros((12, 8), bool))
    again = rates._NuCandidates(ens, 2, cfg.weights)
    assert len(built) == 1

    def kept(kind):
        return ens.memo((kind, 2, cfg.weights.tobytes()),
                        lambda: pytest.fail(f"{kind} built again"))

    index, order = kept("nu_index"), kept("nu_order")
    # the NU phase sorted the breakpoints once; later readers share them
    assert again.order is order and order.dtype == np.int32
    # the index is the strongest NU of each class, kept small, gathered wide
    alpha_nu = ens.alpha[:, 2:, :]
    want = np.stack([np.array([0, 2])[alpha_nu[:, [0, 2]].argmax(axis=1)],
                     np.array([1, 3])[alpha_nu[:, [1, 3]].argmax(axis=1)]], axis=1)
    assert index.dtype == np.uint8 and np.array_equal(index, want)
    for nu in (prep.nu, again):
        assert nu.index.dtype == np.intp and np.array_equal(nu.index, want)
    # another weight vector, or another K1, gets its own index
    rates._NuCandidates(ens, 2, np.ones(4))
    rates._NuCandidates(ens, 3, np.ones(3))
    assert len(built) == 3
    for arr in (index, order):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1


def test_ensemble_coerces_to_float():
    ens = ChannelEnsemble(alpha=np.ones((1, 2, 3), dtype=int), seed=0, rho=1.0)
    assert ens.alpha.dtype == float


@pytest.mark.parametrize("k, n", [(0, 4), (1, 4), (3, 0)], ids=["K0", "K1", "N0"])
def test_load_rejects_a_degenerate_ensemble(tmp_path, k, n):
    # a well-formed file whose header holds fewer than 2 users or no subcarrier
    path = tmp_path / "channels.bin"
    path.write_bytes(_HEADER.pack(b"CNR1", k, n, 2, 1.0, 0)
                     + np.ones(2 * k * n, "<f8").tobytes())
    with pytest.raises(ValueError, match="K >= 2 users and N >= 1 subcarriers"):
        load_ensemble(path)


@pytest.mark.parametrize("rho", [np.nan, np.inf, 0.0, -1.0])
def test_ensemble_rejects_a_bad_rho(tmp_path, rho):
    # ProblemConfig rejects the same values; a crafted header reaches the
    # ensemble without one
    alpha = np.ones((2, 3, 4))
    with pytest.raises(ValueError, match="rho must be finite and > 0"):
        ChannelEnsemble(alpha=alpha, seed=0, rho=rho)
    path = tmp_path / "channels.bin"
    path.write_bytes(_HEADER.pack(b"CNR1", 3, 4, 2, rho, 0)
                     + alpha.astype("<f8").tobytes())
    with pytest.raises(ValueError, match="rho must be finite and > 0"):
        load_ensemble(path)


def test_load_rejects_corrupt_payload(tmp_path):
    cfg = make_config(n=4, k=3, k1=1)
    ens = generate_ensemble(cfg, 2, seed=5)
    path = tmp_path / "channels.bin"
    save_ensemble(ens, path)
    raw = bytearray(path.read_bytes())
    # overwrite the last CNR of the payload with NaN
    raw[-8:] = np.array([np.nan], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="positive and finite"):
        load_ensemble(path)


@pytest.mark.parametrize("solve, mode", [
    (solve_average, "average"),
    (solve_peak, "peak"),
    (solve_suboptimal, "average"),
    (lambda ens, cfg: solve_fsa(ens, cfg, "fsa1"), "average"),
], ids=["average", "peak", "suboptimal", "fsa1"])
@pytest.mark.parametrize("k, n", [(6, 8), (4, 16)], ids=["K", "N"])
def test_solvers_reject_an_ensemble_of_other_dimensions(solve, mode, k, n):
    cfg = make_config(n=8, k=4, k1=2, c=0.1, power=10.0, mode=mode)
    ens = generate_ensemble(make_config(n=n, k=k, k1=2), 3, seed=1)
    with pytest.raises(ValueError, match="ensemble dimensions do not match"):
        solve(ens, cfg)
