"""Subspace identification tests.

Hankel construction and dimensions, exact eigenvalue recovery on synthetic
state-space data, spurious-pole behavior on pure noise, stabilization-diagram
selection on clean and noisy beam records, and the scaling/determinism
invariants.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import linalg

from omabench.dsp import MultiChannelRecord
from omabench.metrics import mac
from omabench.freqdom import IdentifiedMode, align_to_real, unit_normalize
from omabench.harness import BeamConfig, CampaignConfig, identify_record, simulate_beam
from omabench.ssi import (SsiOptions, build_hankel, clip_to_passband, realize_modes,
                          ssi_identify, stabilization, _block_hankel, _conditioned,
                          _decimate, _detrend, _merge_duplicate_shapes)

from conftest import MASTER_SEED

RAW = SsiOptions(block_rows=10, decimate=1, integrate=0)
FREE_DECAY = replace(RAW, detrend=False)


def two_dof_discrete(dt: float = 0.01):
    """Discrete 4-state system with modes at 1.5 Hz (2%) and 4.0 Hz (5%)."""
    f = np.array([1.5, 4.0])
    z = np.array([0.02, 0.05])
    w = 2.0 * np.pi * f
    lam = -z * w + 1j * w * np.sqrt(1.0 - z ** 2)
    mu = np.exp(lam * dt)
    a = np.zeros((4, 4))
    for k, m in enumerate(mu):
        a[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[m.real, m.imag], [-m.imag, m.real]]
    c = np.array([[1.0, 0.0, 0.7, 0.0], [0.3, 0.1, -0.5, 0.2]])
    return a, c, mu, f, z


def two_dof_free_decay(n_samples: int) -> MultiChannelRecord:
    """Noise-free outputs of :func:`two_dof_discrete` from a fixed initial state."""
    a, c, _, _, _ = two_dof_discrete()
    x = np.array([1.0, 0.5, -0.8, 0.3])
    y = np.empty((2, n_samples))
    for k in range(n_samples):
        y[:, k] = c @ x
        x = a @ x
    return MultiChannelRecord(100.0, y)


def lstsq_candidates(fact, order: int) -> list[tuple[float, float, np.ndarray]]:
    """Oracle: ``(frequency, damping, shape)`` of one order from its own
    ``np.linalg.lstsq`` of the shifted observability matrix."""
    l = fact.n_channels
    gamma = fact.u[:, :order] * np.sqrt(fact.s[:order])
    a, *_ = np.linalg.lstsq(gamma[:-l], gamma[l:], rcond=None)
    mu, psi = np.linalg.eig(a)
    out = []
    for m, vec in zip(mu, psi.T):
        if abs(m) >= 1.0 or m.imag <= 0.0:
            continue
        lam = np.log(m) / fact.dt
        zeta = -lam.real / abs(lam)
        if 0.0 < zeta < 0.2:
            out.append((abs(lam) / (2.0 * np.pi), zeta,
                        unit_normalize(align_to_real(gamma[:l] @ vec))))
    return sorted(out, key=lambda t: t[0])


class TestHankelOptions:
    """The Hankel settings of ``SsiOptions``, and its range checks."""

    def test_validation(self):
        for rows in (0, 1):  # one block row leaves the shift invariance no equation
            with pytest.raises(ValueError, match="block_rows must be >= 2"):
                SsiOptions(block_rows=rows)
        with pytest.raises(ValueError):
            SsiOptions(decimate=0)
        with pytest.raises(ValueError):
            SsiOptions(integrate=-1)
        with pytest.raises(ValueError):
            SsiOptions(orders=())
        with pytest.raises(ValueError):
            SsiOptions(orders=(0, 2))
        with pytest.raises(ValueError, match="distinct"):  # else flagged stable against itself
            SsiOptions(orders=(20, 4, 20))
        for bad in ({"freq_rel": 0.0}, {"damping_abs": -0.01}, {"mac_min": 0.0},
                    {"mac_min": 1.5}, {"min_cluster_size": 0}):
            with pytest.raises(ValueError):
                SsiOptions(**bad)

    def test_default_orders_capped_by_rank(self):
        """Default sweep is 2..min(100, block_rows * channels) step 2."""
        opt = SsiOptions(block_rows=10)
        assert opt.resolve_orders(10) == tuple(range(2, 101, 2))
        assert opt.resolve_orders(9) == tuple(range(2, 91, 2))

    def test_explicit_orders_checked_against_cap(self):
        opt = SsiOptions(block_rows=10, orders=(2, 96))
        with pytest.raises(ValueError):
            opt.resolve_orders(9)
        assert opt.resolve_orders(10) == (2, 96)


class TestConditioning:
    """The decimator and the linear detrend against ``scipy.signal``, which
    the package itself does not import."""

    @staticmethod
    def _check_decimate(x, q):
        from scipy.signal import resample_poly

        want = resample_poly(x, 1, q, axis=1)
        got = _decimate(x, q)
        assert got.shape == want.shape == (x.shape[0], -(-x.shape[1] // q))
        peak = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-13 * peak)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    @pytest.mark.parametrize("n", [1, 2, 6, 13, 200, 2001])
    def test_decimate_matches_resample_poly(self, q, n):
        """Within 1e-13 of each row's peak, on even, odd and short rows
        (shorter than one phase per output and than the filter)."""
        self._check_decimate(np.random.default_rng(1000 * q + n).standard_normal((3, n)), q)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_decimate_short_cf_record(self, q):
        """The 0.05 s (501-sample) CF record that CI runs ``bench`` on."""
        rec = simulate_beam(BeamConfig("CF", "CF", duration=0.05), MASTER_SEED).clean_record
        assert rec.n_samples == 501
        self._check_decimate(rec.data, q)

    @pytest.mark.parametrize("n", [1, 2, 3, 501, 10001])
    def test_detrend_equals_signal_detrend(self, n):
        """Bit for bit, on rows and on the transposed rows that a second
        integration passes."""
        from scipy.signal import detrend

        x = np.random.default_rng(n).standard_normal((4, n))
        for data in (x, np.cumsum(x, axis=1), detrend(x, axis=1)):
            assert np.array_equal(_detrend(data), detrend(data, axis=1))


class TestBuildHankel:
    def test_block_hankel_dimensions(self):
        """10 channels, 10+10 block rows, 50000 samples -> 200 x 49981."""
        data = np.zeros((10, 50000))
        data[:, 0] = 1.0
        h = _block_hankel(data, 20)
        assert h.shape == (200, 49981)

    def test_block_hankel_scaling(self):
        """Entries carry the 1/sqrt(columns) normalization."""
        h = _block_hankel(np.ones((1, 5)), 2)
        assert h.shape == (2, 4)
        np.testing.assert_allclose(h, 0.5)

    def test_factorization_rank_limits(self):
        """9 channels at 10 block rows cap the admissible order at 90."""
        rng = np.random.default_rng(0)
        rec = MultiChannelRecord(1000.0, rng.standard_normal((9, 2000)))
        fact = build_hankel(rec, RAW)
        assert fact.max_order == 90
        assert fact.u.shape == (90, 90)
        rec10 = MultiChannelRecord(1000.0, rng.standard_normal((10, 2000)))
        assert build_hankel(rec10, RAW).max_order == 100

    def test_constant_record_detrends_to_zero(self):
        rec = MultiChannelRecord(100.0, np.full((2, 200), 3.3))
        fact = build_hankel(rec, SsiOptions(block_rows=4, decimate=1, integrate=0))
        np.testing.assert_allclose(fact.s, 0.0, atol=1e-12)

    def test_too_short_record_rejected(self):
        rec = MultiChannelRecord(100.0, np.random.default_rng(1).standard_normal((2, 30)))
        with pytest.raises(ValueError):
            build_hankel(rec, RAW)

    @pytest.mark.parametrize("beam_id, level", [("CF", 0.0), ("SS", 0.5)])
    def test_projection_matches_full_qr(self, noisy_record, beam_id, level):
        """The past-block QR gives the projection of the full Hankel QR:
        ``r[:li, li:].T`` of ``qr(h.T)``, up to the column signs of ``u``."""
        rec = noisy_record(beam_id, level)
        opts = SsiOptions()
        fact = build_hankel(rec, opts)
        data, _ = _conditioned(rec, opts)
        li = opts.block_rows * rec.n_channels
        r = np.linalg.qr(_block_hankel(data, 2 * opts.block_rows).T, mode="r")
        u, s, _ = np.linalg.svd(r[:li, li:].T)
        np.testing.assert_allclose(fact.s, s, rtol=1e-8, atol=0.0)
        signs = np.sign(np.sum(fact.u[:, :10] * u[:, :10], axis=0))
        np.testing.assert_allclose(fact.u[:, :10], u[:, :10] * signs, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("channels, block_rows, n_samples", [
        (1, 10, 20),    # minimum length: one Hankel column, fewer than li = 10
        (2, 4, 400),    # li = 8, below the QR block size of 32
        (10, 10, 600)],  # li = 100: three full QR blocks and a remainder
        ids=["one_column", "li_below_block", "li_100"])
    def test_projection_edge_shapes(self, channels, block_rows, n_samples):
        """The blocked past-row QR matches the full Hankel QR when the past
        rows have fewer columns than rows, fewer than one block, or a partial
        last block, and leaves the record's samples as they were."""
        data = np.random.default_rng(11).standard_normal((channels, n_samples))
        rec = MultiChannelRecord(100.0, data.copy())
        opts = replace(FREE_DECAY, block_rows=block_rows)
        fact = build_hankel(rec, opts)
        np.testing.assert_array_equal(rec.data, data)
        li = channels * block_rows
        r = np.linalg.qr(_block_hankel(data, 2 * block_rows).T, mode="r")
        u, s, _ = np.linalg.svd(r[:li, li:].T)
        assert fact.u.shape == (li, li)
        np.testing.assert_allclose(fact.s, s, rtol=1e-8, atol=0.0)
        k = min(s.size, 4)
        signs = np.sign(np.sum(fact.u[:, :k] * u[:, :k], axis=0))
        np.testing.assert_allclose(fact.u[:, :k], u[:, :k] * signs, rtol=1e-8, atol=1e-8)

    def test_decimation_scales_dt(self):
        rng = np.random.default_rng(2)
        rec = MultiChannelRecord(1000.0, rng.standard_normal((2, 5000)))
        raw = build_hankel(rec, RAW)
        dec = build_hankel(rec, SsiOptions(block_rows=10, decimate=5, integrate=0))
        assert dec.dt == pytest.approx(5.0 * raw.dt, rel=1e-12)


def _loop_mac(a, b) -> float:
    return min(float(np.dot(a, b)) ** 2 / (float(np.dot(a, a)) * float(np.dot(b, b))), 1.0)


def _loop_shape(u: np.ndarray) -> np.ndarray:
    """One complex vector aligned to real and unit-normalized in scalar steps."""
    z = np.sum(u * u)
    alpha = 0.5 * np.angle(z) if z != 0 else 0.0
    v = np.real(u * np.exp(-1j * alpha))
    if np.max(np.abs(v)) == 0.0:
        v = np.abs(u)
    return v / v[np.argmax(np.abs(v))]


def _loop_oracle(fact, options):
    """Oracle: the order sweep one pole at a time.

    Returns the per-order pole lists, each pole a dict of frequency,
    damping, shape, stable and mac_prev, and the selected modes.
    """
    l = fact.n_channels
    swept, previous = [], []
    for order in sorted({min(o, fact.rank) for o in options.resolve_orders(l)}):
        n = min(order, fact.rank)
        gamma = fact.u[:, :n] * np.sqrt(fact.s[:n])
        if n <= gamma.shape[0] - l:
            r, t = fact._shift_qr
            a = linalg.solve_triangular(r[:n, :n], t[:n, :n])
        else:
            a, *_ = np.linalg.lstsq(gamma[:-l], gamma[l:], rcond=None)
        mu, psi = np.linalg.eig(a)
        upper = np.flatnonzero((np.hypot(mu.real, mu.imag) < 1.0) & (mu.imag > 0.0))
        lam = np.log(mu[upper]) / fact.dt
        w = np.hypot(lam.real, lam.imag)
        zeta = -lam.real / w
        current = sorted((dict(frequency=float(wk / (2.0 * np.pi)), damping=float(zk),
                               shape=_loop_shape(gamma[:l] @ psi[:, k]),
                               stable=False, mac_prev=0.0)
                          for k, wk, zk in zip(upper, w, zeta) if 0.0 < zk < 0.2),
                         key=lambda p: p["frequency"])
        if previous:
            prev_f = np.array([p["frequency"] for p in previous])
            for pole in current:
                prev = previous[int(np.argmin(np.abs(prev_f - pole["frequency"])))]
                m = _loop_mac(pole["shape"], prev["shape"])
                pole["stable"] = bool(
                    abs(pole["frequency"] - prev["frequency"]) / prev["frequency"]
                    <= options.freq_rel
                    and abs(pole["damping"] - prev["damping"]) <= options.damping_abs
                    and m >= options.mac_min)
                pole["mac_prev"] = m
        swept.append(current)
        previous = current
    stable = sorted((p for poles in swept for p in poles if p["stable"]),
                    key=lambda p: p["frequency"])
    f = np.array([p["frequency"] for p in stable])
    cuts = list(np.flatnonzero(np.diff(f) > options.freq_rel * f[:-1]) + 1)
    selected, sizes = [], []
    for lo, hi in zip([0] + cuts, cuts + [len(stable)]):
        cluster = stable[lo:hi]
        if len(cluster) >= options.min_cluster_size:
            best = max(cluster, key=lambda p: p["mac_prev"])
            selected.append(IdentifiedMode(float(np.median(f[lo:hi])), best["shape"],
                                           float(np.median([p["damping"] for p in cluster]))))
            sizes.append(len(cluster))
    return swept, _merge_duplicate_shapes(selected, sizes, options)


def _pole_bytes(poles):
    return [(p["frequency"], p["damping"], p["shape"].tobytes(), p["stable"], p["mac_prev"])
            for p in poles]


def _array_bytes(poles):
    return list(zip(poles.frequency.tolist(), poles.damping.tolist(),
                    [s.tobytes() for s in poles.shapes], poles.stable.tolist(),
                    poles.mac_prev.tolist()))


@pytest.mark.parametrize("beam_id", ["CF", "SS"])
def test_array_sweep_equals_loop_oracle(noisy_record, beam_id):
    """realize_modes and stabilization give the per-pole loop's frequency,
    damping, shape bytes, stable flag and mac_prev for every pole, and its
    selected modes, at NL 0.5."""
    fact = build_hankel(noisy_record(beam_id, 0.5))
    options = SsiOptions()
    swept, selected = _loop_oracle(fact, options)
    orders = sorted({min(o, fact.rank) for o in options.resolve_orders(fact.n_channels)})
    for order, want in zip(orders, swept):
        got = _array_bytes(realize_modes(fact, order))
        assert got == [(*row[:3], False, 0.0) for row in _pole_bytes(want)]
    diagram = stabilization(fact, options)
    poles = diagram.poles
    assert _array_bytes(poles) == _pole_bytes(p for ps in swept for p in ps)
    assert poles.frequency.size > 500 and poles.stable.any()
    assert [(m.frequency, m.damping, m.shape.tobytes()) for m in diagram.selected] == \
        [(m.frequency, m.damping, m.shape.tobytes()) for m in selected]


class TestRealizeModes:
    def test_free_decay_round_trip(self):
        """Discrete eigenvalues of a noise-free decay come back to 1e-6.

        On a pure free decay the Hankel row space equals the observability
        range, so the shift-invariance estimate of A is exact up to
        round-off.
        """
        _, _, mu, _, _ = two_dof_discrete()
        fact = build_hankel(two_dof_free_decay(3000), FREE_DECAY)
        cands = realize_modes(fact, 4)
        assert cands.frequency.size == 2
        mu_hat = []
        for f, zeta in zip(cands.frequency, cands.damping):
            w = 2.0 * np.pi * f
            lam = -zeta * w + 1j * w * np.sqrt(1.0 - zeta ** 2)
            mu_hat.append(np.exp(lam * fact.dt))
        mu_hat = sorted(mu_hat, key=np.angle)
        for got, ref in zip(mu_hat, sorted(mu, key=np.angle)):
            assert abs(got - ref) <= 1e-6

    def test_stochastic_two_dof_recovery(self):
        """White-noise-driven 2-DOF outputs identify to 0.1% in frequency.

        The plant is an exactly discretized two-mode oscillator with white
        force on the velocity states, so its poles are known in closed form.
        """
        from scipy.linalg import expm

        f_true = np.array([1.2, 3.4])
        z_true = np.array([0.01, 0.03])
        phi = np.array([[1.0, 1.0], [0.7, -0.5]])
        dt, n = 0.01, 100_000
        w = 2.0 * np.pi * f_true
        ac = np.zeros((4, 4))
        for k in range(2):
            ac[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[0.0, 1.0],
                                                    [-w[k] ** 2, -2.0 * z_true[k] * w[k]]]
        ad = expm(ac * dt)
        rng = np.random.default_rng(7)
        x = np.zeros(4)
        y = np.empty((2, n))
        for t in range(n):
            y[:, t] = phi @ x[[0, 2]]
            x = ad @ x
            x[[1, 3]] += rng.standard_normal(2)
        rec = MultiChannelRecord(1.0 / dt, y)
        fact = build_hankel(rec, SsiOptions(block_rows=10, decimate=5, integrate=0))
        cands = realize_modes(fact, 4)
        assert cands.frequency.size == 2
        for f, zeta, shape, fr, zr, col in zip(cands.frequency, cands.damping, cands.shapes,
                                               f_true, z_true, phi.T):
            assert abs(f - fr) / fr <= 0.001
            assert zeta == pytest.approx(zr, abs=0.005)
            assert mac(shape, col) >= 0.999

    @pytest.mark.xfail(reason="a single fixed order over-models the clean "
                       "record and splits mode 2 into two poles off the "
                       "reference; the order sweep repairs this", strict=True)
    def test_clean_cf_single_order(self, cf):
        """Order 20 alone yields five modes within 0.5% and nominal damping."""
        fact = build_hankel(cf.clean_record)
        cands = realize_modes(fact, 20)
        for fr in cf.reference_frequencies:
            near = np.abs(cands.frequency - fr) <= 0.005 * fr
            assert near.any() and np.all(np.abs(cands.damping[near] - 0.025) <= 0.005)

    @pytest.mark.parametrize("beam_id", ["CF", "SS", "CS", "CC"])
    def test_shared_qr_matches_per_order_lstsq(self, beam_artifacts, noisy_record, beam_id):
        """Every default order, the underdetermined ones included, realizes
        the per-order least-squares candidates at NL 0.5.

        Counts and shapes agree everywhere.  Frequencies (relative) and
        damping ratios (absolute) agree within 1e-9 from half the lowest
        reference frequency up.  Below that lie only spurious drift poles of
        the integrated record next to ``mu = 1``, where LAPACK's own
        least-squares drivers (gelsd, gelss, gelsy) differ from each other
        by up to 1e-8; there the bound is 1e-7.
        """
        rec = noisy_record(beam_id, 0.5)
        fact = build_hankel(rec)
        f_low = 0.5 * beam_artifacts[beam_id].reference_frequencies[0]
        for order in SsiOptions().resolve_orders(rec.n_channels):
            got = realize_modes(fact, order)
            want = lstsq_candidates(fact, order)
            assert got.frequency.size == len(want), order
            for f, z, s, (freq, zeta, shape) in zip(got.frequency, got.damping, got.shapes, want):
                tol = 1e-9 if freq >= f_low else 1e-7
                assert abs(f - freq) <= tol * freq, (order, freq)
                assert abs(z - zeta) <= tol, (order, freq)
                assert mac(s, shape) >= 1.0 - 1e-9, (order, freq)

    def test_order_out_of_range(self):
        rec = MultiChannelRecord(100.0, np.random.default_rng(3).standard_normal((2, 200)))
        fact = build_hankel(rec, SsiOptions(block_rows=4, decimate=1, integrate=0))
        with pytest.raises(ValueError):
            realize_modes(fact, 9)

    def test_rank_deficiency_noted(self):
        """Orders above the projection rank are realized at the rank, and the
        truncation is noted in the diagram, the mode set and the campaign
        cell's method result."""
        rec = two_dof_free_decay(1000)
        opts = replace(FREE_DECAY, orders=tuple(range(2, 13, 2)))
        fact = build_hankel(rec, opts)
        assert fact.rank < 12

        def poles(order):
            p = realize_modes(fact, order)
            return p.frequency.tolist(), p.damping.tolist(), p.shapes.tolist()

        assert poles(12) == poles(fact.rank)

        def truncated(notes):
            return any("truncated" in n for n in notes)

        assert truncated(stabilization(fact, opts).notes)
        assert truncated(ssi_identify(rec, opts).notes)
        _, c, _, _, _ = two_dof_discrete()
        art = SimpleNamespace(reference_frequencies=np.array([1.5, 4.0]),
                              reference_shapes=c[:, [0, 2]])
        result = identify_record(rec, art, replace(CampaignConfig(), methods=("SSI",),
                                                   ssi=opts))["SSI"]
        assert not result.failed and truncated(result.notes)


class TestStabilization:
    def test_white_noise_rarely_stabilizes(self):
        """Pure noise leaves most poles unstable and almost never clusters."""
        orders = tuple(range(2, 31, 2))
        total_selected = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            rec = MultiChannelRecord(1000.0, rng.standard_normal((3, 5000)))
            diagram = stabilization(build_hankel(rec, RAW), SsiOptions(orders=orders))
            assert diagram.poles.stable.sum() <= 0.3 * diagram.poles.stable.size
            total_selected += len(diagram.selected)
        assert total_selected <= 2

    def test_single_order_is_diagnosed(self, cf):
        fact = build_hankel(cf.clean_record)
        diagram = stabilization(fact, SsiOptions(orders=(20,)))
        assert diagram.selected == ()
        assert any("single model order" in n for n in diagram.notes)

    def test_orders_above_rank_swept_once(self):
        """Orders past the projection rank realize one model, swept once, so
        its poles are not flagged stable against copies of themselves."""
        fact = build_hankel(two_dof_free_decay(1000), FREE_DECAY)
        assert fact.rank == 4

        def selected(orders):
            return [(m.frequency, m.damping, m.shape.tolist())
                    for m in stabilization(fact, replace(FREE_DECAY, orders=orders)).selected]

        assert selected(tuple(range(2, 13, 2))) == selected((2, 4))
        notes = stabilization(fact, replace(FREE_DECAY, orders=(4, 6, 8))).notes
        assert any("single model order" in n for n in notes)
        assert any("truncated" in n for n in notes)

    def test_monotone_information(self, cf):
        """Extending the order sweep never drops a stable physical cluster."""
        fact = build_hankel(cf.clean_record)

        def frequencies(top):
            opts = SsiOptions(orders=tuple(range(2, top + 1, 2)))
            return [m.frequency for m in stabilization(fact, opts).selected]

        f40, f60 = frequencies(40), frequencies(60)
        for f in f40:
            assert any(abs(f - g) <= 0.01 * f for g in f60)

    def test_nearest_pole_lookup(self, cf):
        fact = build_hankel(cf.clean_record)
        diagram = stabilization(fact, SsiOptions(orders=tuple(range(2, 41, 2))))
        f1 = cf.reference_frequencies[0]
        shape = diagram.nearest_shape(f1, 0.05)
        near = np.abs(diagram.poles.frequency - f1) <= 0.05 * f1
        assert shape is not None
        assert any(np.array_equal(s, shape) for s in diagram.poles.shapes[near])
        assert diagram.nearest_shape(5000.0, 0.05) is None


class TestPassband:
    def test_edge_only_under_decimation(self):
        """Raw data is not clipped; decimation by 5 at 10 kHz clips above 800 Hz."""
        modes = tuple(IdentifiedMode(f, np.ones(2)) for f in (799.0, 801.0))
        kept, notes = clip_to_passband(modes, ("n",), 10000.0, RAW)
        assert kept == modes and notes == ("n",)
        kept, notes = clip_to_passband(modes, ("n",), 10000.0, SsiOptions())
        assert kept == modes[:1]
        assert notes == ("n", "band limited to 800 Hz by decimation")

    def test_clip_drops_out_of_band_modes(self, cf):
        mode_set = ssi_identify(cf.clean_record)
        kept, notes = clip_to_passband(mode_set.modes, (), 10000.0, SsiOptions())
        assert all(m.frequency <= 800.0 for m in kept)
        assert any("band limited" in n for n in notes)


class TestSsiIdentify:
    def test_clean_ss_exactly_five_clusters(self, beam_artifacts):
        """The clean SS record resolves to exactly the five in-band modes."""
        art = beam_artifacts["SS"]
        mode_set = ssi_identify(art.clean_record)
        assert len(mode_set.modes) == 5
        for f, fr in zip(mode_set.frequencies, art.reference_frequencies):
            assert abs(f - fr) <= 0.01 * fr

    def test_light_noise_keeps_mode_one(self, cf, noisy_record):
        """At NL = 0.05 the fundamental survives identification."""
        mode_set = ssi_identify(noisy_record("CF", 0.05))
        f1 = cf.reference_frequencies[0]
        assert any(abs(f - f1) <= 0.05 * f1 for f in mode_set.frequencies)

    @pytest.mark.xfail(reason="the integration-weighted projection keeps the "
                       "fundamental alive at NL = 0.10 where the reported "
                       "tables already drop it", strict=True)
    def test_mode_one_lost_at_ten_percent(self, cf, noisy_record):
        mode_set = ssi_identify(noisy_record("CF", 0.10))
        f1 = cf.reference_frequencies[0]
        assert not any(abs(f - f1) <= 0.05 * f1 for f in mode_set.frequencies)

    def test_harsh_noise_drops_fundamental_keeps_upper(self, cf, noisy_record):
        """At NL = 2.0 mode 1 has no cluster while modes 3-5 persist."""
        mode_set = ssi_identify(noisy_record("CF", 2.0))
        ref = cf.reference_frequencies
        assert not any(abs(f - ref[0]) <= 0.05 * ref[0] for f in mode_set.frequencies)
        for fr in ref[2:]:
            assert any(abs(f - fr) <= 0.05 * fr for f in mode_set.frequencies)

    @pytest.mark.xfail(reason="mode 2 loses pole-to-pole stability at "
                       "NL = 2.0 under automated clustering", strict=True)
    def test_mode_two_persists_at_harsh_noise(self, cf, noisy_record):
        mode_set = ssi_identify(noisy_record("CF", 2.0))
        f2 = cf.reference_frequencies[1]
        assert any(abs(f - f2) <= 0.05 * f2 for f in mode_set.frequencies)

    @pytest.mark.xfail(reason="the clamped-clamped fundamental drops out at "
                       "NL = 0.75 under automated clustering", strict=True)
    def test_cc_all_modes_at_three_quarter_noise(self, beam_artifacts, noisy_record):
        art = beam_artifacts["CC"]
        mode_set = ssi_identify(noisy_record("CC", 0.75))
        for fr in art.reference_frequencies:
            assert any(abs(f - fr) <= 0.05 * fr for f in mode_set.frequencies)

    def test_scaling_invariance(self, cf):
        """A positive record gain moves no frequency, damping, or shape."""
        rec = cf.clean_record
        a = ssi_identify(rec)
        b = ssi_identify(MultiChannelRecord(rec.sample_rate, rec.data * 3.7, rec.labels))
        assert len(a.modes) == len(b.modes)
        np.testing.assert_allclose(b.frequencies, a.frequencies, rtol=1e-9)
        for x, y in zip(a.modes, b.modes):
            assert y.damping == pytest.approx(x.damping, abs=1e-9)
            assert mac(x.shape, y.shape) >= 1.0 - 1e-9

    def test_deterministic(self, cf):
        a = ssi_identify(cf.clean_record)
        b = ssi_identify(cf.clean_record)
        np.testing.assert_array_equal(a.frequencies, b.frequencies)
        for x, y in zip(a.modes, b.modes):
            np.testing.assert_array_equal(x.shape, y.shape)

    def test_damping_retained(self, cf):
        mode_set = ssi_identify(cf.clean_record)
        for mode in mode_set.modes:
            assert mode.damping is not None
            assert 0.0 < mode.damping < 0.2
