"""Finite-element beam model tests.

Checks element matrices against closed forms, assembly and support
bookkeeping, the eigensolution against analytical frequencies, and the
transient simulator against single-mode physics (resonance gain,
logarithmic decrement, energy decay).
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from omabench.beam import (BeamModel, SUPPORTS,
                           analytical_frequencies, assemble_model,
                           characteristic_roots, element_matrices,
                           modal_analysis, transient_response, _iir_filter,
                           _modal_filters, _modal_superposition,
                           _recurrence_coefficients)
from omabench.dsp import MultiChannelRecord
from omabench.metrics import mac


def standard_beam(support: str, n_elements: int = 10) -> BeamModel:
    """1 m steel beam with a 10x10 mm section and 2.5% modal damping."""
    return BeamModel(2.0e11, 7850.0, 0.01, 0.01, 1.0, n_elements, support, 0.025)


def _loop_oracle(omega, zeta, modal_forces, dt, n_out):
    """Time-step the exact recurrence directly, starting from rest."""
    a, b, cc, dd, a1, b1, c1, d1 = _recurrence_coefficients(omega, zeta, dt)
    q = np.zeros((omega.size, n_out))
    qd = np.zeros((omega.size, n_out))
    p = modal_forces
    for i in range(n_out - 1):
        q[:, i + 1] = a * q[:, i] + b * qd[:, i] + cc * p[:, i] + dd * p[:, i + 1]
        qd[:, i + 1] = a1 * q[:, i] + b1 * qd[:, i] + c1 * p[:, i] + d1 * p[:, i + 1]
    qdd = p[:, :n_out] - 2.0 * zeta * omega[:, None] * qd - (omega ** 2)[:, None] * q
    return q, qd, qdd


class TestTypes:
    def test_section_derived_properties(self):
        """EI = E*w*h^3/12 and rho*A = rho*w*h for the 10x10 mm steel section."""
        beam = standard_beam("CF")
        assert beam.flexural_rigidity == pytest.approx(2.0e11 * 1e-4 / 12 * 1e-4, rel=1e-12)
        assert beam.mass_per_length == pytest.approx(7850.0 * 1e-4, rel=1e-12)

    def test_invalid_parameters_rejected(self):
        for bad in ({"elastic_modulus": -1.0}, {"density": 0.0}, {"width": 0.0},
                    {"height": -0.01}, {"span": 0.0}, {"n_elements": 0},
                    {"support": "XX"}, {"damping_ratio": 1.0}, {"damping_ratio": -0.01}):
            with pytest.raises(ValueError):
                replace(standard_beam("CF"), **bad)


class TestElementMatrices:
    def test_rigid_translation_produces_no_force(self):
        """Ke annihilates the rigid-body translation [1, 0, 1, 0]."""
        ke, _ = element_matrices(standard_beam("CF"))
        np.testing.assert_allclose(ke @ [1.0, 0.0, 1.0, 0.0], 0.0, atol=1e-6)

    def test_mass_conservation_under_unit_translation(self):
        """vT Me v with v = [1,0,1,0] equals the element mass rho*A*Le."""
        _, me = element_matrices(standard_beam("CF"))
        v = np.array([1.0, 0.0, 1.0, 0.0])
        assert v @ me @ v == pytest.approx(7850.0 * 1e-4 * 0.1, rel=1e-12)

    def test_leading_stiffness_entry(self):
        """Ke[0,0] = 12 EI / Le^3 = 2.0e6 N/m for the standard element."""
        ke, _ = element_matrices(standard_beam("CF"))
        assert ke[0, 0] == pytest.approx(2.0e6, rel=1e-9)

    def test_symmetry_and_definiteness(self):
        """Stiffness has the two-dimensional rigid-body nullspace, mass is SPD."""
        ke, me = element_matrices(standard_beam("CF"))
        np.testing.assert_allclose(ke, ke.T, rtol=1e-12)
        np.testing.assert_allclose(me, me.T, rtol=1e-12)
        assert np.linalg.matrix_rank(ke, tol=1e-3) == 2
        assert np.all(np.linalg.eigvalsh(me) > 0)


class TestAssembly:
    def test_cf_dof_and_channel_count(self):
        """Clamping one end of 10 elements leaves 20 DOFs, 10 channels."""
        sys_ = assemble_model(standard_beam("CF"))
        assert sys_.n_free == 20
        assert sys_.n_channels == 10
        assert sys_.channel_nodes == tuple(range(2, 12))

    def test_ss_dof_and_channel_count(self):
        """Pinning both ends leaves 20 DOFs but only 9 translations."""
        sys_ = assemble_model(standard_beam("SS"))
        assert sys_.n_free == 20
        assert sys_.n_channels == 9
        assert sys_.channel_nodes == tuple(range(2, 11))

    def test_channel_counts_all_supports(self):
        counts = {s: assemble_model(standard_beam(s)).n_channels for s in SUPPORTS}
        assert counts == {"CF": 10, "SS": 9, "CS": 9, "CC": 9}

    def test_degenerate_single_element_cc(self):
        """A one-element clamped-clamped beam has no measurement channels."""
        sys_ = assemble_model(standard_beam("CC", n_elements=1))
        assert sys_.n_channels == 0
        with pytest.raises(ValueError):
            modal_analysis(standard_beam("CC", n_elements=1), sys_)

    def test_matrices_symmetric(self):
        sys_ = assemble_model(standard_beam("CS"))
        np.testing.assert_allclose(sys_.stiffness, sys_.stiffness.T, rtol=1e-9)
        np.testing.assert_allclose(sys_.mass, sys_.mass.T, rtol=1e-9)


class TestModalAnalysis:
    def test_cf_fundamental_frequency(self):
        """First clamped-free frequency sits within 2% of 8.2 Hz."""
        beam = standard_beam("CF")
        sol = modal_analysis(beam, assemble_model(beam), 5)
        assert sol.frequencies[0] == pytest.approx(8.2, rel=0.02)

    def test_ss_fundamental_against_closed_form(self):
        """Pinned-pinned f1 = pi sqrt(EI/(rho A)) / (2 L^2) within 0.5%."""
        beam = standard_beam("SS")
        sol = modal_analysis(beam, assemble_model(beam), 5)
        f1 = np.pi * np.sqrt(beam.flexural_rigidity / beam.mass_per_length) / 2.0
        assert sol.frequencies[0] == pytest.approx(f1, rel=0.005)

    def test_ss_shapes_match_sine_eigenfunctions(self):
        """Interior-node shapes agree with sin(n pi x / L), MAC >= 0.999."""
        beam = standard_beam("SS")
        sys_ = assemble_model(beam)
        sol = modal_analysis(beam, sys_, 5)
        x = sys_.channel_coords
        phi = sol.channel_shapes(sys_)
        for n in range(1, 6):
            assert mac(phi[:, n - 1], np.sin(n * np.pi * x)) >= 0.999

    def test_mass_normalization(self):
        """Shapes diagonalize M to I (1e-8) and K to omega^2 (1e-6 rel)."""
        beam = standard_beam("CC")
        sys_ = assemble_model(beam)
        sol = modal_analysis(beam, sys_)
        gm = sol.shapes.T @ sys_.mass @ sol.shapes
        gk = sol.shapes.T @ sys_.stiffness @ sol.shapes
        np.testing.assert_allclose(gm, np.eye(sol.n_modes), atol=1e-8)
        w2 = (2.0 * np.pi * sol.frequencies) ** 2
        np.testing.assert_allclose(np.diag(gk), w2, rtol=1e-6)
        off = gk - np.diag(np.diag(gk))
        assert np.max(np.abs(off)) <= 1e-6 * np.max(w2)

    def test_eigen_residual(self):
        """|| K phi - omega^2 M phi || / || K phi || <= 1e-8 per mode."""
        beam = standard_beam("CF")
        sys_ = assemble_model(beam)
        sol = modal_analysis(beam, sys_, 5)
        for k in range(5):
            w2 = (2.0 * np.pi * sol.frequencies[k]) ** 2
            r = sys_.stiffness @ sol.shapes[:, k] - w2 * sys_.mass @ sol.shapes[:, k]
            assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(sys_.stiffness @ sol.shapes[:, k])

    def test_frequencies_ascending_and_signs_fixed(self):
        beam = standard_beam("CS")
        sys_ = assemble_model(beam)
        sol = modal_analysis(beam, sys_, 8)
        assert np.all(np.diff(sol.frequencies) > 0)
        phi = sol.channel_shapes(sys_)
        for k in range(phi.shape[1]):
            col = phi[:, k]
            assert col[np.argmax(np.abs(col))] > 0

    def test_consistent_mass_upper_bound_convergence(self):
        """Refining 10 -> 20 -> 40 elements never raises a frequency and
        converges toward the continuous-beam values from above."""
        exact = analytical_frequencies(standard_beam("SS"), 3)
        prev = None
        for n in (10, 20, 40):
            beam = standard_beam("SS", n_elements=n)
            sol = modal_analysis(beam, assemble_model(beam), 3)
            f = sol.frequencies
            assert np.all(f >= exact * (1.0 - 1e-12))
            if prev is not None:
                assert np.all(f <= prev + 1e-9)
            prev = f
        assert np.all(np.abs(prev - exact) / exact <= 5e-4)


class TestAnalyticalFrequencies:
    def test_cf_first_five(self):
        """Clamped-free closed form reproduces 8.2/51.2/144.8/280.8/463.7 Hz
        within 2% (the tabulated mode-3 value carries its own 1% slack)."""
        f = analytical_frequencies(standard_beam("CF"), 5)
        target = np.array([8.2, 51.2, 144.8, 280.8, 463.7])
        np.testing.assert_allclose(f, target, rtol=0.02)

    def test_ss_quadratic_ratio(self):
        """lambda_k = k pi makes f2/f1 exactly 4."""
        f = analytical_frequencies(standard_beam("SS"), 2)
        assert f[1] / f[0] == pytest.approx(4.0, rel=1e-12)

    def test_cc_fundamental(self):
        """cos(lambda) cosh(lambda) = 1 has lambda1 = 4.73004, f1 = 51.9 Hz."""
        lam = characteristic_roots("CC", 1)
        assert lam[0] == pytest.approx(4.73004, abs=1e-4)
        f = analytical_frequencies(standard_beam("CC"), 1)
        assert f[0] == pytest.approx(51.9, rel=0.01)

    def test_lambda_ratio_consistency(self):
        """f_k / f_1 = (lambda_k / lambda_1)^2 to 1e-6 for every support."""
        for s in SUPPORTS:
            lam = characteristic_roots(s, 5)
            f = analytical_frequencies(standard_beam(s), 5)
            np.testing.assert_allclose(f / f[0], (lam / lam[0]) ** 2, rtol=1e-6)

    def test_invalid_requests(self):
        with pytest.raises(ValueError):
            characteristic_roots("CF", 0)
        with pytest.raises(ValueError):
            characteristic_roots("ZZ", 3)


class TestTransientResponse:
    DT = 1e-4

    def _setup(self, support):
        beam = standard_beam(support)
        sys_ = assemble_model(beam)
        sol = modal_analysis(beam, sys_)
        return beam, sys_, sol

    def _forces(self, sys_, data):
        return MultiChannelRecord(1.0 / self.DT, data, sys_.channel_labels)

    def test_zero_force_zero_response(self):
        _, sys_, sol = self._setup("CF")
        n = 2001
        forces = self._forces(sys_, np.zeros((sys_.n_channels, n)))
        rec = transient_response(sys_, sol, forces)
        assert rec.n_samples == 2001
        np.testing.assert_array_equal(rec.data, 0.0)

    def test_resonant_amplification(self):
        """Driving an SS beam at f1 reaches the SDOF resonance gain.

        After transients decay, the Fourier amplitude of the acceleration
        at the drive frequency equals 1/(2 zeta) = 20 times the static
        modal acceleration phi_ch1 * p1, within 5%.
        """
        _, sys_, sol = self._setup("SS")
        f1 = sol.frequencies[0]
        duration, amp = 4.0, 1.0
        n = int(round(duration / self.DT)) + 1
        t = np.arange(n) * self.DT
        drive = 4  # mid-span channel
        data = np.zeros((sys_.n_channels, n))
        data[drive] = amp * np.sin(2.0 * np.pi * f1 * t)
        rec = transient_response(sys_, sol, self._forces(sys_, data))
        phi = sol.channel_shapes(sys_)
        p1 = phi[drive, 0] * amp
        # lock-in over an integer number of periods in the settled tail
        n_per = int(2.0 * f1) / f1
        sel = (t >= duration - 2.0) & (t < duration - 2.0 + n_per)
        x = rec.data[-1][sel]
        ph = np.exp(-2j * np.pi * f1 * t[sel])
        measured = 2.0 * np.abs(np.mean(x * ph))
        expected = abs(phi[-1, 0]) * abs(p1) / (2.0 * 0.025)
        assert measured == pytest.approx(expected, rel=0.05)

    def test_free_decay_log_decrement(self):
        """An impulse response decays with the prescribed 2.5% damping.

        The Hilbert envelope of the first-mode band of a free decay gives
        zeta = 0.025 within 10%.
        """
        from scipy import signal as sps

        _, sys_, sol = self._setup("SS")
        f1 = sol.frequencies[0]
        duration = 3.0
        n = int(round(duration / self.DT)) + 1
        data = np.zeros((sys_.n_channels, n))
        data[4, :20] = 100.0  # short kick
        rec = transient_response(sys_, sol, self._forces(sys_, data))
        sos = sps.butter(4, [0.6 * f1, 1.6 * f1], "bandpass", fs=1.0 / self.DT, output="sos")
        y = sps.sosfiltfilt(sos, rec.data[4])
        t = rec.times()
        # stay clear of the kick and of the filtfilt end reflection
        sel = (t >= 0.5) & (t <= 1.5)
        env = np.abs(sps.hilbert(y))[sel]
        slope = np.polyfit(t[sel], np.log(env), 1)[0]
        zeta = -slope / (2.0 * np.pi * f1)
        assert zeta == pytest.approx(0.025, rel=0.10)

    def test_determinism(self):
        _, sys_, sol = self._setup("CF")
        rng = np.random.default_rng(3)
        data = rng.standard_normal((sys_.n_channels, 1001))
        forces = self._forces(sys_, data)
        a = transient_response(sys_, sol, forces)
        b = transient_response(sys_, sol, forces)
        np.testing.assert_array_equal(a.data, b.data)

    def test_energy_decay_after_force_off(self):
        """Modal energy (qd^2 + w^2 q^2)/2 never grows once the force stops."""
        w = np.array([2.0 * np.pi * 8.15])
        n = 5000
        p = np.zeros((1, n))
        p[0, :100] = 1.0
        [(q, qd, _)] = _modal_superposition(w, 0.025, p, 1e-4)
        e = 0.5 * (qd ** 2 + (w[0] * q) ** 2)
        tail = e[120:]
        assert np.all(np.diff(tail) <= 1e-12 * e.max())

    @pytest.mark.parametrize("support", SUPPORTS)
    def test_filters_match_loop_oracle(self, support):
        """The per-mode IIR filters reproduce the time-step recurrence.

        A 0.2 s seeded random forcing with a non-zero first sample exercises
        the initial filter state; every modal q, q' and q'' history agrees
        with the loop within 1e-10 of its own peak.
        """
        _, sys_, sol = self._setup(support)
        n = 2001
        data = np.random.default_rng(11).standard_normal((sys_.n_channels, n + 5))
        p = sol.channel_shapes(sys_).T @ data
        assert np.all(p[:, 0] != 0.0)
        omega = 2.0 * np.pi * sol.frequencies
        got = map(np.array, zip(*_modal_superposition(omega, sol.damping_ratio,
                                                      p[:, :n], self.DT)))
        want = _loop_oracle(omega, sol.damping_ratio, p, self.DT, n)
        for g, w in zip(got, want):
            assert g.shape == w.shape == (sol.n_modes, n)
            peak = np.max(np.abs(w), axis=1, keepdims=True)
            assert np.all(np.abs(g - w) <= 1e-10 * peak)

    def test_accelerations_match_all_modes_formula(self):
        """Mode by mode, the accelerations are bit-identical to the equation
        of motion broadcast over all modes at once."""
        _, sys_, sol = self._setup("CF")
        data = np.random.default_rng(17).standard_normal((sys_.n_channels, 3001))
        rec = transient_response(sys_, sol, self._forces(sys_, data))
        phi = sol.channel_shapes(sys_)
        omega, zeta = 2.0 * np.pi * sol.frequencies, sol.damping_ratio
        p = phi.T @ data
        q, qd, qdd_rows = map(np.array, zip(*_modal_superposition(omega, zeta, p, self.DT)))
        qdd = p - 2.0 * zeta * omega[:, None] * qd - (omega ** 2)[:, None] * q
        assert np.array_equal(qdd_rows, qdd)
        assert np.array_equal(rec.data, phi @ qdd)

    @pytest.mark.parametrize("support", SUPPORTS)
    def test_filter_matches_lfilter(self, support):
        """The filter helper is ``scipy.signal.lfilter`` with an initial state,
        within 1e-12 of its peak, on every mode's q and q' filter."""
        from scipy.signal import lfilter

        _, sys_, sol = self._setup(support)
        omega = 2.0 * np.pi * sol.frequencies
        den, num, zi = _modal_filters(omega, sol.damping_ratio, self.DT)
        x = np.random.default_rng(29).standard_normal(2001)
        for m in range(sol.n_modes):
            got = _iir_filter(num[:, m], den[m], x, zi[:, m] * x[0])
            for k in range(2):
                want = lfilter(num[k, m], den[m], x, zi=zi[k, m] * x[0])[0]
                assert np.all(np.abs(got[k] - want) <= 1e-12 * np.max(np.abs(want)))

    def test_working_set_is_bounded(self):
        """1 s of forcing traces at most two (modes x samples) float64 arrays:
        the modal forces, overwritten by the modal accelerations, plus the
        channel accelerations and one mode's histories at a time."""
        _, sys_, sol = self._setup("CF")
        n = 10001
        data = np.random.default_rng(23).standard_normal((sys_.n_channels, n))
        forces = self._forces(sys_, data)
        tracemalloc.start()
        try:
            transient_response(sys_, sol, forces)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * sol.n_modes * n * 8

    def test_input_validation(self):
        _, sys_, sol = self._setup("CF")
        bad = MultiChannelRecord(1.0 / self.DT, np.zeros((3, 1001)))
        with pytest.raises(ValueError):
            transient_response(sys_, sol, bad)

    @pytest.mark.parametrize("dt, n", [(3e-4, 339), (1.2e-4, 50), (4e-4, 2)])
    def test_runs_on_the_force_grid(self, dt, n):
        """The response has the force record's sample count and rate, and
        its recurrence steps ``1 / rate``: the oracle on the same modal forces
        at that step gives the same accelerations."""
        _, sys_, sol = self._setup("CF")
        data = np.random.default_rng(5).standard_normal((sys_.n_channels, n))
        rate = 1.0 / dt
        forces = MultiChannelRecord(rate, data, sys_.channel_labels)
        rec = transient_response(sys_, sol, forces)
        assert rec.n_samples == n and rec.sample_rate == rate
        assert rec.labels == sys_.channel_labels
        phi = sol.channel_shapes(sys_)
        omega = 2.0 * np.pi * sol.frequencies
        _, _, qdd = _loop_oracle(omega, sol.damping_ratio, phi.T @ data, 1.0 / rate, n)
        want = phi @ qdd
        peak = np.max(np.abs(want))
        assert np.all(np.abs(rec.data - want) <= 1e-10 * peak)
