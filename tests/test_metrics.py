"""Modal assurance criterion, pairing and error-metric tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omabench.metrics import PairingOptions, mac, pair_to_reference, relative_error


class TestMac:
    def test_identity(self):
        phi = np.array([1.0, -2.0, 0.5])
        assert mac(phi, phi) == 1.0

    def test_orthogonality(self):
        assert mac([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_scale_and_sign_invariance(self):
        phi = np.array([1.0, -2.0, 0.5])
        assert mac(phi, -2.5 * phi) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(6), rng.standard_normal(6)
        assert mac(a, b) == mac(b, a)

    def test_sampled_sine_modes_orthogonal(self):
        """sin(i pi x) sampled at 9 interior nodes are pairwise orthogonal.

        Discrete orthogonality of sin(i k pi / 10): off-diagonal MAC vanishes
        to 1e-10, mirroring the analytically orthogonal modes of a
        simply-supported span.
        """
        x = np.arange(1, 10) / 10.0
        shapes = [np.sin(i * np.pi * x) for i in range(1, 6)]
        for i in range(5):
            for j in range(5):
                expected = 1.0 if i == j else 0.0
                assert mac(shapes[i], shapes[j]) == pytest.approx(expected, abs=1e-10)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = mac(rng.standard_normal(8), rng.standard_normal(8))
            assert 0.0 <= v <= 1.0

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           scale=st.floats(min_value=1e-6, max_value=1e6),
           flip=st.sampled_from([-1.0, 1.0]))
    def test_scaling_property(self, seed, scale, flip):
        """mac(a, s*b) == mac(a, b) for any nonzero s, within 1e-12."""
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(7), rng.standard_normal(7)
        assert mac(a, flip * scale * b) == pytest.approx(mac(a, b), abs=1e-12)

    def test_rounds_as_the_dot_product_formula(self):
        """Each MAC, pair by pair or row-wise, equals the float formula over
        np.dot with a Python float square, bit for bit."""
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((5000, 10)), rng.standard_normal((5000, 10))
        want = [min(float(np.dot(x, y)) ** 2 / (float(np.dot(x, x)) * float(np.dot(y, y))), 1.0)
                for x, y in zip(a, b)]
        assert [mac(x, y) for x, y in zip(a, b)] == want
        assert mac(a, b).tolist() == want

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mac([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            mac([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            mac([], [])


class TestPairing:
    REF_F = np.array([8.0, 50.0, 140.0])

    def _ref_shapes(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        return q

    def test_self_pairing(self):
        shapes = self._ref_shapes()
        matches = pair_to_reference(self.REF_F, list(shapes.T), self.REF_F, shapes)
        assert len(matches) == 3
        for k, m in enumerate(matches):
            idx, f, v = m
            assert idx == k
            assert f == self.REF_F[k]
            assert v == pytest.approx(1.0, abs=1e-12)
            assert relative_error(f, self.REF_F[k]) == 0.0

    def test_empty_identified_set(self):
        matches = pair_to_reference([], [], self.REF_F, self._ref_shapes())
        assert matches == (None, None, None)

    def test_frequency_window_excludes(self):
        """A candidate 6% away from the reference is out of the 5% window."""
        shapes = self._ref_shapes()
        matches = pair_to_reference([8.0 * 1.06], [shapes[:, 0]], [8.0],
                                    shapes[:, :1])
        assert matches == (None,)

    def test_mac_threshold_excludes(self):
        shapes = self._ref_shapes()
        noisy = shapes[:, 0] + 2.0 * shapes[:, 1]
        assert mac(noisy, shapes[:, 0]) < 0.95
        matches = pair_to_reference([8.0], [noisy], [8.0], shapes[:, :1])
        assert matches == (None,)

    def test_injective(self):
        """One identified mode cannot satisfy two references."""
        shapes = self._ref_shapes()
        phi = shapes[:, 0]
        matches = pair_to_reference([8.05], [phi], [8.0, 8.2],
                                    np.column_stack([phi, phi]))
        assert matches[0] is not None
        assert matches[1] is None

    def test_tie_breaks_toward_smaller_frequency_error(self):
        """Equal-MAC candidates resolve to the nearer frequency."""
        shapes = self._ref_shapes()
        phi = shapes[:, 0]
        matches = pair_to_reference([7.9, 8.02], [phi, phi], [8.0],
                                    shapes[:, :1])
        assert matches[0][0] == 1

    def test_prefers_higher_mac_in_window(self):
        shapes = self._ref_shapes()
        good, bad = shapes[:, 0], shapes[:, 0] + 0.5 * shapes[:, 1]
        matches = pair_to_reference([8.1, 8.01], [good, bad], [8.0],
                                    shapes[:, :1])
        assert matches[0][0] == 0

    def test_parameter_validation(self):
        for bad in ({"f_window": 0.0}, {"f_window": 1.0}, {"mac_threshold": 0.0},
                    {"mac_threshold": 1.5}):
            with pytest.raises(ValueError):
                PairingOptions(**bad)
        assert PairingOptions(f_window=0.99, mac_threshold=1.0).mac_threshold == 1.0


class TestRelativeError:
    def test_published_cases(self):
        """(8.0, 8.2) -> 2.4% and (52.0, 52.2) -> 0.4% to table rounding."""
        assert relative_error(8.0, 8.2) == pytest.approx(2.4, abs=0.05)
        assert relative_error(52.0, 52.2) == pytest.approx(0.4, abs=0.05)

    def test_exact_match(self):
        assert relative_error(123.4, 123.4) == 0.0

    def test_symmetric_around_reference(self):
        assert relative_error(9.0, 8.0) == relative_error(7.0, 8.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            relative_error(8.0, 0.0)
        with pytest.raises(ValueError):
            relative_error(8.0, -1.0)
