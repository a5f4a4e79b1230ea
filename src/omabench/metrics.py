"""Modal assurance criterion, mode pairing and error measures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PairingOptions", "mac", "pair_to_reference", "relative_error"]


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis; each rounds as ``np.dot`` of its pair."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def mac(phi, psi):
    """Modal assurance criterion between real shape vectors.

    ``mac = (phi . psi)^2 / ((phi . phi) (psi . psi))``, invariant to scaling
    of either vector, 1 for parallel vectors and 0 for orthogonal ones.  Acts
    along the last axis: two vectors give a float, stacks of vectors (leading
    axes broadcast) an array of one MAC per pair.
    """
    a = np.ascontiguousarray(phi, dtype=float)
    b = np.ascontiguousarray(psi, dtype=float)
    if a.ndim == 0 or b.ndim == 0 or a.shape[-1] != b.shape[-1] or a.shape[-1] == 0:
        raise ValueError("shape vectors must be non-empty and equally sized")
    den = _dots(a, a) * _dots(b, b)
    if np.any(den == 0.0):
        raise ValueError("shape vectors must be nonzero")
    ab = _dots(a, b)
    # Squared with Python's float ** 2 (libm pow), so each MAC rounds as the
    # scalar formula does: x * x and numpy's vectorized pow differ from it in
    # the last bit of about one value in 1,200.
    num = np.reshape([x ** 2 for x in np.ravel(ab).tolist()], ab.shape)
    m = np.minimum(num / den, 1.0)
    return float(m) if m.ndim == 0 else m


@dataclass(frozen=True)
class PairingOptions:
    """The pairing rule: relative frequency window and MAC threshold."""

    f_window: float = 0.05
    mac_threshold: float = 0.95

    def __post_init__(self):
        if not (0.0 < self.f_window < 1.0):
            raise ValueError("f_window must lie in (0, 1)")
        if not (0.0 < self.mac_threshold <= 1.0):
            raise ValueError("mac_threshold must lie in (0, 1]")


def pair_to_reference(identified_freqs, identified_shapes, reference_freqs,
                      reference_shapes,
                      options: PairingOptions = PairingOptions()) -> tuple:
    """Pair identified modes to reference modes by frequency window and MAC.

    For each reference mode the candidates within ``+-options.f_window``
    relative frequency distance are ranked by MAC (ties broken toward the
    smaller frequency error); the best candidate is accepted only if its MAC
    reaches ``options.mac_threshold``.  Each identified mode is used at most
    once, so the pairing is injective and deterministic.

    Returns one entry per reference mode: ``(identified_index, frequency,
    mac)``, or ``None`` when nothing in the window reached the threshold (a
    dash in the report tables).

    Parameters
    ----------
    identified_freqs : sequence of float
    identified_shapes : sequence of 1-D arrays
        Shape vectors on the measurement channels, one per identified mode.
    reference_freqs : sequence of float
    reference_shapes : ndarray
        ``(n_channels, n_reference_modes)`` reference shapes.
    """
    idf = np.asarray(identified_freqs, dtype=float)
    ref = np.asarray(reference_freqs, dtype=float)
    refs = np.asarray(reference_shapes, dtype=float)
    used: set[int] = set()
    matches = []
    for k in range(ref.size):
        fr = ref[k]
        best = None
        for i in range(idf.size):
            if i in used or abs(idf[i] - fr) > options.f_window * fr:
                continue
            m = mac(identified_shapes[i], refs[:, k])
            key = (m, -abs(idf[i] - fr))
            if best is None or key > best[0]:
                best = (key, i, m)
        if best is not None and best[2] >= options.mac_threshold:
            _, i, m = best
            used.add(i)
            matches.append((i, float(idf[i]), m))
        else:
            matches.append(None)
    return tuple(matches)


def relative_error(identified: float, reference: float) -> float:
    """Percent relative frequency error ``100 |f_id - f_ref| / f_ref``."""
    if reference <= 0:
        raise ValueError("reference frequency must be positive")
    return 100.0 * abs(identified - reference) / reference
