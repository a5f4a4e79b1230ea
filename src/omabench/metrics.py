"""Modal assurance criterion, mode pairing and error measures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PairingOptions", "mac", "pair_to_reference", "relative_error"]


def mac(phi, psi) -> float:
    """Modal assurance criterion between two real shape vectors.

    ``mac = (phi . psi)^2 / ((phi . phi) (psi . psi))``, invariant to scaling
    of either vector, 1 for parallel vectors and 0 for orthogonal ones.
    """
    a = np.asarray(phi, dtype=float).ravel()
    b = np.asarray(psi, dtype=float).ravel()
    if a.size != b.size or a.size == 0:
        raise ValueError("shape vectors must be non-empty and equally sized")
    den = float(np.dot(a, a)) * float(np.dot(b, b))
    if den == 0.0:
        raise ValueError("shape vectors must be nonzero")
    num = float(np.dot(a, b)) ** 2
    return min(num / den, 1.0)


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
