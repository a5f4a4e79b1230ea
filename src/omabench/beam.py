"""Planar Euler-Bernoulli beam models and transient response simulation.

A single-span prismatic beam is meshed with two-node Hermite elements
(translation + rotation per node, cubic interpolation, consistent mass).
Supported end conditions are the four classical ones: clamped-free (CF),
simply supported (SS), clamped-simply supported (CS) and clamped-clamped
(CC).  Pinned ends constrain the translation only.

Measurement channels are the free vertical translation DOFs, ordered by node
number; transient analysis returns accelerations at those channels computed
by modal superposition with the exact piecewise-linear-excitation recurrence,
evaluated as second-order IIR filters per mode, so the integrator adds no
algorithmic damping or period distortion at any step size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .dsp import MultiChannelRecord

__all__ = [
    "BeamModel",
    "GlobalSystem",
    "ModalSolution",
    "SUPPORTS",
    "element_matrices",
    "assemble_model",
    "modal_analysis",
    "characteristic_roots",
    "analytical_frequencies",
    "transient_response",
]

SUPPORTS = ("CF", "SS", "CS", "CC")


@dataclass(frozen=True)
class BeamModel:
    """Discretized single-span prismatic beam with a rectangular section.

    Parameters
    ----------
    elastic_modulus, density : float
        Young's modulus [Pa] and density [kg/m^3], uniform along the span.
    width, height : float
        Rectangular cross-section in meters; bending is about the width axis.
    span : float
        Total length in meters.
    n_elements : int
        Number of equal-length Hermite elements.
    support : str
        One of ``CF``, ``SS``, ``CS``, ``CC``.
    damping_ratio : float
        Uniform modal damping ratio applied to every mode.
    """

    elastic_modulus: float
    density: float
    width: float
    height: float
    span: float
    n_elements: int
    support: str
    damping_ratio: float

    def __post_init__(self):
        if self.elastic_modulus <= 0 or self.density <= 0:
            raise ValueError("elastic modulus and density must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("section dimensions must be positive")
        if self.span <= 0:
            raise ValueError("span must be positive")
        if self.n_elements < 1:
            raise ValueError("n_elements must be >= 1")
        if self.support not in SUPPORTS:
            raise ValueError(f"support must be one of {SUPPORTS}")
        if not (0.0 <= self.damping_ratio < 1.0):
            raise ValueError("damping_ratio must lie in [0, 1)")

    @property
    def flexural_rigidity(self) -> float:
        """E * I with the second moment of area I = w*h^3/12."""
        return self.elastic_modulus * (self.width * self.height ** 3 / 12.0)

    @property
    def mass_per_length(self) -> float:
        return self.density * (self.width * self.height)


@dataclass(frozen=True)
class GlobalSystem:
    """Assembled free-DOF system plus measurement channel bookkeeping.

    Attributes
    ----------
    stiffness, mass : ndarray
        Symmetric matrices on the free DOFs.
    free_dofs : tuple of int
        Global DOF ids (node * 2 for translation, node * 2 + 1 for rotation)
        retained after applying supports, ascending.
    channel_indices : tuple of int
        Positions of the free vertical translations within the free-DOF
        ordering; these are the measurement channels, ordered by node.
    channel_nodes : tuple of int
        One-based node number of each channel.
    node_coords : ndarray
        Axial coordinate of every node in meters.
    """

    stiffness: np.ndarray
    mass: np.ndarray
    free_dofs: tuple[int, ...]
    channel_indices: tuple[int, ...]
    channel_nodes: tuple[int, ...]
    node_coords: np.ndarray

    @property
    def n_free(self) -> int:
        return len(self.free_dofs)

    @property
    def n_channels(self) -> int:
        return len(self.channel_indices)

    @property
    def channel_labels(self) -> tuple[str, ...]:
        return tuple(f"node{n}" for n in self.channel_nodes)

    @property
    def channel_coords(self) -> np.ndarray:
        return self.node_coords[[n - 1 for n in self.channel_nodes]]


@dataclass(frozen=True)
class ModalSolution:
    """Mass-normalized modes of a :class:`GlobalSystem`.

    ``shapes`` has shape ``(n_free, n_modes)`` with ``shapes.T @ M @ shapes``
    equal to the identity; ``frequencies`` are in Hz, ascending.
    """

    frequencies: np.ndarray
    shapes: np.ndarray
    damping_ratio: float

    @property
    def n_modes(self) -> int:
        return self.frequencies.size

    def channel_shapes(self, system: GlobalSystem) -> np.ndarray:
        """Mode shapes restricted to the measurement channels (channels x modes)."""
        return self.shapes[list(system.channel_indices), :]


def element_matrices(beam: BeamModel) -> tuple[np.ndarray, np.ndarray]:
    """Return the 4x4 element stiffness and consistent mass matrices.

    DOF order is ``(v1, theta1, v2, theta2)``.  The stiffness block is the
    Hermite cubic bending stiffness; the mass block is the consistent mass of
    a uniform element.  Both are symmetric and the stiffness is singular with
    respect to rigid translation and rotation.
    """
    le = beam.span / beam.n_elements
    ei = beam.flexural_rigidity
    mu = beam.mass_per_length
    k = ei / le ** 3 * np.array([
        [12.0, 6.0 * le, -12.0, 6.0 * le],
        [6.0 * le, 4.0 * le ** 2, -6.0 * le, 2.0 * le ** 2],
        [-12.0, -6.0 * le, 12.0, -6.0 * le],
        [6.0 * le, 2.0 * le ** 2, -6.0 * le, 4.0 * le ** 2],
    ])
    m = mu * le / 420.0 * np.array([
        [156.0, 22.0 * le, 54.0, -13.0 * le],
        [22.0 * le, 4.0 * le ** 2, 13.0 * le, -3.0 * le ** 2],
        [54.0, 13.0 * le, 156.0, -22.0 * le],
        [-13.0 * le, -3.0 * le ** 2, -22.0 * le, 4.0 * le ** 2],
    ])
    return k, m


def _constrained_dofs(support: str, n_elements: int) -> set[int]:
    last = n_elements  # node index of the far end
    if support == "CF":
        return {0, 1}
    if support == "SS":
        return {0, 2 * last}
    if support == "CS":
        return {0, 1, 2 * last}
    return {0, 1, 2 * last, 2 * last + 1}  # CC


def assemble_model(beam: BeamModel) -> GlobalSystem:
    """Assemble global matrices and apply the support conditions.

    Clamped ends constrain translation and rotation; pinned ends constrain
    translation only.  The returned system may legitimately have zero
    channels (e.g. a one-element CC beam), which callers must handle.
    """
    ke, me = element_matrices(beam)
    n_nodes = beam.n_elements + 1
    ndof = 2 * n_nodes
    k = np.zeros((ndof, ndof))
    m = np.zeros((ndof, ndof))
    for e in range(beam.n_elements):
        idx = np.array([2 * e, 2 * e + 1, 2 * e + 2, 2 * e + 3])
        k[np.ix_(idx, idx)] += ke
        m[np.ix_(idx, idx)] += me
    fixed = _constrained_dofs(beam.support, beam.n_elements)
    free = tuple(d for d in range(ndof) if d not in fixed)
    kf = k[np.ix_(free, free)]
    mf = m[np.ix_(free, free)]
    channel_pos = tuple(i for i, d in enumerate(free) if d % 2 == 0)
    channel_nodes = tuple(free[i] // 2 + 1 for i in channel_pos)
    coords = np.linspace(0.0, beam.span, n_nodes)
    coords.setflags(write=False)
    kf.setflags(write=False)
    mf.setflags(write=False)
    return GlobalSystem(kf, mf, free, channel_pos, channel_nodes, coords)


def modal_analysis(beam: BeamModel, system: GlobalSystem,
                   n_modes: int | None = None) -> ModalSolution:
    """Solve the generalized eigenproblem and mass-normalize the modes.

    Parameters
    ----------
    beam, system
        Model and its assembled free-DOF system.
    n_modes : int, optional
        Number of lowest modes to keep; all free-DOF modes by default.

    Returns
    -------
    ModalSolution
        Frequencies in Hz ascending; shapes mass-normalized with the
        largest-magnitude channel entry of each mode positive.
    """
    if system.n_free == 0:
        raise ValueError("system has no free DOFs")
    if n_modes is None:
        n_modes = system.n_free
    if not (1 <= n_modes <= system.n_free):
        raise ValueError("n_modes must lie in [1, n_free]")
    w2, vec = scipy.linalg.eigh(system.stiffness, system.mass)
    w2 = w2[:n_modes]
    vec = vec[:, :n_modes]
    if np.any(w2 <= 0):
        raise ValueError("model has non-positive eigenvalues; check supports")
    # eigh(a, b) already returns B-orthonormal vectors; enforce exactly.
    norms = np.sqrt(np.einsum("ij,ij->j", vec, system.mass @ vec))
    vec = vec / norms
    rows = list(system.channel_indices) if system.n_channels else list(range(system.n_free))
    for j in range(vec.shape[1]):
        col = vec[rows, j]
        if col[np.argmax(np.abs(col))] < 0:
            vec[:, j] = -vec[:, j]
    freqs = np.sqrt(w2) / (2.0 * np.pi)
    freqs.setflags(write=False)
    vec.setflags(write=False)
    return ModalSolution(freqs, vec, beam.damping_ratio)


def _characteristic(support: str, lam: float) -> float:
    """Overflow-safe characteristic functions (divided through by cosh)."""
    if support == "CF":
        return np.cos(lam) + 1.0 / np.cosh(lam)
    if support == "CC":
        return np.cos(lam) - 1.0 / np.cosh(lam)
    # CS: sin(l)cosh(l) - cos(l)sinh(l) = 0, divided by cosh
    return np.sin(lam) - np.cos(lam) * np.tanh(lam)


def _bracket(support: str, k: int) -> tuple[float, float]:
    """Standard bracketing interval containing the k-th root (1-based)."""
    pi = np.pi
    if support == "CF":
        return ((k - 1) * pi, k * pi)
    return (k * pi, (k + 1) * pi)  # CC and CS


def characteristic_roots(support: str, n_modes: int) -> np.ndarray:
    """Roots of the continuous-beam characteristic equation.

    SS roots are ``k * pi`` exactly; the other supports are solved by
    Brent's method on the standard bracket of each root, to an absolute
    tolerance of 1e-12.
    """
    if support not in SUPPORTS:
        raise ValueError(f"support must be one of {SUPPORTS}")
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if support == "SS":
        return np.arange(1, n_modes + 1) * np.pi
    # Imported on use: only checks call the closed forms, and scipy.optimize
    # would otherwise load with the package in every process.
    from scipy.optimize import brentq

    return np.array([brentq(lambda lam: _characteristic(support, lam),
                            *_bracket(support, k), xtol=1e-12)
                     for k in range(1, n_modes + 1)])


def analytical_frequencies(beam: BeamModel, n_modes: int) -> np.ndarray:
    """Closed-form continuous-beam natural frequencies in Hz.

    ``f_k = lambda_k^2 * sqrt(EI / (rho A)) / (2 pi L^2)`` with the
    characteristic roots of the requested support condition.
    """
    lam = characteristic_roots(beam.support, n_modes)
    coef = np.sqrt(beam.flexural_rigidity / beam.mass_per_length) / (2.0 * np.pi * beam.span ** 2)
    return lam ** 2 * coef


def _recurrence_coefficients(omega: np.ndarray, zeta: float, dt: float):
    """Exact SDOF propagation coefficients for linearly interpolated forcing.

    For each modal equation ``q'' + 2 zeta w q' + w^2 q = p(t)`` with p linear
    over a step, state ``(q, q')`` advances as
    ``q+ = A q + B q' + C p0 + D p1`` and ``q'+ = A1 q + B1 q' + C1 p0 + D1 p1``.
    The recurrence is exact for the interpolated load, hence unconditionally
    stable and free of algorithmic damping.
    """
    w = np.asarray(omega, dtype=float)
    z = zeta
    sq = np.sqrt(1.0 - z * z)
    wd = w * sq
    e = np.exp(-z * w * dt)
    s = np.sin(wd * dt)
    c = np.cos(wd * dt)
    beta = z / sq
    k = w * w
    a = e * (beta * s + c)
    b = e * s / wd
    cc = (1.0 / k) * (2.0 * z / (w * dt)
                      + e * (((1.0 - 2.0 * z * z) / (wd * dt) - beta) * s
                             - (1.0 + 2.0 * z / (w * dt)) * c))
    dd = (1.0 / k) * (1.0 - 2.0 * z / (w * dt)
                      + e * ((2.0 * z * z - 1.0) / (wd * dt) * s
                             + 2.0 * z / (w * dt) * c))
    a1 = -e * (w / sq) * s
    b1 = e * (c - beta * s)
    c1 = (1.0 / k) * (-1.0 / dt + e * ((w / sq + beta / dt) * s + c / dt))
    d1 = (1.0 / (k * dt)) * (1.0 - e * (beta * s + c))
    return a, b, cc, dd, a1, b1, c1, d1


def _modal_filters(omega: np.ndarray, zeta: float, dt: float):
    """Per-mode second-order IIR filters from modal force to ``q`` and ``q'``.

    The recurrence of :func:`_recurrence_coefficients` is a time-invariant
    2x2 state update ``x+ = M x + C p0 + D p1`` per mode, so ``q`` and ``q'``
    are each a second-order IIR filter of the modal force.  The denominator
    is ``det(zI - M)``; the numerators are the rows of ``adj(zI - M)(C + D z)``.

    Returns ``den`` of shape ``(n_modes, 3)``, ``num`` of shape
    ``(2, n_modes, 3)`` and ``zi`` of shape ``(2, n_modes, 2)``, the leading
    axis running over ``q``, ``q'``.  ``zi`` is the initial state per unit
    first force sample: it cancels the feed-through ``D p[0]``, so both
    histories are zero at sample 0 whatever ``p[0]``.
    """
    a, b, cc, dd, a1, b1, c1, d1 = _recurrence_coefficients(omega, zeta, dt)
    den = np.stack([np.ones_like(a), -(a + b1), a * b1 - b * a1], axis=1)
    num_q = np.stack([dd, cc - b1 * dd + b * d1, b * c1 - b1 * cc], axis=1)
    num_qd = np.stack([d1, c1 - a * d1 + a1 * dd, a1 * cc - a * c1], axis=1)
    zi_q = np.stack([-dd, b1 * dd - b * d1], axis=1)
    zi_qd = np.stack([-d1, a * d1 - a1 * dd], axis=1)
    return den, np.stack([num_q, num_qd]), np.stack([zi_q, zi_qd])


def _iir_filter(b: np.ndarray, a: np.ndarray, x: np.ndarray, zi: np.ndarray) -> np.ndarray:
    """``scipy.signal.lfilter(b[k], a, x, zi=zi[k])[0]`` for each row ``k``
    of the second-order numerators ``b`` and states ``zi``, with one shared
    ``a`` and ``a[0] == 1``, up to rounding.

    Each numerator runs as an FIR and its initial state enters the first two
    samples; the recursion ``y[n] + a[1] y[n-1] + a[2] y[n-2] = v[n]`` is one
    unit-lower triangular banded solve with a right-hand side per row
    (LAPACK ``dtbtrs``).  Returns shape ``(len(b), x.size)``.
    """
    v = np.empty((len(b), x.size))
    for vk, bk, zk in zip(v, b, zi):
        vk[:] = np.convolve(x, bk)[:x.size]
        vk[:2] += zk[:x.size]
    band = np.empty((3, x.size), order="F")  # row 0, the unit diagonal, is not read
    band[1] = a[1]
    band[2] = a[2]
    y, _ = lapack.dtbtrs(band, v.T, uplo="L", diag="U", overwrite_b=1)
    return y.T


def _modal_superposition(omega: np.ndarray, zeta: float, p: np.ndarray, dt: float):
    """Integrate each modal SDOF in turn, yielding its (q, qdot, qddot) rows.

    The modal forces ``p`` have shape ``(n_modes, n_samples)``; mode ``m``'s
    three rows have ``n_samples`` entries each and are built from ``p[m]``
    alone, which is not read again once they are yielded, so a caller may
    overwrite it with them.  The system starts from rest.  ``q`` and ``q'``
    come from one :func:`_iir_filter` call on :func:`_modal_filters`;
    ``q''`` is the equation of motion solved for it,
    ``p - 2 zeta w q' - w^2 q``, element by element the same operations as
    that expression broadcast over all modes at once.
    """
    den, num, zi = _modal_filters(omega, zeta, dt)
    damping = 2.0 * zeta * omega
    stiffness = omega ** 2
    for m in range(omega.size):
        q, qd = _iir_filter(num[:, m], den[m], p[m], zi[:, m] * p[m, 0])
        yield q, qd, p[m] - damping[m] * qd - stiffness[m] * q


def transient_response(system: GlobalSystem, modal: ModalSolution,
                       forces: MultiChannelRecord) -> MultiChannelRecord:
    """Simulate channel accelerations under nodal force histories.

    All modes contained in ``modal`` participate.  Forces are applied at the
    measurement channels (one force channel per free vertical DOF); the
    simulation runs on the force record's grid, so the returned record holds
    absolute accelerations at those channels with ``forces.n_samples``
    samples at ``forces.sample_rate``.

    The working set is one ``(n_modes, n_samples)`` array, the modal forces,
    which each mode's accelerations overwrite as that mode is integrated,
    plus one mode's histories at a time: the modal displacements and
    velocities are never held for all modes.  The array is released once
    it is projected onto the channels.
    """
    if forces.n_channels != system.n_channels:
        raise ValueError("forces must supply one channel per free vertical DOF")
    phi_ch = modal.channel_shapes(system)           # channels x modes
    omega = 2.0 * np.pi * modal.frequencies
    p = phi_ch.T @ forces.data                      # modal forces, then accelerations
    modes = _modal_superposition(omega, modal.damping_ratio, p, 1.0 / forces.sample_rate)
    for m, (_, _, qdd_m) in enumerate(modes):
        p[m] = qdd_m
    acc = phi_ch @ p
    del p
    return MultiChannelRecord(forces.sample_rate, acc, system.channel_labels)
