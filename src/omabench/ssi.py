"""Data-driven stochastic subspace identification (unweighted principal
components) with a stabilization diagram.

The chain is the standard one: a past/future block Hankel matrix of the
measured outputs is compressed by LQ factorization, the orthogonal
projection of the future row space onto the past row space is decomposed by
SVD, the observability range gives the discrete state matrix ``A`` through
its shift invariance and the output matrix ``C`` as its first block row, and
the eigenstructure of ``A`` yields pole frequencies, damping ratios and mode
shapes.  Poles are swept over a list of model orders and clustered into
modes by frequency/damping/shape stability against the previous order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy import linalg, signal

from .dsp import MultiChannelRecord
from .freqdom import IdentifiedMode, IdentifiedModeSet, align_to_real, unit_normalize
from .metrics import PairingOptions, mac

__all__ = [
    "SsiOptions",
    "PoleRecord",
    "SubspaceFactorization",
    "StabilizationDiagram",
    "build_hankel",
    "realize_modes",
    "stabilization",
    "ssi_identify",
]


@dataclass(frozen=True)
class SsiOptions:
    """Subspace settings: preprocessing, block rows, model orders, stability.

    ``block_rows`` is the number of block rows in each of the past and the
    future part (the Hankel matrix has ``2 * block_rows`` block rows in
    total).  ``orders`` defaults to ``2, 4, ..., min(100, block_rows * l)``
    where ``l`` is the channel count.  The shift-invariance least squares
    that gives ``A`` has ``(block_rows - 1) * l`` equations per column, so
    default orders above that (92-100 on 10 channels, 82-90 on 9, at 10
    block rows) are underdetermined and realized with the minimum-norm ``A``.

    ``decimate`` and ``integrate`` condition heavily oversampled
    acceleration data before the Hankel build.  Polyphase anti-aliased
    downsampling stretches the past horizon covered by the block rows, and
    each time integration weights the spectrum by one power of 1/omega, so
    low-frequency modes (whose acceleration variance scales like omega
    cubed) compete on equal terms with high ones in the projection.
    Neither step moves a pole, and mode shapes are unchanged up to the
    per-mode scaling removed by normalization.  ``decimate=1`` together
    with ``integrate=0`` processes the raw record.

    The last four fields are the pole-to-pole stability thresholds and the
    cluster acceptance size of the stabilization diagram.
    """

    block_rows: int = 10
    orders: tuple[int, ...] | None = None
    detrend: bool = True
    decimate: int = 5
    integrate: int = 2
    freq_rel: float = 0.01
    damping_abs: float = 0.05
    mac_min: float = 0.95
    min_cluster_size: int = 3

    def __post_init__(self):
        if self.block_rows < 1:
            raise ValueError("block_rows must be >= 1")
        if self.decimate < 1:
            raise ValueError("decimate must be >= 1")
        if self.integrate < 0:
            raise ValueError("integrate must be >= 0")
        if self.orders is not None:
            orders = tuple(int(o) for o in self.orders)
            if not orders or any(o < 1 for o in orders):
                raise ValueError("orders must be positive")
            if len(set(orders)) != len(orders):
                raise ValueError("orders must be distinct")
            object.__setattr__(self, "orders", orders)
        if self.freq_rel <= 0 or self.damping_abs <= 0:
            raise ValueError("freq_rel and damping_abs must be positive")
        if not (0.0 < self.mac_min <= 1.0):
            raise ValueError("mac_min must lie in (0, 1]")
        if self.min_cluster_size < 1:
            raise ValueError("min_cluster_size must be >= 1")

    def resolve_orders(self, n_channels: int) -> tuple[int, ...]:
        cap = self.block_rows * n_channels
        if self.orders is None:
            top = min(100, cap)
            return tuple(range(2, top + 1, 2))
        if max(self.orders) > cap:
            raise ValueError(f"max order {max(self.orders)} exceeds block_rows * channels = {cap}")
        return self.orders


@dataclass(frozen=True)
class SubspaceFactorization:
    """SVD of the projected future row space, shared across model orders.

    ``u`` has shape ``(block_rows * l, block_rows * l)`` and ``s`` the
    corresponding singular values, descending.
    """

    u: np.ndarray
    s: np.ndarray
    n_channels: int
    block_rows: int
    dt: float

    @property
    def max_order(self) -> int:
        return self.block_rows * self.n_channels

    @cached_property
    def rank(self) -> int:
        """Singular values above ``1e-12 * s[0]``, at least one; higher
        model orders are realized at this order."""
        return max(1, int(np.count_nonzero(self.s > self.s[0] * 1e-12)))

    @cached_property
    def _shift_qr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(R, Q^T g[l:])`` of ``g[:-l] = Q R``, shared by every model order.

        ``g = u[:, :m] * sqrt(s[:m])`` with ``m = (block_rows - 1) * l``, the
        row count of ``g[:-l]``.  Householder QR builds the first ``n``
        columns of ``Q`` and ``R`` from the first ``n`` columns of ``g[:-l]``
        alone, so the shift-invariance least squares of every order
        ``n <= m`` is the triangular solve ``R[:n, :n] A = (Q^T g[l:])[:n, :n]``
        (Doehler & Mevel 2012).
        """
        l = self.n_channels
        m = self.max_order - l
        g = self.u[:, :m] * np.sqrt(self.s[:m])
        q, r = np.linalg.qr(g[:-l])
        return r, q.T @ g[l:]


@dataclass(frozen=True)
class PoleRecord:
    """One swept pole.  ``stable`` and ``mac_prev`` compare it with the
    nearest-in-frequency pole of the previous swept order."""

    order: int
    frequency: float
    damping: float
    shape: np.ndarray
    stable: bool = False
    mac_prev: float = 0.0


@dataclass(frozen=True)
class StabilizationDiagram:
    """All swept poles plus the stable-cluster mode selection."""

    poles: tuple[PoleRecord, ...]
    selected: tuple[IdentifiedMode, ...]
    notes: tuple[str, ...] = ()

    def stable_poles(self) -> list[PoleRecord]:
        return [p for p in self.poles if p.stable]

    def nearest_pole(self, frequency: float,
                     rel_window: float = PairingOptions.f_window) -> PoleRecord | None:
        """Closest swept pole within a relative frequency window, stable first."""
        def best_of(pool):
            cand = [p for p in pool if abs(p.frequency - frequency) <= rel_window * frequency]
            return min(cand, key=lambda p: abs(p.frequency - frequency)) if cand else None
        return best_of(self.stable_poles()) or best_of(self.poles)


def _block_hankel(data: np.ndarray, n_block_rows: int) -> np.ndarray:
    """Stack ``n_block_rows`` shifted copies of the channels, 1/sqrt(j) scaled.

    ``data`` is ``(l, n)``; the result is ``(n_block_rows * l, j)`` with
    ``j = n - n_block_rows + 1``.
    """
    l, n = data.shape
    j = n - n_block_rows + 1
    if j < 1:
        raise ValueError("record too short for the requested block rows")
    h = np.empty((n_block_rows * l, j))
    for k in range(n_block_rows):
        h[k * l:(k + 1) * l] = data[:, k:k + j]
    return h / np.sqrt(j)


def _conditioned(record: MultiChannelRecord, options: SsiOptions) -> tuple[np.ndarray, float]:
    """The channels after decimation, integration and mean removal, and their
    sample interval."""
    dt = 1.0 / record.sample_rate
    data = record.data
    if options.decimate > 1:
        data = signal.resample_poly(data, up=1, down=options.decimate, axis=1)
        dt *= options.decimate
    for _ in range(options.integrate):
        # Cumulative integration plus linear detrend: the drift from the
        # unknown integration constant must not enter the row space.
        data = signal.detrend(np.cumsum(data, axis=1) * dt, axis=1)
    if options.detrend:
        data = data - data.mean(axis=1, keepdims=True)
    return data, dt


def build_hankel(record: MultiChannelRecord,
                 options: SsiOptions = SsiOptions()) -> SubspaceFactorization:
    """Project the future outputs onto the past and factorize once.

    The block Hankel matrix has ``2 * block_rows`` block rows of all
    channels and ``n_samples - 2 * block_rows + 1`` columns.  Its LQ
    factorization gives the orthogonal projection of the future row space
    onto the past row space; only the past block rows are factorized (QR of
    their transpose), and the future block rows are projected on that
    orthonormal factor.  The returned object carries the SVD of the
    projection, which every model order reuses.
    """
    i = options.block_rows
    l = record.n_channels
    data, dt = _conditioned(record, options)
    if 2 * i * l > data.shape[1]:
        raise ValueError("record too short: need (decimated) n_samples >= "
                         "2 * block_rows * channels")
    h = _block_hankel(data, 2 * i)
    li = l * i
    # H = L Q^T; the projection of the future block rows F onto the past row
    # space is L[li:, :li] = F Q1, where Q1 is the orthonormal factor of the
    # past rows alone (QR of their transpose, which is already Fortran-ordered).
    proj, _ = linalg.qr_multiply(h[:li].T, h[li:], mode="right",
                                 overwrite_a=True, overwrite_c=True)
    u, s, _ = np.linalg.svd(proj)
    return SubspaceFactorization(u, s, l, i, dt)


def realize_modes(fact: SubspaceFactorization, order: int) -> list[PoleRecord]:
    """Realize one model order and return its physically plausible poles,
    ascending in frequency.

    The observability range is ``u[:, :n] * sqrt(s[:n])`` with
    ``n = min(order, fact.rank)``; ``A`` follows from its shift invariance
    by least squares and ``C`` is its first block row.  Orders up to
    ``(block_rows - 1) * l`` solve that least squares from the
    factorization's one shared QR; higher orders leave it underdetermined
    and take the minimum-norm ``A``.  Discrete eigenvalues are mapped to
    continuous poles; only one of each conjugate pair is kept and poles must
    be stable (``|mu| < 1``) with damping inside ``(0, 0.2)``.
    """
    if not (1 <= order <= fact.max_order):
        raise ValueError("order out of range for this factorization")
    l = fact.n_channels
    n = min(order, fact.rank)
    gamma = fact.u[:, :n] * np.sqrt(fact.s[:n])
    if gamma.shape[0] <= l:
        return []
    if n <= gamma.shape[0] - l:
        r, t = fact._shift_qr
        a = linalg.solve_triangular(r[:n, :n], t[:n, :n])
    else:
        a, *_ = np.linalg.lstsq(gamma[:-l], gamma[l:], rcond=None)
    c = gamma[:l]
    mu, psi = np.linalg.eig(a)
    # np.hypot rounds as the scalar abs() of a complex number; array np.abs
    # can differ in the last bit.
    upper = np.flatnonzero((np.hypot(mu.real, mu.imag) < 1.0) & (mu.imag > 0.0))
    lam = np.log(mu[upper]) / fact.dt
    w = np.hypot(lam.real, lam.imag)
    zeta = -lam.real / w
    poles = [PoleRecord(order, float(wk / (2.0 * np.pi)), float(zk),
                        unit_normalize(align_to_real(c @ psi[:, k])))
             for k, wk, zk in zip(upper, w, zeta) if 0.0 < zk < 0.2]
    return sorted(poles, key=lambda p: p.frequency)


def _flag_poles(current: list[PoleRecord], previous: list[PoleRecord],
                tol: SsiOptions) -> list[PoleRecord]:
    if not previous:
        return current
    prev_f = np.array([p.frequency for p in previous])
    flagged = []
    for pole in current:
        prev = previous[int(np.argmin(np.abs(prev_f - pole.frequency)))]
        m = mac(pole.shape, prev.shape)
        stable = (abs(pole.frequency - prev.frequency) / prev.frequency <= tol.freq_rel
                  and abs(pole.damping - prev.damping) <= tol.damping_abs
                  and m >= tol.mac_min)
        flagged.append(replace(pole, stable=stable, mac_prev=m))
    return flagged


def _cluster_stable(stable: list[PoleRecord], tol: SsiOptions):
    """Group stable poles by relative frequency gaps and select modes."""
    stable = sorted(stable, key=lambda p: p.frequency)
    f = np.array([p.frequency for p in stable])
    cuts = list(np.flatnonzero(np.diff(f) > tol.freq_rel * f[:-1]) + 1)
    selected = []
    for lo, hi in zip([0] + cuts, cuts + [len(stable)]):
        cluster = stable[lo:hi]
        if len(cluster) >= tol.min_cluster_size:
            best = max(cluster, key=lambda p: p.mac_prev)
            selected.append(IdentifiedMode(float(np.median(f[lo:hi])), best.shape,
                                           float(np.median([p.damping for p in cluster])),
                                           {"cluster_size": float(len(cluster))}))
    return tuple(_merge_duplicate_shapes(selected, tol))


def _merge_duplicate_shapes(selected: list[IdentifiedMode],
                            tol: SsiOptions) -> list[IdentifiedMode]:
    """Drop over-modeling side clusters that repeat a neighbour's shape.

    Model orders above twice the physical mode count produce companion
    poles of an existing mode (same shape, slightly shifted frequency and
    inflated damping).  When two clusters within 5% in frequency share a
    shape (MAC >= ``mac_min``), only the one with more stable poles speaks
    for the mode.
    """
    keep = [True] * len(selected)
    for a in range(len(selected)):
        for b in range(len(selected)):
            if a == b or not keep[a] or not keep[b]:
                continue
            fa, fb = selected[a].frequency, selected[b].frequency
            if abs(fa - fb) > 0.05 * min(fa, fb):
                continue
            if mac(selected[a].shape, selected[b].shape) < tol.mac_min:
                continue
            size_a = selected[a].quality.get("cluster_size", 0.0)
            size_b = selected[b].quality.get("cluster_size", 0.0)
            victim = a if (size_a, fb) < (size_b, fa) else b
            keep[victim] = False
    return [m for k, m in zip(keep, selected) if k]


def stabilization(fact: SubspaceFactorization, orders,
                  options: SsiOptions = SsiOptions()) -> StabilizationDiagram:
    """Sweep model orders and cluster the stable poles into modes.

    A pole is stable when, against the nearest-in-frequency pole of the
    previous swept order, the frequency moves at most ``freq_rel``, the
    damping at most ``damping_abs`` (absolute) and the shape MAC reaches
    ``mac_min``.  Stable poles are clustered by relative frequency gaps; a
    cluster needs ``min_cluster_size`` members and reports its median
    frequency and damping with the shape of its highest-MAC pole.  Orders
    must be distinct; a sweep above the projection rank is noted.
    """
    orders = sorted(int(o) for o in orders)
    if not orders:
        raise ValueError("at least one model order is required")
    if len(set(orders)) != len(orders):
        raise ValueError("model orders must be distinct")
    notes = []
    if len(orders) == 1:
        notes.append("single model order: stability cannot be assessed")
    if orders[-1] > fact.rank:
        notes.append(f"projection rank {fact.rank} below model order {orders[-1]}; "
                     "higher orders truncated")
    poles: list[PoleRecord] = []
    previous: list[PoleRecord] = []
    for order in orders:
        previous = _flag_poles(realize_modes(fact, order), previous, options)
        poles.extend(previous)
    return StabilizationDiagram(tuple(poles),
                                _cluster_stable([p for p in poles if p.stable], options),
                                tuple(notes))


def clip_to_passband(selected, notes, sample_rate: float,
                     options: SsiOptions) -> tuple[tuple, tuple]:
    """Drop selected modes above the decimation passband edge.

    The anti-alias filter of the polyphase decimator leaves a transition
    band below the decimated Nyquist frequency; poles found there mix real
    content with filter artifacts and are not reported.  The edge is 80% of
    the decimated Nyquist frequency; raw data (``decimate=1``) is not clipped.
    """
    if options.decimate <= 1:
        return tuple(selected), tuple(notes)
    edge = 0.8 * sample_rate / (2.0 * options.decimate)
    kept = tuple(m for m in selected if m.frequency <= edge)
    return kept, tuple(notes) + (f"band limited to {edge:g} Hz by decimation",)


def ssi_identify(record: MultiChannelRecord,
                 options: SsiOptions = SsiOptions()) -> IdentifiedModeSet:
    """Subspace identification of a record via the stabilization diagram.

    With decimation active, only clusters inside the anti-alias filter
    passband are reported; the full diagram is available through
    :func:`stabilization`; ``shape_at`` of the result reads its nearest pole.
    """
    fact = build_hankel(record, options)
    diagram = stabilization(fact, options.resolve_orders(record.n_channels), options)
    selected, notes = clip_to_passband(diagram.selected, diagram.notes,
                                       record.sample_rate, options)
    return IdentifiedModeSet("SSI", selected, notes, lambda f, window: (
        p.shape if (p := diagram.nearest_pole(f, window)) is not None else None))
