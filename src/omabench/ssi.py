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

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
from scipy import linalg, signal
from scipy.linalg import lapack

from .dsp import IdentificationError, MultiChannelRecord
from .freqdom import IdentifiedMode, IdentifiedModeSet, align_to_real, unit_normalize
from .metrics import mac

__all__ = [
    "SsiOptions",
    "Poles",
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
    ``block_rows`` must be at least 2 (one block row leaves none), and
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
        if self.block_rows < 2:
            raise ValueError("block_rows must be >= 2")
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
    dt: float

    @property
    def max_order(self) -> int:
        return self.u.shape[0]

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
class Poles:
    """Swept poles as arrays, one entry per pole and one row of ``shapes``
    (real, unit-normalized) per pole.

    ``stable`` and ``mac_prev`` compare each pole with the
    nearest-in-frequency pole of the previous swept order; a freshly
    realized order has them ``False`` and ``0.0``.
    """

    frequency: np.ndarray
    damping: np.ndarray
    shapes: np.ndarray
    stable: np.ndarray
    mac_prev: np.ndarray


@dataclass(frozen=True)
class StabilizationDiagram:
    """All swept poles, in sweep order, plus the stable-cluster mode selection."""

    poles: Poles
    selected: tuple[IdentifiedMode, ...]
    notes: tuple[str, ...] = ()

    def nearest_shape(self, frequency: float, rel_window: float) -> np.ndarray | None:
        """Shape of the closest swept pole within a relative frequency window,
        stable first; the first in sweep order among equally close ones."""
        dist = np.abs(self.poles.frequency - frequency)
        near = dist <= rel_window * frequency
        for pool in (near & self.poles.stable, near):
            if pool.any():
                idx = np.flatnonzero(pool)
                return self.poles.shapes[idx[np.argmin(dist[idx])]]
        return None


def _block_hankel(data: np.ndarray, n_block_rows: int) -> np.ndarray:
    """Stack ``n_block_rows`` shifted copies of the channels, 1/sqrt(j) scaled.

    ``data`` is ``(l, n)``; the result is ``(n_block_rows * l, j)`` with
    ``j = n - n_block_rows + 1``.
    """
    l, n = data.shape
    j = n - n_block_rows + 1
    if j < 1:
        raise IdentificationError("record too short for the requested block rows")
    h = np.empty((n_block_rows * l, j))
    for k in range(n_block_rows):
        h[k * l:(k + 1) * l] = data[:, k:k + j]
    h /= np.sqrt(j)
    return h


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

    The QR is LAPACK's blocked compact-WY Householder factorization
    (``dgeqrt`` with blocks of up to 32 columns, applied by ``dgemqrt``):
    ``dgeqrf`` runs its level-2 code on fewer than 128 columns, and the
    past rows of 10 channels at 10 block rows give 100.  Both are
    backward-stable Householder QRs, so only rounding differs.
    """
    i = options.block_rows
    l = record.n_channels
    data, dt = _conditioned(record, options)
    if 2 * i * l > data.shape[1]:
        raise IdentificationError("record too short: need (decimated) n_samples >= "
                                  "2 * block_rows * channels")
    h = _block_hankel(data, 2 * i)
    li = l * i
    # H = L Q^T; the projection of the future block rows F onto the past row
    # space is L[li:, :li] = F Q1, where Q1 is the orthonormal factor of the
    # past rows alone: the first li rows of Q^T F^T, from the QR of the past
    # rows' transpose.  Both transposes are Fortran-ordered views of h, which
    # the two LAPACK calls overwrite in place.  The QR has min(j, li)
    # reflectors, one per column of t (j < li on one channel near the
    # minimum length).
    past, future = h[:li].T, h[li:].T
    v, t, info = lapack.dgeqrt(min(32, *past.shape), past, overwrite_a=True)
    if info == 0:
        qtf, info = lapack.dgemqrt(v[:, :t.shape[1]], t, future, side="L", trans="T",
                                   overwrite_c=True)
    if info:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dgeqrt/dgemqrt")
    u, s, _ = np.linalg.svd(qtf[:li].T)
    return SubspaceFactorization(u, s, l, dt)


def realize_modes(fact: SubspaceFactorization, order: int) -> Poles:
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
    keep = (0.0 < zeta) & (zeta < 0.2)
    # One matrix-vector product per pole, batched: numpy runs gemv on each,
    # which rounds as c @ psi[:, k] does; a single gemm would not.
    shapes = unit_normalize(align_to_real(np.matmul(c, psi.T[upper[keep], :, None])[..., 0]))
    freq = w[keep] / (2.0 * np.pi)
    by_f = np.argsort(freq, kind="stable")
    return Poles(freq[by_f], zeta[keep][by_f], shapes[by_f], np.zeros(freq.size, dtype=bool),
                 np.zeros(freq.size))


def _flag_poles(current: Poles, previous: Poles, tol: SsiOptions) -> Poles:
    if not previous.frequency.size or not current.frequency.size:
        return current
    near = np.argmin(np.abs(previous.frequency - current.frequency[:, None]), axis=1)
    prev_f, prev_d = previous.frequency[near], previous.damping[near]
    m = mac(current.shapes, previous.shapes[near])
    stable = ((np.abs(current.frequency - prev_f) / prev_f <= tol.freq_rel)
              & (np.abs(current.damping - prev_d) <= tol.damping_abs)
              & (m >= tol.mac_min))
    return Poles(current.frequency, current.damping, current.shapes, stable, m)


def _cluster_stable(poles: Poles, tol: SsiOptions):
    """Group stable poles by relative frequency gaps and select modes."""
    idx = np.flatnonzero(poles.stable)
    idx = idx[np.argsort(poles.frequency[idx], kind="stable")]
    f = poles.frequency[idx]
    cuts = list(np.flatnonzero(np.diff(f) > tol.freq_rel * f[:-1]) + 1)
    selected, sizes = [], []
    for lo, hi in zip([0] + cuts, cuts + [idx.size]):
        cluster = idx[lo:hi]
        if cluster.size >= tol.min_cluster_size:
            best = cluster[np.argmax(poles.mac_prev[cluster])]
            selected.append(IdentifiedMode(float(np.median(f[lo:hi])), poles.shapes[best],
                                           float(np.median(poles.damping[cluster]))))
            sizes.append(cluster.size)
    return tuple(_merge_duplicate_shapes(selected, sizes, tol))


def _merge_duplicate_shapes(selected: list[IdentifiedMode], sizes: list[int],
                            tol: SsiOptions) -> list[IdentifiedMode]:
    """Drop over-modeling side clusters that repeat a neighbour's shape.

    Model orders above twice the physical mode count produce companion
    poles of an existing mode (same shape, slightly shifted frequency and
    inflated damping).  When two clusters within 5% in frequency share a
    shape (MAC >= ``mac_min``), only the one with more stable poles
    (``sizes``) speaks for the mode.
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
            victim = a if (sizes[a], fb) < (sizes[b], fa) else b
            keep[victim] = False
    return [m for k, m in zip(keep, selected) if k]


def stabilization(fact: SubspaceFactorization,
                  options: SsiOptions = SsiOptions()) -> StabilizationDiagram:
    """Sweep the model orders of ``options`` and cluster the stable poles into modes.

    The orders are ``options.resolve_orders(fact.n_channels)``, which checks
    them.  A pole is stable when, against the nearest-in-frequency pole of
    the previous swept order, the frequency moves at most ``freq_rel``, the
    damping at most ``damping_abs`` (absolute) and the shape MAC reaches
    ``mac_min``.  Stable poles are clustered by relative frequency gaps; a
    cluster needs ``min_cluster_size`` members and reports its median
    frequency and damping with the shape of its highest-MAC pole.  Orders
    above the projection rank all realize the rank-order model, so it is
    swept once and the truncation is noted.
    """
    orders = sorted(options.resolve_orders(fact.n_channels))
    realized = sorted({min(o, fact.rank) for o in orders})
    notes = []
    if len(realized) == 1:
        notes.append("single model order: stability cannot be assessed")
    if orders[-1] > fact.rank:
        notes.append(f"projection rank {fact.rank} below model order {orders[-1]}; "
                     "higher orders truncated")
    swept = [realize_modes(fact, realized[0])]
    for order in realized[1:]:
        swept.append(_flag_poles(realize_modes(fact, order), swept[-1], options))
    poles = Poles(*(np.concatenate([getattr(p, f.name) for p in swept]) for f in fields(Poles)))
    return StabilizationDiagram(poles, _cluster_stable(poles, options), tuple(notes))


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
    :func:`stabilization`; the result's ``shape_at`` reads nearest poles.
    """
    fact = build_hankel(record, options)
    diagram = stabilization(fact, options)
    selected, notes = clip_to_passband(diagram.selected, diagram.notes,
                                       record.sample_rate, options)
    return IdentifiedModeSet(selected, lambda fs, window: [diagram.nearest_shape(f, window)
                                                           for f in fs], notes)
