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

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import signal

from .dsp import MultiChannelRecord
from .freqdom import IdentifiedMode, IdentifiedModeSet, align_to_real, unit_normalize
from .metrics import mac

__all__ = [
    "HankelOptions",
    "StabilityTolerances",
    "ModeCandidate",
    "PoleRecord",
    "SubspaceFactorization",
    "StabilizationDiagram",
    "build_hankel",
    "realize_modes",
    "stabilization",
    "ssi_identify",
    "write_diagram_csv",
]


@dataclass(frozen=True)
class HankelOptions:
    """Subspace settings: preprocessing, past/future block rows, model orders.

    ``block_rows`` is the number of block rows in each of the past and the
    future part (the Hankel matrix has ``2 * block_rows`` block rows in
    total).  ``orders`` defaults to ``2, 4, ..., min(100, block_rows * l)``
    where ``l`` is the channel count.

    ``decimate`` and ``integrate`` condition heavily oversampled
    acceleration data before the Hankel build.  Polyphase anti-aliased
    downsampling stretches the past horizon covered by the block rows, and
    each time integration weights the spectrum by one power of 1/omega, so
    low-frequency modes (whose acceleration variance scales like omega
    cubed) compete on equal terms with high ones in the projection.
    Neither step moves a pole, and mode shapes are unchanged up to the
    per-mode scaling removed by normalization.  ``decimate=1`` together
    with ``integrate=0`` processes the raw record.
    """

    block_rows: int = 10
    orders: tuple[int, ...] | None = None
    detrend: bool = True
    decimate: int = 5
    integrate: int = 2

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
            object.__setattr__(self, "orders", orders)

    def resolve_orders(self, n_channels: int) -> tuple[int, ...]:
        cap = self.block_rows * n_channels
        if self.orders is None:
            top = min(100, cap)
            return tuple(range(2, top + 1, 2))
        if max(self.orders) > cap:
            raise ValueError(f"max order {max(self.orders)} exceeds block_rows * channels = {cap}")
        return self.orders


@dataclass(frozen=True)
class StabilityTolerances:
    """Pole-to-pole stability thresholds and cluster acceptance size."""

    freq_rel: float = 0.01
    damping_abs: float = 0.05
    mac_min: float = 0.95
    min_cluster_size: int = 3


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
    n_columns: int

    @property
    def max_order(self) -> int:
        return self.block_rows * self.n_channels


@dataclass(frozen=True)
class ModeCandidate:
    """One pole retained after the physical-pole filters."""

    frequency: float
    damping: float
    shape: np.ndarray
    order: int


@dataclass(frozen=True)
class PoleRecord:
    """Diagram entry: a candidate pole with its stability flags."""

    order: int
    frequency: float
    damping: float
    shape: np.ndarray
    stable_f: bool
    stable_d: bool
    stable_mac: bool
    mac_prev: float

    @property
    def stable(self) -> bool:
        return self.stable_f and self.stable_d and self.stable_mac


@dataclass(frozen=True)
class StabilizationDiagram:
    """All swept poles plus the stable-cluster mode selection."""

    poles: tuple[PoleRecord, ...]
    selected: tuple[IdentifiedMode, ...]
    orders: tuple[int, ...]
    notes: tuple[str, ...] = ()

    def stable_poles(self) -> list[PoleRecord]:
        return [p for p in self.poles if p.stable]

    def nearest_pole(self, frequency: float, rel_window: float = 0.05) -> PoleRecord | None:
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


def build_hankel(record: MultiChannelRecord,
                 options: HankelOptions = HankelOptions()) -> SubspaceFactorization:
    """Project the future outputs onto the past and factorize once.

    The block Hankel matrix has ``2 * block_rows`` block rows of all
    channels and ``n_samples - 2 * block_rows + 1`` columns.  Its LQ
    factorization (computed as the QR of the transpose) gives the orthogonal
    projection of the future row space onto the past row space; the returned
    object carries the SVD of that projection, which every model order
    reuses.
    """
    i = options.block_rows
    l = record.n_channels
    dt = 1.0 / record.sample_rate
    data = record.data
    if options.decimate > 1:
        data = signal.resample_poly(data, up=1, down=options.decimate, axis=1)
        dt *= options.decimate
    for _ in range(options.integrate):
        # Cumulative integration plus linear detrend: the drift from the
        # unknown integration constant must not enter the row space.
        data = signal.detrend(np.cumsum(data, axis=1) * dt, axis=1)
    if 2 * i * l > data.shape[1]:
        raise ValueError("record too short: need (decimated) n_samples >= "
                         "2 * block_rows * channels")
    if options.detrend:
        data = data - data.mean(axis=1, keepdims=True)
    h = _block_hankel(data, 2 * i)
    li = l * i
    r = np.linalg.qr(h.T, mode="r")
    # H = L Q^T with L = R^T; the projection of the future block rows onto
    # the past row space is L[li:, :li] expressed on the first li rows of Q^T.
    proj = r[:li, li:].T
    u, s, _ = np.linalg.svd(proj)
    return SubspaceFactorization(u, s, l, i, dt, h.shape[1])


def realize_modes(fact: SubspaceFactorization, order: int) -> list[ModeCandidate]:
    """Realize one model order and return the physically plausible poles.

    The observability range is ``u[:, :order] * sqrt(s[:order])``; ``A``
    follows from its shift invariance by least squares and ``C`` is its
    first block row.  Discrete eigenvalues are mapped to continuous poles;
    only one of each conjugate pair is kept and poles must be stable
    (``|mu| < 1``) with damping inside ``(0, 0.2)``.
    """
    if not (1 <= order <= fact.max_order):
        raise ValueError("order out of range for this factorization")
    l = fact.n_channels
    s = fact.s
    n_eff = order
    tiny = s[0] * 1e-12
    while n_eff > 1 and s[n_eff - 1] <= tiny:
        n_eff -= 1
    if n_eff < order:
        warnings.warn(f"projection rank {n_eff} below requested order {order}; "
                      "order truncated", stacklevel=2)
    gamma = fact.u[:, :n_eff] * np.sqrt(s[:n_eff])
    if gamma.shape[0] <= l:
        return []
    a, *_ = np.linalg.lstsq(gamma[:-l], gamma[l:], rcond=None)
    c = gamma[:l]
    mu, psi = np.linalg.eig(a)
    out = []
    for k in range(mu.size):
        m = mu[k]
        if abs(m) >= 1.0 or m.imag <= 0.0:
            continue
        lam = np.log(m) / fact.dt
        w = abs(lam)
        if w == 0.0:
            continue
        freq = w / (2.0 * np.pi)
        zeta = -lam.real / w
        if not (0.0 < zeta < 0.2):
            continue
        shape = unit_normalize(align_to_real(c @ psi[:, k]))
        out.append(ModeCandidate(float(freq), float(zeta), shape, order))
    out.sort(key=lambda mc: mc.frequency)
    return out


def _flag_poles(current: list[ModeCandidate], previous: list[ModeCandidate],
                tol: StabilityTolerances) -> list[PoleRecord]:
    records = []
    for cand in current:
        if previous:
            prev = min(previous, key=lambda p: abs(p.frequency - cand.frequency))
            df = abs(cand.frequency - prev.frequency) / prev.frequency
            dz = abs(cand.damping - prev.damping)
            m = mac(cand.shape, prev.shape)
            rec = PoleRecord(cand.order, cand.frequency, cand.damping, cand.shape,
                             df <= tol.freq_rel, dz <= tol.damping_abs,
                             m >= tol.mac_min, m)
        else:
            rec = PoleRecord(cand.order, cand.frequency, cand.damping, cand.shape,
                             False, False, False, 0.0)
        records.append(rec)
    return records


def _cluster_stable(stable: list[PoleRecord], tol: StabilityTolerances):
    """Group stable poles by relative frequency gaps and select modes."""
    selected = []
    stable = sorted(stable, key=lambda p: p.frequency)
    cluster: list[PoleRecord] = []

    def flush():
        if len(cluster) >= tol.min_cluster_size:
            freqs = np.array([p.frequency for p in cluster])
            damps = np.array([p.damping for p in cluster])
            best = max(cluster, key=lambda p: p.mac_prev)
            selected.append(IdentifiedMode(float(np.median(freqs)), best.shape,
                                           float(np.median(damps)),
                                           {"cluster_size": float(len(cluster))}))
        cluster.clear()

    for p in stable:
        if cluster and (p.frequency - cluster[-1].frequency) > tol.freq_rel * cluster[-1].frequency:
            flush()
        cluster.append(p)
    flush()
    selected.sort(key=lambda m: m.frequency)
    return tuple(_merge_duplicate_shapes(selected, tol))


def _merge_duplicate_shapes(selected: list[IdentifiedMode],
                            tol: StabilityTolerances) -> list[IdentifiedMode]:
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
                  tol: StabilityTolerances = StabilityTolerances()) -> StabilizationDiagram:
    """Sweep model orders and cluster the stable poles into modes.

    A pole is stable when, against the nearest-in-frequency pole of the
    previous swept order, the frequency moves at most ``freq_rel``, the
    damping at most ``damping_abs`` (absolute) and the shape MAC reaches
    ``mac_min``.  Stable poles are clustered by relative frequency gaps; a
    cluster needs ``min_cluster_size`` members and reports its median
    frequency and damping with the shape of its highest-MAC pole.
    """
    orders = tuple(int(o) for o in orders)
    if not orders:
        raise ValueError("at least one model order is required")
    notes = []
    if len(orders) == 1:
        notes.append("single model order: stability cannot be assessed")
    poles: list[PoleRecord] = []
    previous: list[ModeCandidate] = []
    for order in sorted(orders):
        current = realize_modes(fact, order)
        poles.extend(_flag_poles(current, previous, tol))
        previous = current
    diagram = StabilizationDiagram(tuple(poles),
                                   _cluster_stable([p for p in poles if p.stable], tol),
                                   tuple(sorted(orders)), tuple(notes))
    return diagram


def passband_edge(sample_rate: float, options: HankelOptions) -> float | None:
    """Upper trustworthy frequency after decimation, ``None`` for raw data.

    The anti-alias filter of the polyphase decimator leaves a transition
    band below the decimated Nyquist frequency; poles found there mix real
    content with filter artifacts and are not reported.
    """
    if options.decimate <= 1:
        return None
    return 0.8 * sample_rate / (2.0 * options.decimate)


def clip_to_passband(selected, notes, sample_rate: float,
                     options: HankelOptions) -> tuple[tuple, tuple]:
    """Drop selected modes above the decimation passband edge."""
    edge = passband_edge(sample_rate, options)
    if edge is None:
        return tuple(selected), tuple(notes)
    kept = tuple(m for m in selected if m.frequency <= edge)
    return kept, tuple(notes) + (f"band limited to {edge:g} Hz by decimation",)


def ssi_identify(record: MultiChannelRecord,
                 options: HankelOptions = HankelOptions(),
                 tol: StabilityTolerances = StabilityTolerances()) -> IdentifiedModeSet:
    """Subspace identification of a record via the stabilization diagram.

    With decimation active, only clusters inside the anti-alias filter
    passband are reported; the full diagram is available through
    :func:`stabilization`; ``shape_at`` of the result reads its nearest pole.
    """
    fact = build_hankel(record, options)
    diagram = stabilization(fact, options.resolve_orders(record.n_channels), tol)
    selected, notes = clip_to_passband(diagram.selected, diagram.notes,
                                       record.sample_rate, options)
    return IdentifiedModeSet("SSI", selected, notes, lambda f, window: (
        p.shape if (p := diagram.nearest_pole(f, window)) is not None else None))


def write_diagram_csv(path, diagram: StabilizationDiagram) -> None:
    """Write the swept poles as ``order,frequency_hz,damping,stable_f,stable_d,stable_mac``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("order,frequency_hz,damping,stable_f,stable_d,stable_mac\n")
        for p in diagram.poles:
            fh.write(f"{p.order},{p.frequency!r},{p.damping!r},"
                     f"{int(p.stable_f)},{int(p.stable_d)},{int(p.stable_mac)}\n")
