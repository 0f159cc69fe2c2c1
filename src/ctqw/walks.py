"""Walk evaluation U(t) = exp(-itA) and transport-event certification.

Detects fractional revival, perfect state transfer, periodicity and uniform
mixing; solves for revival times on the lattice of eigenvalue differences,
for strongly cospectral pairs and, in scan_fr, for every parallel pair;
verifies the product / overlay / rotation constructions and quotient
transport. Every certificate is double-checked against an eigensolver-free
matrix exponential before being reported. certify_pairs and scan_fr are the
halves of one walk by tau (_certify), which analyze makes once with or
without --scan: a call forms each exponential once, and a later call forms
it again once the decomposition's window of the latest has dropped it.
"""

from __future__ import annotations

import cmath
import heapq
import itertools
import logging
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from ctqw.graphs import WeightedGraph, _freeze, cartesian_product, quotient, union_overlay, x_theta
from ctqw.numtheory import (
    CLASS_TOL,
    EigenvalueClassification,
    NotClassifiable,
    RatioReport,
    classify,
    lattice_step,
    rationalize,
)
from ctqw.spectral import TOL_SUPPORT, PairProfile, SpectralDecomposition, decompose, pair_profile, parallel_pairs

logger = logging.getLogger(__name__)

KIND_FR = "fractional_revival"
KIND_PST = "perfect_state_transfer"
KIND_PERIODIC = "periodic"
KIND_BALANCED = "balanced_fr"
VALID_KINDS = frozenset({KIND_FR, KIND_PST, KIND_PERIODIC, KIND_BALANCED})

#: grid truncation in certify_pairs: multiples of the fundamental candidate
#: period examined before giving up
CERTIFY_GRID_K = 64
#: largest tau * ||A|| of a certificate: the 12 digits of tau in a report move
#: the column by up to 1e-11 tau ||A||, kept at most 1e-6, the default beta_min
MAX_PHASE = 1e5

#: cap on the events scan_fr keeps per source, the earliest first
_SCAN_MAX_EVENTS = 512
#: lattice points _lattice_times yields at once: a scan holds one such chunk
#: per (source, partner) it walks
_REVIVAL_CHUNK = 64
#: row j holds the coefficients of Y^j, Y = X^2, in the real and imaginary
#: parts of the degree-19 Taylor polynomial of exp(-iX): (-1)^j / (2j)! and,
#: times X, -(-1)^j / (2j+1)!
_TAYLOR_CS = _freeze(
    np.array([[(-1) ** j / math.factorial(2 * j), (-1) ** (j + 1) / math.factorial(2 * j + 1)] for j in range(10)])
)
#: the (2, 3) coefficients of Y, Y^2 and Y^3 in the blocks D_0, D_1, D_2 of
#: _taylor_exp, rows 1-3, 4-6 and 7-9 of _TAYLOR_CS: a row for C, one for q
_TAYLOR_BLOCKS = tuple(_freeze(np.ascontiguousarray(_TAYLOR_CS[j : j + 3].T)) for j in (1, 4, 7))
#: the (2, 1) coefficients of I, row 0 of _TAYLOR_CS
_TAYLOR_EYE = _TAYLOR_CS[0, :, None]
#: working set of one stack of times in matrix_exp_oracle, at about 56 n^2
#: bytes per time: the times of a matrix of order above 48 run one at a time
_STACK_BYTES = 2**18
#: horizon of the approximate-transfer scan in check_gamma_consequences
PGST_T_MAX = 1e4
#: sample times of the walk-entry comparison in verify_quotient_transport
QUOTIENT_TIMES = np.linspace(0.05, 10.0, 200)
QUOTIENT_TIMES.setflags(write=False)


class NumericalHealthWarning(UserWarning):
    """Spectral walk and exponential oracle disagreed beyond tolerance."""


@dataclass(frozen=True)
class DetectionConfig:
    """Tolerances and time horizon for transport detection."""

    tol_walk: float = 1e-8
    beta_min: float = 1e-6
    t_max: float = 50.0

    def __post_init__(self) -> None:
        if not all(0 < x < math.inf for x in (self.tol_walk, self.beta_min, self.t_max)):
            raise ValueError("tolerances and t_max must be positive and finite")
        # a looser tol_walk would accept columns with off-pair entries beyond beta_min
        if self.tol_walk >= self.beta_min:
            raise ValueError(f"tol_walk must be below beta_min ({self.beta_min:g})")


@dataclass(frozen=True)
class FrCertificate:
    """A verified transport event U(tau) e_a = alpha e_a + beta e_b.

    ``gamma``/``zeta`` are set, together, when the amplitudes have the
    strongly cospectral form alpha = e^{i zeta} cos(gamma), beta = i e^{i
    zeta} sin(gamma), with gamma reported in (-pi/2, pi/2]. Periodic events
    store b == a and beta == 0; they are recorded but are not fractional
    revival.
    """

    a: int
    b: int
    tau: float
    alpha: complex
    beta: complex
    gamma: float | None
    zeta: float | None
    kind: str
    residual: float
    method: str

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if (self.gamma is None) != (self.zeta is None):
            raise ValueError("gamma and zeta are set together")
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"amplitudes not normalized (|a|^2+|b|^2 = {norm})")


# ---------------------------------------------------------------------------
# walk evaluation
# ---------------------------------------------------------------------------


def transition_matrix(dec: SpectralDecomposition, t) -> np.ndarray:
    """U(t) = V diag(exp(-i t theta)) V^T, as one real product with V. A 1-D
    array of times gives their (T, n, n) stack, whose slices are the (n, n)
    @ (n, 2n) products of the times alone, bit for bit."""
    phase = np.exp(-1j * np.asarray(t)[..., None] * dec.eigenvalues)
    right = phase[..., dec.group_of, None] * dec.vectors.T
    return (dec.vectors @ right.view(float)).view(complex)


def transition_column(dec: SpectralDecomposition, a: int, t: float) -> np.ndarray:
    """U(t) e_a: walk_columns at one time."""
    return walk_columns(dec, a, np.array([t], dtype=float))[0]


def walk_columns(dec: SpectralDecomposition, a, times: np.ndarray) -> np.ndarray:
    """(T, n) array whose row k is U(times[k]) e_a = V (phase_k * V^T e_a),
    with exp(-i t theta_r) repeated for each eigenvector of theta_r; a is
    one source for all times or a sequence of one per time.

    The complex coefficients are read as (n, 2) real matrices, real and
    imaginary parts side by side, so one stacked (n, n) @ (T, n, 2) real
    product applies V without a complex copy of it. Each slice of the stack
    is the same (n, n) @ (n, 2) product, so row k is the walk at times[k]
    alone, bit for bit.
    """
    coef = np.exp(-1j * times[:, None] * dec.eigenvalues).take(dec.group_of, axis=1)
    coef *= dec.vectors[a]
    pairs = coef.view(float).reshape(len(times), -1, 2)
    return (dec.vectors @ pairs).view(complex).reshape(len(times), -1)


def matrix_exp_oracle(a, t) -> np.ndarray:
    """exp(-itA) by scaling-and-squaring on a Taylor form; no eigensolver.

    Independent verification route for certificates: shares nothing with the
    spectral path beyond the input matrix. With s the smallest integer for
    which X = tA / 2^s has |t| ||A||_inf / 2^s <= 1/2, the degree-19 Taylor
    polynomial of exp(-iX) is evaluated in real arithmetic (_taylor_exp) and
    squared s times. A 1-D array of times gives their (T, n, n) stack in its
    order, each slice bit-equal to the call at that time alone, and a time t
    the (n, n) slice of its stack of one. The times run in stacks of at most
    _STACK_BYTES of working set.
    """
    m = a.weights if isinstance(a, WeightedGraph) else np.asarray(a, dtype=float)
    times = np.asarray(t, dtype=float)
    if times.ndim == 0:
        return _oracle_stack(m, times.reshape(1))[0]
    return _oracle_stack(m, times)


def _oracle_stack(m: np.ndarray, times: np.ndarray) -> np.ndarray:
    """matrix_exp_oracle of the matrix m at a 1-D array of times."""
    if times.ndim != 1:
        raise ValueError("expected a time or a 1-D array of times")
    step = _stack_size(m)
    ts = times.tolist()
    if 0 < len(ts) <= step:  # one stack, kept without a copy
        return _taylor_exp(m, ts).reshape(times.shape + m.shape)
    out = np.empty(times.shape + m.shape, dtype=complex)
    for lo in range(0, len(ts), step):
        out[lo : lo + step] = _taylor_exp(m, ts[lo : lo + step])
    return out


def _stack_size(m: np.ndarray) -> int:
    """The times of m in one stack of _STACK_BYTES, and in the oracle window."""
    return max(1, _STACK_BYTES // (56 * max(1, m.size)))


def _taylor_exp(m: np.ndarray, ts: list[float]) -> np.ndarray:
    """exp(-i t m) for each of the times ts, as their (T, n, n) stack in its
    order.

    With X = t m / 2^s, sum_{k <= 19} (-iX)^k / k! = C - iS: the even terms
    give C and the odd ones S = X q(Y), and C and q are both degree 9 in Y =
    X^2 (_TAYLOR_CS). Paterson and Stockmeyer's scheme evaluates each as c_0 I
    + D_0 + Y^3 (D_1 + Y^3 D_2), where D_k combines Y, Y^2 and Y^3 (one
    (2, 3) @ (3, n^2) product, _TAYLOR_BLOCKS) and c_0 I is added on the
    diagonal, so six real (n, n) products replace nineteen complex ones.
    Polynomials in Y commute, so C and q run as one (2n, n) stack multiplied
    by Y^3 from the right.

    Every buffer is allocated once and every product written into one, so a
    time holds at most 7 n^2 floats: Y, Y^2, Y^3 and two (2n, n) Horner
    buffers. X is dropped once Y is formed and formed again for S. The times
    are sorted by s, largest first, so that each squaring is one product
    over a prefix of the stack. Each slice of a stack makes the BLAS calls of
    its time alone.
    """
    count, n = len(ts), len(m)
    bound = float(np.add.reduce(np.abs(m), axis=1).max())  # ||A||_inf
    s = []
    for t in ts:
        norm = abs(t) * bound
        if not math.isfinite(norm):
            raise ValueError("t * A must be finite")
        s.append(0 if norm <= 0.5 else math.ceil(math.log2(norm / 0.5)))
    order = sorted(range(count), key=s.__getitem__, reverse=True)
    ts, s = [ts[i] for i in order], [s[i] for i in order]
    scaled = np.array([t / 2.0**k for t, k in zip(ts, s)])[:, None, None]

    # small products are dominated by call overhead: each view is named
    # once and every output passed positionally
    x = scaled * m
    powers = np.empty((3, count, n, n))
    y, y2, y3 = powers[0], powers[1], powers[2]
    np.matmul(x, x, y)
    del x
    np.matmul(y, y, y2)
    np.matmul(y2, y, y3)
    flat = powers.reshape(3, count, n * n).transpose(1, 0, 2)
    horner = np.empty((2, count, 2 * n, n))  # C over q, twice
    h0, h1 = horner[0], horner[1]
    rows = horner.reshape(2, count, 2, n * n)  # C and q of each time as rows
    d_0, d_1, d_2 = _TAYLOR_BLOCKS
    np.matmul(d_2, flat, rows[0])
    np.matmul(h0, y3, h1)
    np.matmul(d_1, flat, rows[0])
    h1 += h0
    np.matmul(h1, y3, h0)
    np.matmul(d_0, flat, rows[1])
    h0 += h1
    diagonals = rows[0, ..., :: n + 1]
    diagonals += _TAYLOR_EYE
    del powers, y, y2, y3, flat, rows, diagonals

    x = scaled * m
    np.matmul(x, h0[..., n:, :], h1[..., :n, :])
    del x
    u = np.empty((count, n, n), dtype=complex)
    u.real = h0[..., :n, :]
    u.imag = h1[..., :n, :]
    del horner, h0, h1

    done = []  # the times squared often enough, the last first
    for k in range(s[0]):
        head = len(u)
        while s[head - 1] == k:
            head -= 1
        if head < len(u):
            done.append(u[head:].copy())
            u = u[:head]
        u = u @ u
    return np.concatenate([u, *done[::-1]])[np.argsort(order)]


# ---------------------------------------------------------------------------
# amplitude form and certificate construction
# ---------------------------------------------------------------------------


def _wrap_angle(x: float) -> float:
    """Wrap to (-pi, pi]."""
    y = math.fmod(x + math.pi, 2.0 * math.pi)
    if y <= 0:
        y += 2.0 * math.pi
    return y - math.pi


def _gamma_zeta(alpha: complex, beta: complex, tol: float):
    """Extract (gamma, zeta) with alpha = e^{iz} cos(g), beta = i e^{iz} sin(g).

    The form exists iff alpha + beta and alpha - beta are both unimodular
    (equivalently Re(conj(alpha) beta) = 0). Returns None when it does not.
    """
    cp = alpha + beta
    cm = alpha - beta
    if abs(abs(cp) - 1.0) > 100 * tol or abs(abs(cm) - 1.0) > 100 * tol:
        return None
    gamma = 0.5 * cmath.phase(cp / cm)
    zeta = cmath.phase(cp) - gamma
    if gamma <= -math.pi / 2:
        gamma += math.pi
        zeta += math.pi
    elif gamma > math.pi / 2:
        gamma -= math.pi
        zeta -= math.pi
    zeta = _wrap_angle(zeta)
    reconstructed_a = cmath.exp(1j * zeta) * math.cos(gamma)
    reconstructed_b = 1j * cmath.exp(1j * zeta) * math.sin(gamma)
    if abs(reconstructed_a - alpha) > 100 * tol or abs(reconstructed_b - beta) > 100 * tol:
        return None
    return gamma, zeta


def _kind_of(alpha: complex, beta: complex, cfg: DetectionConfig) -> str:
    if abs(beta) <= cfg.beta_min:
        return KIND_PERIODIC
    if abs(alpha) < cfg.tol_walk:
        return KIND_PST
    if abs(abs(alpha) - abs(beta)) < cfg.tol_walk:
        return KIND_BALANCED
    return KIND_FR


def _oracle_exps(dec: SpectralDecomposition, taus: list[float]) -> list[np.ndarray]:
    """exp(-i tau A) of dec.matrix at each of the distinct times taus, no more
    than one stack of _STACK_BYTES holds, read from the decomposition's
    oracle window.

    The window keeps the latest times used, as many as one stack holds: one
    for orders above 48. The times it lacks are formed in one _oracle_stack
    call, with the oldest dropped first, so a caller that walks its times in
    increasing order computes each once.
    """
    window = dec._time_memo.setdefault("oracle", {})
    for t in taus:  # the times asked for are the newest
        if t in window:
            window[t] = window.pop(t)
    missing = [t for t in taus if t not in window]
    if missing:
        while window and len(window) + len(missing) > _stack_size(dec.matrix):
            del window[next(iter(window))]
        for t, u in zip(missing, _oracle_stack(dec.matrix, np.array(missing))):
            u.setflags(write=False)
            window[t] = u
    return [window[t] for t in taus]


def _judge(
    dec: SpectralDecomposition, a: list[int], taus: list[float], cfg: DetectionConfig
) -> tuple[list, np.ndarray]:
    """The spectral test of detect_at on the walks from the sources a at the
    times taus, one source per time, as one block: per time None, or (kind,
    b, alpha, beta, residual) of a column on {a, b} within tol_walk (b = a,
    beta = 0 for a column on a alone); and the (T, n) columns.

    One walk_columns product gives the columns, each bit-equal to
    transition_column at its source and time. The mass off a, the vertices
    above beta_min and the residual are found for the whole block; each row
    is then read as detect_at reads its column, with Python's abs.
    """
    taus, src = np.asarray(taus, dtype=float), np.asarray(a)
    cols, rows = walk_columns(dec, src, taus), np.arange(len(taus))
    mass = np.abs(cols)  # |col_j|^2, then its root, as detect_at took them
    mass *= mass
    hit = np.sqrt(mass, out=mass) > cfg.beta_min
    hit[rows, src] = True  # not a partner, but left out of the residual as they are
    off = np.where(hit, 0.0, cols)
    hits: list[list] = [[] for _ in rows]
    for k, j in zip(*(x.tolist() for x in np.nonzero(hit))):
        hits[k].append(j)
    out: list = []
    for k, (on, s, alpha, residual) in enumerate(
        zip(hits, src.tolist(), cols[rows, src].tolist(), _norms(off).tolist())
    ):
        on.remove(s)
        if len(on) > 1:
            if logger.isEnabledFor(logging.DEBUG):
                spread = mass[k].copy()
                spread[s] = 0.0
                top = np.argsort(spread)[::-1][:2]
                logger.debug(
                    "ambiguous concentration at tau=%r from %d: vertices %s carry %s",
                    taus[k].item(), s, top.tolist(), spread[top].tolist(),
                )
            out.append(None)
            continue
        b, beta = (on[0], complex(cols[k, on[0]])) if on else (s, 0j)
        if residual > cfg.tol_walk or (b == s and abs(abs(alpha) - 1.0) > cfg.tol_walk):
            out.append(None)
        else:
            out.append((_kind_of(alpha, beta, cfg), b, alpha, beta, residual))
    return out, cols


def _gate(a: list[int], exps: list[np.ndarray], cols: np.ndarray) -> list[float]:
    """max_j |col_j - U_{j a}| of each row col of cols, its source in a and
    U = exp(-i tau A) at its time in exps."""
    return np.abs(cols - np.array([u[:, s] for s, u in zip(a, exps)])).max(axis=1).tolist()


def _certificate(a: int, tau: float, row: tuple, cfg: DetectionConfig, method: str) -> FrCertificate:
    """The certificate of a row that passed _judge at tau and the oracle's
    gate (_gate within tol_walk)."""
    kind, b, alpha, beta, residual = row
    gz = _gamma_zeta(alpha, beta, cfg.tol_walk)
    gamma, zeta = gz if gz is not None else (None, None)
    return FrCertificate(a, b, float(tau), alpha, beta, gamma, zeta, kind, residual, method)


def _disagreement(a: int, tau: float, diff: float) -> str:
    """The health message of the walk from a at tau, diff (_gate) from the
    oracle's column, beyond tol_walk."""
    return f"spectral/oracle disagreement {diff:.3e} at tau={tau!r}, vertex {a}"


def detect_at(
    dec: SpectralDecomposition,
    a: int,
    tau: float,
    cfg: DetectionConfig = DetectionConfig(),
    method: str = "grid_scan",
) -> FrCertificate | None:
    """Examine U(tau) e_a for two-vertex concentration: _judge on a block of
    one time, then the oracle gate.

    Returns a certificate when the column mass sits on {a} and at most one
    other vertex within tol_walk; an ambiguous column (two off-vertices above
    beta_min) yields None, and so does, with a NumericalHealthWarning, a
    column more than tol_walk from the oracle's.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    (row,), col = _judge(dec, [a], [tau], cfg)
    if row is None:
        return None
    diff = _gate([a], _oracle_exps(dec, [float(tau)]), col)[0]
    if diff > cfg.tol_walk:
        warnings.warn(_disagreement(a, tau, diff), NumericalHealthWarning, stacklevel=2)
        return None
    return _certificate(a, tau, row, cfg, method)


def _residual(cols: np.ndarray, a: int, alpha, b, beta) -> np.ndarray:
    """||col - alpha e_a - beta e_b|| of each row col of the (T, n) cols, left
    untouched, with a, b, alpha and beta one for all rows or one per row;
    beta = 0 where b == a."""
    diff, rows = cols.copy(), np.arange(len(cols))
    diff[rows, a] -= alpha
    diff[rows, b] -= beta
    return _norms(diff)


def _norms(x: np.ndarray) -> np.ndarray:
    """The norm of each row of the (T, n) complex x, as np.linalg.norm takes
    it, bit for bit: the BLAS dot products of its real and of its imaginary
    part, each a (1, n) @ (n, 1) slice of a stacked product."""
    re, im = x.real[:, None], x.imag[:, None]
    return np.sqrt(np.matmul(re, re.swapaxes(1, 2)) + np.matmul(im, im.swapaxes(1, 2))).reshape(len(x))


# ---------------------------------------------------------------------------
# certification of strongly cospectral pairs
# ---------------------------------------------------------------------------


def _counts(kind: str, b: int, target: int, periodic_ends: bool) -> tuple[bool, bool]:
    """Whether an event of kind on b is kept, and whether it counts against
    its walk's budget: periodic events are kept, and counted, exactly when
    periodic_ends; the others are kept on target, and counted unless
    periodic_ends."""
    if kind == KIND_PERIODIC:
        return periodic_ends, periodic_ends
    return b == target, b == target and not periodic_ends


def _walk_by_tau(dec: SpectralDecomposition, walks: list, cfg: DetectionConfig) -> tuple[list, list]:
    """(certificates, messages) of each walk (a, entries, budget, method): the
    certificates it keeps (_counts) over its increasing entries (tau,
    target), all merged by tau, ties by walk, and the message (_disagreement)
    of each row the oracle voids, in its order; a walk goes on until budget
    certificates that count are kept. A walk of the grid's method,
    equiv_cond_solve, ends at a periodic event.

    The walks go in rounds. Each walk reads on until it holds its next run
    of 2, 4, 8, ... entries, capped at one block. A round takes the entries
    up to its horizon, the earliest last-read tau of the walks that may read
    on; the later ones wait for the next round, so the rounds come in order
    of tau. A round's entries are judged (_judge) a block at a time, as many
    as a sixteenth of _STACK_BYTES holds as columns, without the walks that
    have ended. Only the rows that pass reach the oracle: those of a block up
    to each walk's end, were they all to pass the oracle, are gated (_gate)
    at their distinct times, one stack of the window's size when the first
    row at its times comes up, and a row past an end that the oracle voided
    is gated on its own before the next stack is formed. So each time is
    formed once.
    """
    sources, its = [a for a, *_ in walks], [iter(entries) for _, entries, *_ in walks]
    left, methods = [budget for *_, budget, _ in walks], [method for *_, method in walks]
    periodic_ends, certs, messages = [m == "equiv_cond_solve" for m in methods], [[] for _ in walks], [[] for _ in walks]
    cap, room = max(1, _STACK_BYTES // (256 * dec.order)), _stack_size(dec.matrix)
    # each walk's next run, its entries read and not yet judged, and whether its iterator may hold more
    run, waiting, more = [min(2, cap)] * len(walks), [[] for _ in walks], [True] * len(walks)
    while True:
        for i, entries in enumerate(waiting):
            if left[i] and more[i]:
                entries.extend(itertools.islice(its[i], run[i] - len(entries)))
                more[i], run[i] = len(entries) == run[i], min(2 * run[i], cap)
        live = [i for i in range(len(walks)) if left[i]]
        horizon = min((waiting[i][-1][0] for i in live if more[i]), default=math.inf)
        todo = []  # (tau, walk, target)
        for i in live:
            k = sum(tau <= horizon for tau, _ in waiting[i])
            todo.extend((tau, i, target) for tau, target in waiting[i][:k])
            del waiting[i][:k]
        if not todo:
            return certs, messages
        todo.sort()  # by tau, ties by walk, each walk's entries in order
        for lo in range(0, len(todo), cap):
            block = [entry for entry in todo[lo : lo + cap] if left[entry[1]]]
            if not block:
                continue
            rows, cols = _judge(dec, [sources[i] for _, i, _ in block], [tau for tau, _, _ in block], cfg)
            at, ends, diffs = {}, {}, {}  # the passing rows at each time, up to each walk's end
            for j, ((tau, i, target), row) in enumerate(zip(block, rows)):
                if row is not None and ends.get(i, left[i]):
                    ends[i] = ends.get(i, left[i]) - _counts(row[0], row[1], target, periodic_ends[i])[1]
                    at.setdefault(tau, []).append(j)
            times, t = list(at), 0  # the block's times, and the first not yet formed
            for j, (tau, i, target) in enumerate(block):
                if not left[i] or rows[j] is None:
                    continue
                if j not in diffs and t < len(times) and times[t] <= tau:  # the next stack of times
                    chunk, t = times[t : t + room], t + room
                    js = [k for time in chunk for k in at[time]]
                    us = [u for time, u in zip(chunk, _oracle_exps(dec, chunk)) for _ in at[time]]
                    diffs.update(zip(js, _gate([sources[block[k][1]] for k in js], us, cols[js])))
                    del us  # only the window holds the exponentials while the next are formed
                if j not in diffs:  # past an end that the oracle voided
                    diffs[j] = _gate([sources[i]], _oracle_exps(dec, [tau]), cols[j : j + 1])[0]
                if diffs[j] > cfg.tol_walk:
                    messages[i].append(_disagreement(sources[i], tau, diffs[j]))
                    continue
                cert = _certificate(sources[i], tau, rows[j], cfg, methods[i])
                kept, counted = _counts(cert.kind, cert.b, target, periodic_ends[i])
                if kept:
                    certs[i].append(cert)
                    left[i] -= counted
                elif periodic_ends[i]:
                    logger.debug("grid time %r concentrated on %d, not the profiled partner %d", tau, cert.b, target)


@dataclass(frozen=True)
class PairCertification:
    """Full certification outcome for one vertex pair. ``has_lattice`` says
    whether the revival lattice exists; ``tau_step`` is its step, None when
    both parts are singletons. ``failure`` says why there is no lattice, or
    else why no ``classification``."""

    profile: PairProfile
    classification: EigenvalueClassification | None
    has_lattice: bool
    tau_step: float | None
    certificates: tuple[FrCertificate, ...]
    failure: str | None
    witness: RatioReport | None


def certify_pair(
    dec: SpectralDecomposition, prof: PairProfile, cfg: DetectionConfig = DetectionConfig()
) -> PairCertification:
    """certify_pairs of the one pair prof."""
    return certify_pairs(dec, [prof], cfg)[0]


def certify_pairs(
    dec: SpectralDecomposition, profiles, cfg: DetectionConfig = DetectionConfig()
) -> list[PairCertification]:
    """The PairCertification of each profiled pair, in the order of profiles:
    lattice -> certify, then classify its support, capturing failures.

    A strongly cospectral pair walks the grid tau_k = k * tau_step, k <=
    CERTIFY_GRID_K, of numtheory.lattice_step (_lattice_times). On the grid
    the phase factors are constant on each support part, so each k yields an
    event; certificates are those judged periodic or on b, up to and
    including the first periodic time, after which the pattern repeats up to
    a global phase. When both parts are singletons (tau_step None) the grid
    is unconstrained and the gap times of the two-level pair are walked
    instead. The grids of all the pairs walk by tau in rounds, judged a
    block at a time as detect_at judges one time (_walk_by_tau), so the call
    forms each oracle exponential once, shared by the pairs whose grids hold
    its time; each pair's certificates are those of its own walk. It is the
    grid half of _certify, the one walk of analyze, with or without --scan.
    Each row the oracle voids is then warned as a NumericalHealthWarning,
    pair by pair, each pair's in order of tau.
    """
    certified, _, messages = _certify(dec, profiles, (), None, cfg)
    for message in messages:
        warnings.warn(message, NumericalHealthWarning, stacklevel=2)
    return certified


def _lattice(dec: SpectralDecomposition, plus: tuple, minus: tuple) -> tuple:
    """(lattice, classification) of the eigenvalues of the sorted groups plus
    and minus: lattice_step's (tau_step, delta) or the NotClassifiable it
    raises, then classify's result or the reason it fails (None without a
    lattice). Solved once per decomposition and ordered pair (plus, minus);
    lattice_step sorts each part itself, so every caller's times are
    bit-equal to a direct call."""
    memo = dec._time_memo.setdefault("lattice", {})
    key = (plus, minus)
    if key not in memo:
        theta_plus, theta_minus = dec.eigenvalues[list(plus)], dec.eigenvalues[list(minus)]
        try:
            lattice = lattice_step(theta_plus, theta_minus)
        except NotClassifiable as exc:
            # without its traceback, whose frames would hold dec in a cycle
            memo[key] = (exc.with_traceback(None), None)
        else:
            try:
                memo[key] = (lattice, classify(theta_plus, theta_minus, lattice[1], lattice[0]))
            except NotClassifiable as exc:
                memo[key] = (lattice, exc.reason)
    return memo[key]


def _lattice_times(dec: SpectralDecomposition, step: float | None, gap: float, stop: float) -> Iterator[np.ndarray]:
    """The times k * step in (0, stop], none past tau ||A|| = MAX_PHASE, in
    increasing order, in arrays of at most _REVIVAL_CHUNK. Without a step,
    the balanced, transfer and periodic times pi/(2D), pi/D, 2pi/D of a
    two-level pair whose eigenvalues lie D = gap apart, which all revive.

    The candidates run one k past min(stop, MAX_PHASE / ||A||) / step,
    rounded down, where a time that rounds onto a bound may still lie; the
    two bounds decide.
    """
    if step is None:
        chunks = [np.array([math.pi / (2 * gap), math.pi / gap, 2 * math.pi / gap])]
    else:
        top = int(min(stop, MAX_PHASE / dec.norm) / step) + 2
        chunks = (step * np.arange(k, min(k + _REVIVAL_CHUNK, top)) for k in range(1, top, _REVIVAL_CHUNK))
    for taus in chunks:
        yield taus[(taus <= stop) & (taus * dec.norm <= MAX_PHASE)]


# ---------------------------------------------------------------------------
# revival times of parallel pairs
# ---------------------------------------------------------------------------


def _revival_times(dec: SpectralDecomposition, a: int, b: int, cfg: DetectionConfig) -> Iterator[float]:
    """The times in (0, t_max], none past tau ||A|| = MAX_PHASE, at which the
    walk from a can revive at its parallel partner b, in increasing order and
    solved _REVIVAL_CHUNK lattice points at a time.

    Write E_r e_b = c_r E_r e_a on the support of a; that of b must lie
    inside it. Then U(tau) e_a = alpha e_a + beta e_b iff exp(-i tau
    theta_r) = alpha + beta c_r for every r (Chan, Drazen, Eisenberg,
    Kempton, Lippner, "Fractional revival on non-cospectral vertices"). A
    line meets the unit circle at most twice, so c takes exactly two values
    c+ > c-, each class at one phase w+ or w-, and beta = (w+ - w-) / (c+ -
    c-). The phase is constant on each class exactly on the lattice of
    numtheory.lattice_step, or at every time when both classes are
    singletons, where the gap times are taken (_lattice_times). Lattice
    points whose beta is clearly below beta_min are periodic and dropped.
    """
    e_aa = dec.diagonals[:, a]
    sup = np.sqrt(e_aa) > TOL_SUPPORT
    if (np.sqrt(dec.diagonals[~sup, b]) > TOL_SUPPORT).any():
        logger.debug("no revival from %d to %d: the support of %d is not inside that of %d", a, b, b, a)
        return
    theta = dec.eigenvalues[sup]
    c = dec.entries(a, b)[sup] / e_aa[sup]
    order = np.argsort(-c, kind="stable")
    cut = np.flatnonzero(np.diff(c[order]) < -CLASS_TOL) + 1
    if len(cut) != 1:
        logger.debug("no revival from %d to %d: c_r takes %d values, not 2", a, b, len(cut) + 1)
        return
    plus, minus = np.split(order, cut)
    groups = np.flatnonzero(sup)
    lattice, _ = _lattice(dec, tuple(groups[np.sort(plus)].tolist()), tuple(groups[np.sort(minus)].tolist()))
    if isinstance(lattice, NotClassifiable):
        logger.debug("no revival from %d to %d: %s", a, b, lattice.reason)
        return
    spread = c[plus].mean() - c[minus].mean()
    for taus in _lattice_times(dec, lattice[0], abs(float(theta[plus[0]] - theta[minus[0]])), cfg.t_max):
        beta = np.abs(np.exp(-1j * taus * theta[plus[0]]) - np.exp(-1j * taus * theta[minus[0]])) / spread
        # detect_at names b only when |U(tau)_ba| = |beta| exceeds beta_min;
        # half of it leaves room for the rounding of the predicted beta
        yield from map(float, taus[beta >= cfg.beta_min / 2])


def scan_fr(
    dec: SpectralDecomposition,
    sources,
    b: int | None = None,
    cfg: DetectionConfig = DetectionConfig(),
) -> list[FrCertificate]:
    """Revival from each vertex of sources, solved exactly pair by pair.

    Only a parallel partner of a can receive revival, and the row of a in
    spectral.parallel_pairs keeps every partner detect_at can accept; the
    scan takes each of them (only b, when given) and the times
    _revival_times solves for. Those times are judged as detect_at judges
    them, with its residual and oracle gates, in blocks (_walk_by_tau), and
    a source keeps its earliest _SCAN_MAX_EVENTS events. The sources' times
    walk by tau in rounds, so the call forms each oracle exponential once; it
    is the scan half of _certify, which analyze --scan calls once for its
    grid and its scan. Certificates come source by source, sorted by tau;
    each row the oracle voids is warned as a NumericalHealthWarning, source
    by source, each in order of tau. Periodic events are not reported: the
    scan looks for genuine two-vertex transport, so b in sources is
    rejected. An empty result is bounded evidence, since lattice_step
    rationalizes eigenvalue ratios with denominators up to numtheory.MAX_DEN.
    """
    sources = list(sources)
    if b is not None and b in sources:
        raise ValueError("the scan target must differ from its source")
    _, scanned, messages = _certify(dec, (), sources, b, cfg)
    for message in messages:
        warnings.warn(message, NumericalHealthWarning, stacklevel=2)
    return scanned


def _certify(dec: SpectralDecomposition, profiles, sources, b: int | None, cfg: DetectionConfig) -> tuple:
    """(certify_pairs of profiles, scan_fr of sources toward b, the health
    messages they would warn) as one _walk_by_tau, which forms each oracle
    exponential once for both. Each walk keeps as in its own call, and its
    messages come walk by walk, the grids' walks first. Nothing is warned."""
    out: list[PairCertification] = []
    walks: list = []  # per pair its grid, then per source its (tau, partner), in increasing order
    shared: dict = {}  # the grid of each part pair
    theta = dec.eigenvalues
    for prof in profiles:
        if not prof.strongly_cospectral:
            out.append(PairCertification(prof, None, False, None, (), "not strongly cospectral", None))
            continue
        parts = (tuple(sorted(prof.phi_plus)), tuple(sorted(prof.phi_minus)))
        lattice, cls = _lattice(dec, *parts)
        if isinstance(lattice, NotClassifiable):
            out.append(PairCertification(prof, None, False, None, (), lattice.reason, lattice.witness))
            continue
        step = lattice[0]
        if parts not in shared:
            stop = math.inf if step is None else CERTIFY_GRID_K * step
            times = _lattice_times(dec, step, abs(float(theta[parts[0][0]] - theta[parts[1][0]])), stop)
            shared[parts] = [tau for taus in times for tau in taus.tolist()]
        walks.append((prof.a, zip(shared[parts], itertools.repeat(prof.b)), 1, "equiv_cond_solve"))
        failure = cls if isinstance(cls, str) else None
        out.append(PairCertification(prof, None if failure else cls, True, step, (), failure, None))
    sources = list(sources)
    partners = parallel_pairs(dec, (cfg.tol_walk / cfg.beta_min) ** 2, sources) if sources else []
    for a, row in zip(sources, partners):  # the revival times are solved as the walk reads on
        par = np.flatnonzero(row)
        if b is not None:
            par = par[par == b]
        events = heapq.merge(*(zip(_revival_times(dec, a, p, cfg), itertools.repeat(p)) for p in par.tolist()))
        walks.append((a, events, _SCAN_MAX_EVENTS, "grid_scan"))
    walked, messages = map(iter, _walk_by_tau(dec, walks, cfg))  # the grids' walks first
    certified = [replace(pc, certificates=tuple(next(walked))) if pc.has_lattice else pc for pc in out]
    return certified, [cert for certs in walked for cert in certs], [m for walk in messages for m in walk]


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def check_periodic(dec: SpectralDecomposition, a: int, tau: float, cfg: DetectionConfig = DetectionConfig()) -> bool:
    """|U(tau)_{a,a}| = 1 within tol_walk."""
    return check_pst(dec, a, a, tau, cfg)


def check_pst(dec: SpectralDecomposition, a: int, b: int, tau: float, cfg: DetectionConfig = DetectionConfig()) -> bool:
    """|U(tau)_{b,a}| = 1 within tol_walk."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    entry = transition_column(dec, a, tau)[b]
    return abs(abs(entry) - 1.0) <= cfg.tol_walk


def check_uniform_mixing(dec: SpectralDecomposition, tau: float, cfg: DetectionConfig = DetectionConfig()) -> bool:
    """Every |U(tau)_{u,v}| = 1/sqrt(n) within tol_walk."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    u = transition_matrix(dec, tau)
    flat = 1.0 / math.sqrt(dec.order)
    return bool(np.abs(np.abs(u) - flat).max() <= cfg.tol_walk)


def check_symmetry(cert: FrCertificate, dec: SpectralDecomposition, cfg: DetectionConfig = DetectionConfig()) -> bool:
    """Reverse revival: (-conj(alpha) beta / conj(beta), beta) holds from b.

    Checks U(tau)_{b,b} against the predicted reverse amplitude and verifies
    the full reverse column.
    """
    if cert.kind == KIND_PERIODIC:
        raise ValueError("reverse check applies to two-vertex events only")
    rev_alpha = -cert.alpha.conjugate() * cert.beta / cert.beta.conjugate()
    col = transition_column(dec, cert.b, cert.tau)
    if abs(col[cert.b] - rev_alpha) > cfg.tol_walk:
        return False
    return float(_residual(col[None], cert.b, rev_alpha, cert.a, cert.beta)[0]) <= cfg.tol_walk


def check_gamma_consequences(
    cert: FrCertificate, dec: SpectralDecomposition, cfg: DetectionConfig = DetectionConfig()
) -> dict:
    """Consequences of the revival angle gamma.

    gamma/pi = p/q forces periodicity at q*tau (verified numerically) and,
    for even q, perfect state transfer at (q/2)*tau; the balanced case is
    q = 4. A bounded-denominator "not rational" verdict instead triggers an
    approximate-transfer scan over the times 2*l*tau, reporting the best
    fidelity found up to PGST_T_MAX.
    """
    if cert.gamma is None:
        raise ValueError("certificate has no gamma angle (pair not strongly cospectral)")
    report: dict = {"gamma": cert.gamma, "gamma_over_pi": cert.gamma / math.pi}
    approx = rationalize(cert.gamma / math.pi)
    if approx is not None:
        q = approx.q
        report["verdict"] = "rational"
        report["p"], report["q"] = approx.p, approx.q
        report["periodic_time"] = q * cert.tau
        report["periodic_ok"] = check_periodic(dec, cert.a, q * cert.tau, cfg) and check_periodic(
            dec, cert.b, q * cert.tau, cfg
        )
        if q % 2 == 0:
            report["pst_time"] = (q // 2) * cert.tau
            report["pst_ok"] = check_pst(dec, cert.a, cert.b, (q // 2) * cert.tau, cfg)
        report["balanced_case"] = q == 4
        return report
    report["verdict"] = "not_rational_bounded"
    n_steps = max(1, int(PGST_T_MAX / (2.0 * cert.tau)))
    ls = np.arange(1, n_steps + 1)
    entries_ba = dec.entries(cert.b, cert.a)
    phases = np.exp(-1j * np.outer(dec.eigenvalues, 2.0 * ls * cert.tau))
    fid = np.abs(entries_ba @ phases)
    best = int(np.argmax(fid))
    report["pgst_max_fidelity"] = float(fid[best])
    report["pgst_at_time"] = float(2.0 * ls[best] * cert.tau)
    report["pgst_times_checked"] = int(n_steps)
    return report


# ---------------------------------------------------------------------------
# construction verifiers
# ---------------------------------------------------------------------------


def verify_construction_ium(
    x: WeightedGraph, y: WeightedGraph, a: int, tau: float, cfg: DetectionConfig = DetectionConfig()
) -> dict:
    """Periodicity (x at a) + uniform mixing (y) => spread revival on the product.

    Confirms that from every vertex (a, u) of the box product the walk at tau
    is supported exactly on {(a, v) : v in y}, with flat 1/sqrt(|y|)
    magnitudes.
    """
    dec_x = decompose(x)
    dec_y = decompose(y)
    periodic_ok = check_periodic(dec_x, a, tau, cfg)
    mixing_ok = check_uniform_mixing(dec_y, tau, cfg)
    report: dict = {"periodic_ok": periodic_ok, "mixing_ok": mixing_ok, "applicable": periodic_ok and mixing_ok}
    if not report["applicable"]:
        report["holds"] = False
        return report
    prod = cartesian_product(x, y)
    dec_p = decompose(prod)
    ny = y.order
    target = [a * ny + v for v in range(ny)]
    mask = np.zeros(prod.order, dtype=bool)
    mask[target] = True
    flat = 1.0 / math.sqrt(ny)
    worst_off = 0.0
    worst_flat = 0.0
    for u in range(ny):
        col = transition_column(dec_p, a * ny + u, tau)
        worst_off = max(worst_off, float(np.linalg.norm(col[~mask])))
        worst_flat = max(worst_flat, float(np.abs(np.abs(col[mask]) - flat).max()))
    report["target_size"] = ny
    report["max_off_support_mass"] = worst_off
    report["max_flatness_deviation"] = worst_flat
    report["holds"] = worst_off <= cfg.tol_walk and worst_flat <= cfg.tol_walk
    return report


def verify_construction_union(
    x: WeightedGraph,
    y: WeightedGraph,
    a: int,
    b: int,
    tau: float,
    cfg: DetectionConfig = DetectionConfig(),
) -> dict:
    """Transfer on x + commuting overlay with isolated edge (a,b) => revival.

    The overlay column from a must equal gamma (cos(tau) e_b - i sin(tau) e_a)
    with gamma the transfer phase U_x(tau)_{b,a}. Hypothesis failures are
    reported individually; a report that gets that far also keeps the
    overlay's decomposition, on which its certificate was judged.
    """
    ax, ay = x.weights, y.weights
    commute_defect = float(np.abs(ax @ ay - ay @ ax).max())
    commute_ok = commute_defect <= 1e-10
    w = float(ay[a, b])
    row_a = float(np.abs(ay[a]).sum())
    row_b = float(np.abs(ay[b]).sum())
    isolated_ok = w != 0.0 and abs(w - 1.0) <= 1e-12 and row_a == abs(w) and row_b == abs(w)
    dec_x = decompose(x)
    pst_ok = check_pst(dec_x, a, b, tau, cfg)
    tau_ok = tau < math.pi / 2
    report: dict = {
        "commute_ok": commute_ok,
        "commute_defect": commute_defect,
        "isolated_edge_ok": isolated_ok,
        "pst_ok": pst_ok,
        "tau_in_range": tau_ok,
        "applicable": commute_ok and isolated_ok and pst_ok and tau_ok,
    }
    if not report["applicable"]:
        report["holds"] = False
        return report
    gamma = complex(transition_column(dec_x, a, tau)[b])
    overlay = union_overlay(x, y)
    dec_o = decompose(overlay)
    col = transition_column(dec_o, a, tau)
    residual = float(_residual(col[None], a, gamma * (-1j * math.sin(tau)), b, gamma * math.cos(tau))[0])
    cert = detect_at(dec_o, a, tau, cfg, method="construction")
    report["transfer_phase"] = gamma
    report["amplitude_residual"] = residual
    report["certificate"] = cert
    report["decomposition"] = dec_o
    report["holds"] = residual <= cfg.tol_walk and cert is not None and cert.b == b
    return report


def verify_construction_xtheta(
    y: WeightedGraph,
    perm,
    theta: float,
    a: int,
    b: int,
    cfg: DetectionConfig = DetectionConfig(),
) -> dict:
    """Two-sheet rotation of a transfer pair => revival at pi/2.

    At tau = pi/2 the column from sheet-0 vertex a must be
    gamma * (-i sin(2 theta) e_{(0,a)} - i cos(2 theta) e_{(1,b)}) where gamma
    is the transfer phase U_y(pi/2)_{b,a}; the phase is +1 for graphs whose
    transfer amplitude is trivial and is measured here rather than assumed.
    """
    dec_y = decompose(y)
    tau = math.pi / 2
    pst_ok = check_pst(dec_y, a, b, tau, cfg)
    swap_ok = list(perm)[a] == b
    report: dict = {"pst_ok": pst_ok, "swap_ok": swap_ok, "applicable": pst_ok and swap_ok}
    if not report["applicable"]:
        report["holds"] = False
        return report
    gamma = complex(transition_column(dec_y, a, tau)[b])
    g = x_theta(y, perm, theta)
    dec_g = decompose(g)
    n = y.order
    col = transition_column(dec_g, a, tau)  # (0, a) sits at index a
    alpha, beta = gamma * (-1j * math.sin(2 * theta)), gamma * (-1j * math.cos(2 * theta))
    residual = float(_residual(col[None], a, alpha, n + b, beta)[0])
    report["transfer_phase"] = gamma
    report["alpha"] = complex(col[a])
    report["beta"] = complex(col[n + b])
    report["amplitude_residual"] = residual
    report["holds"] = residual <= cfg.tol_walk
    return report


def verify_quotient_transport(
    x: WeightedGraph,
    p,
    a: int,
    b: int,
    cfg: DetectionConfig = DetectionConfig(),
) -> dict:
    """Walk entries between singleton cells survive the quotient, exactly.

    Samples |U_x(t)_{a,b} - U_{x/p}(t)_{ia,ib}| at QUOTIENT_TIMES, or at
    QUOTIENT_TIMES / ||A|| when ||A|| > MAX_PHASE / 10, then checks revival
    correspondence both ways on the certificates found for the pair.
    """
    ia, ib = p.cell_of(a), p.cell_of(b)
    if len(p.cells[ia]) != 1 or len(p.cells[ib]) != 1:
        raise ValueError("quotient transport needs {a} and {b} as singleton cells")
    q = quotient(x, p)
    dec_x = decompose(x)
    dec_q = decompose(q)

    # the two eigensolves agree to about eps ||A||, so the walks' phases part
    # by a few eps t ||A||: below eps MAX_PHASE ~ 2e-11 for t <= 10 while
    # ||A|| <= MAX_PHASE / 10 = 1e4. Past that the phases keep no digits
    # (1e151 rad at ||A|| = 1e150), so the times shrink by 1/||A||
    norm = dec_x.norm
    times = QUOTIENT_TIMES if 10 * norm <= MAX_PHASE else QUOTIENT_TIMES / norm
    diff = walk_columns(dec_x, a, times)[:, b] - walk_columns(dec_q, ia, times)[:, ib]
    # hypot rounds as abs() of one complex entry does; np.abs of an array may not
    worst = float(np.hypot(diff.real, diff.imag).max())
    entries_ok = worst <= cfg.tol_walk

    cert_q = certify_pair(dec_q, pair_profile(dec_q, ia, ib), cfg)
    cert_x = certify_pair(dec_x, pair_profile(dec_x, a, b), cfg)
    correspondence = True
    for certs, other, dec, v, w in (
        (cert_q.certificates, cert_x.certificates, dec_x, a, b),
        (cert_x.certificates, cert_q.certificates, dec_q, ia, ib),
    ):
        # each side's certificate at tau is detect_at's event there, so the
        # other side detects only at a tau this side lacks
        found = {c.tau: c for c in other}
        for cert in certs:
            if cert.kind == KIND_PERIODIC:
                continue
            image = found.get(cert.tau) or detect_at(dec, v, cert.tau, cfg)
            if image is None or image.b != w or abs(image.alpha - cert.alpha) > 10 * cfg.tol_walk:
                correspondence = False
    return {
        "max_entry_difference": worst,
        "entries_ok": entries_ok,
        "quotient_certificates": cert_q.certificates,
        "source_certificates": cert_x.certificates,
        "source_classification": cert_x.classification,
        "correspondence_ok": correspondence,
        "holds": entries_ok and correspondence,
    }
