"""Command-line front end: graph specs, analysis reports, reproduction suite.

Graph specs are named families (``path:4``, ``cycle:6``, ``star:16``,
``cube:3``, ``cocktail:4``, ``complete:5``, ``empty:3``), prefixes and
combinators (``cone2:<spec>``, ``prod(<a>,<b>)``, ``overlay(<a>,<b>)``), or a
path to a graph file in the text format of :mod:`ctqw.graphs`.

Exit codes: 0 success, 2 parse error, 3 numerical-health failure, 4 suite
failure.
"""

from __future__ import annotations

import argparse
import errno
import io
import itertools
import json
import logging
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from ctqw import graphs as G
from ctqw.graphs import GraphFormatError, WeightedGraph, _check_order
from ctqw.spectral import decompose, pair_profiles, strongly_cospectral_candidates
from ctqw.suite import ALL_GROUPS, run_groups
from ctqw.walks import (
    KIND_PERIODIC,
    MAX_PHASE,
    VALID_KINDS,
    DetectionConfig,
    FrCertificate,
    _STACK_BYTES,
    _certify,
    _kind_of,
    _residual,
    verify_quotient_transport,
    walk_columns,
)

logger = logging.getLogger("ctqw.cli")  # named: under python -m, __name__ is "__main__"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_HEALTH = 3
EXIT_SUITE = 4

#: significant digits for floats in JSON reports
JSON_DIGITS = 12


class ParseError(ValueError):
    """Bad command-line input: a graph-spec syntax error with the offending
    position, or an option value out of range (``pos`` None)."""

    def __init__(self, message: str, pos: int | None = None):
        super().__init__(message if pos is None else f"at position {pos}: {message}")
        self.pos = pos


_FAMILIES = {
    "path": G.path,
    "cycle": G.cycle,
    "star": G.star,
    "cube": G.hypercube,
    "cocktail": G.cocktail_party,
    "complete": G.complete,
    "empty": G.empty,
}

#: combinator prefixes in the order they are tried; those ending in "(" take
#: two specs, "<a>,<b>)", and cone2: takes one
_COMBINATORS = (("prod(", G.cartesian_product), ("overlay(", G.union_overlay), ("cone2:", G.double_cone))
#: combinators a spec may nest, one parser frame each: well inside Python's
#: recursion limit, and past the deepest cone2: chain that builds (each
#: level adds two vertices, so (MAX_ORDER - 1) / 2 = 322)
_MAX_NESTING = 400


def _built(build, args, start: int) -> WeightedGraph:
    """build(*args), with a ValueError reported as a ParseError at start."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ParseError(str(exc), start) from None


class _SpecParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self) -> WeightedGraph:
        g = self._spec()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected trailing input {self.text[self.pos:]!r}", self.pos)
        return g

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _try(self, token: str) -> bool:
        self._skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def _expect(self, token: str) -> None:
        if not self._try(token):
            raise ParseError(f"expected {token!r}", self.pos)

    def _spec(self, depth: int = 0) -> WeightedGraph:
        self._skip_ws()
        start = self.pos
        for prefix, build in _COMBINATORS:
            if self._try(prefix):
                if depth == _MAX_NESTING:
                    raise ParseError(f"combinators nested more than {_MAX_NESTING} deep", start)
                args = [self._spec(depth + 1)]
                if prefix.endswith("("):
                    self._expect(",")
                    args.append(self._spec(depth + 1))
                    self._expect(")")
                return _built(build, args, start)
        token = self._leaf_token()
        if not token:
            raise ParseError("expected a graph spec", start)
        head, sep, arg = token.partition(":")
        if sep and head in _FAMILIES:
            try:
                n = int(arg)
            except ValueError:
                raise ParseError(f"bad integer argument {arg!r} for {head}", start + len(head) + 1) from None
            return _built(_FAMILIES[head], [n], start)
        if os.path.exists(token):
            try:
                return G.read_graph(token)
            except (OSError, ValueError) as exc:
                raise ParseError(f"in file {token}: {exc}", start) from None
        raise ParseError(f"unknown graph spec {token!r}", start)

    def _leaf_token(self) -> str:
        out = []
        while self.pos < len(self.text) and self.text[self.pos] not in ",()":
            out.append(self.text[self.pos])
            self.pos += 1
        return "".join(out).strip()


def parse_graph_spec(text: str) -> WeightedGraph:
    return _SpecParser(text).parse()


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _round_float(x: float) -> float:
    if not math.isfinite(x) or x == 0.0:
        return float(x)
    return float(f"{x:.{JSON_DIGITS}g}")


def _jsonify(value):
    """Recursively convert to JSON-safe values with rounded floats."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _round_float(float(value))
    return value


def certificate_to_json(cert: FrCertificate, graph_name: str) -> dict:
    """The certificate's fields in order after "graph": floats rounded as
    _jsonify rounds them, amplitudes as [re, im]. The one dict form of a
    certificate; Certificates.to_json writes the same text without it."""
    return {
        "graph": graph_name,
        "a": int(cert.a),
        "b": int(cert.b),
        "tau": _round_float(cert.tau),
        "alpha": [_round_float(cert.alpha.real), _round_float(cert.alpha.imag)],
        "beta": [_round_float(cert.beta.real), _round_float(cert.beta.imag)],
        "gamma": None if cert.gamma is None else _round_float(cert.gamma),
        "zeta": None if cert.zeta is None else _round_float(cert.zeta),
        "kind": cert.kind,
        "residual": _round_float(cert.residual),
        "method": cert.method,
    }


def _float_text(x: float) -> str:
    """The JSON text of _round_float(x); NaN and +-inf as json writes them."""
    x = _round_float(x)
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


def _certificate_template(pad: str) -> str:
    """The %-template of a certificate_to_json dict as _dumps writes it at
    pad: one slot a field, two an amplitude."""
    inner, deeper = pad + "  ", pad + "    "
    pair = f"[{deeper}%s,{deeper}%s{inner}]"
    slots = ("%s", "%d", "%d", "%s", pair, pair, "%s", "%s", "%s", "%s", "%s")
    return "{" + inner + ("," + inner).join(f'"{k}": {v}' for k, v in zip(_CERTIFICATE_SCHEMA, slots)) + pad + "}"


#: a row of Certificates: an FrCertificate's fields, gamma and zeta 0.0 and
#: angles False where they are None, kind and method the certificate's strings
_CERTIFICATE_ROW = np.dtype([
    ("a", np.int64), ("b", np.int64), ("tau", np.float64), ("alpha", np.complex128), ("beta", np.complex128),
    ("angles", np.bool_), ("gamma", np.float64), ("zeta", np.float64), ("kind", object),
    ("residual", np.float64), ("method", object),
])


def _row(c: FrCertificate) -> tuple:
    angles = c.gamma is not None
    return (c.a, c.b, c.tau, c.alpha, c.beta, angles, c.gamma if angles else 0.0, c.zeta if angles else 0.0,
            c.kind, c.residual, c.method)


def _certificate(row: tuple) -> FrCertificate:
    a, b, tau, alpha, beta, angles, gamma, zeta, *rest = row
    return FrCertificate(a, b, tau, alpha, beta, *((gamma, zeta) if angles else (None, None)), *rest)


def _rows(certs) -> np.ndarray:
    """The FrCertificates certs as rows of _CERTIFICATE_ROW."""
    return np.fromiter(map(_row, certs), _CERTIFICATE_ROW)


def _distinct(rows: np.ndarray) -> np.ndarray:
    """rows sorted by (a, b, tau, kind), stably, keeping of each (a, b, tau
    rounded to 9 places, kind) the first row only."""
    if len(rows) < 2:
        return rows
    rank = {kind: r for r, kind in enumerate(sorted(VALID_KINDS))}
    kinds = np.array([rank[kind] for kind in rows["kind"].tolist()], dtype=int)
    rounded = np.array([round(tau, 9) for tau in rows["tau"].tolist()])
    key = (kinds, rounded, rows["b"], rows["a"])
    order = np.lexsort(key)  # stable: each key's rows in their order
    same = np.logical_and.reduce([k[order[1:]] == k[order[:-1]] for k in key])
    first = np.sort(order[np.append(True, ~same)])
    return rows[first[np.lexsort((kinds[first], rows["tau"][first], rows["b"][first], rows["a"][first]))]]


class Certificates:
    """The FrCertificates of the graph named graph, in order, kept as the
    rows of one structured array until they are written: 97 bytes a
    certificate, where an FrCertificate with its numbers takes about 330.
    certs are FrCertificates or their rows (_rows). Iterating gives
    FrCertificates; _dumps writes them through to_json."""

    __slots__ = ("graph", "rows")

    def __init__(self, certs, graph: str):
        self.graph = graph
        self.rows = certs if isinstance(certs, np.ndarray) else _rows(certs)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return map(_certificate, self.rows.tolist())

    def to_json(self, pad: str = "\n") -> str:
        """_dumps([certificate_to_json(c, self.graph) for c in self], pad),
        byte for byte, with no dict: each row fills one template from its
        fields, each float written as _float_text writes it, once for each
        distinct value (_distinct_texts)."""
        rows = self.rows
        if not len(rows):
            return "[]"
        inner = pad + "  "
        template, text, alpha, beta = _certificate_template(inner), encode_basestring_ascii, rows["alpha"], rows["beta"]
        columns = [rows["tau"], alpha.real, alpha.imag, beta.real, beta.imag, rows["gamma"], rows["zeta"], rows["residual"]]
        bits, distinct, written = _distinct_texts(np.stack(columns), _float_text)
        tau, ar, ai, br, bi, gamma, zeta, residual = written[np.searchsorted(distinct, bits)].tolist()
        graph = text(self.graph)
        items = (
            template % (graph, a, b, *floats, g if angles else "null", z if angles else "null", text(kind), r, text(m))
            for a, b, angles, kind, m, g, z, r, *floats in zip(
                rows["a"].tolist(), rows["b"].tolist(), rows["angles"].tolist(), rows["kind"].tolist(),
                rows["method"].tolist(), gamma, zeta, residual, tau, ar, ai, br, bi,
            )
        )
        return "[" + inner + ("," + inner).join(items) + pad + "]"


def _distinct_texts(values: np.ndarray, write) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bits, distinct, text) of the finite or not float64 array values: its
    int64 view, the distinct bits sorted, and write of each distinct value,
    told apart by its bits so that -0.0 keeps its sign. A sort, not
    np.unique, whose first call imports numpy.ma (1.1 MB)."""
    bits = np.ascontiguousarray(values).view(np.int64)
    distinct = np.sort(bits, axis=None)
    distinct = distinct[np.append(True, distinct[1:] != distinct[:-1])]
    return bits, distinct, np.array(list(map(write, distinct.view(np.float64).tolist())), dtype=object)


def _dumps(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, without json's pure-Python
    indent encoder (taken for any indent), which makes one generator step per value.

    A list whose items are all plain finite floats, all plain ints or all
    strings is written as one join. A finite float64 ndarray is written as
    json.dumps(value.tolist(), indent=2) would write it: each distinct value,
    told apart by its bits so that -0.0 keeps its sign, is formatted once,
    and the rows are joined from that table. Any other ndarray goes through
    tolist(). Strings and keys go through json's C string encoder, None and
    the bools are written as null, true and false, and every other scalar
    (NaN, +-inf) goes through json's own encoder. Certificates write
    themselves (Certificates.to_json). A key that is not a string
    raises TypeError: json's coercion of int, float, bool and None keys is
    not copied, since every report key is a literal or has passed through
    _jsonify.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, Certificates):
        return value.to_json(pad)
    if isinstance(value, np.ndarray):
        if value.dtype != np.float64 or value.ndim == 0 or value.size == 0 or not np.isfinite(value).all():
            return _dumps(value.tolist(), pad)
        return _join_rows(*_distinct_texts(value, float.__repr__), pad)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        kinds = set(map(type, value))
        if kinds == {float} and all(map(math.isfinite, value)):
            items = map(float.__repr__, value)
        elif kinds == {int}:
            items = map(int.__repr__, value)
        elif kinds == {str}:
            items = map(encode_basestring_ascii, value)
        else:
            items = (_dumps(v, inner) for v in value)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        keys = map(encode_basestring_ascii, value)  # TypeError on a non-str key
        items = (f"{k}: {_dumps(v, inner)}" for k, v in zip(keys, value.values()))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    if type(value) is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return json.dumps(value)


def _join_rows(bits: np.ndarray, distinct: np.ndarray, text: np.ndarray, pad: str) -> str:
    """_dumps of the float64 array whose int64 view is bits, text[i] the text
    of the value of bits distinct[i]; one row is looked up at a time."""
    inner = pad + "  "
    if bits.ndim == 1:
        items = text[np.searchsorted(distinct, bits)].tolist()
    else:
        items = (_join_rows(row, distinct, text, inner) for row in bits)
    return "[" + inner + ("," + inner).join(items) + pad + "]"


@dataclass
class RunReport:
    """One analysis run: input, configuration, certificates, named checks.

    Every float is rounded to JSON_DIGITS significant digits at construction,
    so that emitting and re-parsing the JSON is an identity, except the
    weights and the certificates. graph["weights"] is the graph's own frozen
    float64 array, exact, since JSON doubles round-trip, and certificates
    holds the FrCertificates, unrounded. to_json writes both straight from
    them; payload() returns the weights as nested lists and each
    certificate as its certificate_to_json dict, like every other value.
    """

    input_spec: str
    config: dict
    graph: dict
    certificates: Certificates
    predicates: dict
    timing_ms: dict
    health_warnings: list = field(default_factory=list)

    def payload(self) -> dict:
        """The report as plain JSON values, as json.loads(to_json()) reads it."""
        return {
            **vars(self),
            "graph": {**self.graph, "weights": self.graph["weights"].tolist()},
            "certificates": [certificate_to_json(c, self.certificates.graph) for c in self.certificates],
        }

    def to_json(self) -> str:
        return _dumps(vars(self))


def _is_number(v) -> bool:
    if type(v) is float:  # the common value: finite exactly when v - v is 0
        return v - v == 0.0
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_vertex(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_amplitude(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and _is_number(v[0]) and _is_number(v[1])


#: certificate fields of a report and the JSON values each accepts
_CERTIFICATE_SCHEMA = {
    "graph": lambda v: isinstance(v, str),
    "a": _is_vertex,
    "b": _is_vertex,
    "tau": lambda v: _is_number(v) and v > 0,
    "alpha": _is_amplitude,
    "beta": _is_amplitude,
    "gamma": lambda v: v is None or _is_number(v),
    "zeta": lambda v: v is None or _is_number(v),
    "kind": lambda v: isinstance(v, str) and v in VALID_KINDS,
    "residual": lambda v: _is_number(v) and v >= 0,
    "method": lambda v: isinstance(v, str),
}


def _report_graph(payload: dict) -> WeightedGraph:
    """The report's exact weights when present (derived graphs such as
    quotients have no parseable spec), else its re-parsed input spec."""
    spec = payload["input_spec"]
    if not isinstance(spec, str):
        raise TypeError("input_spec must be a string")
    g = payload.get("graph")
    if isinstance(g, dict) and "weights" in g:
        return WeightedGraph(g["weights"], tuple(g["labels"]), spec)
    return parse_graph_spec(spec)


def _wrap(x: np.ndarray) -> np.ndarray:
    """walks._wrap_angle of each entry, by the same operations."""
    y = np.fmod(x + math.pi, 2.0 * math.pi)
    return np.where(y <= 0, y + 2.0 * math.pi, y) - math.pi


def _same_angles(stored: tuple, derived: tuple, tol: float = 1e-9):
    """(gamma, zeta) pairs equal mod 2pi, entry by entry; (gamma + pi, zeta +
    pi) gives the same amplitudes, which matters at gamma = pi/2, the edge of
    its range."""
    dg, dz = np.subtract(stored[0], derived[0]), np.subtract(stored[1], derived[1])
    return ((np.abs(_wrap(dg)) <= tol) & (np.abs(_wrap(dz)) <= tol)) | (
        (np.abs(_wrap(dg + math.pi)) <= tol) & (np.abs(_wrap(dz + math.pi)) <= tol)
    )


def _angles_agree(alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray, zeta: np.ndarray, tol: float) -> np.ndarray:
    """Per certificate, whether its amplitudes have the strongly cospectral
    form and the angles of that form, as walks._gamma_zeta derives them, are
    (gamma, zeta) by _same_angles. Every check is a tolerance, which numpy's
    last bits, apart from cmath's, do not reach."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cp, cm = alpha + beta, alpha - beta
        g = 0.5 * np.angle(cp / cm)
        turn = np.where(g <= -math.pi / 2, math.pi, np.where(g > math.pi / 2, -math.pi, 0.0))
        g, z = g + turn, _wrap(np.angle(cp) - g + turn)
        e = np.exp(1j * z)
        gaps = (np.abs(cp) - 1.0, np.abs(cm) - 1.0, e * np.cos(g) - alpha, 1j * e * np.sin(g) - beta)
        form = np.logical_and.reduce([np.abs(x) <= 100 * tol for x in gaps])
    return form & _same_angles((gamma, zeta), (g, z))


def validate_report(payload: dict, graph: WeightedGraph | None = None) -> bool:
    """Re-derive every certificate of a loaded report from its graph.

    Returns False, and never raises, on a malformed report: a missing or
    mistyped field, a vertex out of range, a bad detection config, or a graph
    that does not build, has more than graphs.MAX_ORDER vertices or, when
    the report has a certificate, does not decompose; a report without one
    is not decomposed. Per certificate it requires a stored residual of at
    most tol_walk and tau * ||A|| of at most MAX_PHASE, the bound that
    analyze and scan keep to, and recomputes

    - the residual ||U(tau) e_a - alpha e_a - beta e_b||, accepted within 2x
      its stored value, with a floor absorbing the 12-digit JSON rounding of
      (tau, alpha, beta): rounding tau perturbs the column by up to about
      5e-12 * |tau| * ||A||. A residual that is not finite fails;
    - ``kind`` from a, b and the amplitudes, with the report's detection
      config (the default when the report carries none): periodic exactly
      when b == a;
    - ``gamma``/``zeta`` where set, from the amplitudes, to 1e-9 mod 2pi.

    The certificates are checked a block at a time: one walk_columns product
    over the block's (a, tau), then each check, a tolerance, on all of them.
    """
    if not isinstance(payload, dict) or not isinstance(payload.get("certificates"), list):
        return False
    try:
        cfg = DetectionConfig(**payload.get("config", {}))
        if graph is None:
            graph = _report_graph(payload)
        _check_order(graph.order)
        if not payload["certificates"]:
            return True
        dec = decompose(graph)
    except (KeyError, TypeError, ValueError, OSError):
        return False
    certs = payload["certificates"]
    if not all(isinstance(c, dict) and c.keys() >= _CERTIFICATE_SCHEMA.keys() for c in certs):
        return False
    if not all(all(map(ok, map(itemgetter(k), certs))) for k, ok in _CERTIFICATE_SCHEMA.items()):
        return False
    n = graph.order
    if not all(0 <= c["a"] < n and 0 <= c["b"] < n for c in certs):
        return False
    step = max(1, _STACK_BYTES // (128 * n))  # columns of an eighth of _STACK_BYTES at a time
    # a forged tau or amplitude near float max overflows to inf, which fails, and no warning
    with np.errstate(over="ignore"):
        for lo in range(0, len(certs), step):
            chunk = certs[lo : lo + step]
            a, b, tau, stored, alpha, beta = (
                np.array(list(map(itemgetter(k), chunk)), dtype=int if k in "ab" else float)
                for k in ("a", "b", "tau", "residual", "alpha", "beta")
            )
            if not ((stored <= cfg.tol_walk) & (tau * dec.norm <= MAX_PHASE)).all():
                return False
            alpha, beta = alpha.view(complex)[:, 0], beta.view(complex)[:, 0]
            residual = _residual(walk_columns(dec, a, tau), a, alpha, b, beta)
            if not (residual <= np.maximum(2.0 * stored, 1e-11 * np.maximum(1.0, tau * dec.norm))).all():  # NaN fails
                return False
            for c, x, y in zip(chunk, alpha.tolist(), beta.tolist()):
                kind = _kind_of(x, y, cfg)
                if c["kind"] != kind or (c["b"] == c["a"]) != (kind == KIND_PERIODIC):
                    return False
                if (c["gamma"] is None) != (c["zeta"] is None):
                    return False
            angled = [j for j, c in enumerate(chunk) if c["gamma"] is not None]
            gamma, zeta = (np.array([chunk[j][k] for j in angled], dtype=float) for k in ("gamma", "zeta"))
            if not _angles_agree(alpha[angled], beta[angled], gamma, zeta, cfg.tol_walk).all():
                return False
    return True


def run_analysis(
    graph: WeightedGraph,
    cfg: DetectionConfig = DetectionConfig(),
    do_scan: bool = False,
) -> RunReport:
    """Full pipeline: decompose, screen and profile pairs, certify, optionally scan.

    The pairs that strongly_cospectral_candidates keeps are profiled in one
    pair_profiles call; the screen never drops a pair that pair_profile
    would accept. Their grids and, with do_scan, the scan from every vertex
    are one walk (walks._certify), which forms each oracle time once and
    returns, unwarned, the report's health_warnings; timing has one certify
    entry for both. Predicates are JSON-ready, floats through _round_float.
    """
    timing: dict[str, float] = {}
    predicates: dict[str, dict] = {}
    t0 = time.perf_counter()
    dec = decompose(graph)
    timing["decompose"] = (time.perf_counter() - t0) * 1000.0

    predicates["connected"] = {"holds": G.is_connected(graph)}
    predicates["signed"] = {"holds": graph.signed}
    if dec.ambiguous_clustering:
        predicates["ambiguous_clustering"] = {"holds": True}

    t0 = time.perf_counter()
    n = graph.order
    pairs = strongly_cospectral_candidates(dec)
    logger.debug("screened %d pairs to %d candidates", n * (n - 1) // 2, len(pairs))
    profiles = [prof for prof in pair_profiles(dec, pairs) if prof.strongly_cospectral]
    certified, scanned, health = _certify(dec, profiles, range(n) if do_scan else (), None, cfg)
    for prof, pc in zip(profiles, certified):
        entry: dict = {
            "strongly_cospectral": True,
            "parallel": prof.parallel,
            "cospectral": prof.cospectral,
            "perron_anchor_valid": prof.perron_anchor_valid,
            "phi_plus": sorted(prof.phi_plus),
            "phi_minus": sorted(prof.phi_minus),
        }
        if pc.classification is not None:
            entry["classification"] = pc.classification.kind
            entry["delta"] = pc.classification.delta
        elif pc.failure.startswith("undecided"):
            entry["classification"] = pc.failure
        elif pc.has_lattice:
            entry["classification"] = f"no quadratic-integer description: {pc.failure}"
        else:
            entry["classification"] = f"not classifiable: {pc.failure}"
            if pc.witness is not None and pc.witness.witness_ratio is not None:
                entry["witness_ratio"] = _round_float(pc.witness.witness_ratio)
        if pc.has_lattice:
            entry["tau_step"] = None if pc.tau_step is None else _round_float(pc.tau_step)
        predicates[f"pair({prof.a},{prof.b})"] = entry
    timing["certify"] = (time.perf_counter() - t0) * 1000.0
    rows = _rows(itertools.chain((c for pc in certified for c in pc.certificates), scanned))
    del certified, scanned  # packed: 97 bytes a row against about 330 a certificate

    return RunReport(
        input_spec=graph.name,
        config=_jsonify(asdict(cfg)),
        graph={
            "order": graph.order,
            "signed": graph.signed,
            "labels": list(graph.labels),
            # exact weights (JSON doubles round-trip), so certificates can be
            # re-validated even when the spec names a derived graph
            "weights": graph.weights,
        },
        certificates=Certificates(_distinct(rows), graph.name),
        predicates=predicates,
        timing_ms=_jsonify(timing),
        health_warnings=health,
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _config_from_args(args) -> DetectionConfig:
    given = {"tol_walk": args.tol, "t_max": args.tmax}
    try:
        return DetectionConfig(**{k: v for k, v in given.items() if v is not None})
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _health_exit(health: list[str]) -> int:
    for msg in health:
        print(f"numerical health: {msg}", file=sys.stderr)
    return EXIT_HEALTH if health else EXIT_OK


def _write(text: str) -> None:
    """Write text to stdout and flush it. When the reader has closed stdout
    (``ctqw analyze cube:7 | head -3``), point stdout at devnull, so that the
    interpreter's final flush stays quiet, and go on: the command still
    returns its own exit code."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _check_out(path: str | None, option: str) -> None:
    """Raise the error _to_file would raise if path, given as option, cannot
    be written, without opening it: each command checks so before any work,
    and a run that ends early leaves no new file behind. An empty or
    missing path, which names stdout, is never checked."""
    if not path:
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.exists(path):
        code = None if os.access(path, os.W_OK) else errno.EACCES
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    else:
        code = None if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if code is not None:
        raise ParseError(f"cannot write {option} {path}: {os.strerror(code)}")


def _to_file(path: str, option: str, text: str) -> None:
    """Write text to the file path, given as option; a path that cannot be
    written is a bad value of that option."""
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {option} {path}: {exc.strerror or exc}") from None


def _emit(text: str, args) -> None:
    """Write a JSON report's text to the --json file, or print it."""
    if args.json:
        _to_file(args.json, "--json", text + "\n")
        _write(f"report written to {args.json}\n")
    else:
        _write(text + "\n")


def cmd_analyze(args) -> int:
    graph = parse_graph_spec(args.graph)
    cfg = _config_from_args(args)
    _check_out(args.json, "--json")
    report = run_analysis(graph, cfg, do_scan=args.scan)
    _emit(report.to_json(), args)
    return _health_exit(report.health_warnings)


def cmd_scan(args) -> int:
    graph = parse_graph_spec(args.graph)
    cfg = _config_from_args(args)
    for option, v in (("--source", args.source), ("--target", args.target)):
        if v is not None and not 0 <= v < graph.order:
            raise ParseError(f"{option} {v} is out of range for a graph of order {graph.order}")
    if args.target is not None and args.source == args.target:
        raise ParseError("--source and --target must differ")
    _check_out(args.json, "--json")
    dec = decompose(graph)
    sources = [args.source] if args.source is not None else [a for a in range(graph.order) if a != args.target]
    _, certs, health = _certify(dec, (), sources, args.target, cfg)
    payload = {
        "input_spec": graph.name,
        "certificates": Certificates(certs, graph.name),
    }
    _emit(_dumps(payload), args)
    return _health_exit(health)


def _resolve_vertex(graph: WeightedGraph, token: str) -> int:
    if token in graph.labels:
        return graph.index_of(token)
    try:
        v = int(token)
    except ValueError:
        raise ParseError(f"unknown vertex {token!r}") from None
    if not (0 <= v < graph.order):
        raise ParseError(f"vertex index {v} out of range")
    return v


def cmd_quotient(args) -> int:
    graph = parse_graph_spec(args.graph)
    cfg = _config_from_args(args)
    pins = [_resolve_vertex(graph, p) for p in args.pin]
    if len(set(pins)) != len(pins):
        raise ParseError("pinned vertices must be distinct")
    _check_out(args.json, "--json")
    rest = [v for v in range(graph.order) if v not in pins]
    seed = [[p] for p in pins] + ([rest] if rest else [])
    part = G.coarsest_equitable_refinement(graph, seed)
    try:
        q = G.quotient(graph, part)
    except ValueError as exc:
        raise ParseError(f"quotient of {graph.name}: {exc}") from None

    lines = [f"quotient of {graph.name} has {q.order} cells:"]
    for i, cell in enumerate(part.cells):
        lines.append(f"  cell {i}: {{{', '.join(graph.labels[v] for v in cell)}}}")
    lines.append("quotient matrix:")
    for row in q.weights:
        lines.append("  [" + ", ".join(f"{x:.6g}" for x in row) + "]")

    predicates = {}
    if len(pins) >= 2:
        a, b = pins[0], pins[1]
        ia, ib = part.cell_of(a), part.cell_of(b)
        if len(part.cells[ia]) == 1 and len(part.cells[ib]) == 1:
            rep = verify_quotient_transport(graph, part, a, b, cfg)
            predicates["quotient_transport"] = {
                "holds": rep["holds"],
                "max_entry_difference": rep["max_entry_difference"],
            }
            lines.append(
                f"transport entries match on the sample grid: {rep['entries_ok']} "
                f"(max dev {rep['max_entry_difference']:.2e}); "
                f"certificate correspondence: {rep['correspondence_ok']}"
            )
        else:
            predicates["quotient_transport"] = {"holds": False, "error": "pinned cells are not singletons"}
            lines.append("pinned vertices are not singleton cells; transport check skipped")

    _write("".join(line + "\n" for line in lines))
    report = run_analysis(q, cfg)
    report.predicates.update(_jsonify(predicates))
    _emit(report.to_json(), args)
    return _health_exit(report.health_warnings)


def cmd_construct(args) -> int:
    graph = parse_graph_spec(args.graph)
    _check_out(args.out, "--out")
    text = io.StringIO()
    G.write_graph(graph, text)
    if args.out:
        _to_file(args.out, "--out", text.getvalue())
        _write(f"{graph.name}: order {graph.order}, written to {args.out}\n")
    else:
        _write(text.getvalue())
    return EXIT_OK


def cmd_paper_suite(args) -> int:
    cfg = _config_from_args(args)
    groups = [args.only] if args.only else None
    rows = run_groups(groups, cfg)
    width = max(len(r.name) for r in rows)
    failures = sum(not r.ok for r in rows)
    lines = [f"[{'PASS' if r.ok else 'FAIL'}] {r.group:<18} {r.name:<{width}}  {'' if r.ok else r.detail}" for r in rows]
    _write("".join(line.rstrip() + "\n" for line in lines) + f"{len(rows) - failures}/{len(rows)} rows pass\n")
    return EXIT_OK if failures == 0 else EXIT_SUITE


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors, and its subparsers', are one line."""

    def error(self, message: str):
        self.exit(EXIT_PARSE, f"parse error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ctqw",
        description="Analyze continuous-time quantum walks and certify transport events.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    logs = argparse.ArgumentParser(add_help=False)
    logs.add_argument("--log-level", type=str.upper, default="WARNING",
                      choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
                      help="log ctqw's reasons at this level and above to stderr (default WARNING)")

    def add_common(p, report=True):
        p.add_argument("--tmax", type=float, default=None, help="scan horizon (default 50)")
        p.add_argument("--tol", type=float, default=None, help="walk residual tolerance (default 1e-8)")
        if report:
            p.add_argument("--json", type=str, default=None, help="write the JSON report to this file")

    p = sub.add_parser("analyze", parents=[logs], help="decompose, profile pairs, certify transport events")
    p.add_argument("graph", help="graph spec, e.g. cycle:6 or prod(star:16,path:2)")
    p.add_argument("--scan", action="store_true",
                   help="also solve revival times from every vertex to each parallel partner")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scan", parents=[logs], help="exact revival times to parallel partners over (0, tmax]")
    p.add_argument("graph")
    p.add_argument("--source", type=int, default=None, help="start vertex (default: all)")
    p.add_argument("--target", type=int, default=None, help="partner vertex (default: best per time)")
    add_common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("quotient", parents=[logs], help="equitable refinement, quotient matrix, transport check")
    p.add_argument("graph")
    p.add_argument("--pin", action="append", default=[], metavar="VERTEX",
                   help="seed a singleton cell at this vertex (label or index); repeatable")
    add_common(p)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("construct", parents=[logs], help="build a graph spec and write the text format")
    p.add_argument("graph")
    p.add_argument("--out", type=str, default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("paper-suite", parents=[logs], help="run the built-in reproduction suite")
    p.add_argument("--only", type=str, default=None, choices=list(ALL_GROUPS),
                   help="run a single group")
    add_common(p, report=False)
    p.set_defaults(func=cmd_paper_suite)

    return parser


@contextmanager
def _log_to_stderr(level: str):
    """Send ctqw's log records at ``level`` and above to stderr in the block."""
    log = logging.getLogger("ctqw")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    previous = log.level
    log.addHandler(handler)
    log.setLevel(level)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(previous)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _log_to_stderr(args.log_level):
        try:
            return args.func(args)
        except (ParseError, GraphFormatError) as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
