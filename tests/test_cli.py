"""Graph-spec parsing, report schema, subcommands, exit codes."""

import dataclasses
import json
import logging
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctqw import cli as cli_mod
from ctqw import graphs as G
from ctqw import walks as walks_mod
from ctqw.cli import (
    EXIT_HEALTH,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SUITE,
    ParseError,
    main,
    parse_graph_spec,
    run_analysis,
    validate_report,
)
from ctqw import spectral as spectral_mod
from ctqw.spectral import SpectralDecomposition, decompose, pair_profile, parallel_pairs
from ctqw.walks import VALID_KINDS, DetectionConfig, FrCertificate, NumericalHealthWarning, certify_pair


class TestSpecParsing:
    def test_named_families(self):
        assert parse_graph_spec("path:4").order == 4
        assert parse_graph_spec("cycle:6").order == 6
        assert parse_graph_spec("star:16").order == 17
        assert parse_graph_spec("cube:3").order == 8
        assert parse_graph_spec("cocktail:4").order == 8
        assert parse_graph_spec("complete:5").order == 5
        assert parse_graph_spec("empty:2").order == 2

    def test_nested_expressions(self):
        g = parse_graph_spec("prod(star:16,path:2)")
        assert g.order == 34
        g = parse_graph_spec("cone2:cycle:4")
        assert g.order == 6
        g = parse_graph_spec("overlay(cycle:4,empty:4)")
        assert np.array_equal(g.weights, G.cycle(4).weights)
        g = parse_graph_spec("prod(cone2:path:2, path:2)")
        assert g.order == 8

    def test_file_specs(self, tmp_path):
        target = tmp_path / "g.graph"
        G.write_graph(G.cycle(5), target)
        g = parse_graph_spec(str(target))
        assert g.order == 5
        nested = parse_graph_spec(f"prod({target},path:2)")
        assert nested.order == 10

    def test_errors_carry_position(self):
        with pytest.raises(ParseError):
            parse_graph_spec("nosuch:4")
        with pytest.raises(ParseError) as err:
            parse_graph_spec("prod(path:2 path:2)")
        assert "position" in str(err.value)
        with pytest.raises(ParseError):
            parse_graph_spec("path:x")
        with pytest.raises(ParseError):
            parse_graph_spec("path:0")
        with pytest.raises(ParseError):
            parse_graph_spec("cycle:6 trailing")
        with pytest.raises(ParseError):
            parse_graph_spec("overlay(path:2,path:3)")

    @pytest.mark.parametrize("prefix, suffix", [("cone2:", ""), ("prod(", ",path:1)")], ids=["cone2", "prod"])
    def test_deep_nesting_exits_2(self, capsys, prefix, suffix):
        # 5,000 levels would overflow the parser's recursion; the bound is
        # crossed at the combinator one past _MAX_NESTING
        spec = prefix * 5000 + "path:1" + suffix * 5000
        assert main(["analyze", spec]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"parse error: at position {len(prefix) * cli_mod._MAX_NESTING}: "
            f"combinators nested more than {cli_mod._MAX_NESTING} deep"
        ]

    def test_nesting_up_to_the_bound_builds(self, capsys):
        def nested(depth):
            return "prod(" * depth + "path:1" + ",path:1)" * depth

        assert parse_graph_spec(nested(cli_mod._MAX_NESTING)).order == 1
        with pytest.raises(ParseError, match="nested more than"):
            parse_graph_spec(nested(cli_mod._MAX_NESTING + 1))
        assert main(["analyze", nested(200)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["graph"]["order"] == 1
        # the deepest cone2: chain that builds is not cut short by the bound
        assert parse_graph_spec("cone2:" * 322 + "path:1").order == G.MAX_ORDER


class TestReports:
    def test_json_round_trip_and_schema(self):
        rep = run_analysis(parse_graph_spec("cycle:6"), DetectionConfig())
        payload = rep.payload()
        assert payload == json.loads(json.dumps(payload))
        cert = payload["certificates"][0]
        assert set(cert) == {
            "graph", "a", "b", "tau", "alpha", "beta", "gamma", "zeta", "kind", "residual", "method",
        }
        assert isinstance(cert["alpha"], list) and len(cert["alpha"]) == 2

    def test_config_holds_the_three_detection_fields(self):
        payload = run_analysis(parse_graph_spec("path:3"), DetectionConfig()).payload()
        assert list(payload["config"]) == ["tol_walk", "beta_min", "t_max"]
        assert [f.name for f in dataclasses.fields(DetectionConfig)] == ["tol_walk", "beta_min", "t_max"]

    def test_config_with_a_retired_key_fails_validation(self):
        loaded = json.loads(run_analysis(parse_graph_spec("cycle:6"), DetectionConfig()).to_json())
        assert validate_report(loaded)
        loaded["config"]["grid_points"] = 20000
        assert not validate_report(loaded)

    def test_certificates_revalidate_on_load(self):
        rep = run_analysis(parse_graph_spec("path:4"), DetectionConfig())
        loaded = json.loads(rep.to_json())
        assert validate_report(loaded)

    def test_scan_report_validates_one_source_at_a_time(self):
        # 12,140 certificates from 40 sources: the walk columns of all of
        # them take 7.8 MB, one source's stack about 0.2 MB
        loaded = json.loads(run_analysis(parse_graph_spec("cocktail:20"), DetectionConfig(), do_scan=True).to_json())
        certs = loaded["certificates"]
        assert len(certs) > 12000 and len({c["a"] for c in certs}) == 40
        tracemalloc.start()
        try:
            assert validate_report(loaded)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, peak
        # a tampered certificate fails wherever its source comes in the report
        for i in (len(certs) // 2, len(certs) - 1):
            tampered = json.loads(json.dumps(loaded))
            tampered["certificates"][i]["tau"] *= 1.01
            assert not validate_report(tampered)

    def test_tampered_report_fails_validation(self):
        rep = run_analysis(parse_graph_spec("cycle:6"), DetectionConfig())
        loaded = json.loads(rep.to_json())
        loaded["certificates"][0]["tau"] *= 1.01
        assert not validate_report(loaded)

    @staticmethod
    def _loaded(spec, kind):
        """A re-loaded analyze report of spec and the index of its first certificate of kind."""
        loaded = json.loads(run_analysis(parse_graph_spec(spec), DetectionConfig()).to_json())
        index = next(i for i, c in enumerate(loaded["certificates"]) if c["kind"] == kind)
        return loaded, index

    def test_relabelled_periodic_certificate_fails_validation(self):
        loaded, i = self._loaded("cycle:6", "periodic")
        assert validate_report(loaded)
        loaded["certificates"][i].update(kind="perfect_state_transfer", gamma=math.pi / 2, zeta=0.0)
        assert not validate_report(loaded)

    def test_relabelled_kind_fails_validation(self):
        loaded, i = self._loaded("cycle:6", "fractional_revival")
        loaded["certificates"][i]["kind"] = "balanced_fr"
        assert not validate_report(loaded)

    @pytest.mark.parametrize("field", ["gamma", "zeta"])
    def test_made_up_angle_fails_validation(self, field):
        loaded, i = self._loaded("cycle:6", "fractional_revival")
        loaded["certificates"][i][field] += 1e-6
        assert not validate_report(loaded)

    def test_angles_at_range_edge_validate(self):
        # (gamma - pi, zeta - pi) names the same amplitudes as (gamma, zeta)
        loaded, i = self._loaded("cycle:4", "perfect_state_transfer")
        cert = loaded["certificates"][i]
        cert["gamma"] -= math.pi
        cert["zeta"] -= math.pi
        assert validate_report(loaded)

    @pytest.mark.parametrize(
        "field", ["graph", "a", "b", "tau", "alpha", "beta", "gamma", "zeta", "kind", "residual", "method"]
    )
    def test_missing_field_fails_validation(self, field):
        loaded, i = self._loaded("cycle:6", "fractional_revival")
        del loaded["certificates"][i][field]
        assert not validate_report(loaded)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("a", 0.0), ("a", True), ("b", "3"), ("b", 99), ("tau", "2.0943951"), ("tau", -1.0),
            ("alpha", [0.5]), ("beta", {"re": 0.0}), ("gamma", "1.0"), ("zeta", None),
            ("kind", "teleport"), ("residual", -1.0), ("method", 7),
        ],
    )
    def test_mistyped_field_fails_validation(self, field, value):
        loaded, i = self._loaded("cycle:6", "fractional_revival")
        loaded["certificates"][i][field] = value
        assert not validate_report(loaded)

    @pytest.mark.parametrize(
        "top, value",
        [
            ("certificates", {}), ("config", {"tol_walk": "tight"}), ("config", [1]), ("input_spec", None),
            ("graph", {"weights": [["x"]], "labels": ["0"]}), ("graph", {"weights": [[0.0, 1.0], [1.0, 0.0]]}),
            ("graph", {"weights": [[0.0, math.nan], [math.nan, 0.0]], "labels": ["0", "1"]}),
        ],
    )
    def test_malformed_report_fails_validation(self, top, value):
        loaded, _ = self._loaded("cycle:6", "fractional_revival")
        loaded[top] = value
        assert not validate_report(loaded)

    @pytest.mark.parametrize(
        "forged",
        [
            {"tau": 1.0, "residual": 1.0},  # a stored residual above tol_walk
            {"tau": 1e11, "residual": 0.0},  # a rounding floor 1e-11 tau ||A|| above 1
            {"tau": 1e308},  # tau theta overflows and the column is NaN
            {"alpha": [1e308, 1e308]},  # the residual overflows to inf
        ],
    )
    def test_forged_certificate_fails_validation(self, forged):
        loaded, i = self._loaded("cycle:6", "fractional_revival")
        loaded["certificates"][i].update(forged)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not validate_report(loaded)

    def test_forged_tolerance_fails_validation(self):
        # a report of one certificate, edited to a column 1.33 away from its amplitudes,
        # under a tolerance above beta_min that re-derives its kind and angles
        loaded, i = self._loaded("cycle:6", "fractional_revival")
        loose = types.SimpleNamespace(tol_walk=10.0, beta_min=1e-6)
        cert = loaded["certificates"][i]
        alpha, beta = complex(*cert["alpha"]), complex(*cert["beta"])
        gamma, zeta = walks_mod._gamma_zeta(alpha, beta, loose.tol_walk)
        cert.update(tau=1.0, residual=5.0, kind=walks_mod._kind_of(alpha, beta, loose), gamma=gamma, zeta=zeta)
        loaded["config"]["tol_walk"] = loose.tol_walk
        loaded["certificates"] = [cert]
        assert not validate_report(loaded)

    def test_non_finite_residual_fails_validation(self, monkeypatch):
        # without the tau bound, tau theta overflows and the recomputed residual is NaN
        monkeypatch.setattr(cli_mod, "MAX_PHASE", math.inf)
        loaded, i = self._loaded("cycle:6", "fractional_revival")
        loaded["certificates"][i]["tau"] = 1e308
        with np.errstate(all="ignore"):
            assert not validate_report(loaded)

    def test_report_over_order_limit_fails_validation(self, monkeypatch):
        loaded, _ = self._loaded("cycle:6", "fractional_revival")
        assert validate_report(loaded)
        monkeypatch.setattr(G, "MAX_ORDER", 5)
        assert not validate_report(loaded)

    def test_report_without_certificates_over_order_limit_fails_validation(self, monkeypatch):
        # the order check needs no decomposition, so it holds for every report
        loaded = json.loads(run_analysis(G.cycle(7)).to_json())
        assert loaded["certificates"] == [] and validate_report(loaded)
        monkeypatch.setattr(G, "MAX_ORDER", 6)
        assert not validate_report(loaded)

    @pytest.mark.parametrize("weight", [math.nan, 0.5])
    def test_report_without_certificates_needs_a_valid_graph(self, weight):
        # a non-finite weight, or one that breaks symmetry, fails in WeightedGraph
        loaded = json.loads(run_analysis(G.cycle(7)).to_json())
        loaded["graph"]["weights"][0][3] = weight
        assert not validate_report(loaded)

    def test_report_without_certificates_is_not_decomposed(self, monkeypatch):
        calls = []

        def counting(graph):
            calls.append(graph.name)
            return decompose(graph)

        monkeypatch.setattr(cli_mod, "decompose", counting)
        loaded = json.loads(run_analysis(G.cycle(7)).to_json())
        calls.clear()
        assert loaded["certificates"] == [] and validate_report(loaded)
        assert calls == []
        certified, _ = self._loaded("cycle:6", "fractional_revival")
        calls.clear()
        assert validate_report(certified)
        assert calls == ["cycle:6"]

    def test_scan_report_past_the_phase_bound_validates(self):
        # ||A|| = 1e4 + 2: the scan to 6e4 ends its events within one lattice
        # step 2pi/sqrt(5) of tau = MAX_PHASE / ||A||, long before its event cap
        g = G.path(4)
        shifted = G.WeightedGraph(g.weights + 1e4 * np.eye(4), g.labels, "path:4+1e4")
        cfg = DetectionConfig(t_max=6e4)
        dec = decompose(shifted)
        limit = walks_mod.MAX_PHASE / dec.norm
        last = walks_mod.scan_fr(dec, range(4), None, cfg)[-1]
        assert limit - 2 * math.pi / math.sqrt(5) < last.tau <= limit
        loaded = json.loads(run_analysis(shifted, cfg, do_scan=True).to_json())
        assert max(c["tau"] for c in loaded["certificates"]) == pytest.approx(last.tau, abs=1e-11)
        assert validate_report(loaded)

    def test_grid_report_past_the_phase_bound_validates(self):
        # ||A|| ~ 1e4: only the first grid multiples of 2pi/sqrt(5) stay in bounds
        g = G.path(4)
        rep = run_analysis(G.WeightedGraph(g.weights + 1e4 * np.eye(4), g.labels, "path:4+1e4"))
        loaded = json.loads(rep.to_json())
        assert loaded["certificates"]
        assert validate_report(loaded)

    @pytest.mark.parametrize("spec", ["cube:3", "cycle:8"])
    def test_screened_pairs_match_all_pairs(self, spec):
        g = parse_graph_spec(spec)
        dec = decompose(g)
        cfg = DetectionConfig()
        pairs, certs = [], set()
        for a in range(g.order):
            for b in range(a + 1, g.order):
                pc = certify_pair(dec, pair_profile(dec, a, b), cfg)
                if pc.profile.strongly_cospectral:
                    pairs.append(f"pair({a},{b})")
                    certs |= {(c.a, c.b, round(c.tau, 9), c.kind) for c in pc.certificates}
        report = run_analysis(g, cfg)
        assert [k for k in report.predicates if k.startswith("pair(")] == pairs
        assert {(c.a, c.b, round(c.tau, 9), c.kind) for c in report.certificates} == certs

    @pytest.mark.parametrize(
        "graph",
        [parse_graph_spec("cycle:6"), parse_graph_spec("path:6"), parse_graph_spec("path:2"), G.scale_weights(G.cycle(6), 0.5)],
        ids=lambda g: g.name,
    )
    def test_predicates_are_built_json_ready(self, graph):
        # plain bools, ints, strings and None, and floats already rounded, so
        # the report needs no _jsonify pass over them
        predicates = run_analysis(graph, DetectionConfig()).predicates

        def leaves(value):
            if isinstance(value, dict):
                assert all(type(k) is str for k in value)
                return [x for v in value.values() for x in leaves(v)]
            if isinstance(value, list):
                return [x for v in value for x in leaves(v)]
            return [value]

        found = leaves(predicates)
        assert {type(x) for x in found} <= {bool, int, float, str, type(None)}
        assert all(x == cli_mod._round_float(x) for x in found if type(x) is float)
        assert cli_mod._jsonify(predicates) == predicates
        assert any(type(x) is float for x in found) or graph.name == "path:2"

    @pytest.mark.parametrize("spec", ["cycle:128", "cube:7"])
    def test_analysis_reads_no_projector_rows(self, monkeypatch, spec):
        # the one screen forms each projector from the basis in place and
        # runs once; no per-vertex row reader is left
        def refuse(self, r):
            raise AssertionError("run_analysis read a projector")

        screens = []

        def counting(dec, slack):
            screens.append(slack)
            return parallel_pairs(dec, slack)

        graph = parse_graph_spec(spec)
        monkeypatch.setattr(SpectralDecomposition, "projector", refuse)
        monkeypatch.setattr(spectral_mod, "parallel_pairs", counting)
        report = run_analysis(graph, DetectionConfig())
        assert sum(k.startswith("pair(") for k in report.predicates) == 64
        assert screens == [0.0]
        assert not hasattr(SpectralDecomposition, "rows")

    def test_deterministic(self):
        a = run_analysis(parse_graph_spec("cocktail:3"), DetectionConfig()).payload()
        b = run_analysis(parse_graph_spec("cocktail:3"), DetectionConfig()).payload()
        a.pop("timing_ms")
        b.pop("timing_ms")
        assert a == b

    def test_scan_pipeline_path5_empty(self):
        rep = run_analysis(parse_graph_spec("path:5"), DetectionConfig(), do_scan=True)
        assert list(rep.certificates) == []
        entry = rep.predicates["pair(0,4)"]
        assert entry["classification"].startswith("not classifiable")


#: strings with non-ASCII, control, line-separator and astral characters
_TEXT = st.one_of(st.text(max_size=8), st.sampled_from(["", "\u00e9", "\x00\x1f\t\n\"\\", "\u2028", "\U0001f600"]))
_FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]))
_INTS = st.integers(-(2**200), 2**200)
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _TEXT)
#: rows that take the writer's joins, and mixed rows that must not
_ROWS = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False)),
    st.lists(_INTS),
    st.lists(_TEXT),
    st.lists(_FLOATS),
    st.lists(st.one_of(_INTS, st.booleans())),
    st.lists(st.one_of(_FLOATS, _INTS)),
)
_TREES = st.recursive(
    st.one_of(_SCALARS, _ROWS, _ROWS.map(tuple)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


#: weights with repeats, both zeros, the extremes and values whose repr is long
_WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1.7e308, -1.7e308, 1 / 3, -1 / 3]),
    st.integers(-6, 6).map(lambda k: k * math.pi),
    st.integers(-(10**6), 10**6).map(float),
)


@st.composite
def _weight_arrays(draw):
    """Float64 arrays of shapes 1x1 to 12x12 (and rows of 1 to 12), drawn
    from a pool of a few values, so that values repeat."""
    shape = draw(st.tuples(st.integers(1, 12), st.integers(1, 12)) | st.tuples(st.integers(1, 12)))
    pool = draw(st.lists(_WEIGHTS, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array([pool[i] for i in picks], dtype=np.float64).reshape(shape)


def _is_indent2_json(text: str) -> bool:
    return text == json.dumps(json.loads(text), indent=2) + "\n"


#: floats a certificate may hold: signed zeros, the extremes, values that
#: round at 12 digits and the non-finite ones
_CERT_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1234567890125, 123456789012.5, 0.99999999999996]),
)
#: phases of an amplitude, with those whose cosine or sine is a signed zero
_PHASES = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi]))


@st.composite
def _fr_certificates(draw):
    """Any FrCertificate: vertices of int64, every kind, angles both None or
    both set, amplitudes on the unit sphere or NaN, non-ASCII strings."""
    g, za, zb = draw(_PHASES), draw(_PHASES), draw(_PHASES)
    alpha = complex(math.cos(g) * math.cos(za), math.cos(g) * math.sin(za))
    beta = draw(st.sampled_from([0j, complex(math.sin(g) * math.cos(zb), math.sin(g) * math.sin(zb))]))
    if beta == 0:
        alpha = draw(st.sampled_from([1 + 0j, complex(-1.0, -0.0), complex(math.nan, 0.0)]))
    angles = draw(st.none() | st.tuples(_CERT_FLOATS, _CERT_FLOATS))
    return FrCertificate(
        draw(st.integers(-(2**63), 2**63 - 1)),
        draw(st.integers(0, 645)),
        draw(st.floats(min_value=5e-324, allow_infinity=True) | st.just(math.nan)),
        alpha,
        beta,
        *(angles or (None, None)),
        draw(st.sampled_from(sorted(VALID_KINDS))),
        draw(_CERT_FLOATS),
        draw(_TEXT),
    )


#: certificates that hold each edge case the writer must keep
_EDGE_CERTIFICATES = [
    FrCertificate(0, 3, 5e-324, complex(-0.0, 1.0), 0j, None, None, "periodic", -0.0, "grid_scan"),
    FrCertificate(7, 7, 1e300, complex(0.6, -0.0), complex(-0.0, 0.8), -0.0, 5e-324, "fractional_revival", 1e300, "é"),
    FrCertificate(1, 2, 0.1234567890125, 1 + 0j, 0j, 1e300, -1e300, "perfect_state_transfer", math.inf, "\u2028"),
    FrCertificate(2, 1, 123456789012.5, complex(math.nan, 0.0), 0j, math.nan, math.inf, "balanced_fr", 0.99999999999996, "x"),
]


class TestReportWriter:
    """cli._dumps writes exactly what json.dumps(value, indent=2) writes."""

    @settings(max_examples=300, deadline=None)
    @given(_TREES)
    def test_equals_json_indent_2(self, tree):
        assert cli_mod._dumps(tree) == json.dumps(tree, indent=2)

    def test_golden_payloads(self):
        golden = json.loads((Path(__file__).parent / "data" / "golden_analyze.json").read_text())
        for payload in golden.values():
            assert cli_mod._dumps(payload) == json.dumps(payload, indent=2)

    @pytest.mark.parametrize("argv", [["analyze", "--scan", "cube:4"], ["scan", "path:5", "--source", "0"]])
    def test_command_stdout(self, capsys, argv):
        assert main(argv) == EXIT_OK
        assert _is_indent2_json(capsys.readouterr().out)

    def test_quotient_json_file(self, tmp_path, capsys):
        out = tmp_path / "quotient.json"
        assert main(["quotient", "cycle:6", "--json", str(out)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("quotient of cycle:6")
        assert _is_indent2_json(out.read_text())

    @pytest.mark.parametrize("tree", [{1: 2}, {"a": [{None: 0}]}, {(0, 1): "pair"}])
    def test_non_str_key_raises(self, tree):
        with pytest.raises(TypeError):
            cli_mod._dumps(tree)

    @settings(max_examples=200, deadline=None)
    @given(_weight_arrays(), st.integers(0, 3))
    def test_array_equals_json_of_its_list(self, arr, depth):
        # the array nested depth lists deep, where its rows are indented further
        value, listed = arr, arr.tolist()
        for _ in range(depth):
            value, listed = [value], [listed]
        assert cli_mod._dumps(value) == json.dumps(listed, indent=2)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_fr_certificates(), max_size=4), _TEXT, st.integers(1, 3))
    @example(_EDGE_CERTIFICATES, "κύβος:5 \u2713", 1)
    @example(_EDGE_CERTIFICATES, "\U0001f600", 3)
    def test_certificates_equal_json_of_their_dicts(self, certs, name, depth):
        # the list at a pad depth levels deep, as in a report (depth 1)
        pad = "\n" + "  " * depth
        table = cli_mod.Certificates(certs, name)
        want = json.dumps([cli_mod.certificate_to_json(c, name) for c in certs], indent=2).replace("\n", pad)
        assert cli_mod._dumps(table, pad) == want
        assert [repr(c) for c in table] == [repr(c) for c in certs]

    @pytest.mark.parametrize("spec", ["cube:5", "cocktail:20"])
    def test_scan_report_text_is_its_payload(self, spec):
        report = run_analysis(parse_graph_spec(spec), do_scan=True)
        assert report.payload() == json.loads(report.to_json())
        assert len(report.payload()["certificates"]) == len(report.certificates) > 500

    @pytest.mark.parametrize(
        "arr",
        [
            np.array([[0.0, -0.0], [-0.0, 0.0]]),
            np.array([[math.nan, 1.0], [math.inf, -math.inf]]),
            np.array([[1, 2], [3, 4]]),
            np.zeros((2, 0)),
            np.zeros(0),
            np.array(2.5),
        ],
        ids=["signed-zeros", "non-finite", "int", "empty-rows", "empty", "0-d"],
    )
    def test_other_arrays_equal_json_of_their_list(self, arr):
        assert cli_mod._dumps({"w": arr}) == json.dumps({"w": arr.tolist()}, indent=2)

    def test_torus_weights_write_in_little_memory(self):
        # 0.19 MB of text. Each row is looked up in the table of distinct
        # values, where np.unique's inverse held several (n, n) int64 arrays
        # (0.85 MB). The table comes from a sort: the first np.unique call
        # imports numpy.ma (1.1 MB), so the first call is measured, in a fresh process
        code = (
            "import json, tracemalloc; from ctqw import cli; "
            "w = cli.parse_graph_spec('prod(cycle:12,cycle:12)').weights; "
            "tracemalloc.start(); text = cli._dumps(w); peak = tracemalloc.get_traced_memory()[1]; "
            "tracemalloc.stop(); print(peak, text == json.dumps(w.tolist(), indent=2))"
        )
        src = str(Path(cli_mod.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src}
        )
        peak, same = proc.stdout.split()
        assert same == "True"
        assert int(peak) < 0.5e6, peak

    def test_weights_are_exact(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(0.1, 3.0, (5, 5)) * np.pi
        graph = G.WeightedGraph(w + w.T, tuple("abcde"), "random")
        assert run_analysis(graph).payload()["graph"]["weights"] == graph.weights.tolist()

    def test_report_holds_the_graphs_weights(self):
        graph = parse_graph_spec("cycle:6")
        report = run_analysis(graph)
        assert report.graph["weights"] is graph.weights
        payload = report.payload()
        assert type(payload["graph"]["weights"]) is list
        assert report.graph["weights"] is graph.weights  # payload() leaves the report as it was

    def test_report_retains_little_memory(self):
        # the report holds the graph's weight array, not 16,384 Python floats (about 0.6 MB)
        graph = parse_graph_spec("cycle:128")
        run_analysis(graph)  # lazy imports and caches
        tracemalloc.start()
        try:
            report = run_analysis(graph)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert list(report.certificates) == []
        assert retained < 0.2e6, retained

    def test_scan_report_holds_its_certificates_as_rows(self):
        # cocktail:20 --scan has 12,140 certificates: as one structured array
        # they take 1.2 MB, as certificate_to_json dicts 9.98 MB and as
        # FrCertificates about 4 MB
        graph = parse_graph_spec("cocktail:20")
        run_analysis(parse_graph_spec("cycle:6"), do_scan=True)  # lazy imports and caches
        tracemalloc.start()
        try:
            report = run_analysis(graph, do_scan=True)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(report.certificates) == 12140
        assert retained <= 2.5e6, retained

    @pytest.mark.parametrize("spec, limit", [("cocktail:40", 3.0e6), ("cube:7", 1.3e6)])
    def test_analysis_holds_one_stack_of_exponentials(self, spec, limit):
        # the oracle window keeps the latest times within one stack's working
        # set: cocktail:40 (n = 80) holds one exponential of 0.1 MB at a
        # time, not all 40 (4.1
        # MB), and cube:7 forms its second exponential (a 0.92 MB working
        # set) with the first already dropped
        graph = parse_graph_spec(spec)
        run_analysis(parse_graph_spec("cycle:6"))  # lazy imports and caches
        tracemalloc.start()
        try:
            report = run_analysis(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.certificates
        assert peak < limit, peak

    def test_peak_memory_is_a_few_times_the_output(self):
        report = run_analysis(parse_graph_spec("cycle:128"))
        tracemalloc.start()
        try:
            text = report.to_json()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(text), (peak, len(text))


class TestCommands:
    def test_analyze_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["analyze", "cycle:6", "--json", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        taus = [c["tau"] for c in payload["certificates"] if c["kind"] == "fractional_revival"]
        assert any(abs(t - 2 * math.pi / 3) < 1e-9 for t in taus)

    def test_analyze_stdout(self, capsys):
        assert main(["analyze", "path:2"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["input_spec"] == "path:2"

    def test_parse_error_exit_code(self, capsys):
        assert main(["analyze", "bogus:1"]) == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec", ["cycle:11", "cube:4", "prod(path:4,path:3)", "cone2:cycle:9", "cone2:prod(path:4,path:3)"]
    )
    def test_order_over_limit_exits_2(self, capsys, monkeypatch, spec):
        monkeypatch.setattr(G, "MAX_ORDER", 10)
        assert main(["analyze", spec]) == EXIT_PARSE
        assert "more than 10 vertices" in capsys.readouterr().err

    def test_analyze_bunkbed_balanced_time(self, capsys):
        assert main(["analyze", "prod(star:16,path:2)"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        bal = [c for c in payload["certificates"] if c["kind"] == "balanced_fr"]
        assert any(abs(c["tau"] - 0.7853981633974483) <= 1e-9 for c in bal)

    def test_paper_suite_cycles_rows(self, capsys):
        code = main(["paper-suite", "--only", "cycles"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "C6" in out and "C4" in out
        for n in (8, 10, 12, 14, 16):
            assert f"C{n}" in out

    def test_quotient_cocktail(self, capsys):
        code = main(["quotient", "cocktail:3", "--pin", "0", "--pin", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "3 cells" in out
        payload = json.loads(out[out.index("\n{\n") + 1 :])
        assert payload["predicates"]["quotient_transport"]["holds"]
        kinds = {c["kind"] for c in payload["certificates"]}
        assert "fractional_revival" in kinds

    def test_quotient_cone_over_c4(self, capsys):
        code = main(["quotient", "cone2:cycle:4", "--pin", "a", "--pin", "b"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "[0, 2, 0]" in out and "[2, 2, 2]" in out

    def test_quotient_star_two_cells(self, capsys):
        code = main(["quotient", "star:6", "--pin", "c"])
        assert code == EXIT_OK
        assert "2 cells" in capsys.readouterr().out

    def test_construct_round_trip(self, tmp_path):
        out = tmp_path / "c6.graph"
        assert main(["construct", "cycle:6", "--out", str(out)]) == EXIT_OK
        g = G.read_graph(out)
        assert np.array_equal(g.weights, G.cycle(6).weights)

    def test_scan_command(self, capsys):
        code = main(["scan", "cycle:4", "--source", "0", "--tmax", "8"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert any(c["kind"] == "perfect_state_transfer" for c in payload["certificates"])

    def test_scan_json_file_matches_stdout(self, tmp_path, capsys):
        argv = ["scan", "cycle:4", "--source", "0", "--tmax", "8"]
        assert main(argv) == EXIT_OK
        printed = capsys.readouterr().out
        out = tmp_path / "scan.json"
        assert main(argv + ["--json", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == f"report written to {out}\n"
        assert out.read_text() == printed
        assert json.loads(out.read_text())["certificates"]

    def test_paper_suite_single_group(self, capsys):
        code = main(["paper-suite", "--only", "classification"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_paper_suite_failure_exit(self, capsys, monkeypatch):
        from ctqw import cli as cli_mod
        from ctqw.suite import RowResult

        monkeypatch.setattr(cli_mod, "run_groups", lambda groups, cfg: [RowResult("g", "row", False, "boom")])
        assert main(["paper-suite", "--only", "cycles"]) == EXIT_SUITE
        assert "[FAIL]" in capsys.readouterr().out

    @pytest.mark.parametrize("option", ["--source", "--target"])
    @pytest.mark.parametrize("vertex", ["99", "6", "-1"])
    def test_scan_vertex_out_of_range(self, capsys, option, vertex):
        assert main(["scan", "cycle:6", option, vertex]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and "out of range" in err
        assert err.count("\n") == 1

    def test_scan_target_equal_to_source_exits_2(self, capsys):
        assert main(["scan", "cycle:6", "--source", "3", "--target", "3"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and "must differ" in err

    def test_scan_all_sources_skips_target(self, capsys, monkeypatch):
        from ctqw import cli as cli_mod

        sources = []

        def recording_scan(dec, profiles, srcs, b, cfg):
            sources.extend((a, b) for a in srcs)
            return [], [], []

        monkeypatch.setattr(cli_mod, "_certify", recording_scan)
        assert main(["scan", "cycle:6", "--target", "3"]) == EXIT_OK
        assert sources == [(a, 3) for a in (0, 1, 2, 4, 5)]

    def test_scan_ignores_non_health_warnings(self, capsys, monkeypatch):
        # another warning does not set the health exit, and reaches the caller
        from ctqw import cli as cli_mod

        def noisy_scan(dec, profiles, a, b, cfg):
            warnings.warn("overflow in something", RuntimeWarning)
            return [], [], []

        monkeypatch.setattr(cli_mod, "_certify", noisy_scan)
        with pytest.warns(RuntimeWarning, match="overflow in something"):
            assert main(["scan", "cycle:4", "--source", "0"]) == EXIT_OK

    def test_scan_health_warning_exit(self, capsys, monkeypatch):
        from ctqw import cli as cli_mod

        def unhealthy_scan(dec, profiles, a, b, cfg):
            return [], [], ["spectral/oracle disagreement"]

        monkeypatch.setattr(cli_mod, "_certify", unhealthy_scan)
        assert main(["scan", "cycle:4", "--source", "0"]) == EXIT_HEALTH
        assert "numerical health: spectral/oracle disagreement" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "1e-5"),
            ("--tmax", "0"), ("--tmax", "inf"),
        ],
    )
    def test_bad_numeric_options(self, capsys, option, value):
        assert main(["analyze", "cycle:6", option, value]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and err.count("\n") == 1

    def test_unknown_option_exits_2_on_one_line(self):
        src = str(Path(cli_mod.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "ctqw.cli", "analyze", "path:3", "--grid", "100"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stdout) == (EXIT_PARSE, "")
        assert proc.stderr.splitlines() == ["parse error: unrecognized arguments: --grid 100"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "path:3", "--tol", "abc"], ["analyze"], ["frobnicate"],
            ["paper-suite", "--only", "nope"], ["analyze", "path:3", "--bogus"], [],
        ],
        ids=["bad-value", "missing-graph", "unknown-command", "bad-choice", "unknown-option", "bare"],
    )
    def test_argparse_errors_exit_2_on_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (EXIT_PARSE, "")
        assert len(err.splitlines()) == 1 and err.startswith("parse error: ")
        assert "usage:" not in err

    def test_non_health_warnings_reach_the_caller(self, monkeypatch):
        # a RuntimeWarning raised inside the analysis is the caller's to see,
        # and does not become a health finding
        real = cli_mod.decompose

        def noisy_decompose(graph):
            warnings.warn("overflow in something", RuntimeWarning)
            return real(graph)

        monkeypatch.setattr(cli_mod, "decompose", noisy_decompose)
        with pytest.warns(RuntimeWarning, match="overflow in something"):
            report = run_analysis(G.cycle(6), do_scan=True)
        assert report.certificates and report.health_warnings == []

    def test_numeric_options_reach_config(self, capsys):
        assert main(["analyze", "path:2", "--tol", "1e-7", "--tmax", "7"]) == EXIT_OK
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["tol_walk"], config["t_max"]) == (1e-7, 7.0)

    def test_weighted_c4_certifies_pst(self, tmp_path, capsys):
        # C4 with weight w has PST between antipodes at pi / (2 w); with w =
        # 1234.5678 the lattice generator's square once passed as an integer
        w = 1234.5678
        target = tmp_path / "c4.graph"
        target.write_text(f"n 4\n0 1 {w}\n1 2 {w}\n2 3 {w}\n0 3 {w}\n")
        assert main(["analyze", str(target)]) == EXIT_OK
        certs = json.loads(capsys.readouterr().out)["certificates"]
        pst = [c for c in certs if c["kind"] == "perfect_state_transfer" and (c["a"], c["b"]) == (0, 2)]
        assert pst and abs(pst[0]["tau"] - math.pi / (2 * w)) <= 1e-9 * pst[0]["tau"]

    @pytest.mark.parametrize(
        "command", [["analyze"], ["analyze", "--scan"], ["scan"], ["quotient", "--pin", "0", "--pin", "2"]]
    )
    def test_weight_norm_over_the_limit_exits_2(self, tmp_path, capsys, command):
        target = tmp_path / "huge.graph"
        target.write_text("n 3\n0 1 1e308\n1 2 1.0\n")
        assert main(command + [str(target)]) == EXIT_PARSE
        assert "above the limit" in capsys.readouterr().err
        target.write_text("n 3\n0 1 5e-324\n1 2 5e-324\n")
        assert main(command + [str(target)]) == EXIT_OK

    def test_quotient_norm_over_the_limit_exits_2(self, tmp_path, capsys):
        # K_{4,4} with one side pinned: ||A|| = 4e153, but the quotient's
        # row for the unpinned cell sums four entries sqrt(4e153 * 1e153)
        target = tmp_path / "k44.graph"
        target.write_text("n 8\n" + "".join(f"{i} {j} 1e153\n" for i in range(4) for j in range(4, 8)))
        pins = [arg for v in "0123" for arg in ("--pin", v)]
        assert main(["quotient", *pins, str(target)]) == EXIT_PARSE
        assert "norm 8e+153" in capsys.readouterr().err

    def test_unreadable_file_exits_2(self, tmp_path, capsys):
        target = tmp_path / "latin1.graph"
        target.write_bytes(b"n 2\n0 1 \xe9\n")
        assert main(["analyze", str(target)]) == EXIT_PARSE
        assert main(["analyze", str(tmp_path)]) == EXIT_PARSE
        assert capsys.readouterr().err.count("parse error: ") == 2

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_file(self, tmp_path, capsys, weight):
        target = tmp_path / "bad.graph"
        target.write_text(f"n 2\n0 1 {weight}\n")
        assert main(["analyze", str(target)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "line 2" in err and "not finite" in err

    def test_singleton_parts_without_integer_description(self, tmp_path, capsys):
        # P2 with weight 0.7: two singleton parts, so the lattice exists with
        # no step and the gap times certify, but +-0.7 are not integers
        target = tmp_path / "p2.graph"
        target.write_text("n 2\n0 1 0.7\n")
        assert main(["analyze", str(target)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        entry = report["predicates"]["pair(0,1)"]
        reason = "delta is 1 but the values are not all integers"
        assert entry["classification"] == f"no quadratic-integer description: {reason}"
        assert "tau_step" in entry and entry["tau_step"] is None
        kinds = {c["kind"]: c["tau"] for c in report["certificates"]}
        assert kinds["balanced_fr"] == pytest.approx(math.pi / 2.8, rel=1e-9)
        assert kinds["perfect_state_transfer"] == pytest.approx(math.pi / 1.4, rel=1e-9)

    @pytest.mark.parametrize(
        "argv, first_line",
        [
            # a report of 290 kB outgrows the pipe's buffer, so writing it
            # meets the reader's closed end
            (["analyze", "cycle:128"], b"{\n"),
            # outputs written after the reader has gone
            (["construct", "complete:600"], None),
            (["paper-suite", "--only", "weighted-p3"], None),
        ],
        ids=["analyze", "construct", "paper-suite"],
    )
    def test_closed_stdout_ends_quietly(self, argv, first_line):
        src = str(Path(cli_mod.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.Popen(
            [sys.executable, "-m", "ctqw.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        if first_line is not None:
            assert proc.stdout.readline() == first_line
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_OK
        assert err == b""

    def test_quotient_transport_holds_at_huge_weight(self, tmp_path, capsys):
        # C4 with weight 1e150: at the fixed sample times the phases carry no
        # digits, so the samples shrink by 1/||A||
        target = tmp_path / "c4.graph"
        target.write_text("n 4\n0 1 1e150\n1 2 1e150\n2 3 1e150\n0 3 1e150\n")
        assert main(["quotient", "--pin", "0", "--pin", "2", str(target)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "transport entries match on the sample grid: True" in out
        report = json.loads(out[out.index("\n{") + 1 :])
        assert report["predicates"]["quotient_transport"]["holds"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "path:3", "--json"],
            ["scan", "path:3", "--json"],
            ["quotient", "path:3", "--pin", "0", "--pin", "2", "--json"],
            ["construct", "path:3", "--out"],
        ],
        ids=["analyze", "scan", "quotient", "construct"],
    )
    def test_unwritable_output_path_exits_2(self, tmp_path, capsys, argv):
        (tmp_path / "file").write_text("")
        missing = tmp_path / "missing" / "x.out"
        under_a_file = tmp_path / "file" / "x.out"
        for path, reason in (
            (missing, "No such file or directory"),
            (tmp_path, "Is a directory"),
            (under_a_file, "Not a directory"),
        ):
            assert main(argv + [str(path)]) == EXIT_PARSE
            err = capsys.readouterr().err
            assert err.splitlines() == [f"parse error: cannot write {argv[-1]} {path}: {reason}"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--scan", "cocktail:20", "--json"],
            ["scan", "cocktail:20", "--json"],
            ["quotient", "cone2:cycle:5", "--pin", "a", "--pin", "b", "--json"],
            ["construct", "cube:3", "--out"],
        ],
        ids=["analyze", "scan", "quotient", "construct"],
    )
    def test_unwritable_output_path_fails_before_the_work(self, monkeypatch, tmp_path, capsys, argv):
        def work(*args, **kwargs):
            raise AssertionError("the command worked before it checked its output path")

        for name in ("run_analysis", "decompose", "_certify", "verify_quotient_transport"):
            monkeypatch.setattr(cli_mod, name, work)
        for name in ("write_graph", "coarsest_equitable_refinement", "quotient"):
            monkeypatch.setattr(G, name, work)
        path = tmp_path / "missing" / "x.out"
        assert main(argv + [str(path)]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"parse error: cannot write {argv[-1]} {path}: No such file or directory"]

    def test_output_path_check_leaves_a_file_as_it_is(self, monkeypatch, tmp_path):
        # a bad option found after the check leaves the file untouched, and a
        # run that ends writes it whole
        out = tmp_path / "x.json"
        out.write_text("earlier report, longer than the next one" * 1000)
        before = out.read_text()
        assert main(["scan", "path:3", "--source", "7", "--json", str(out)]) == EXIT_PARSE
        assert out.read_text() == before
        assert main(["analyze", "path:3", "--json", str(out)]) == EXIT_OK
        assert _is_indent2_json(out.read_text())

    @pytest.mark.parametrize("stop", [RuntimeError, KeyboardInterrupt])
    def test_a_run_that_ends_early_leaves_no_new_file(self, monkeypatch, tmp_path, stop):
        # the check does not create the path: a run stopped by an error or
        # Ctrl-C after it leaves nothing at a path that did not exist
        def work(*args, **kwargs):
            raise stop("stopped in the analysis")

        monkeypatch.setattr(cli_mod, "run_analysis", work)
        monkeypatch.setattr(cli_mod, "_certify", work)
        for argv in (["analyze", "--scan", "cocktail:20"], ["scan", "cube:3"]):
            out = tmp_path / f"{argv[0]}.json"
            with pytest.raises(stop):
                main(argv + ["--json", str(out)])
            assert not out.exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_output_path_check_leaves_a_fifo_to_its_reader(self, tmp_path, capsys):
        # the check does not open the path: a reader already waiting on a
        # named pipe gets the report, not the end of file of an empty open
        fifo = tmp_path / "report"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        argv = ["analyze", "path:3", "--json", str(fifo)]
        writer = threading.Thread(target=lambda: got.append(main(argv)), daemon=True)
        writer.start()
        writer.join(30)
        if writer.is_alive():  # stuck opening the pipe: give it a reader
            fifo.read_text()
        reader.join(30)
        assert not writer.is_alive()
        text, rc = sorted(got, key=lambda v: isinstance(v, int))
        assert rc == EXIT_OK
        assert _is_indent2_json(text) and json.loads(text)["input_spec"] == "path:3"

    def test_scan_keeps_a_time_equal_to_its_horizon(self, capsys):
        # t_max / tau_step rounds just below 11 on cocktail:4, yet 11 tau_step
        # <= t_max: the 9th time lies on the horizon and is reported
        assert main(["scan", "cocktail:4", "--source", "0", "--tmax", "8.63937979737193"]) == EXIT_OK
        certs = json.loads(capsys.readouterr().out)["certificates"]
        assert len(certs) == 9
        assert certs[-1]["tau"] == 8.63937979737

    def test_paper_suite_has_no_json_option(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            main(["paper-suite", "--only", "weighted-p3", "--json", str(out)])
        assert exc.value.code == EXIT_PARSE
        assert "unrecognized arguments: --json" in capsys.readouterr().err
        assert not out.exists()

    def test_log_level_debug_reports_screen(self, capsys):
        assert main(["analyze", "cube:3", "--log-level", "debug"]) == EXIT_OK
        assert "DEBUG ctqw.cli: screened 28 pairs to 4 candidates" in capsys.readouterr().err

    def test_log_level_debug_reports_walk_reasons(self, capsys):
        assert main(["analyze", "path:5", "--scan", "--log-level", "DEBUG"]) == EXIT_OK
        err = capsys.readouterr().err
        assert "DEBUG ctqw.walks: no revival from 2 to 0: the support of 0 is not inside that of 2" in err
        assert "DEBUG ctqw.walks: no revival from 0 to 2: c_r takes 3 values, not 2" in err

    def test_default_log_level_is_quiet(self, capsys):
        assert main(["analyze", "cube:3"]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert logging.getLogger("ctqw").handlers == []

    def test_unknown_log_level_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "cube:3", "--log-level", "loud"])
        assert exc.value.code == EXIT_PARSE
        assert "--log-level: invalid choice" in capsys.readouterr().err

    def test_health_exit_code_contract(self):
        assert (EXIT_OK, EXIT_PARSE, EXIT_HEALTH, EXIT_SUITE) == (0, 2, 3, 4)
