"""The exit-code contract under generated input.

Every run of ``cli.main`` ends with 0, 2, 3 or 4; no exception escapes it
(argparse's usage error is its SystemExit(2)); and every report it writes
validates on reload. Inputs: spec strings built from the grammar's tokens,
graph files with extreme and subnormal weights, extreme option values,
output paths that cannot be written, and tampered or truncated reports
through ``validate_report``. Runs are
in-process; graphs have at most 12 vertices, apart from specs past
graphs.MAX_ORDER, which exit 2 before anything is allocated.
"""

import copy
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ctqw.cli import EXIT_HEALTH, EXIT_OK, EXIT_PARSE, EXIT_SUITE, ParseError, main, parse_graph_spec, validate_report
from ctqw.graphs import GraphFormatError

EXIT_CODES = {EXIT_OK, EXIT_PARSE, EXIT_HEALTH, EXIT_SUITE}
MAX_FUZZ_ORDER = 12

_FAMILIES = ["path", "cycle", "star", "cube", "cocktail", "complete", "empty"]
#: small arguments, and ones past graphs.MAX_ORDER or not integers
_ARGS = ["0", "1", "2", "3", "4", "-1", "646", "100000", "10000000000", "x", "2.5", ""]
_TOKENS = [f + ":" for f in _FAMILIES] + _ARGS + ["prod(", "overlay(", "cone2:", ",", ")", "(", ":", " ", "bogus"]

#: weights under the norm bound of graphs._check_norm, extreme and subnormal ones among them
_WEIGHTS = ["0", "1", "-1", "0.5", "2", "1e-300", "5e-324", "2.2250738585072014e-308", "1e150", "-1e150", "1e153"]
#: entries the parser or the norm bound rejects
_BAD_ENTRIES = [
    "0 1 nan", "0 1 inf", "0 1 -inf", "0 1 1e400", "0 1 x", "0 1 1e154", "0 1 1.7976931348623157e308",
    "0 1 -1e308", "1 0 1", "-1 0 1", "0 99 1", "0 1", "n 3",
]
_TOL = ["5e-324", "1e-300", "1e-12", "1e-9", "1e-7", "9.9e-7"]
_BAD_TOL = ["0", "-1", "nan", "inf", "1e-6", "1", "x"]
_TMAX = ["5e-324", "1e-300", "0.1", "1", "50", "1e6", "1e308"]
_BAD_TMAX = ["0", "-5", "nan", "inf", "x"]
_VERTICES = ["0", "1", "2", "3", "a", "b", "c"]
_BAD_VERTICES = ["-1", "11", "12", "100000000000000000000", "x"]


def _mostly(draw, good, bad):
    """A value of good, or of bad one time in eight."""
    return draw(st.sampled_from(bad if draw(st.integers(0, 7)) == 0 else good))


def _run(argv) -> tuple[int, str]:
    """main(argv)'s exit code and stdout; argparse's exit stays an exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


def _small_enough(spec: str) -> bool:
    """True unless spec parses to a graph of more than MAX_FUZZ_ORDER vertices."""
    try:
        return parse_graph_spec(spec).order <= MAX_FUZZ_ORDER
    except (ParseError, GraphFormatError):
        return True


def _assert_reports_validate(argv, code: int, stdout: str, json_path) -> None:
    """The report a run wrote, to the --json file or to stdout, validates."""
    if code not in (EXIT_OK, EXIT_HEALTH) or argv[0] not in ("analyze", "scan", "quotient"):
        return
    if "--json" in argv:
        text = json_path.read_text()
    elif argv[0] == "quotient":  # the report follows the quotient's summary
        text = stdout[stdout.index("\n{") + 1 :]
    else:
        text = stdout
    assert validate_report(json.loads(text)), argv


_leaves = st.builds(lambda f, n: f"{f}:{n}", st.sampled_from(_FAMILIES), st.sampled_from(["1", "2", "3", "4"]))
_grammar_specs = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds("prod({},{})".format, inner, inner),
        st.builds("overlay({},{})".format, inner, inner),
        st.builds("cone2:{}".format, inner),
    ),
    max_leaves=3,
)
_token_specs = st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=8).map("".join)


@st.composite
def graph_files(draw) -> str:
    """Text of a graph file: a header of a small, huge or bad order, then
    entries with extreme, subnormal or malformed weights."""
    n = _mostly(draw, ["1", "2", "3", "4", "6"], ["0", "-1", "646", "100000", "x", ""])
    lines = [f"n {n}"] if n else []
    size = int(n) if n in ("1", "2", "3", "4", "6") else 3
    for _ in range(draw(st.integers(0, 8))):
        i = draw(st.integers(0, size - 1))
        j = draw(st.integers(i, size - 1))
        lines.append(_mostly(draw, [f"{i} {j} {w}" for w in _WEIGHTS], _BAD_ENTRIES))
    return "\n".join(lines) + "\n"


def _output_path(draw, path) -> str:
    """path, or one time in eight a path that cannot be written: in a
    missing directory, or a directory."""
    return _mostly(draw, [str(path)], [str(path.parent / "missing" / path.name), str(path.parent)])


def _options(draw) -> list[str]:
    argv = []
    for option, good, bad in (("--tol", _TOL, _BAD_TOL), ("--tmax", _TMAX, _BAD_TMAX)):
        if draw(st.booleans()):
            argv += [option, _mostly(draw, good, bad)]
    return argv


@st.composite
def commands(draw, spec) -> list[str]:
    """An analyze, analyze --scan, scan or quotient run on spec with extreme options."""
    command = draw(st.sampled_from(["analyze", "analyze --scan", "scan", "quotient"])).split()
    argv = command + [spec] + _options(draw)
    if command[0] == "scan":
        for option in ("--source", "--target"):
            if draw(st.booleans()):
                argv += [option, _mostly(draw, _VERTICES, _BAD_VERTICES)]
    if command[0] == "quotient":
        for _ in range(draw(st.integers(0, 3))):
            argv += ["--pin", _mostly(draw, _VERTICES, _BAD_VERTICES)]
    return argv


_SETTINGS = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestExitCodes:
    @_SETTINGS
    @given(st.data(), st.one_of(_token_specs, _grammar_specs), st.booleans())
    def test_specs(self, tmp_path_factory, data, spec, to_file):
        assume(_small_enough(spec))
        argv = data.draw(commands(spec))
        json_path = tmp_path_factory.getbasetemp() / "fuzz_spec.json"
        if to_file:
            argv += ["--json", _output_path(data.draw, json_path)]
        code, stdout = _run(argv)
        _assert_reports_validate(argv, code, stdout, json_path)

    @_SETTINGS
    @given(st.data(), graph_files())
    def test_graph_files(self, tmp_path_factory, data, text):
        path = tmp_path_factory.getbasetemp() / "fuzz.graph"
        path.write_text(text)
        argv = data.draw(commands(str(path)))
        code, stdout = _run(argv)
        _assert_reports_validate(argv, code, stdout, None)

    @_SETTINGS
    @given(st.data(), st.sampled_from(["paper-suite", "construct", "bogus", "--log-level"]))
    def test_other_commands(self, tmp_path_factory, data, command):
        argv = [command]
        if command == "paper-suite":
            # one group at most: the whole suite takes a few hundred ms
            argv += ["--only", data.draw(st.sampled_from(["cycles", "weighted-p3", "classification", "nope", ""]))]
            options = ["--json", "x.json", "--tol", "nan", "--tmax", "1e308", "--log-level", "info"]
            argv += data.draw(st.lists(st.sampled_from(options), max_size=3))
        elif command == "construct":
            argv.append(data.draw(st.one_of(_token_specs, _grammar_specs)))
            if data.draw(st.booleans()):
                argv += ["--out", _output_path(data.draw, tmp_path_factory.getbasetemp() / "fuzz_out.graph")]
        _run(argv)


def _mutations(value, path=()):
    """Every (path, container) in a report, for a mutation to pick from."""
    if isinstance(value, dict):
        yield path, value
        for k, v in value.items():
            yield from _mutations(v, path + (k,))
    elif isinstance(value, list):
        yield path, value
        for i, v in enumerate(value[:4]):
            yield from _mutations(v, path + (i,))


@pytest.fixture(scope="module")
def reports():
    """analyze and analyze --scan reports of small graphs with certificates."""
    out = []
    for argv in (["analyze", "cycle:6"], ["analyze", "--scan", "path:3"], ["scan", "cycle:4", "--source", "0"]):
        code, stdout = _run(argv)
        assert code == EXIT_OK
        out.append(json.loads(stdout))
    return out


_JUNK = [None, True, 0, -1, 1.5, 1e308, -1e308, math.nan, math.inf, "", "x", [], {}, [0.0], [1.0, 0.0]]


class TestTamperedReports:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_validate_report_never_raises(self, reports, data):
        payload = copy.deepcopy(data.draw(st.sampled_from(reports)))
        assert validate_report(payload)
        for _ in range(data.draw(st.integers(1, 3))):
            path, target = data.draw(st.sampled_from(list(_mutations(payload))))
            if isinstance(target, dict) and target:
                key = data.draw(st.sampled_from(sorted(target)))
                if data.draw(st.booleans()):
                    del target[key]
                else:
                    target[key] = copy.deepcopy(data.draw(st.sampled_from(_JUNK)))
            elif isinstance(target, list) and target:
                # truncated, or one item replaced
                if data.draw(st.booleans()):
                    del target[data.draw(st.integers(0, len(target) - 1)) :]
                else:
                    target[data.draw(st.integers(0, len(target) - 1))] = copy.deepcopy(data.draw(st.sampled_from(_JUNK)))
        assert validate_report(payload) in (True, False)
