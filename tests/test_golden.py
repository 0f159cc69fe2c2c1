"""Golden outputs: `analyze` payloads, timings removed, and the stdout of
`paper-suite`, pinned to fixtures.

Keys, ints, strings and bools must match exactly; floats match to
rel 1e-9 / abs 1e-12, so a different BLAS build does not trip the test.
The angle zeta matches mod 2pi, as validate_report compares it: -pi and pi
name the same amplitudes, and rounding picks either side of the branch cut.
Regenerate the fixture from a source tree with

    PYTHONPATH=src python tests/test_golden.py

The paper-suite rows carry no float, so their fixture is matched byte for
byte; it is the output of

    PYTHONPATH=src python -m ctqw.cli paper-suite > tests/data/paper_suite.txt
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ctqw import cli
from ctqw.cli import parse_graph_spec, run_analysis
from ctqw.walks import DetectionConfig

FIXTURE = Path(__file__).parent / "data" / "golden_analyze.json"
SUITE_FIXTURE = Path(__file__).parent / "data" / "paper_suite.txt"

#: (spec, run the scan too)
CASES = [
    ("cycle:6", False),
    ("path:4", False),
    ("cocktail:4", False),
    ("cube:3", False),
    ("path:4", True),
    ("cycle:6", True),
    ("cocktail:4", True),
    ("prod(path:3,path:2)", True),
]


def _key(spec: str, scan: bool) -> str:
    return spec + (" --scan" if scan else "")


def _payload(spec: str, scan: bool) -> dict:
    report = run_analysis(parse_graph_spec(spec), DetectionConfig(), do_scan=scan)
    payload = json.loads(report.to_json())
    payload.pop("timing_ms")
    return payload


def _assert_same(got, want, where: str = "$", angle: bool = False) -> None:
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for k in want:
            _assert_same(got[k], want[k], f"{where}.{k}", angle=k == "zeta")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        near = want + math.remainder(got - want, 2 * math.pi) if angle else got
        assert math.isclose(near, want, rel_tol=1e-9, abs_tol=1e-12), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("spec, scan", CASES, ids=[_key(s, c) for s, c in CASES])
def test_analyze_matches_golden(golden, spec, scan):
    _assert_same(_payload(spec, scan), golden[_key(spec, scan)])


@pytest.mark.parametrize("spec, scan", CASES, ids=[_key(s, c) for s, c in CASES])
def test_report_text_is_json_of_its_payload(spec, scan):
    # to_json writes the weights from the array, payload() as lists
    report = run_analysis(parse_graph_spec(spec), DetectionConfig(), do_scan=scan)
    assert report.to_json() == json.dumps(report.payload(), indent=2)


@pytest.mark.parametrize("spec, scan", CASES, ids=[_key(s, c) for s, c in CASES])
def test_certificates_convert_as_jsonify_did(monkeypatch, golden, spec, scan):
    # certificate_to_json builds each dict field by field; the reference is
    # the recursive _jsonify of the certificate's fields, each complex
    # amplitude as its [re, im] pair. json.dumps tells 1 from 1.0 and keeps
    # the key order.
    convert = cli.certificate_to_json
    converted = []

    def recording(cert, graph_name):
        converted.append((cert, graph_name, convert(cert, graph_name)))
        return converted[-1][2]

    monkeypatch.setattr(cli, "certificate_to_json", recording)
    run_analysis(parse_graph_spec(spec), DetectionConfig(), do_scan=scan).payload()
    assert len(converted) == len(golden[_key(spec, scan)]["certificates"])
    for cert, name, got in converted:
        fields = {k: [v.real, v.imag] if isinstance(v, complex) else v for k, v in vars(cert).items()}
        assert json.dumps(got) == json.dumps(cli._jsonify({"graph": name, **fields}))


def test_paper_suite_stdout():
    # a fresh process, as a user runs it: no cache of another test is warm
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "ctqw.cli", "paper-suite"], capture_output=True, env=env, timeout=600, check=False
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == SUITE_FIXTURE.read_bytes()


def test_comparison_is_strict_on_non_floats():
    with pytest.raises(AssertionError):
        _assert_same({"kind": "periodic"}, {"kind": "balanced_fr"})
    with pytest.raises(AssertionError):
        _assert_same([1], [1.0])
    with pytest.raises(AssertionError):
        _assert_same({"a": 1, "b": 2}, {"b": 2, "a": 1})
    _assert_same([0.1 + 1e-12], [0.1])


def test_comparison_takes_zeta_mod_two_pi_only():
    _assert_same({"zeta": -3.14159265359}, {"zeta": 3.14159265359})
    with pytest.raises(AssertionError):
        _assert_same({"zeta": 1.0 + 1e-6}, {"zeta": 1.0})
    with pytest.raises(AssertionError):
        _assert_same({"zeta": 1.0 - math.pi}, {"zeta": 1.0})
    with pytest.raises(AssertionError):
        _assert_same({"gamma": -0.7}, {"gamma": 0.7})
    with pytest.raises(AssertionError):
        _assert_same({"gamma": 3.14159265359 - 2 * math.pi}, {"gamma": 3.14159265359})


if __name__ == "__main__":
    golden = {_key(s, c): _payload(s, c) for s, c in CASES}
    FIXTURE.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {FIXTURE}")
