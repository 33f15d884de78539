"""Command-line behavior: exit codes, determinism, output shape."""

from __future__ import annotations

import io
import json
import math
import re
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qompress import cli, schemes
from qompress.cli import _sci_text, main, run_claims
from qompress.compress import cost_report, parse_circuit, parse_layout
from qompress.exact import BsmModel


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_default_configuration_passes(self, capsys):
        code, out, _ = run(capsys, ["verify"])
        assert code == 0
        assert "1/8" in out
        assert "PASS" in out

    def test_state_independent_probability(self, capsys):
        code, out, _ = run(capsys, ["verify", "--scheme", "state-independent"])
        assert code == 0
        assert "1/1024" in out

    def test_ideal_model(self, capsys):
        code, out, _ = run(capsys, ["verify", "--model", "ideal", "--d1", "4", "--c1", "2"])
        assert code == 0
        assert "1/4" in out

    def test_invalid_trigger_set_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["verify", "--c1", "0,1", "--d1", "2"])
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("flag", ["--d1", "--d2"])
    @pytest.mark.parametrize("dim", [0, 1, -3])
    def test_dimension_below_two_is_usage_error(self, capsys, flag, dim):
        code, out, err = run(capsys, ["verify", flag, str(dim)])
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must be at least 2, got {dim}\n"

    def test_trials_flag_sets_the_input_count(self, capsys):
        code, out, _ = run(capsys, ["verify", "--trials", "3"])
        assert code == 0
        assert "min branch fidelity over 3 random inputs" in out
        code, out, _ = run(capsys, ["verify", "--trials", "7", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 7
        assert sum(payload["sampled_outcomes"].values()) == 7

    def test_trials_defaults_to_twenty(self, capsys):
        _, default, _ = run(capsys, ["verify", "--format", "json"])
        _, explicit, _ = run(capsys, ["verify", "--format", "json", "--trials", "20"])
        assert json.loads(default)["trials"] == 20
        assert default == explicit

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_below_one_is_usage_error(self, capsys, trials):
        code, out, err = run(capsys, ["verify", "--trials", str(trials)])
        assert code == 2
        assert out == ""
        assert err == f"error: --trials must be at least 1, got {trials}\n"

    def test_malformed_trigger_list(self, capsys):
        code, _, err = run(capsys, ["verify", "--c1", "1,x"])
        assert code == 2
        assert "--c1" in err

    def test_json_is_byte_identical_across_runs(self, capsys):
        code, first, _ = run(capsys, ["verify", "--format", "json", "--seed", "5"])
        assert code == 0
        code, second, _ = run(capsys, ["verify", "--format", "json", "--seed", "5"])
        assert code == 0
        assert first == second
        payload = json.loads(first)
        assert payload["passed"] is True
        assert payload["success_probability"]["fraction"] == "1/8"
        assert payload["success_probability"]["float"] == 0.125
        assert payload["seed"] == 5

    def test_seed_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QOMPRESS_SEED", "99")
        _, out, _ = run(capsys, ["verify", "--format", "json", "--seed", "3"])
        assert json.loads(out)["seed"] == 3

    def test_env_overrides_default(self, capsys, monkeypatch):
        monkeypatch.setenv("QOMPRESS_SEED", "99")
        _, out, _ = run(capsys, ["verify", "--format", "json"])
        assert json.loads(out)["seed"] == 99

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("QOMPRESS_SEED", "lots")
        code, _, err = run(capsys, ["verify"])
        assert code == 2
        assert "QOMPRESS_SEED" in err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--frobnicate"])
        assert exc.value.code == 2

    def test_reference_gate_is_a_sign_multiply(self, capsys):
        # a dense reference matrix on 1024x2 levels alone would be 64 MiB
        tracemalloc.start()
        try:
            code = main(["verify", "--scheme", "state-independent", "--d1", "1024", "--trials", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("module, stage, argv", [
        # verify imports the scheme from its home module when it runs
        (schemes, "run_state_independent_joint", ["verify", "--scheme", "state-independent"]),
        (cli, "cost_report", ["compress"]),
    ], ids=["verify", "compress"])
    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 14.6 TiB for an array", "Unable to allocate 14.6 TiB for an array"),
        ("", "out of memory"),
    ], ids=["numpy", "bare"])
    def test_memory_error_is_usage_error(
        self, capsys, monkeypatch, module, stage, argv, message, shown
    ):
        # stands in for a register too large to allocate, without allocating it
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(module, stage, exhausted)
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {shown}\n"

    @pytest.mark.parametrize("dims", [
        ["--d1", "99999999999999999999"],  # past numpy's largest dimension
        ["--d1", "4611686018427387904", "--d2", "4"],  # 2^64 amplitudes
    ], ids=["dimension", "size"])
    def test_register_past_the_address_range_is_usage_error(self, capsys, dims):
        # refused before anything is allocated, with one error line
        code, out, err = run(capsys, ["verify", *dims])
        assert code == 2
        assert out == ""
        assert re.fullmatch(r"error: a \d+x\d+ register needs more bytes than an array can address\n", err)


class TestCompress:
    def test_bundled_adder(self, capsys):
        code, out, _ = run(capsys, ["compress"])
        assert code == 0
        assert "uncompressed" in out and "state-independent" in out

    def test_bundled_adder_json(self, capsys):
        code, out, _ = run(capsys, ["compress", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        rows = {r["backend"]: r for r in payload["rows"]}
        assert rows["uncompressed"]["gate_count"] == 9
        assert rows["uncompressed"]["success_probability"]["fraction"] == "1/387420489"
        assert rows["standard"]["gate_count"] == 4
        assert rows["state-dependent"]["legal"] is False
        assert rows["state-independent"]["gate_count"] == 6
        gate_c = payload["nonlocal_gates"][1]
        assert gate_c["first_triggers"] == [3, 7]
        assert gate_c["second_triggers"] == [1]

    def test_files(self, capsys, tmp_path):
        circuit = tmp_path / "c.json"
        layout = tmp_path / "l.json"
        circuit.write_text(json.dumps({"qubits": 1, "gates": []}))
        layout.write_text(json.dumps({"groups": [[0]]}))
        code, out, _ = run(capsys, ["compress", str(circuit), str(layout), "--format", "json"])
        assert code == 0
        for row in json.loads(out)["rows"]:
            assert row["success_probability"]["fraction"] == "1/1"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_fraction_beyond_the_int_digit_limit(self, capsys, tmp_path, fmt):
        # the standard row, 1/9^8192, has more digits than CPython turns
        # into text by default
        circuit = tmp_path / "c.json"
        layout = tmp_path / "l.json"
        circuit.write_text(json.dumps({"qubits": 15, "gates": [{"kind": "cx", "operands": [0, 14]}]}))
        layout.write_text(json.dumps({"groups": [list(range(13)), [13, 14]]}))
        code, out, err = run(capsys, ["compress", str(circuit), str(layout), "--format", fmt])
        assert (code, err) == (0, "")
        # the test cannot print 9^8192 either, so it checks the digit count
        # and the last digits
        (standard,) = re.findall(r"1/(\d{5000,})", out)
        assert len(standard) == math.floor(8192 * math.log10(9)) + 1
        assert standard.endswith(f"{pow(9, 8192, 10**20):020d}")

    def test_probabilities_below_the_smallest_double_keep_their_magnitude(self, capsys, tmp_path):
        circuit = tmp_path / "c.json"
        layout = tmp_path / "l.json"
        circuit.write_text(json.dumps({"qubits": 15, "gates": [{"kind": "cx", "operands": [0, 14]}]}))
        layout.write_text(json.dumps({"groups": [list(range(13)), [13, 14]]}))
        code, out, _ = run(capsys, ["compress", str(circuit), str(layout)])
        assert code == 0
        rows = {line.split()[0]: line for line in out.splitlines()[2:]}
        # 1/9^8192 and 1/(2·16^4098)
        assert rows["standard"].endswith(" (7.004e-7818)        0  True")
        assert rows["state-independent"].endswith(" (6.858e-3702)     8198  True")
        assert rows["uncompressed"].endswith(" (1.111e-01)        0  True")
        code, out, _ = run(capsys, ["compress", str(circuit), str(layout), "--format", "json"])
        floats = {r["backend"]: r["success_probability"]["float"] for r in json.loads(out)["rows"]}
        # JSON keeps an IEEE double, which reads 0.0 this far down
        assert floats["standard"] == floats["state-independent"] == 0.0

    @pytest.mark.parametrize("f", [
        Fraction(1, 9), Fraction(1, 6561), Fraction(1, 1048576), Fraction(0), Fraction(1),
        Fraction(99995, 10**5), Fraction(1, 3 * 10**300), Fraction(1, 10**310), Fraction(7, 10**323),
    ])
    def test_sci_text_matches_float_wherever_a_double_holds_the_value(self, f):
        assert _sci_text(f) == f"{float(f):.3e}"

    @pytest.mark.parametrize("f, text", [
        (Fraction(1, 10**400), "1.000e-400"),
        (Fraction(99995, 10**405), "1.000e-400"),
        (Fraction(99985, 10**405), "9.998e-401"),
        (Fraction(12345678, 10**1007), "1.235e-1000"),
    ])
    def test_sci_text_rounds_an_underflowing_value_exactly(self, f, text):
        assert _sci_text(f) == text

    def test_malformed_json_mentions_line(self, capsys, tmp_path):
        circuit = tmp_path / "c.json"
        layout = tmp_path / "l.json"
        circuit.write_text("{\n  broken\n}")
        layout.write_text(json.dumps({"groups": [[0]]}))
        code, _, err = run(capsys, ["compress", str(circuit), str(layout)])
        assert code == 2
        assert "line" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["compress", str(tmp_path / "no.json"), str(tmp_path / "no2.json")])
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("qubits, gates, groups", [
        (4, [["mcx", [0, 1, 2, 3]]], [[0, 1], [2, 3]]),
        (6, [["ccx", [0, 2, 4]]], [[0, 1], [2, 3], [4, 5]]),
        (4, [["cx", [0, 3]]], [[0, 1]]),
    ], ids=["mcx", "three-groups", "uncovered"])
    def test_unpriceable_circuit_is_usage_error(self, capsys, tmp_path, qubits, gates, groups):
        circuit_text = json.dumps(
            {"qubits": qubits, "gates": [{"kind": k, "operands": o} for k, o in gates]}
        )
        layout_text = json.dumps({"groups": groups})
        with pytest.raises(ValueError) as exc:
            cost_report(parse_circuit(circuit_text), parse_layout(layout_text))
        circuit = tmp_path / "c.json"
        layout = tmp_path / "l.json"
        circuit.write_text(circuit_text)
        layout.write_text(layout_text)
        code, out, err = run(capsys, ["compress", str(circuit), str(layout)])
        assert code == 2
        assert out == ""
        assert err == f"error: {exc.value}\n"

    @pytest.mark.parametrize("which", ["circuit", "layout"])
    def test_non_utf8_file_is_usage_error(self, capsys, tmp_path, which):
        paths = {"circuit": tmp_path / "c.json", "layout": tmp_path / "l.json"}
        paths["circuit"].write_text(json.dumps({"qubits": 1, "gates": []}))
        paths["layout"].write_text(json.dumps({"groups": [[0]]}))
        paths[which].write_bytes(b'{"groups": [[0]]}\xff')
        code, out, err = run(capsys, ["compress", str(paths["circuit"]), str(paths["layout"])])
        assert code == 2
        assert out == ""
        assert err == f"error: {paths[which]} is not UTF-8 text: invalid start byte at byte 17\n"

    def test_single_path_rejected(self, capsys, tmp_path):
        circuit = tmp_path / "c.json"
        circuit.write_text(json.dumps({"qubits": 1, "gates": []}))
        code, _, err = run(capsys, ["compress", str(circuit)])
        assert code == 2
        assert "both" in err


class TestReproduce:
    def test_all_claims_pass(self, capsys):
        code, out, _ = run(capsys, ["reproduce"])
        assert code == 0
        assert "FAIL" not in out
        assert "claims hold" in out

    def test_json_deterministic(self, capsys):
        code, first, _ = run(capsys, ["reproduce", "--format", "json", "--seed", "11"])
        assert code == 0
        _, second, _ = run(capsys, ["reproduce", "--format", "json", "--seed", "11"])
        assert first == second
        payload = json.loads(first)
        assert payload["passed"] is True
        assert len(payload["claims"]) >= 15
        names = [c["name"] for c in payload["claims"]]
        assert "state-dependent success probability" in names

    def test_wrong_heralds_fail_visibly(self, monkeypatch):
        # a passive analyzer that heralds one label makes the probability claims fail
        wrong = BsmModel(frozenset({"psi+"}))
        monkeypatch.setattr(BsmModel, "linear_optics", classmethod(lambda cls: wrong))
        claims = run_claims(0)
        by_name = {c.name: c for c in claims}
        claim = by_name["state-dependent success probability"]
        assert not claim.passed
        assert claim.expected == "1/8"
        assert claim.computed == "1/16"
        ladder = by_name["state-independent success probability, two plus one triggers"]
        assert not ladder.passed

    def test_default_heralds_all_pass(self):
        assert all(c.passed for c in run_claims(0))


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_transcript(command: str) -> str:
    """The output the README shows under `$ <command>` in a fenced block."""
    block = README.read_text().split(f"```\n$ {command}\n", 1)[1]
    return block.split("```\n", 1)[0]


class TestReadmeTranscripts:
    """The README's transcripts are the CLI's output byte for byte, so
    they also pin the printed fidelity digits."""

    @pytest.mark.parametrize("command", [
        "qompress verify --d1 8 --d2 2 --c1 3,7 --c2 1 --scheme state-dependent",
        "qompress verify --d1 8 --d2 2 --c1 3,7 --c2 1 --scheme state-independent",
        "qompress compress",
        "qompress reproduce",
    ])
    def test_transcript(self, capsys, monkeypatch, command):
        monkeypatch.delenv("QOMPRESS_SEED", raising=False)
        code, out, err = run(capsys, command.split()[1:])
        assert (code, err) == (0, "")
        assert out == readme_transcript(command)


@pytest.mark.parametrize("command", ["verify", "reproduce"])
@pytest.mark.parametrize("source", ["--seed", "QOMPRESS_SEED"])
def test_negative_seed_is_usage_error(capsys, monkeypatch, command, source):
    argv = [command]
    if source == "--seed":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv("QOMPRESS_SEED", "-1")
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {source} must be non-negative, got -1\n"


_ARITIES = {"h": 1, "x": 1, "z": 1, "cx": 2, "cz": 2, "ccx": 3, "ccz": 3, "mcx": None, "mcz": None}
_HUGE = "1" + "0" * 5000
_DEFECTS = [
    None, "variadic", "three-groups", "extra-key", "missing-key", "gate-key", "operand", "kind",
    "qubits", "huge-int", "uncovered", "repeated", "empty-group", "top-level", "deep", "truncated",
]


@st.composite
def compress_documents(draw, defect: str | None):
    """A circuit and layout document pair as text. With no defect, or with
    an unpriceable gate (mcx/mcz, a gate over three groups), the pair
    parses; every other defect breaks one document."""
    n = draw(st.integers(3 if defect == "three-groups" else 1, 6))
    order = draw(st.permutations(range(n)))
    # two groups at most, so that only the defects below make a pair unpriceable
    if defect == "three-groups":
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=2, max_size=2)))
    else:
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=1))) if n > 1 else []
    groups = [list(order[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
    gates = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from([k for k, arity in _ARITIES.items() if arity]))
        if _ARITIES[kind] <= n:
            gates.append({"kind": kind, "operands": draw(st.permutations(range(n)))[: _ARITIES[kind]]})
    if defect == "variadic":
        gates.insert(draw(st.integers(0, len(gates))), {"kind": draw(st.sampled_from(["mcx", "mcz"])),
                                                        "operands": list(order[: max(2, n)])[:n]})
    elif defect == "three-groups":
        gates.append({"kind": "ccx", "operands": [g[0] for g in groups]})
    circuit, layout = {"qubits": n, "gates": gates}, {"groups": groups}
    if defect == "extra-key":
        circuit["note"] = 1
    elif defect == "missing-key":
        del layout["groups"]
    elif defect == "gate-key":
        gates.append({"kind": "h", "operands": [0], "target": 0})
    elif defect == "operand":
        gates.append({"kind": "h", "operands": [draw(st.sampled_from([0.5, "0", True, None, [0], -1, n]))]})
    elif defect == "kind":
        gates.append({"kind": draw(st.sampled_from(["swap", "", "CX", 3, None])), "operands": [0]})
    elif defect == "qubits":
        circuit["qubits"] = draw(st.sampled_from([0, -2, "3", 2.0, None, n + 1]))
    elif defect == "uncovered":
        groups[-1] = groups[-1][1:]
    elif defect == "repeated":
        groups[0] = groups[0] + groups[0][:1]
    elif defect == "empty-group":
        groups.insert(draw(st.integers(0, len(groups))), [])
    texts = [json.dumps(circuit), json.dumps(layout)]
    side = draw(st.integers(0, 1))
    if defect == "huge-int":
        # json.dumps cannot write an integer this long, so it goes in as text
        texts[side] = re.sub(r"\d+", _HUGE, texts[side], count=1)
    elif defect == "top-level":
        texts[side] = draw(st.sampled_from(["[]", "3", '"x"', "null", "{}", ""]))
    elif defect == "deep":
        depth = draw(st.integers(1000, 20000))
        texts[side] = "[" * depth + "]" * depth
    elif defect == "truncated":
        texts[side] = texts[side][: draw(st.integers(0, len(texts[side]) - 1))]
    return tuple(texts)


def _compress_once(circuit: Path, layout: Path, fmt: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["compress", str(circuit), str(layout), "--format", fmt])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("defect", _DEFECTS, ids=lambda d: d or "valid")
def test_compress_exits_0_or_2_and_json_is_byte_identical(defect):
    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @given(compress_documents(defect))
    def check(documents):
        with tempfile.TemporaryDirectory() as tmp:
            circuit, layout = Path(tmp) / "c.json", Path(tmp) / "l.json"
            circuit.write_text(documents[0])
            layout.write_text(documents[1])
            first, second = (_compress_once(circuit, layout, "json") for _ in range(2))
            text = _compress_once(circuit, layout, "text")
        assert first == second
        for code, out, err in (first, text):
            assert code == (0 if defect is None else 2)
            if code == 0:
                assert err == "" and out
            else:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        if defect is None:
            assert json.loads(first[1])["command"] == "compress"

    check()
