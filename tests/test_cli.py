"""Command-line behavior: exit codes, determinism, output shape."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from qompress.cli import main, run_claims
from qompress.compress import cost_report, parse_circuit, parse_layout


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

    def test_wrong_heralds_fail_visibly(self):
        claims = run_claims(0, heralds=frozenset({"psi+"}))
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
        "qompress compress",
    ])
    def test_transcript(self, capsys, monkeypatch, command):
        monkeypatch.delenv("QOMPRESS_SEED", raising=False)
        code, out, err = run(capsys, command.split()[1:])
        assert (code, err) == (0, "")
        assert out == readme_transcript(command)
