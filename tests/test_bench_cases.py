"""The case script behind the performance records and CI's large-register
steps: every truth-table case checks every word against the classical
table."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from qompress import compress

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_cases.py"
_SPEC = importlib.util.spec_from_file_location("bench_cases", _SCRIPT)
bench_cases = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_cases)


def run(capsys, *argv) -> tuple[int, dict]:
    code = bench_cases.main(list(argv))
    (line,) = capsys.readouterr().out.splitlines()
    return code, json.loads(line)


@pytest.mark.parametrize("argv", [
    ("ccx_chain", "8", "2", "standard"),
    ("ccx_chain", "8", "2", "state-independent"),
    ("ccx_chain", "9", "3", "standard"),
    ("h_sandwich", "standard"),
    ("h_sandwich", "state-independent"),
    ("sd_crossing_12",),
    ("sd_crossing_14",),
], ids=" ".join)
def test_a_table_case_checks_every_word(capsys, monkeypatch, argv):
    monkeypatch.setattr(bench_cases, "H_SANDWICH_QUBITS", 6)
    code, result = run(capsys, *argv)
    assert code == 0
    assert result["correct"] is True
    assert {"wall_s", "peak_rss_mb"} <= result.keys()


def test_one_wrong_word_fails_the_case(capsys, monkeypatch):
    real = compress.simulate_compressed

    def one_wrong(*args):
        table = real(*args)
        word = (1, 0, 1, 1, 0, 1, 1, 0)
        table[word] = table[word][:-1] + (1 - table[word][-1],)
        return table

    monkeypatch.setattr(compress, "simulate_compressed", one_wrong)
    code, result = run(capsys, "ccx_chain", "8", "2", "standard")
    assert code == 1
    assert result["correct"] is False


def test_a_missing_word_fails_the_check():
    table = {(a, b): (a, b) for a in (0, 1) for b in (0, 1)}
    assert bench_cases.classical(table, 2, ())
    del table[(1, 1)]
    assert not bench_cases.classical(table, 2, ())
