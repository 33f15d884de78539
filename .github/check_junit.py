"""Pass the Tier-1 run only when its failures are exactly the by-design ones.

Four acceptance checks fail on purpose (see README "Tests"). This reads
pytest's `--junitxml` report and exits 1 if any other test failed or
errored, if one of the four passed, or if the report holds no tests:

    python .github/check_junit.py junit.xml
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

EXPECTED_FAILURES = {
    f"tests.test_acceptance::{name}"
    for name in (
        "test_criterion_6b_adder_standard_cost_target",
        "test_criterion_6c_adder_router_cost_target",
        "test_criterion_6d_adder_teleportation_cost_target",
        "test_criterion_9_scaling_crossover_target",
    )
}


def outcomes(path: str) -> dict[str, str]:
    """Test id -> "passed", "failed" or "skipped"."""
    result = {}
    for case in ET.parse(path).getroot().iter("testcase"):
        test_id = f"{case.get('classname')}::{case.get('name')}"
        if case.find("failure") is not None or case.find("error") is not None:
            result[test_id] = "failed"
        elif case.find("skipped") is not None:
            result.setdefault(test_id, "skipped")
        else:
            result.setdefault(test_id, "passed")
    return result


def problems(results: dict[str, str]) -> list[str]:
    if not results:
        return ["the report holds no tests"]
    found = [f"{t} failed" for t, r in sorted(results.items())
             if r == "failed" and t not in EXPECTED_FAILURES]
    found += [f"{t} was skipped" for t, r in sorted(results.items()) if r == "skipped"]
    found += [f"{t} was expected to fail but {results.get(t, 'did not run')}"
              for t in sorted(EXPECTED_FAILURES) if results.get(t) != "failed"]
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        results = outcomes(argv[0])
    except (OSError, ET.ParseError) as e:
        print(f"error: cannot read the junit report: {e}", file=sys.stderr)
        return 1
    found = problems(results)
    for line in found:
        print(f"error: {line}", file=sys.stderr)
    if found:
        return 1
    passed = sum(r == "passed" for r in results.values())
    print(f"{passed} passed, and only the {len(EXPECTED_FAILURES)} by-design checks failed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
