"""Source rules: each decision below has one home in the library, so a
hand-written copy of it anywhere else in the source fails."""

import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "adhmkit"
BUT_LINALG = [p.name for p in sorted(SRC.glob("*.py")) if p.name != "linalg.py"]
POINT_MODULES = ["hirz.py", "plane.py", "geometry.py"]

# rule -> (pattern no line may match, the files it scans, why)
RULES = {
    "as_int": (
        r"type\([A-Za-z_]+\) is not int", BUT_LINALG,
        "integer arguments are checked by linalg.as_int alone, so that every bad one "
        "raises the same DomainError"),
    "rank_cut": (
        r"count_nonzero\(|_GAP_MIN", BUT_LINALG,
        "every singular-value rank cut and its gap refusal is linalg._rank_cut, so that "
        "one rule decides every rank"),
    "whole_values": (
        r"(mats_close|rel_err)\([^)]*\.(A1|A2|A2m|B|C|E|b1|b2|e)\b", POINT_MODULES,
        "closeness at eq_rel_tol is linalg.rel_err / mats_close on whole values (one "
        "field walk, one floor-1 scale), never on fields handed over one by one"),
    "residual": (
        r"norm\([^)]*\)+ */|> 0(\.0)? else 0\.0", POINT_MODULES,
        "every relative residual is linalg._residual (|diff| over its scale, nan when the "
        "scale over- or underflows), reached through report._residual_check; a zero scale "
        "is never read as residual 0.0"),
    "stdlib_json": (
        r"Out of range float|keys must be str|is not JSON serializable", ["serialize.py"],
        "serialize.dumps renders only what the library writes and hands any other input "
        "to json.dumps, so the stdlib's messages are never copied into it"),
}


@pytest.mark.parametrize("rule", RULES)
def test_source_rule(rule):
    pattern, files, why = RULES[rule]
    hits = [f"{name}:{number}: {line.strip()}" for name in files
            for number, line in enumerate((SRC / name).read_text().splitlines(), 1)
            if re.search(pattern, line)]
    assert hits == [], why
