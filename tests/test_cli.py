import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from adhmkit import cli
from adhmkit.hirz import chart_coords, hirz_adhm
from adhmkit.plane import act_gl, plane_adhm
from adhmkit.propsuite import GenConfig, gen_hirz_valid, gen_plane_valid
from adhmkit.serialize import dumps, load_path, loads

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    payload = json.loads(out) if out.strip() else None
    return code, payload


def g(name):
    return str(GOLDEN / name)


def test_validate_golden_verdicts(capsys):
    code, payload = run(capsys, "validate", g("hirz_valid_n2c2.json"))
    assert code == 0
    assert payload["passed"] is True
    assert any(c["name"] == "pencil_nondegenerate" for c in payload["checks"])
    for bad in ("hirz_bad_p1.json", "hirz_bad_p2.json", "hirz_bad_p3.json"):
        code, payload = run(capsys, "validate", g(bad))
        assert code == 1, bad
        assert payload["passed"] is False


def test_validate_malformed_inputs(capsys):
    for name in ("malformed_not_json.json", "malformed_kind.json",
                 "malformed_badnum.json", "malformed_c_mismatch.json"):
        code, payload = run(capsys, "validate", g(name))
        assert code == 2, name
        assert payload["error"] == "parse"
        assert payload["path"]


def test_validate_size_and_nesting_errors(capsys, tmp_path):
    data = json.loads(pathlib.Path(g("hirz_valid_n2c2.json")).read_text())
    cases = {"n0.json": (json.dumps(dict(data, n=0)), "/n", "n must be >= 1"),
             "c0.json": (json.dumps(dict(data, c=0)), "/c", "c must be >= 1"),
             "deep.json": ("[" * 100_000, "", "invalid JSON: ")}
    for name, (text, suffix, detail) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        code, payload = run(capsys, "validate", str(path))
        assert code == 2 and payload["error"] == "parse", name
        assert payload["path"] == str(path) + suffix and payload["detail"].startswith(detail)


def test_validate_indeterminate_pencil(capsys, tmp_path):
    a1 = np.diag([1.0 + 0j, 1e-20])
    d = hirz_adhm(1, 2, a1, 2.0 * a1, (np.eye(2, dtype=complex),),
                  np.ones(2, dtype=complex))
    path = tmp_path / "tiny.json"
    path.write_text(dumps(d))
    code, payload = run(capsys, "validate", str(path))
    assert code == 2
    assert payload["passed"] is False
    # its chart set is empty but its pencil is not certainly degenerate, so
    # the commands that need a valid point refuse it as uncertified
    for command in ("support", "support --m 0", "canonical", "hilbert-chow"):
        name, *opts = command.split()
        code, payload = run(capsys, name, str(path), *opts)
        assert code == 2 and payload["error"] == "indeterminate", (command, payload)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow itself
def test_validate_overflowing_residual_is_indeterminate(capsys, tmp_path):
    # the intertwining residuals overflow to inf / inf = nan on this finite input
    d = gen_hirz_valid(GenConfig(seed=3, n=2, c=3))
    s = 1e160
    big = hirz_adhm(d.n, d.c, d.A1 * s, d.A2 * s, tuple(x * s for x in d.C), d.e)
    path = tmp_path / "big.json"
    path.write_text(dumps(big))
    code, payload = run(capsys, "validate", str(path))
    assert code == 2
    assert payload["passed"] is False and payload["indeterminate"] is True
    assert all("residual" not in c for c in payload["checks"] if c["verdict"] != "pass")


def _failing_conditions(payload):
    # the direct route reports co-stability as costability_direct plus one check per root
    return {"costability" if c["name"].startswith(("costability", "root_")) else c["name"]
            for c in payload["checks"] if c["verdict"] == "fail"}


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("hirz_*.json")))
def test_validate_p3_method_both(capsys, name):
    # every co-stability route gives the same exit code and the same failing conditions
    outcomes = {}
    for method in ("chart", "direct", "both"):
        code, payload = run(capsys, "validate", g(name), "--p3-method", method)
        assert "error" not in payload, payload
        outcomes[method] = code, _failing_conditions(payload)
    assert outcomes["direct"] == outcomes["both"] == outcomes["chart"], outcomes
    assert outcomes["chart"][0] == (1 if name.startswith("hirz_bad") else 0)
    if outcomes["both"][0] == 0:  # payload is the last run, "both"
        names = [c["name"] for c in payload["checks"]]
        assert "costability" in names and "costability_direct" in names
        assert len(names) == len(set(names)), names


def test_validate_wrong_kind(capsys):
    code, payload = run(capsys, "validate", g("plane_valid_c2.json"))
    assert code == 2
    assert payload["error"] == "kind"


def test_validate_plane_goldens(capsys):
    code, payload = run(capsys, "validate-plane", g("plane_valid_c2.json"))
    assert code == 0 and payload["passed"]
    code, payload = run(capsys, "validate-plane", g("plane_bad_t1.json"))
    assert code == 1 and not payload["passed"]


@pytest.mark.parametrize("cmd,name", [("validate", "hirz_bad_p1.json"),
                                      ("validate-plane", "plane_bad_t1.json")])
def test_failing_report_is_not_indeterminate(capsys, cmd, name):
    # co-stability is refused as indeterminate once an earlier check fails,
    # and that refusal printed "indeterminate": true beside "passed": false
    code, payload = run(capsys, cmd, g(name))
    assert code == 1
    assert payload["passed"] is False and payload["indeterminate"] is False


@pytest.mark.parametrize("name,want", [("hirz_valid_n2c2.json", 0), ("hirz_bad_p1.json", 1)])
def test_closed_stdout_keeps_the_exit_code(name, want):
    # `adhmkit validate p.json | head -1`: printing into the closed pipe
    # raised, the error handler printed into it again, and the process
    # exited 1 with a BrokenPipeError traceback
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "adhmkit.cli", "validate", g(name)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=src))
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == want
    assert err == b""


def test_chart_set(capsys):
    code, payload = run(capsys, "chart-set", g("hirz_valid_n2c2.json"))
    assert code == 0
    charts = payload["charts"]
    assert charts and all(0 <= m <= 2 for m in charts)


def test_to_chart_bad_index_is_domain_error(capsys):
    code, payload = run(capsys, "to-chart", g("hirz_valid_n2c2.json"), "--m", "99")
    assert code == 2
    assert payload["error"] == "domain"


def test_chart_roundtrip_through_files(capsys, tmp_path):
    chart_path = tmp_path / "cc.json"
    code, payload = run(capsys, "chart-set", g("hirz_valid_n2c2.json"))
    m = payload["charts"][0]
    code, _ = run(capsys, "to-chart", g("hirz_valid_n2c2.json"), "--m", str(m),
                  "--out", str(chart_path))
    assert code == 0
    back_path = tmp_path / "back.json"
    code, _ = run(capsys, "from-chart", str(chart_path), "--out", str(back_path))
    assert code == 0
    orig = load_path(g("hirz_valid_n2c2.json"))
    back = load_path(str(back_path))
    assert np.allclose(orig.A1, back.A1, atol=1e-10)
    assert np.allclose(orig.A2, back.A2, atol=1e-10)
    assert all(np.allclose(x, y, atol=1e-10) for x, y in zip(orig.C, back.C))


def test_transition_frozen_scalar(capsys, tmp_path):
    cc = chart_coords(1, 1, 1, np.array([[2.0 + 0j]]), np.array([[5.0 + 0j]]),
                      np.array([7.0 + 0j]), np.array([[3.0 + 0j]]))
    path = tmp_path / "cc.json"
    path.write_text(dumps(cc))
    code, payload = run(capsys, "transition", str(path), "--l", "0")
    assert code == 0
    assert payload["m"] == 0
    assert payload["B"][0][0] == pytest.approx([-0.5, 0.0])
    assert payload["E"][0][0] == pytest.approx([-10.0, 0.0])
    assert payload["A2m"][0][0] == pytest.approx([-6.0, 0.0])


def test_transition_plane_command(capsys, tmp_path):
    p = plane_adhm([[2.0 + 0j]], [[5.0 + 0j]], [7.0 + 0j])
    path = tmp_path / "p.json"
    path.write_text(dumps(p))
    code, payload = run(capsys, "transition-plane", str(path),
                        "--m", "1", "--l", "0", "--n", "1", "--cbase", "1")
    assert code == 0
    assert payload["b1"][0][0] == pytest.approx([-0.5, 0.0])
    assert payload["b2"][0][0] == pytest.approx([-10.0, 0.0])


def test_canonical_dispatches_on_kind(capsys):
    code, payload = run(capsys, "canonical", g("plane_valid_c2.json"))
    assert code == 0
    assert "gauge" in payload and payload["point"]["kind"] == "plane_adhm"
    code, payload = run(capsys, "canonical", g("hirz_valid_n2c2.json"))
    assert code == 0
    assert "chart" in payload and payload["point"]["kind"] == "hirz_adhm"


def test_orbit_equal_exit_codes(capsys, tmp_path):
    code, payload = run(capsys, "orbit-equal", g("hirz_valid_n2c2.json"),
                        g("hirz_valid_n2c2_gauged.json"))
    assert code == 0 and payload["equal"] is True
    code, payload = run(capsys, "orbit-equal", g("hirz_valid_n2c2.json"),
                        g("hirz_valid_n2c2_other.json"))
    assert code == 1 and payload["equal"] is False
    code, payload = run(capsys, "orbit-equal", g("hirz_valid_n2c2.json"),
                        g("plane_valid_c2.json"))
    assert code == 2 and payload["error"] == "kind"
    d = load_path(g("plane_valid_c2.json"))
    moved, other = tmp_path / "moved.json", tmp_path / "other.json"
    moved.write_text(dumps(act_gl(d, np.array([[2.0, 1j], [0.5, 1.0]]))))
    other.write_text(dumps(gen_plane_valid(GenConfig(seed=3, c=2))))
    code, payload = run(capsys, "orbit-equal", g("plane_valid_c2.json"), str(moved))
    assert code == 0 and payload["equal"] is True
    code, payload = run(capsys, "orbit-equal", g("plane_valid_c2.json"), str(other))
    assert code == 1 and payload["equal"] is False


def test_support_and_chart_pairs(capsys):
    code, payload = run(capsys, "support", g("hirz_valid_n2c2.json"))
    assert code == 0
    assert sum(entry["multiplicity"] for entry in payload["base"]) == 2
    code2, payload2 = run(capsys, "chart-set", g("hirz_valid_n2c2.json"))
    m = payload2["charts"][0]
    code3, payload3 = run(capsys, "support", g("hirz_valid_n2c2.json"), "--m", str(m))
    assert code3 == 0
    assert payload3["chart"]["m"] == m
    assert len(payload3["chart"]["pairs"]) == 2


def test_hilbert_chow_normalization(capsys):
    code, payload = run(capsys, "hilbert-chow", g("hirz_valid_n2c2.json"))
    assert code == 0
    assert payload["degree"] == 2
    mags = [abs(complex(re, im)) for re, im in payload["form"]]
    assert max(mags) == pytest.approx(1.0)
    assert sum(e["multiplicity"] for e in payload["cycle"]) == 2


def test_sigma_frozen(capsys):
    code, payload = run(capsys, "sigma", "--h", "2", "--m", "1", "--cbase", "1")
    assert code == 0
    assert payload["entries"] == [[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]]


def test_rank_and_dimension_commands(capsys):
    code, payload = run(capsys, "syst-rank", g("hirz_valid_n2c2.json"))
    assert code == 0 and payload["rank"] == payload["expected"] == 4
    code, payload = run(capsys, "jacobian-dim", g("hirz_valid_n2c2.json"))
    assert code == 0 and payload["nullity"] == payload["expected"] == 12
    assert payload["orbit_dim"] == 4


def test_syst_rank_without_gap_is_indeterminate(capsys, tmp_path):
    # A1's singular values 1e-8 and 1e-10 straddle the rank cut at 1e-9
    d = hirz_adhm(2, 3, np.diag([1.0, 1e-8, 1e-10]), np.zeros((3, 3)),
                  (np.eye(3), np.eye(3)), np.ones(3))
    path = tmp_path / "gapless.json"
    path.write_text(dumps(d))
    code, payload = run(capsys, "syst-rank", str(path))
    assert code == 2 and payload["error"] == "indeterminate"
    assert payload["detail"].startswith("syst_rank: no clear spectral gap")


@pytest.mark.parametrize("name", ["hirz_bad_p1.json", "hirz_bad_p2.json", "hirz_bad_p3.json"])
def test_jacobian_dim_refuses_broken_points(capsys, name):
    code, payload = run(capsys, "jacobian-dim", g(name))
    assert code == 2
    assert payload["error"] == "invalid_point"
    assert payload["detail"] == "jacobian_nullity: input is not a valid point"


def test_c1_pipeline(capsys, tmp_path):
    lifted = tmp_path / "lifted.json"
    code, payload = run(capsys, "c1-from-ytilde", g("ytilde_n2.json"), "--n", "2",
                        "--out", str(lifted))
    assert code == 0
    code, payload = run(capsys, "c1-to-tot", str(lifted))
    assert code == 0
    assert payload["kind"] == "tot_point"
    y = load_path(g("ytilde_n2.json"))
    u1 = complex(*payload["u1"])
    u2 = complex(*payload["u2"])
    assert abs(u1 - y.x1 * y.y2) < 1e-12
    assert abs(u2 - y.x2 * y.y1) < 1e-12


def test_property_run_small(capsys):
    code, payload = run(capsys, "property-run", "--samples", "2",
                        "--max-n", "2", "--max-c", "2", "--filter", "sigma")
    assert code == 0
    assert payload["passed"] is True
    assert all(p["cases"] > 0 for p in payload["properties"])


def test_property_run_vacuous_warns(capsys):
    code, payload = run(capsys, "property-run", "--samples", "0")
    assert code == 0
    assert "vacuous" in payload["warning"]
    assert all(p["cases"] == 0 for p in payload["properties"])


def test_property_run_negative_seed_is_domain_error(capsys):
    # run_suite passed the seed on to numpy, whose ValueError printed "internal"
    code, payload = run(capsys, "property-run", "--seed", "-5", "--samples", "0")
    assert code == 2 and payload["error"] == "domain"
    assert payload["detail"] == "run_suite: seed must be an integer >= 0, got -5"


def test_env_tolerance_rejected_when_malformed(capsys, monkeypatch):
    monkeypatch.setenv("ADHMKIT_TOL", "rank=notanumber")
    code, payload = run(capsys, "chart-set", g("hirz_valid_n2c2.json"))
    assert code == 2 and payload["error"] == "config"
    monkeypatch.setenv("ADHMKIT_TOL", "bogus_key=1e-9")
    code, payload = run(capsys, "chart-set", g("hirz_valid_n2c2.json"))
    assert code == 2 and payload["error"] == "config"
    monkeypatch.setenv("ADHMKIT_TOL", "rank")
    code, payload = run(capsys, "chart-set", g("hirz_valid_n2c2.json"))
    assert code == 2 and payload["error"] == "config"


def test_env_tolerance_applies(capsys, monkeypatch):
    monkeypatch.setenv("ADHMKIT_TOL", "rank=1e-9,eq=1e-8,root=1e-6")
    code, payload = run(capsys, "validate", g("hirz_valid_n2c2.json"))
    assert code == 0 and payload["passed"]


def test_tol_flags_accepted(capsys):
    code, payload = run(capsys, "validate", g("hirz_valid_n2c2.json"),
                        "--tol.eq", "1e-6", "--tol.rank", "1e-8", "--tol.root", "1e-5")
    assert code == 0


def test_stdin_input(capsys, monkeypatch):
    text = open(g("plane_valid_c2.json")).read()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, payload = run(capsys, "validate-plane", "-")
    assert code == 0 and payload["passed"]


def test_stdin_invalid_json(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("{nope"))
    code, payload = run(capsys, "validate-plane", "-")
    assert code == 2 and payload["error"] == "parse" and payload["path"] == "stdin"
    assert payload["detail"].endswith("line 1 column 2 (char 1)")


def test_int_beyond_float_range_is_parse_error(capsys, tmp_path):
    data = json.loads(open(g("plane_valid_c2.json")).read())
    data["b1"][0][0][0] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    code, payload = run(capsys, "validate-plane", str(path))
    assert code == 2 and payload["error"] == "parse"
    assert payload["path"].endswith("/b1[0][0]")


def test_unknown_command_exits_2(capsys):
    code = cli.main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_missing_file_is_parse_error(capsys):
    code, payload = run(capsys, "validate", "/nonexistent/file.json")
    assert code == 2 and payload["error"] == "parse"


def test_out_flag_writes_file_not_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = cli.main(["validate", g("hirz_valid_n2c2.json"), "--out", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == ""
    assert json.loads(target.read_text())["passed"] is True


@pytest.mark.parametrize("where", ["missing/x.json", "."])
def test_unwritable_out_is_an_output_error(capsys, tmp_path, where):
    # open() raised FileNotFoundError or IsADirectoryError, printed as "internal"
    target = str(tmp_path / where)
    code, payload = run(capsys, "validate", g("hirz_valid_n2c2.json"), "--out", target)
    assert code == 2
    assert payload["error"] == "output" and payload["path"] == target
    assert payload["detail"].startswith("cannot write output: ")


# every subcommand that reads files: (argv after the command, its inputs, inputs of a wrong kind)
FILE_COMMANDS = [
    ("validate", [], ["hirz_valid_n2c2.json"], ["plane_valid_c2.json"]),
    ("validate-plane", [], ["plane_valid_c2.json"], ["hirz_valid_n2c2.json"]),
    ("chart-set", [], ["hirz_valid_n2c2.json"], ["chart_n2c2.json"]),
    ("to-chart", ["--m", "0"], ["hirz_valid_n2c2.json"], ["plane_valid_c2.json"]),
    ("from-chart", [], ["chart_n2c2.json"], ["hirz_valid_n2c2.json"]),
    ("transition", ["--l", "0"], ["chart_n2c2.json"], ["plane_valid_c2.json"]),
    ("transition-plane", ["--m", "1", "--l", "0", "--n", "1", "--cbase", "1"],
     ["plane_valid_c2.json"], ["chart_n2c2.json"]),
    ("canonical", [], ["hirz_valid_n2c2.json"], ["chart_n2c2.json"]),
    ("orbit-equal", [], ["hirz_valid_n2c2.json", "hirz_valid_n2c2_gauged.json"],
     ["hirz_valid_n2c2.json", "plane_valid_c2.json"]),
    ("support", ["--m", "0"], ["hirz_valid_n2c2.json"], ["ytilde_n2.json"]),
    ("hilbert-chow", [], ["hirz_valid_n2c2.json"], ["plane_valid_c2.json"]),
    ("syst-rank", [], ["hirz_valid_n2c2.json"], ["chart_n2c2.json"]),
    ("jacobian-dim", [], ["hirz_valid_n2c2.json"], ["plane_valid_c2.json"]),
    ("c1-from-ytilde", ["--n", "2"], ["ytilde_n2.json"], ["hirz_valid_n1c1.json"]),
    ("c1-to-tot", [], ["hirz_valid_n1c1.json"], ["ytilde_n2.json"]),
]
FILE_COMMAND_IDS = [entry[0] for entry in FILE_COMMANDS]


@pytest.mark.parametrize("name,opts,inputs,wrong", FILE_COMMANDS, ids=FILE_COMMAND_IDS)
def test_out_writes_the_stdout_text(capsys, tmp_path, name, opts, inputs, wrong):
    argv = [name, *map(g, inputs), *opts]
    code = cli.main(argv)
    printed = capsys.readouterr().out
    assert code == 0 and printed.endswith("}\n")
    target = tmp_path / "out.json"
    assert cli.main(argv + ["--out", str(target)]) == code
    assert capsys.readouterr().out == ""
    assert target.read_text() == printed


@pytest.mark.parametrize("name,opts,inputs,wrong", FILE_COMMANDS, ids=FILE_COMMAND_IDS)
def test_wrong_kind_is_kind_error(capsys, name, opts, inputs, wrong):
    code, payload = run(capsys, name, *map(g, wrong), *opts)
    assert code == 2
    assert payload["error"] == "kind" and payload["path"] is None


@pytest.mark.parametrize("name,opts,inputs,wrong", FILE_COMMANDS, ids=FILE_COMMAND_IDS)
def test_bad_number_is_parse_error(capsys, tmp_path, name, opts, inputs, wrong):
    for slot in range(len(inputs)):
        files = [g(f) for f in inputs]
        files[slot] = g("malformed_badnum.json")
        target = tmp_path / "out.json"
        code, payload = run(capsys, name, *files, *opts, "--out", str(target))
        assert code == 2
        assert payload["error"] == "parse" and payload["path"]
        assert not target.exists()


def test_config_error_wins_over_parse_error(capsys):
    code, payload = run(capsys, "orbit-equal", g("malformed_badnum.json"),
                        g("plane_valid_c2.json"), "--tol.eq", "-1")
    assert code == 2 and payload["error"] == "config"


def test_orbit_equal_reads_both_inputs_before_kind_checks(capsys):
    code, payload = run(capsys, "orbit-equal", g("plane_valid_c2.json"),
                        g("malformed_badnum.json"))
    assert code == 2 and payload["error"] == "parse"


@pytest.mark.parametrize("method", ["chart", "direct", "both"])
def test_validate_runs_p1_and_p2_once(capsys, monkeypatch, method):
    from adhmkit import hirz

    calls = {"validate_p1": 0, "validate_p2": 0}
    for fname in calls:
        def counted(*a, _inner=getattr(hirz, fname), _name=fname, **kw):
            calls[_name] += 1
            return _inner(*a, **kw)
        monkeypatch.setattr(hirz, fname, counted)
    code, payload = run(capsys, "validate", g("hirz_valid_n2c2.json"), "--p3-method", method)
    assert code == 0 and payload["passed"] is True
    assert calls == {"validate_p1": 1, "validate_p2": 1}
    names = [c["name"] for c in payload["checks"]]
    assert ("costability" in names) == (method != "direct")
    assert ("costability_direct" in names) == (method != "chart")


@pytest.mark.parametrize("n", ["0", "-1"])
def test_c1_from_ytilde_rejects_nonpositive_n(capsys, tmp_path, n):
    code, payload = run(capsys, "c1-from-ytilde", g("ytilde_n2.json"), "--n", n)
    assert code == 2 and payload["error"] == "domain"
    data = json.loads(open(g("ytilde_n2.json")).read())
    data["y1"] = [0.0, 0.0]
    path = tmp_path / "y1_zero.json"
    path.write_text(json.dumps(data))
    code, payload = run(capsys, "c1-from-ytilde", str(path), "--n", n)
    assert code == 2 and payload["error"] == "domain"


def test_c1_from_ytilde_overflowing_relation_is_indeterminate(capsys, tmp_path):
    # y1^2 = 1e400 overflows Python's complex power, which raised OverflowError
    # ("internal"); the relation cannot be certified either way
    path = tmp_path / "ytilde_big.json"
    path.write_text(json.dumps({"kind": "ytilde_point", "y1": [1e200, 0.0], "y2": [1.0, 0.0],
                                "x1": [1.0, 0.0], "x2": [5.0, 0.0]}))
    code, payload = run(capsys, "c1-from-ytilde", str(path), "--n", "3")
    assert code == 2 and payload["error"] == "indeterminate"


def test_cli_import_does_not_load_the_property_suite():
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    code = "import adhmkit.cli, sys; sys.exit('adhmkit.propsuite' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    assert proc.returncode == 0
