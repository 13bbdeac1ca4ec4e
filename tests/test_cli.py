"""The command-line interface: commands, flags and exit codes."""

import json

import pytest

from curveforms.cli import main


def test_analyze_smoke(capsys):
    code = main(["analyze", "-f", "x*y-1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mu = 1" in out
    assert "minimal polynomial: t+1" in out


def test_analyze_acampo(capsys):
    code = main(["analyze", "-f", "x^5+y^5-x^2*y^2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mu = 16" in out
    assert "t^3+16/3125*t^2" in out
    assert "'generates': False" in out


def test_analyze_not_tame_exit_code(capsys):
    assert main(["analyze", "-f", "x^2*y"]) == 2


def test_analyze_parse_error_exit_code(capsys):
    assert main(["analyze", "-f", "x +"]) == 1


@pytest.mark.parametrize("text", ["x^\u00b2", "x^\u0663"])
def test_analyze_non_ascii_digit_exit_code(capsys, text):
    assert main(["analyze", "-f", text]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_analyze_oversized_power_exit_code(capsys):
    assert main(["analyze", "-f", "(x+y+1)^1000000"]) == 1


def test_analyze_bad_weights_exit_code(capsys):
    assert main(["analyze", "-f", "x*y-1", "--weights", "0", "1"]) == 1


def test_analyze_json_output(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["analyze", "-f", "x^3+y^3", "--json", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["mu"] == 4
    assert doc["min_poly"] == "t"
    assert doc["quasi_homogeneous"]["saito_constant"] == "1"
    assert doc["quasi_homogeneous"]["eta"] == {"P": "-1/3*y", "Q": "1/3*x"}


def test_analyze_deformed_sextic(tmp_path, capsys):
    # a smooth curve whose syzygy run once gave no result within minutes
    target = tmp_path / "deformed6.json"
    code = main(["analyze", "-f", "x^6+y^6-x^2*y^2+3*x^3*y-1",
                 "--json", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert (doc["mu"], doc["tau"]) == (25, 0)
    assert doc["generators"]["syzygy_count"] == 3
    assert doc["generation"]["generates"]


def test_analyze_with_minpoly(capsys):
    code = main(["analyze", "-f", "x^2+y^2-1", "--minpoly", "z^2+1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "extension" in out


def test_analyze_zero_divisor_of_a_reducible_minpoly(capsys):
    # z^2-1 = (z-1)(z+1) is accepted; the run fails only where it divides
    # by a zero divisor, and that is bad input
    code = main(["analyze", "-f", "(x-z)*(x-1)*y+x^3+y^3", "--minpoly", "z^2-1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "non-invertible element; the minimal polynomial is reducible" in err
    assert "Traceback" not in err


def test_analyze_with_weights(capsys):
    code = main(["analyze", "-f", "x^2+y^3", "--weights", "3", "2"])
    assert code == 0
    assert "mu = 2" in capsys.readouterr().out


def test_analyze_deterministic(capsys):
    main(["analyze", "-f", "x^3+y^3", "--json", "/dev/null"])
    first = capsys.readouterr().out
    main(["analyze", "-f", "x^3+y^3", "--json", "/dev/null"])
    second = capsys.readouterr().out
    # wall-clock timings differ; everything before them must not
    strip = lambda s: [ln for ln in s.splitlines() if not ln.startswith("time ")]
    assert strip(first) == strip(second)


def test_generators_command(capsys):
    code = main(["generators", "-f", "x*y-1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "trivial (3):" in out
    assert "minimal (2):" in out


def test_jordan_command(capsys):
    code = main(["jordan", "-f", "x^5+y^5-x^2*y^2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "factor t: 9 x size 1, 1 x size 2" in out
    assert "factor t+16/3125: 5 x size 1" in out


def test_plot_to_file(tmp_path, capsys):
    target = tmp_path / "curve.svg"
    code = main(["plot", "-f", "x^2+y^2-1", "--window", "2", "--grid", "60",
                 "--svg", str(target)])
    assert code == 0
    body = target.read_text()
    assert body.startswith("<svg")
    assert "<path" in body


def test_plot_rejects_bad_grid(capsys):
    assert main(["plot", "-f", "x", "--grid", "1"]) == 1


def test_plot_rejects_unusable_window_and_grid(tmp_path, capsys):
    # an infinite window, one whose cell width overflows, one on which f
    # overflows, and a grid over the cap each exit 1 without writing a file
    target = tmp_path / "circle.svg"
    args = ["plot", "-f", "x^2+y^2-1", "--svg", str(target)]
    for extra in (["--window", "inf", "--grid", "4"],
                  ["--window", "1e308", "--grid", "4"],
                  ["--window", "1e200", "--grid", "4"],
                  ["--grid", "2001"]):
        assert main(args + extra) == 1
        assert "error:" in capsys.readouterr().err
    assert not target.exists()


def test_plot_validates_weights(tmp_path, capsys):
    target = tmp_path / "circle.svg"
    args = ["plot", "-f", "x^2+y^2-1", "--grid", "4", "--svg", str(target)]
    assert main(args + ["--weights", "0", "1"]) == 1
    assert "weights must be positive integers" in capsys.readouterr().err
    assert not target.exists()
    assert main(args + ["--weights", "1", "2"]) == 0
    assert target.read_text().startswith("<svg")


def test_plot_extension_embedding(tmp_path, capsys):
    target = tmp_path / "ext.svg"
    args = ["plot", "-f", "x^2+y^2-z", "--minpoly", "z^2-z-1",
            "--window", "2", "--grid", "40", "--svg", str(target)]
    assert main(args) == 1  # no embedding given
    assert main(args + ["--embed", "1.618033988749895"]) == 0
    assert "<path" in target.read_text()


def test_corpus_single_fixture(capsys):
    code = main(["corpus", "--only", "circle"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1/1 fixtures passed" in out


def test_corpus_expected_generation_failure(capsys):
    code = main(["corpus", "--only", "acampo", "--expect-generation-failure"])
    assert code == 0
    code = main(["corpus", "--only", "circle", "--expect-generation-failure"])
    assert code == 1


def test_corpus_unknown_fixture(capsys):
    assert main(["corpus", "--only", "nonexistent"]) == 1


def test_corpus_json(tmp_path, capsys):
    target = tmp_path / "corpus.json"
    code = main(["corpus", "--only", "riccati", "--json", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc[0]["fixture"] == "riccati"
    assert all(check["ok"] for check in doc[0]["checks"])


def test_invariant_violation_exit_code(monkeypatch, capsys):
    from curveforms import InvariantViolation
    from curveforms import cli as cli_mod

    def boom(*args, **kwargs):
        raise InvariantViolation("synthetic")

    monkeypatch.setattr(cli_mod.analysis, "analyze", boom)
    assert cli_mod.main(["analyze", "-f", "x*y-1"]) == 3


def test_corpus_failure_exit_code(monkeypatch, capsys):
    from curveforms import corpus as corpus_mod

    def failing(rec):
        rec.check("always_fails", False, "synthetic")

    broken = corpus_mod.Fixture("broken", "synthetic failure", failing)
    monkeypatch.setitem(corpus_mod.FIXTURES, "broken", broken)
    assert main(["corpus", "--only", "broken"]) == 1
    out = capsys.readouterr().out
    assert "FAIL always_fails" in out


@pytest.mark.parametrize("argv", [
    ["analyze", "-f", "x*y-1", "--minpoly", "z+1"],       # degree 1
    ["analyze", "-f", "x*y-1", "--minpoly", "2*z^2+1"],   # not monic
    ["analyze", "-f", "x*y-1", "--minpoly", "z^2+2*z+1"], # not squarefree
    ["analyze", "-f", "x^1000000+y", "--weights", "5000", "1"],  # packed range
    ["corpus", "--only", "nonexistent"],
])
def test_input_errors_are_typed(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_internal_error_is_not_bad_input(monkeypatch, capsys):
    from curveforms import cli as cli_mod

    def boom(*args, **kwargs):
        raise ValueError("synthetic internal bug")

    monkeypatch.setattr(cli_mod.analysis, "analyze", boom)
    assert cli_mod.main(["analyze", "-f", "x*y-1"]) == 3
    assert "synthetic internal bug" in capsys.readouterr().err


@pytest.mark.parametrize("argv, target", [
    (["analyze", "-f", "x*y-1", "--json"], "missing/a.json"),
    (["plot", "-f", "x^2+y^2-1", "--grid", "4", "--svg"], "missing/a.svg"),
    (["corpus", "--only", "circle", "--json"], "missing/c.json"),
    (["jordan", "-f", "x*y-1", "--json"], "."),  # a directory
])
def test_unwritable_output_path_is_bad_input(argv, target, tmp_path, capsys):
    assert main(argv + [str(tmp_path / target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
