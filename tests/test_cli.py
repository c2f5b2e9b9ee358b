import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multisymp.charts import chart_from_spec, chart_to_spec, lepage_dedecker_chart
from multisymp.cli import main
from multisymp.exterior import parse_form
from multisymp.fieldlab import ExperimentConfig

ROOT = Path(__file__).parent.parent
SCRIPTS = ROOT / "scripts"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def run_module(*argv):
    """`python -m multisymp` in a subprocess under a 10 s timeout, so a
    regression that hangs fails instead of stalling the suite."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "multisymp", *argv], capture_output=True, text=True, timeout=10,
                          env=env)


def assert_input_error(done):
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("input error:")


def test_cli_import_leaves_numpy_out():
    """Only `simulate` needs the field laboratory and its numpy, so the other
    verbs start without importing either."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = "import sys, multisymp.cli; print(sorted({'numpy', 'multisymp.fieldlab'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10, env=env)
    assert done.returncode == 0 and done.stdout == "[]\n"


def test_check_chart_builtin_passes(capsys):
    code, report = run(capsys, "check-chart", "lepage-dedecker:2,2")
    assert code == 0
    assert all(c["status"] == "pass" for c in report["checks"])


def test_check_chart_reports_are_byte_identical(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["check-chart", "ddw:2,2", "--output", str(a)]) == 0
    assert main(["check-chart", "ddw:2,2", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_observable_reports_are_byte_identical_with_warm_caches(monkeypatch, tmp_path):
    """The second run of one command reads every family kernel and the
    contraction solver from the caches the first run filled."""
    from multisymp import dynamics, observables

    monkeypatch.setattr(dynamics, "_FAMILY_CACHE", {})
    monkeypatch.setattr(observables, "_SOLVER_CACHE", {})

    def sizes():
        return len(dynamics._FAMILY_CACHE), len(observables._SOLVER_CACHE)

    def report(chart, form, code):
        path = tmp_path / "report.json"
        assert main(["--seed", "5", "observable", chart, "--form", form, "--output", str(path)]) == code
        return path.read_bytes()

    for case in [("ddw:3,2", "@volume-primitive", 0), ("lepage-dedecker:2,3", _NOT_OF_FORM, 1)]:
        before = sizes()
        cold = report(*case)
        filled = sizes()
        assert report(*case) == cold
        assert filled[0] > before[0] and filled[1] == before[1] + 1 and sizes() == filled


def test_check_chart_degenerate_spec_fails(capsys, tmp_path):
    from multisymp.charts import Chart, chart_to_spec, lepage_dedecker_split_chart
    from multisymp.exterior import form_basis, wedge

    healthy = lepage_dedecker_split_chart(2, 1)
    broken = Chart(
        name="broken",
        frame=healthy.frame,
        n=2,
        omega=wedge(form_basis(healthy.frame, "e"), form_basis(healthy.frame, "x1", "x2")),
        horizontal=healthy.horizontal,
    )
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(chart_to_spec(broken)))
    code, report = run(capsys, "check-chart", str(path))
    assert code == 1
    record = {c["check_id"]: c for c in report["checks"]}
    assert record["nondegenerate"]["status"] == "fail"
    assert record["nondegenerate"]["witness"]["kernel_vector"]


def test_check_chart_malformed_polynomial_is_input_error(capsys, tmp_path):
    from multisymp.charts import chart_to_spec, lepage_dedecker_chart

    spec = chart_to_spec(lepage_dedecker_chart(1, 1))
    spec["hamiltonian"] = "q1 + + nonsense"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code = main(["check-chart", str(path)])
    assert code == 2


def test_observable_momentum_form(capsys, tmp_path):
    """The weighted momentum observable: Hamilton field exists and is
    reported; the observability sampling passes."""
    from multisymp.charts import ddw_chart
    from multisymp.exterior import dump_form, hook, vector_basis

    chart = ddw_chart(2, 2)
    f = chart.frame
    psi = f.poly_var("x1")
    observable = hook(vector_basis(f, "y1"), chart.theta).scale(psi)
    path = tmp_path / "form.json"
    path.write_text(json.dumps(dump_form(observable)))
    code, report = run(capsys, "observable", "ddw:2,2", "--form", str(path))
    assert code == 0
    record = {c["check_id"]: c for c in report["checks"]}
    assert record["aof"]["status"] == "pass"
    assert record["of"]["status"] == "pass"
    assert record["aof"]["witness"]["hamilton_field"]["terms"]


def test_observable_witness_form(capsys, tmp_path):
    """The first-order witness: observable yes, Hamilton field no."""
    from multisymp.charts import ddw_chart
    from multisymp.exterior import dump_form, form_basis

    chart = ddw_chart(2, 2)
    f = chart.frame
    witness = form_basis(f, "y2").scale(f.poly_var("y1"))
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(dump_form(witness)))
    report_path = tmp_path / "witness_report.json"
    code = main(["observable", "ddw:2,2", "--form", str(path), "--output", str(report_path)])
    assert code == 1  # the aof check fails by design for this input
    report = json.loads(report_path.read_text())
    record = {c["check_id"]: c for c in report["checks"]}
    assert record["aof"]["status"] == "fail"
    assert record["of"]["status"] == "pass"
    # the stored residual replays exactly
    code, result = run(capsys, "recheck", str(report_path))
    assert code == 0 and result["verified"] >= 1 and result["failed"] == 0


def test_observable_non_observable_counterexample_and_recheck(capsys, tmp_path):
    from multisymp.charts import ddw_chart
    from multisymp.exterior import dump_form, form_basis

    chart = ddw_chart(2, 2)
    f = chart.frame
    bad = form_basis(f, "p1_1").scale(f.poly_var("p2_2"))
    form_path = tmp_path / "bad_form.json"
    form_path.write_text(json.dumps(dump_form(bad)))
    report_path = tmp_path / "report.json"
    code = main(["observable", "ddw:2,2", "--form", str(form_path), "--output", str(report_path)])
    assert code == 1
    report = json.loads(report_path.read_text())
    record = {c["check_id"]: c for c in report["checks"]}
    assert record["of"]["status"] == "fail"
    assert record["of"]["witness"]["value"] != record["of"]["witness"]["value_perturbed"]
    # replaying the stored witnesses succeeds
    code, result = run(capsys, "recheck", str(report_path))
    assert code == 0
    assert result["verified"] >= 1 and result["failed"] == 0


def test_observable_classification_on_full_chart(capsys, tmp_path):
    from multisymp.charts import lepage_dedecker_chart
    from multisymp.exterior import dump_form, form_basis

    chart = lepage_dedecker_chart(2, 2)
    f = chart.frame
    observable = form_basis(f, "q2").scale(f.poly_var("q1"))
    path = tmp_path / "q_form.json"
    path.write_text(json.dumps(dump_form(observable)))
    code, report = run(capsys, "observable", "lepage-dedecker:2,2", "--form", str(path))
    assert code == 0
    record = {c["check_id"]: c for c in report["checks"]}
    assert record["classify"]["status"] == "pass"


def test_bracket_complementary_canonical_pair(capsys):
    code, report = run(capsys, "bracket", "maxwell", "--f", "@pi", "--g", "@a",
                       "--kind", "complementary")
    assert code == 0
    assert report["checks"][0]["witness"]["value"] == "1"


def test_bracket_poisson_diagonal_zero(capsys):
    code, report = run(capsys, "bracket", "scalar:2", "--f", "@charge", "--g", "@charge",
                       "--kind", "poisson")
    assert code == 0
    assert report["checks"][0]["witness"]["value"]["terms"] == []


def test_bracket_wrong_degrees_not_defined(capsys):
    code, report = run(capsys, "bracket", "maxwell", "--f", "@a", "--g", "@a",
                       "--kind", "complementary")
    assert code == 0  # not-defined is not a failure
    record = report["checks"][0]
    assert record["status"] == "not-defined"
    assert "open problem" in record["witness"]["reason"]


def test_simulate_shipped_configs(capsys, tmp_path):
    for name, expect_code in [("linear_smeared.json", 0), ("nonlinear_smeared.json", 0)]:
        out = tmp_path / f"{name}.report.json"
        csv_out = tmp_path / f"{name}.csv"
        code = main(["simulate", str(SCRIPTS / name), "--output", str(out), "--output-csv", str(csv_out)])
        assert code == expect_code
        assert csv_out.exists()
        report = json.loads(out.read_text())
        assert report["checks"]


def test_simulate_bad_config_is_input_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"grid_points\": \"not a number\"}")
    assert main(["simulate", str(path)]) == 2


def test_simulate_reports_a_failed_expectation(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"coupling": 0.5, "crossing_times": 2.0, "expectations": {"smeared": True}}))
    code, report = run(capsys, "simulate", str(path))
    assert code == 1
    status = {c["check_id"]: c["status"] for c in report["checks"]}
    assert status == {"functional:charge": "pass", "functional:smeared": "fail"}


@pytest.mark.parametrize("argv", [
    ["check-chart", "ddw:2,1", "--output"],
    ["simulate", str(SCRIPTS / "nonlinear_smeared.json"), "--output-csv"],
])
def test_unwritable_output_is_input_error(capsys, tmp_path, argv):
    assert main(argv + [str(tmp_path / "missing" / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("input error:")


def test_input_error_unknown_chart():
    assert main(["check-chart", "nope:1,1"]) == 2


@pytest.mark.parametrize("label", ["maxwell:3", "scalar:2,bogus", "scalar:", "ddw:2", "ddw:2,2,2",
                                   "lepage-dedecker:a,b"])
def test_malformed_chart_labels_are_input_errors(label):
    """A chart label that is not one of the documented forms is refused with
    one line naming them; `maxwell:3` and `scalar:2,bogus` used to run as
    `maxwell` and `scalar:2`.  Run as a subprocess under a timeout."""
    done = run_module("check-chart", label)
    assert_input_error(done)
    assert f"unknown chart label {label!r}" in done.stderr
    assert "lepage-dedecker:n,k, lepage-dedecker-split:n,k, ddw:n,k, maxwell, scalar:n, scalar:n,gauged" in done.stderr


def test_observable_point_of_wrong_length_is_input_error(capsys):
    code = main(["observable", "ddw:2,2", "--form", '{"degree": 1}', "--point", "1,2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == ["input error: point has length 2, expected 9"]


def test_observable_non_rational_point_entry_is_input_error(capsys):
    for entry in ["x", "1/0"]:
        point = ",".join(["1"] * 8 + [entry])
        code = main(["observable", "ddw:2,2", "--form", '{"degree": 1}', "--point", point])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("input error:")


# an (n-1)-form that is not observable on lepage-dedecker:2,2
_NOT_OF_FORM = '{"degree": 1, "terms": [{"indices": ["p12"], "coeff": "p34"}]}'


def test_observable_form_that_is_not_of_fails_with_one_point(capsys):
    code, report = run(capsys, "observable", "lepage-dedecker:2,2", "--form", _NOT_OF_FORM, "--points", "1")
    assert code == 1
    assert {c["check_id"]: c["status"] for c in report["checks"]}["of"] == "fail"


@pytest.mark.parametrize("flags", [["--samples", "0"], ["--samples", "-3"], ["--points", "0"],
                                   ["--points", "-1"], ["--point", ",".join(["1"] * 10), "--samples", "0"]])
def test_observable_rejects_non_positive_counts(capsys, flags):
    """No point or no sample would make the `of` check pass vacuously."""
    code = main(["observable", "lepage-dedecker:2,2", "--form", _NOT_OF_FORM, *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("input error:")


def test_observable_rejects_oversized_counts():
    """`--samples 100000` on the volume form ran for more than 20 s, and
    `--points N` draws all N points before anything is judged, so counts
    above the limits are refused before any point is drawn.  Run as a
    subprocess so a regression times out instead of hanging the suite; no
    count tried here allocates much even when it is accepted."""
    from multisymp.cli import MAX_POINTS, MAX_SAMPLES

    for flag, count, limit in [("--samples", 100000, MAX_SAMPLES), ("--samples", MAX_SAMPLES + 1, MAX_SAMPLES),
                               ("--points", MAX_POINTS + 1, MAX_POINTS)]:
        done = run_module("observable", "lepage-dedecker:2,3", "--form", "@volume-primitive", flag, str(count))
        assert_input_error(done)
        assert f"between 1 and {limit}, got {count}" in done.stderr


def test_observable_refuses_bad_input_before_the_family_walk(monkeypatch, capsys):
    """`load_observable` walks all C(12, 6) = 924 observability families of
    ddw:6,6 only once every other input is accepted: a count out of range,
    a point of the wrong length and a form of the wrong degree are refused
    without a `_family_step_data` call."""
    from multisymp import cli

    calls = []
    real = cli._family_step_data
    monkeypatch.setattr(cli, "_family_step_data", lambda *args: calls.append(args) or real(*args))
    names = ["x1", "x2", "x3", "x4", "x5", "x6", "y1", "y2", "y3"]
    degree_nine = json.dumps({"degree": 9, "terms": [{"indices": names, "coeff": "1"}]})
    for flags in (["--form", "@volume-primitive", "--points", "0"],
                  ["--form", "@volume-primitive", "--samples", "17"],
                  ["--form", "@volume-primitive", "--point", "1,2"],
                  ["--form", degree_nine]):
        assert main(["observable", "ddw:6,6", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error:")
    assert calls == []


def test_observable_accepts_the_largest_counts(capsys):
    from multisymp.cli import MAX_POINTS, MAX_SAMPLES

    code, report = run(capsys, "observable", "lepage-dedecker:2,2", "--form", _NOT_OF_FORM,
                       "--points", str(MAX_POINTS), "--samples", str(MAX_SAMPLES))
    assert code == 1
    assert {c["check_id"]: c["status"] for c in report["checks"]}["of"] == "fail"


def test_recheck_rejects_a_file_that_is_not_a_report(capsys, tmp_path):
    for name, content in [("config.json", (SCRIPTS / "linear_smeared.json").read_text()),
                          ("list.json", "[1, 2]"),
                          ("no_version.json", '{"checks": []}')]:
        path = tmp_path / name
        path.write_text(content)
        assert main(["recheck", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("input error:")


@pytest.mark.parametrize("point", ["1,2", "1/0"])
def test_bracket_pseudo_bad_point_is_input_error(capsys, point):
    code = main(["bracket", "scalar:2", "--f", "@charge", "--g", "@charge",
                 "--kind", "pseudo", "--point", point])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("input error:")


@pytest.mark.parametrize(
    "verb, point",
    [
        (["observable", "lepage-dedecker:1,1", "--form", "@q1"], "-1,1/2,-3,1"),
        (["bracket", "scalar:2", "--f", "@charge", "--g", "@charge", "--kind", "pseudo"], "-1/2,1,2,-1,1,1,-2,1,1"),
    ],
)
def test_a_negative_point_after_a_space_is_read_as_the_point(verb, point):
    """argparse reads a token that starts with "-" as an option; a spaced
    `--point` value with a negative first entry writes the bytes that the
    `--point=` form writes, and one of the wrong length ends in one input
    error line."""
    spaced = run_module(*verb, "--point", point)
    joined = run_module(*verb, f"--point={point}")
    assert spaced.returncode == joined.returncode == 0 and spaced.stderr == joined.stderr == ""
    assert spaced.stdout == joined.stdout and json.loads(spaced.stdout)["checks"]
    short = run_module(*verb, "--point", point.rsplit(",", 1)[0])
    assert_input_error(short)
    assert "point has length" in short.stderr


def _failing_observable_report(tmp_path) -> dict:
    from multisymp.charts import ddw_chart
    from multisymp.exterior import dump_form, form_basis

    f = ddw_chart(2, 2).frame
    form_path = tmp_path / "bad_form.json"
    form_path.write_text(json.dumps(dump_form(form_basis(f, "p1_1").scale(f.poly_var("p2_2")))))
    report_path = tmp_path / "report.json"
    assert main(["observable", "ddw:2,2", "--form", str(form_path), "--output", str(report_path)]) == 1
    return json.loads(report_path.read_text())


# witness values of the `of` fail record that do not decode
_BAD_OF_WITNESS = {
    "scale_with_zero_denominator": ("scale", "1/0"),
    "unknown_family_coordinate": ("family", ["zz"]),
    "family_out_of_order": ("family", ["x2", "x1"]),
    "family_of_one_coordinate": ("family", ["x1"]),
    "short_base_params": ("base_params", ["1"]),
    "short_point": ("point", ["1", "2"]),
    "malformed_form": ("form", {"degree": 2, "terms": [5]}),
    "exponent_over_the_limit": ("form", {"degree": 2, "terms": [{"indices": ["p1_1", "x1"], "coeff": "x2^65"}]}),
}


@pytest.mark.parametrize("case", ["no_check_id", "of_fail_without_chart", "nondegenerate_fail_without_chart",
                                  "chart_without_hash", "numeric_chart_name", "chart_not_builtin",
                                  "kernel_vector_with_zero_denominator", *_BAD_OF_WITNESS])
def test_recheck_rejects_malformed_records(capsys, tmp_path, case):
    """A record without check_id, fail records whose replay needs a chart
    in a report without one, a chart without its hash, with a numeric name
    or with a name that is not built in, and witness values that do not
    decode are input errors."""
    report = _failing_observable_report(tmp_path)
    if case in _BAD_OF_WITNESS:
        key, value = _BAD_OF_WITNESS[case]
        next(c for c in report["checks"] if c["check_id"] == "of")["witness"][key] = value
    elif case == "numeric_chart_name":
        report["chart"]["name"] = 7
    elif case == "chart_not_builtin":
        report["chart"]["name"] = "nope:1,1"
    elif case == "kernel_vector_with_zero_denominator":
        report["checks"] = [{"check_id": "nondegenerate", "law": "", "status": "fail",
                             "witness": {"kernel_vector": ["1/0"] * 9}}]
    elif case == "chart_without_hash":
        del report["chart"]["hash"]
    elif case == "no_check_id":
        report["checks"] = [{"status": "pass", "witness": {}}]
    elif case == "of_fail_without_chart":
        report["chart"] = None
        report["checks"] = [c for c in report["checks"] if c["check_id"] == "of"]
    else:
        report["chart"] = None
        report["checks"] = [{"check_id": "nondegenerate", "law": "", "status": "fail",
                             "witness": {"kernel_vector": ["1"] * 9}}]
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(report))
    assert main(["recheck", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("input error:")


@pytest.mark.parametrize("config", [
    {"grid_points": 0},
    {"length": 0},
    {"cfl": 0},
    {"record_stride": -1},
    {"grid_points": 8, "crossing_times": 0},
    {"grid_points": 8, "crossing_times": 0.05},
    {"field_modes": [{"amplitude": 1.0}]},
    {"expectations": [True]},
    # expectations are JSON booleans on the named functionals
    {"grid_points": 8, "crossing_times": 2.0, "expectations": {"smeared": "false"}},
    {"grid_points": 8, "crossing_times": 2.0, "expectations": {"smeered": True}},
    # counts are integral numbers, never truncated or read from a boolean
    {"grid_points": 16.7},
    {"grid_points": True},
    {"record_stride": 2.5},
    {"record_stride": True},
    {"field_modes": [{"amplitude": 1.0, "wavenumber": 1.5}]},
    {"test_modes": [{"amplitude": 1.0, "wavenumber": True}]},
    # frames of more than 10^18 bytes, refused before anything is allocated
    {"crossing_times": 1e12},
    {"grid_points": 10**14},
    {"cfl": 2.0},
    {"mass2": -5.0},
    # the other numeric fields are JSON numbers, never booleans or strings
    {"grid_points": 16, "crossing_times": 2.0, "coupling": True, "mass2": "1.0"},
    {"grid_points": 16, "crossing_times": 2.0, "coupling": True},
    {"grid_points": 16, "crossing_times": 2.0, "mass2": "1.0"},
    {"grid_points": 16, "crossing_times": 2.0, "field_modes": [{"amplitude": "1", "wavenumber": 1, "phase": True}]},
    {"grid_points": 16, "crossing_times": 2.0, "test_modes": [{"amplitude": 1.0, "wavenumber": 1, "phase": True}]},
])
def test_simulate_rejects_configs_that_cannot_run(capsys, tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["simulate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("input error:")


def test_observable_rejects_an_oversized_exponent():
    """q1^30000000 would take minutes to evaluate; the form is refused while
    it is decoded.  Run as a subprocess so a regression times out instead
    of hanging the suite."""
    form = json.dumps({"degree": 1, "terms": [{"indices": ["p12"], "coeff": "q1^30000000"}]})
    done = run_module("observable", "lepage-dedecker:2,2", "--form", form)
    assert_input_error(done)
    assert "exponent 30000000" in done.stderr


@pytest.mark.parametrize("field", ["omega", "theta", "hamiltonian"])
def test_check_chart_rejects_an_oversized_exponent_in_a_spec(tmp_path, field):
    """A chart spec file is held to the same exponent limit as form
    arguments: with `1 + q3^30000000` in Omega, nondegeneracy sampling would
    run for minutes.  Run as a subprocess so a regression times out."""
    from multisymp.charts import chart_to_spec, lepage_dedecker_chart

    spec = chart_to_spec(lepage_dedecker_chart(2, 2))
    if field == "hamiltonian":
        spec["hamiltonian"] = "q3^30000000"
    else:
        spec[field]["terms"][0]["coeff"] += " + q3^30000000"
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(spec))
    done = run_module("check-chart", str(path))
    assert_input_error(done)
    assert "exponent 30000000" in done.stderr


def test_observable_accepts_the_largest_exponent(capsys):
    """At the limit the form is decoded and judged (it is not AOF, so the
    report fails); one above it is an input error."""
    from multisymp.algebra import MAX_EXPONENT

    def form(exponent):
        return json.dumps({"degree": 1, "terms": [{"indices": ["p12"], "coeff": f"q1^{exponent}"}]})

    code, report = run(capsys, "observable", "lepage-dedecker:2,2", "--form", form(MAX_EXPONENT), "--points", "1")
    assert code == 1 and report["checks"][0]["status"] == "fail"
    assert main(["observable", "lepage-dedecker:2,2", "--form", form(MAX_EXPONENT + 1)]) == 2


def _spec_path(tmp_path, spec) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


_SMALL_CHART = lepage_dedecker_chart(1, 1)


def _small_chart_spec(tmp_path, **changes) -> str:
    """The lepage-dedecker:1,1 chart spec with `changes` to its fields."""
    return _spec_path(tmp_path, {**chart_to_spec(_SMALL_CHART), **changes})


def _boolean_witness_report(tmp_path) -> str:
    """A nondegenerate fail record on lepage-dedecker:2,2 whose kernel
    vector holds a boolean and a float among its strings."""
    from multisymp import __version__
    from multisymp.charts import builtin_chart

    chart = builtin_chart("lepage-dedecker:2,2")
    vector = ["1", True, 2.5] + ["0"] * (chart.dim - 3)
    return _spec_path(tmp_path, {
        "tool_version": __version__, "seed": 0, "chart": {"name": chart.name, "hash": chart.spec_hash()},
        "checks": [{"check_id": "nondegenerate", "law": "", "status": "fail", "witness": {"kernel_vector": vector}}],
    })


def _form_argument(degree, coeff="1") -> str:
    return json.dumps({"degree": degree, "terms": [{"indices": ["p12"], "coeff": coeff}]})


def _nonconstant_omega_chart(tmp_path) -> str:
    from multisymp.charts import chart_to_spec, lepage_dedecker_chart

    spec = chart_to_spec(lepage_dedecker_chart(1, 1))
    next(t for t in spec["omega"]["terms"] if t["indices"] == ["q1", "p1"])["coeff"] = "-1 - q2^2"
    return _spec_path(tmp_path, spec)


def _renamed_coordinate_chart(tmp_path) -> str:
    """The lepage-dedecker:1,1 chart spec with its coordinate p2 renamed, so
    that its omega and theta name a coordinate the chart lacks."""
    spec = chart_to_spec(_SMALL_CHART)
    next(c for c in spec["coordinates"] if c["name"] == "p2")["name"] = "p9"
    return _spec_path(tmp_path, spec)


def _non_horizontal_family_report(tmp_path) -> str:
    """The ddw:2,2 `of` fail report with its family x1, x2 replaced by two
    momenta: a family the sampler never draws, so recheck must refuse it."""
    report = _failing_observable_report(tmp_path)
    witness = next(c for c in report["checks"] if c["check_id"] == "of")["witness"]
    assert witness["family"] == ["x1", "x2"]
    witness["family"] = ["p1_1", "p2_2"]
    return _spec_path(tmp_path, report)


def _non_affine_family_chart(tmp_path) -> str:
    """A constant, nondegenerate Omega = de^dx1^dx2 + dy^dp1^dp2 with
    H = e, on which the contraction is not affine on the observability
    family x1, x2 nor on the Hamilton solver's family."""
    coordinates = [("x1", "position"), ("x2", "position"), ("y", "position"), ("e", "energy"),
                   ("p1", "momentum"), ("p2", "momentum")]
    return _spec_path(tmp_path, {
        "name": "non-affine", "n": 2, "horizontal": ["x1", "x2"], "hamiltonian": "e",
        "coordinates": [{"name": name, "kind": kind} for name, kind in coordinates],
        "omega": {"degree": 3, "terms": [{"indices": ["e", "x1", "x2"], "coeff": "1"},
                                         {"indices": ["y", "p1", "p2"], "coeff": "1"}]},
    })


def test_bracket_pseudo_on_a_non_affine_family_is_not_defined(tmp_path):
    """The Hamilton solver finds no affine pivot on this chart: the bracket
    record says so, where it once ended in a traceback."""
    done = run_module("bracket", _non_affine_family_chart(tmp_path), "--kind", "pseudo", "--f", "@x1", "--g", "@x1")
    assert done.returncode == 0 and done.stderr == ""
    [record] = json.loads(done.stdout)["checks"]
    assert record["status"] == "not-defined"
    assert record["witness"] == {
        "reason": "no affine pivot available; solution family is not affine in this parametrization"}


# inputs that once ended in a traceback or were accepted, each with the
# argv that passes it
_CRASHING_INPUTS = {
    "null_coefficient": lambda tmp: [
        "observable", "lepage-dedecker:2,2", "--form", '{"degree": 1, "terms": [{"indices": ["p12"], "coeff": null}]}'],
    "terms_not_a_list": lambda tmp: ["observable", "lepage-dedecker:2,2", "--form", '{"degree": 1, "terms": 5}'],
    "infinite_degree": lambda tmp: ["observable", "lepage-dedecker:2,2", "--form", '{"degree": 1e999}'],
    "chart_spec_is_a_list": lambda tmp: ["check-chart", _spec_path(tmp, [1, 2])],
    "observable_on_a_nonconstant_omega": lambda tmp: [
        "observable", _nonconstant_omega_chart(tmp), "--form", "@volume-primitive"],
    "infinite_grid_points": lambda tmp: ["simulate", _spec_path(tmp, {"grid_points": float("inf")})],
    "infinite_wavenumber": lambda tmp: [
        "simulate", _spec_path(tmp, {"field_modes": [{"amplitude": 1.0, "wavenumber": float("inf")}]})],
    "recheck_of_a_non_horizontal_family": lambda tmp: ["recheck", _non_horizontal_family_report(tmp)],
    "lone_sign_coefficient": lambda tmp: ["observable", "lepage-dedecker:2,2", "--form", _form_argument(1, "-")],
    "fractional_form_degree": lambda tmp: ["observable", "lepage-dedecker:2,2", "--form", _form_argument(1.9)],
    "string_form_degree": lambda tmp: ["observable", "lepage-dedecker:2,2", "--form", _form_argument("1")],
    "boolean_form_degree": lambda tmp: ["observable", "lepage-dedecker:2,2", "--form", _form_argument(True)],
    "fractional_chart_n": lambda tmp: ["check-chart", _small_chart_spec(tmp, n=1.7)],
    "string_chart_n": lambda tmp: ["check-chart", _small_chart_spec(tmp, n="1")],
    "string_metric_entry": lambda tmp: ["check-chart", _small_chart_spec(tmp, metric=["1", "-1"])],
    "numeric_chart_name": lambda tmp: [
        "observable", _small_chart_spec(tmp, name=5), "--form", '{"degree": 0, "terms": [{"indices": [], "coeff": "p1"}]}'],
    "boolean_witness_entry": lambda tmp: ["recheck", _boolean_witness_report(tmp)],
    "renamed_chart_coordinate": lambda tmp: ["check-chart", _renamed_coordinate_chart(tmp)],
    "observable_on_a_non_affine_family": lambda tmp: [
        "observable", _non_affine_family_chart(tmp), "--form",
        '{"degree": 1, "terms": [{"indices": ["x1"], "coeff": "y"}]}'],
}


# the line that names the field at fault, for inputs of the wrong JSON shape
_INPUT_ERROR_LINES = {
    "null_coefficient": "input error: the coeff of form term ['p12'] must be a string or a number, got None",
    "terms_not_a_list": "input error: the terms of a form must be a list, got 5",
    "chart_spec_is_a_list": "input error: a chart spec must be an object, got list",
    "lone_sign_coefficient": "input error: dangling operator in polynomial text",
    "boolean_form_degree": "input error: the degree of a form must be an integer, got True",
    "string_chart_n": "input error: the n of a chart spec must be an integer, got '1'",
    "numeric_chart_name": "input error: the name of a chart spec must be a string, got 5",
    # a KeyError's message, not its quoted repr
    "renamed_chart_coordinate": "input error: unknown coordinate 'p2'",
    "observable_on_a_non_affine_family":
        "input error: the contraction into Omega is not affine on the observability family x1, x2",
}


@pytest.mark.parametrize("case", list(_CRASHING_INPUTS))
def test_malformed_inputs_end_in_one_input_error_line(tmp_path, case):
    """Each input is refused while it is loaded: exit 2, no report, one
    `input error:` line and no traceback."""
    done = run_module(*_CRASHING_INPUTS[case](tmp_path))
    assert_input_error(done)
    if case in _INPUT_ERROR_LINES:
        assert done.stderr == _INPUT_ERROR_LINES[case] + "\n"


# JSON values, mostly scalars: numbers, and the booleans, strings, nulls,
# lists and objects that a numeric field must refuse
_SCALARS = (st.none() | st.booleans() | st.integers(-2, 300) | st.integers() | st.floats()
            | st.sampled_from(["", "1", "2.5", "p1", "-", "q1^65"]))
_JSON = _SCALARS | st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=2)
                                | st.dictionaries(st.sampled_from(["amplitude", "n", "x"]), inner, max_size=2),
                                max_leaves=3)
_CONFIG_NUMBERS = ("grid_points", "record_stride", "length", "cfl", "mass2", "coupling", "crossing_times",
                   "conserved_tolerance", "smeared_tolerance")
_MODE_NUMBERS = ("amplitude", "wavenumber", "phase")
_MODES = st.lists(st.fixed_dictionaries({"amplitude": _JSON, "wavenumber": _JSON}, optional={"phase": _JSON}),
                  max_size=2) | _JSON
# a few fields at a time, so that a config with one wrong field is often otherwise valid
_CONFIGS = st.builds(lambda numbers, modes: {**numbers, **modes},
                     st.dictionaries(st.sampled_from(_CONFIG_NUMBERS), _JSON, max_size=2),
                     st.dictionaries(st.sampled_from(["field_modes", "test_modes"]), _MODES, max_size=1))
_FORMS = st.fixed_dictionaries({"degree": _JSON}, optional={
    "terms": st.lists(st.fixed_dictionaries({"indices": st.lists(st.sampled_from(["q1", "p1", "zz"]), max_size=2),
                                             "coeff": _JSON}), max_size=2) | _JSON,
})
_CHARTS = st.builds(lambda changes: {**chart_to_spec(_SMALL_CHART), **changes},
                    st.fixed_dictionaries({}, optional={"n": _JSON, "metric": st.lists(_JSON, max_size=2) | _JSON,
                                                        "name": _JSON}))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@given(st.one_of(_CONFIGS.map(lambda data: ("config", data)), _FORMS.map(lambda data: ("form", data)),
                 _CHARTS.map(lambda data: ("chart", data))))
@example(("config", {"grid_points": 16, "crossing_times": 2.0, "coupling": True, "mass2": "1.0"}))
@settings(derandomize=True, max_examples=400, deadline=None)
def test_load_steps_refuse_or_read_json_numbers(case):
    """The load steps of `simulate`, of a form argument and of a chart spec
    file, fed JSON-shaped values and run in process without computing: only
    the four exceptions that `main` turns into exit 2 escape, and every
    numeric field of an accepted input arrived as a JSON number."""
    kind, data = case
    try:
        if kind == "config":
            ExperimentConfig.from_mapping(data)
        elif kind == "form":
            parse_form(_SMALL_CHART.frame, data)
        else:
            chart_from_spec(data)
    except (ValueError, KeyError, TypeError, OverflowError):
        return
    # an assertion line per load step: hypothesis reports the failures of each line apart
    if kind == "config":
        modes = [mode for key in ("field_modes", "test_modes") for mode in data.get(key, ())]
        assert all(_is_number(data[key]) for key in _CONFIG_NUMBERS if key in data)
        assert all(_is_number(mode[key]) for mode in modes for key in _MODE_NUMBERS if key in mode)
    elif kind == "form":
        assert _is_number(data["degree"])
        assert all(isinstance(term["coeff"], str) or _is_number(term["coeff"]) for term in data.get("terms", []))
    else:
        assert _is_number(data["n"]) and all(map(_is_number, data.get("metric", ())))
        assert isinstance(data["name"], str)


def test_recheck_refuses_an_aof_record_without_its_witness(capsys, tmp_path):
    """An aof pass record replays its Hamilton field against dF; without
    dF there is nothing to replay, which is an input error rather than a
    report verified with nothing checked."""
    path = tmp_path / "report.json"
    assert main(["observable", "ddw:2,2", "--form", "@volume-primitive", "--points", "1", "--output", str(path)]) == 0
    code, result = run(capsys, "recheck", str(path))
    assert code == 0 and result == {"failed": 0, "verified": 1}
    report = json.loads(path.read_text())
    del next(c for c in report["checks"] if c["check_id"] == "aof")["witness"]["dF"]
    path.write_text(json.dumps(report))
    assert main(["recheck", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"input error: check 1 of {path}: the witness lacks dF"]


# -- the of check of a form with a Hamilton field -------------------------------

# the families of lepage-dedecker:1,1 have empty kernels, those of
# scalar:2,gauged kernels of four different sizes
_HAMILTON_CHARTS = ["ddw:2,2", "lepage-dedecker:2,2", "lepage-dedecker:2,3", "ddw:3,2", "scalar:2", "scalar:3",
                    "maxwell", "lepage-dedecker:1,1", "scalar:2,gauged"]
# (--points, --samples, whether one --point is given instead)
_COUNTS = [(1, 1, False), (3, 4, False), (5, 2, False), (1, 3, True)]


def _aof_commands(label: str, seed: int):
    """Seeded random AOFs on one chart (`random_aof`), one per entry of
    `_COUNTS`: the chart, the form, the sample count and the argv."""
    from conftest import random_aof
    from multisymp.algebra import RationalSampler
    from multisymp.charts import builtin_chart
    from multisymp.exterior import dump_form

    chart = builtin_chart(label)
    sampler = RationalSampler(seed)
    for k, (points, samples, fixed) in enumerate(_COUNTS):
        form = random_aof(chart, sampler)
        argv = ["--seed", str(seed + k), "observable", label, "--form", json.dumps(dump_form(form)),
                "--samples", str(samples)]
        if fixed:
            argv.append("--point=" + ",".join(str(v) for v in sampler.point(chart.dim)))
        else:
            argv += ["--points", str(points)]
        yield chart, form, samples, argv


def _of_record(report: dict) -> dict:
    return next(c for c in report["checks"] if c["check_id"] == "of")


@pytest.mark.parametrize("label", _HAMILTON_CHARTS)
def test_of_verdict_of_an_aof_equals_the_sampled_verdict(monkeypatch, capsys, label):
    """The verdict that `observable` writes for a form with a Hamilton
    field, without sampling, is the one `is_of` draws at the report's
    points with the same seed and sample count, field for field."""
    from multisymp import cli
    from multisymp.dynamics import OFVerdict
    from multisymp.observables import is_of

    made = []

    def verdict(**fields):
        made.append(OFVerdict(**fields))
        return made[-1]

    monkeypatch.setattr(cli, "OFVerdict", verdict)
    for chart, form, samples, argv in _aof_commands(label, 3100 + _HAMILTON_CHARTS.index(label)):
        made.clear()
        code, report = run(capsys, *argv)
        assert code == 0
        record = _of_record(report)
        points = [tuple(Fraction(v) for v in p) for p in record["witness"]["points"]]
        sampled = is_of(chart, form, points, sample_count=samples, seed=int(argv[1]))
        assert made == [sampled]
        assert record["status"] == "pass" and record["witness"]["samples"] == sampled.samples_used


@pytest.mark.parametrize("label", _HAMILTON_CHARTS)
def test_observable_never_samples_a_form_with_a_hamilton_field(monkeypatch, capsys, label):
    """The aof witness proves the of check, so no AOF command, shortcut
    forms included, reaches the sampler."""
    from multisymp import observables

    def refuse(*args, **kwargs):
        raise AssertionError("the sampler ran for a form with a Hamilton field")

    monkeypatch.setattr(observables, "of_sampling_test", refuse)
    argvs = [argv for _, _, _, argv in _aof_commands(label, 3200 + _HAMILTON_CHARTS.index(label))]
    argvs.append(["observable", label, "--form", "@charge" if label.startswith("scalar") else "@volume-primitive"])
    for argv in argvs:
        code, report = run(capsys, *argv)
        assert code == 0
        assert {c["check_id"]: c["status"] for c in report["checks"]}["of"] == "pass"


_FAILING_OF_FORM = '{"degree": 1, "terms": [{"indices": ["p34"], "coeff": "p12"}]}'  # p12 dp34


@pytest.mark.parametrize("seed, counts, witness", [
    ("0", [], {
        "base_params": ["3/2", "-4", "7/2", "3/2", "3", "9", "7", "0", "-2", "-1/3", "-5/2", "-2"],
        "family": ["q1", "q2"], "form": {"degree": 2, "terms": [{"coeff": "1", "indices": ["p12", "p34"]}]},
        "kernel_direction": ["0", "0", "0", "0", "0", "1", "0", "0", "0", "0", "0", "0"],
        "point": ["3/2", "-4", "7/2", "3/2", "3", "9", "7", "0", "-2", "-1/3"],
        "scale": "1", "value": "-66", "value_perturbed": "-73"}),
    ("3", ["--points", "16", "--samples", "16"], {
        "base_params": ["-2/3", "8", "2/3", "2", "9", "-9/2", "-1/3", "-2", "2", "4", "1", "-5"],
        "family": ["q1", "q2"], "form": {"degree": 2, "terms": [{"coeff": "1", "indices": ["p12", "p34"]}]},
        "kernel_direction": ["0", "0", "0", "0", "0", "1", "0", "0", "0", "0", "0", "0"],
        "point": ["-2/3", "8", "2/3", "2", "9", "-9/2", "-1/3", "-2", "2", "4"],
        "scale": "-5/2", "value": "11/6", "value_perturbed": "1"}),
], ids=["defaults", "caps"])
def test_a_form_without_a_hamilton_field_is_still_sampled(monkeypatch, capsys, tmp_path, seed, counts, witness):
    """p12 dp34 on lepage-dedecker:2,2 has no Hamilton field: it reaches the
    sampler, whose counterexample is the pinned one, and recheck replays it."""
    from multisymp import observables

    calls = []
    sample = observables.of_sampling_test

    def counted(*args, **kwargs):
        calls.append(args[2])
        return sample(*args, **kwargs)

    monkeypatch.setattr(observables, "of_sampling_test", counted)
    path = tmp_path / "report.json"
    assert main(["--seed", seed, "observable", "lepage-dedecker:2,2", "--form", _FAILING_OF_FORM, *counts,
                 "--output", str(path)]) == 1
    report = json.loads(path.read_text())
    assert {c["check_id"]: c["status"] for c in report["checks"]}["aof"] == "fail"
    assert calls and [str(v) for v in calls[-1]] == witness["point"]
    assert json.dumps(_of_record(report), sort_keys=True) == json.dumps({
        "check_id": "of", "law": "value on the solution cone depends on the contraction only", "status": "fail",
        "witness": witness}, sort_keys=True)
    code, result = run(capsys, "recheck", str(path))
    assert code == 0 and result["failed"] == 0 and result["verified"] >= 2
