"""Command-line verification reports.

Subcommands:

* check-chart  -- closedness, primitive, nondegeneracy of a chart
* observable   -- OF/AOF verdict pair (and classification on full
                  momentum charts) for an (n-1)-form
* bracket      -- poisson | theta | external | complementary | pseudo
* simulate     -- the conservation experiment from a JSON config
* recheck      -- replay the witnesses stored in an earlier report

Reports are JSON with stable key ordering: identical inputs and seed
produce byte-identical output.  Exit codes: 0 all checks pass, 1 at
least one check failed, 2 input error.

Each subcommand first loads its inputs (`load_<verb>`: read, decode and
validate every argument and file) and then computes (`cmd_<verb>`).  An
input error is an input that the load step refuses, an input file that
cannot be read, or an `--output` or `--output-csv` path that cannot be
written; it ends with exit 2 and one `input error:` line on stderr.

Polynomial text in any input (forms, report witnesses, and the omega,
theta and hamiltonian of a chart spec) is read by `parse_polynomial`, which
refuses an exponent above `algebra.MAX_EXPONENT`.  `observable` takes at
most MAX_POINTS points and MAX_SAMPLES samples per family and point.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Sequence

from . import __version__
from .algebra import RationalSampler, read_number
from .charts import (
    Chart,
    builtin_chart,
    chart_from_spec,
    contraction_matrix,
    maxwell_pi,
    maxwell_potential_form,
    nondegeneracy_check,
)
from .exterior import PolyForm, dump_form, ext_d, form_basis, hook, parse_form
from .dynamics import (
    DegenerateSystem,
    NoSolutionInFamily,
    OFCounterexample,
    OFVerdict,
    _family_step_data,
    hamiltonian_nvector_solve,
    observability_family,
    recheck_of_counterexample,
    schedule_length,
)
from .observables import (
    NotAOF,
    NotInClassifiedForm,
    algebraic_copolarization,
    aof_solve,
    charge_current_form,
    classify_aof,
    contraction_solver,
    is_of,
    solve_contraction,
)
from .brackets import (
    NotDefined,
    NotWellDefined,
    complementary_bracket,
    external_bracket,
    poisson_bracket,
    pseudobracket,
    theta_bracket,
)

if TYPE_CHECKING:
    from .fieldlab import ExperimentConfig

PASS, FAIL, NOT_DEFINED = "pass", "fail", "not-defined"


def _point_to_json(point: Sequence[Fraction]) -> list[str]:
    return [str(v) for v in point]


def _rationals(data, what: str, length: int) -> tuple[Fraction, ...]:
    """`length` rationals: a witness list of strings or JSON numbers (not
    booleans), or the entries of a comma-separated `--point`."""
    if not isinstance(data, list):
        raise ValueError(f"{what} is not a list of rationals")
    if len(data) != length:
        raise ValueError(f"{what} has length {len(data)}, expected {length}")
    try:
        return tuple(Fraction(v if isinstance(v, str) else read_number(what, v)) for v in data)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError):
        raise ValueError(f"{what} has an entry that is not a rational number") from None


# `observable` draws every point before it judges anything.  A form with a
# Hamilton field costs one walk over the observability families whatever
# the counts, as its `of` pass is certified by the field: at 16 points and
# 16 samples, `observable scalar:4 --form @charge` and `observable maxwell
# --form @volume-primitive` each took about 0.14 s cold, mostly start-up
# (median of nine, shared 2-vCPU Xeon, CPython 3.11.7).  On a form without
# one the sampler draws every sample of every family up to the last live
# one at each point until it finds a counterexample, so a form that passes
# pays for both counts in full.  Both are capped, at four times the default
# of 4 samples and five times the default of 3 points.
MAX_SAMPLES = 16
MAX_POINTS = 16


def load_chart_argument(label: str) -> Chart:
    """A built-in chart label, or a `.json` chart spec file."""
    if not label.endswith(".json"):
        return builtin_chart(label)
    with open(label, encoding="utf-8") as fh:
        return chart_from_spec(json.load(fh))


def load_form_argument(chart: Chart, spec: str) -> PolyForm:
    """Resolve a form argument: named shortcut, file path, or inline JSON."""
    frame = chart.frame
    if spec.startswith("@"):
        name = spec[1:]
        if name == "pi" and chart.name == "maxwell":
            return maxwell_pi(frame)
        if name == "a" and chart.name == "maxwell":
            return maxwell_potential_form(frame)
        if name == "charge" and chart.name.startswith("scalar"):
            return charge_current_form(chart)
        if name.startswith("volume-primitive"):
            # x^1 dx^2 ^ ... ^ dx^n (differential is the volume form)
            h = chart.horizontal
            return form_basis(frame, *h[1:]).scale(frame.poly_var(h[0]))
        if name in frame.names:
            return PolyForm(frame, 0, {(): frame.poly_var(name)})
        raise ValueError(f"unknown form shortcut {spec!r} for chart {chart.name!r}")
    if spec.lstrip().startswith("{"):
        data = json.loads(spec)
    else:
        with open(spec, encoding="utf-8") as fh:
            data = json.load(fh)
    return parse_form(frame, data)


class Report:
    def __init__(self, seed: int, chart: Chart | None):
        self.data = {
            "tool_version": __version__,
            "seed": seed,
            "chart": None if chart is None else {"name": chart.name, "hash": chart.spec_hash()},
            "checks": [],
        }

    def add(self, check_id: str, law: str, status: str, witness: dict | None = None) -> None:
        record = {"check_id": check_id, "law": law, "status": status}
        record["witness"] = witness if witness is not None else {}
        self.data["checks"].append(record)

    @property
    def failed(self) -> bool:
        return any(c["status"] == FAIL for c in self.data["checks"])

    def emit(self, output: str | None) -> None:
        text = json.dumps(self.data, sort_keys=True, indent=2) + "\n"
        if output:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)

    def exit_code(self) -> int:
        return 1 if self.failed else 0


# ---------------------------------------------------------------------------
# subcommands: load_<verb>(args) reads, decodes and validates the inputs,
# cmd_<verb>(args, *inputs) computes and reports
# ---------------------------------------------------------------------------


def load_check_chart(args) -> tuple:
    return (load_chart_argument(args.chart),)


def cmd_check_chart(args, chart: Chart) -> int:
    report = Report(args.seed, chart)
    closed = not ext_d(chart.omega)
    report.add("domega", "d(omega) = 0", PASS if closed else FAIL,
               None if closed else {"residual": dump_form(ext_d(chart.omega))})
    if chart.theta is not None:
        exact = ext_d(chart.theta) == chart.omega
        report.add("dtheta", "d(theta) = omega", PASS if exact else FAIL,
                   None if exact else {"residual": dump_form(ext_d(chart.theta) - chart.omega)})
    verdict = nondegeneracy_check(chart, seed=args.seed)
    witness = None
    if not verdict.passed:
        witness = {"kernel_vector": _point_to_json(verdict.kernel_witness)}
    report.add("nondegenerate", "xi . omega = 0 implies xi = 0",
               PASS if verdict.passed else FAIL, witness)
    report.emit(args.output)
    return report.exit_code()


def load_observable(args) -> tuple:
    chart = load_chart_argument(args.chart)
    # the aof verdict solves xi . Omega = -dF, which needs a constant,
    # nondegenerate Omega; the solver refuses any other (and is cached)
    contraction_solver(chart)
    # the sampler judges a family with a kernel only where the contraction is
    # affine on it, a property of the chart as Omega is constant (cached);
    # the same kernels fix the length of its schedule at every point
    omega = chart.omega_contraction
    schedule = 0
    for horizontal in combinations(chart.frame.base_indices(), chart.n):
        step = _family_step_data(chart, observability_family(chart, horizontal), omega)
        if step.kernel and not step.affine:
            names = ", ".join(chart.frame.names[i] for i in horizontal)
            raise ValueError(f"the contraction into Omega is not affine on the observability family {names}")
        schedule += schedule_length(args.samples, len(step.kernel))
    form = load_form_argument(chart, args.form)
    if form.degree != chart.n - 1:
        raise ValueError(f"observable verdicts need an (n-1)-form; got degree {form.degree} on n = {chart.n}")
    point = _rationals(args.point.split(","), "point", chart.dim) if args.point else None
    for flag, count, limit in (("--points", args.points, MAX_POINTS), ("--samples", args.samples, MAX_SAMPLES)):
        if not 1 <= count <= limit:
            raise ValueError(f"{flag} must be between 1 and {limit}, got {count}")
    return chart, form, point, schedule


def cmd_observable(args, chart: Chart, form: PolyForm, point: tuple[Fraction, ...] | None, schedule: int) -> int:
    report = Report(args.seed, chart)
    sampler = RationalSampler(args.seed)
    if point is not None:
        points = [point]
    else:
        points = [sampler.point(chart.dim) for _ in range(args.points)]

    xi = aof_solve(chart, form)
    if isinstance(xi, NotAOF):
        report.add("aof", "dF + xi . omega = 0 solvable", FAIL,
                   {"residual": dump_form(xi.residual), "dF": dump_form(ext_d(form))})
        verdict = is_of(chart, form, points, sample_count=args.samples, seed=args.seed)
    else:
        report.add("aof", "dF + xi . omega = 0 solvable", PASS,
                   {"hamilton_field": dump_form(xi), "dF": dump_form(ext_d(form))})
        # dF = -xi . Omega gives <X, dF> = (-1)^(n+1) <xi, X . Omega>, so the
        # value depends on the contraction only, on the whole chart: the of
        # check passes without sampling, and its count is the length of the
        # schedule the sampler would count (`schedule` at every point, as
        # Omega is constant), so the report is the one sampling writes
        verdict = OFVerdict(passed=True, samples_used=len(points) * schedule)
    if verdict.passed:
        report.add("of", "value on the solution cone depends on the contraction only",
                   PASS, {"samples": verdict.samples_used,
                          "points": [_point_to_json(p) for p in points]})
    else:
        ce = verdict.counterexample
        report.add("of", "value on the solution cone depends on the contraction only",
                   FAIL, {
                       "form": dump_form(ext_d(form)),
                       "point": _point_to_json(verdict.failed_point),
                       "family": list(ce.family_horizontal),
                       "base_params": _point_to_json(ce.base_params),
                       "kernel_direction": _point_to_json(ce.kernel_direction),
                       "scale": str(ce.scale),
                       "value": str(ce.value),
                       "value_perturbed": str(ce.value_perturbed),
                   })
    if not isinstance(xi, NotAOF) and chart.name.startswith("lepage-dedecker:"):
        try:
            cls = classify_aof(chart, form)
            report.add("classify", "F = Q + xi . theta + closed", PASS, {
                "momentum_part": dump_form(cls.momentum_part),
                "lift_part": dump_form(cls.lift_part),
                "remainder": dump_form(cls.remainder),
            })
        except NotInClassifiedForm as exc:
            report.add("classify", "F = Q + xi . theta + closed", NOT_DEFINED, {"reason": str(exc)})
    report.emit(args.output)
    return report.exit_code()


def load_bracket(args) -> tuple:
    chart = load_chart_argument(args.chart)
    f, g = (load_form_argument(chart, spec) for spec in (args.f, args.g))
    point = _rationals(args.point.split(","), "point", chart.dim) if args.kind == "pseudo" and args.point else None
    return chart, f, g, point


def cmd_bracket(args, chart: Chart, f: PolyForm, g: PolyForm, point: tuple[Fraction, ...] | None) -> int:
    report = Report(args.seed, chart)
    kind = args.kind
    try:
        if kind == "poisson":
            value = poisson_bracket(chart, f, g)
            report.add("bracket", "{F,G} = xi_F ^ xi_G . omega", PASS, {"value": dump_form(value)})
        elif kind == "theta":
            value = theta_bracket(chart, f, g)
            report.add("bracket", "{F,G} corrected by the primitive", PASS, {"value": dump_form(value)})
        elif kind == "external":
            value = external_bracket(chart, f, g)
            report.add("bracket", "one-sided contraction bracket", PASS, {"value": dump_form(value)})
        elif kind == "complementary":
            scalar = complementary_bracket(chart, f, g)
            report.add("bracket", "scalar bracket of complementary degrees", PASS,
                       {"value": scalar.to_text()})
        else:  # pseudo, the last of the parser's choices
            if chart.hamiltonian is None:
                raise NotDefined("chart carries no Hamiltonian")
            if point is None:
                point = RationalSampler(args.seed).point(chart.dim)
            sol = hamiltonian_nvector_solve(chart, chart.hamiltonian, point)
            value = pseudobracket(chart, f, sol, algebraic_copolarization(chart))
            witness = {"point": _point_to_json(point)}
            if value.scalar is not None:
                witness["scalar"] = str(value.scalar)
            else:
                witness["pairings"] = [str(v) for v in value.pairings]
            report.add("bracket", "{H,F} from the solution cone", PASS, witness)
    except NotDefined as exc:
        report.add("bracket", "bracket outside the constructed cases", NOT_DEFINED,
                   {"reason": f"{exc}; general mixed-degree brackets are an open problem here"})
    except (NotWellDefined, ValueError) as exc:
        report.add("bracket", "bracket well-defined", FAIL, {"reason": str(exc)})
    except NoSolutionInFamily as exc:
        report.add("bracket", "Hamilton equation solvable at the point", FAIL, {"reason": str(exc)})
    except DegenerateSystem as exc:
        report.add("bracket", "Hamilton equation solvable at the point", NOT_DEFINED, {"reason": str(exc)})
    report.emit(args.output)
    return report.exit_code()


# `fieldlab` brings numpy, which only `simulate` needs: it is imported here
# and not at module level, so that the other verbs start without it.
def load_simulate(args) -> tuple:
    from .fieldlab import load_experiment_config

    return (load_experiment_config(args.config),)


def cmd_simulate(args, config: ExperimentConfig) -> int:
    from .fieldlab import conservation_experiment, write_series_csv

    result = conservation_experiment(config)
    report = Report(args.seed, None)
    for rep in result.functionals:
        expected = None if not config.expectations else config.expectations.get(rep.name)
        status = PASS
        if expected is not None and expected != rep.conserved:
            status = FAIL
        report.add(
            f"functional:{rep.name}",
            "slice integrals of conserved densities are slice-independent",
            status,
            {
                "initial": repr(rep.initial),
                "max_drift": repr(rep.max_drift),
                "conserved": rep.conserved,
                "tolerance": repr(rep.tolerance),
            },
        )
    if args.output_csv:
        write_series_csv(result, args.output_csv)
    report.emit(args.output)
    return report.exit_code()


# The witness keys that recheck replays, by (check_id, status).  Every
# replay needs the report's chart; a record of any other kind is not
# replayed.
_REPLAYED = {
    ("nondegenerate", FAIL): ("kernel_vector",),
    ("of", FAIL): ("form", "point", "family", "base_params", "kernel_direction", "scale", "value",
                   "value_perturbed"),
    ("aof", PASS): ("hamilton_field", "dF"),
    ("aof", FAIL): ("residual", "dF"),
}


def _witness_form(chart: Chart, data, what: str, kind: str, degree: int):
    try:
        form = parse_form(chart.frame, data, kind=kind)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{what} is not a {kind}: {exc}") from None
    if form.degree != degree:
        raise ValueError(f"{what} has degree {form.degree}, expected {degree}")
    return form


def _replay(check, chart: Chart | None) -> Callable[[], bool] | None:
    """The replay of a report record, its witness decoded up front, or
    None when `_REPLAYED` does not name the record's kind.  A record or a
    witness that does not decode raises ValueError."""
    if not (isinstance(check, dict) and isinstance(check.get("check_id"), str)
            and isinstance(check.get("status"), str)):
        raise ValueError("check_id and status must be strings")
    witness = check.get("witness") or {}
    if not isinstance(witness, dict):
        raise ValueError("the witness is not an object")
    kind = (check["check_id"], check["status"])
    if kind not in _REPLAYED:
        return None
    if chart is None:
        raise ValueError(f"the {' '.join(kind)} record needs the report's chart")
    missing = [key for key in _REPLAYED[kind] if key not in witness]
    if missing:
        raise ValueError(f"the witness lacks {', '.join(missing)}")
    n = chart.n
    if kind == ("nondegenerate", FAIL):
        vector = _rationals(witness["kernel_vector"], "kernel_vector", chart.dim)

        def nondegenerate_fail() -> bool:
            image = [sum(row[j] * vector[j] for j in range(len(vector))) for row in contraction_matrix(chart)]
            return not any(image) and any(vector)

        return nondegenerate_fail
    if kind == ("of", FAIL):
        form = _witness_form(chart, witness["form"], "form", "form", n)
        point = _rationals(witness["point"], "point", chart.dim)
        family = witness["family"]
        if not (isinstance(family, list) and all(isinstance(name, str) for name in family)):
            raise ValueError("family is not a list of coordinate names")
        try:
            horizontal = tuple(chart.frame.index(name) for name in family)
        except KeyError as exc:
            raise ValueError(f"family names an {exc.args[0]}") from None
        # the sampler's families: n distinct base coordinates, increasing
        base = chart.frame.base_indices()
        if not (len(horizontal) == n and set(horizontal) <= set(base)
                and all(a < b for a, b in zip(horizontal, horizontal[1:]))):
            raise ValueError(f"family is not {n} distinct base coordinates in increasing order")
        params = len(observability_family(chart, horizontal).params)
        ce = OFCounterexample(
            family_horizontal=tuple(family),
            base_params=_rationals(witness["base_params"], "base_params", params),
            kernel_direction=_rationals(witness["kernel_direction"], "kernel_direction", params),
            scale=_rationals([witness["scale"]], "scale", 1)[0],
            value=_rationals([witness["value"]], "value", 1)[0],
            value_perturbed=_rationals([witness["value_perturbed"]], "value_perturbed", 1)[0],
        )
        return lambda: recheck_of_counterexample(chart, form, point, ce)
    df = _witness_form(chart, witness["dF"], "dF", "form", n)
    if kind == ("aof", PASS):
        xi = _witness_form(chart, witness["hamilton_field"], "hamilton_field", "multivector",
                           chart.omega.degree - n)
        return lambda: not (hook(xi, chart.omega) + df)
    stored = _witness_form(chart, witness["residual"], "residual", "form", n)

    def aof_fail() -> bool:
        result = solve_contraction(chart, -df)
        return isinstance(result, NotAOF) and result.residual == stored

    return aof_fail


def load_recheck(args) -> tuple:
    """Whether the report's chart hash matches, and the replay of every
    record that `_REPLAYED` names."""
    with open(args.report, encoding="utf-8") as fh:
        data = json.load(fh)
    if not (isinstance(data, dict) and isinstance(data.get("checks"), list) and "tool_version" in data):
        raise ValueError(f"{args.report} is not a report (needs a checks list and a tool_version)")
    chart, hash_matches = None, True
    if data.get("chart"):
        if not (isinstance(data["chart"], dict) and {"name", "hash"} <= data["chart"].keys()
                and isinstance(data["chart"]["name"], str)):
            raise ValueError(f"the chart of {args.report} needs a name string and a hash")
        try:
            chart = builtin_chart(data["chart"]["name"])
        except ValueError:
            raise ValueError(f"recheck supports built-in charts only, not {data['chart']['name']!r}") from None
        hash_matches = chart.spec_hash() == data["chart"]["hash"]
    replays = []
    for number, check in enumerate(data["checks"], 1):
        try:
            replay = _replay(check, chart)
        except ValueError as exc:
            raise ValueError(f"check {number} of {args.report}: {exc}") from None
        if replay is not None:
            replays.append(replay)
    return hash_matches, replays


def cmd_recheck(args, hash_matches: bool, replays: list[Callable[[], bool]]) -> int:
    if not hash_matches:
        sys.stderr.write("chart hash mismatch\n")
        return 1
    verified = sum(bool(replay()) for replay in replays)
    failures = len(replays) - verified
    sys.stdout.write(json.dumps({"verified": verified, "failed": failures}, sort_keys=True) + "\n")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="multisymp", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-chart", help="verify chart invariants")
    p.add_argument("chart")
    p.add_argument("--output")
    p.set_defaults(load=load_check_chart, run=cmd_check_chart)

    p = sub.add_parser("observable", help="OF/AOF verdict for an (n-1)-form")
    p.add_argument("chart")
    p.add_argument("--form", required=True)
    p.add_argument("--points", type=int, default=3)
    p.add_argument("--point", default=None, help="comma-separated rational chart point")
    p.add_argument("--samples", type=int, default=4)
    p.add_argument("--output")
    p.set_defaults(load=load_observable, run=cmd_observable)

    p = sub.add_parser("bracket", help="bracket of two forms")
    p.add_argument("chart")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--kind", choices=["poisson", "theta", "external", "complementary", "pseudo"],
                   default="poisson")
    p.add_argument("--point", default=None)
    p.add_argument("--output")
    p.set_defaults(load=load_bracket, run=cmd_bracket)

    p = sub.add_parser("simulate", help="run a conservation experiment config")
    p.add_argument("config")
    p.add_argument("--output")
    p.add_argument("--output-csv")
    p.set_defaults(load=load_simulate, run=cmd_simulate)

    p = sub.add_parser("recheck", help="replay the witnesses of a report")
    p.add_argument("report")
    p.set_defaults(load=load_recheck, run=cmd_recheck)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Load the subcommand's inputs, then compute.  The load step's
    ValueError, KeyError, TypeError and OverflowError, and an OSError of
    either step, are input errors; any other exception of the compute step
    is a fault and propagates.  A `--point` value that argparse would read
    as an option, a negative number first, is joined to the flag."""
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--point" and argv[i][:1] == "-" and argv[i][1:2] in "0123456789.":
            argv[i - 1 : i + 1] = [f"--point={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        inputs = args.load(args)
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        error = exc
    else:
        try:
            return args.run(args, *inputs)
        except OSError as exc:  # an output path that cannot be written
            error = exc
    # str() of a KeyError is the repr of its message, quotes included
    message = error.args[0] if isinstance(error, KeyError) and len(error.args) == 1 else error
    sys.stderr.write(f"input error: {message}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
