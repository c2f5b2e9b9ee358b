"""Seeded inputs, items and correctness checks of the benchmark workloads.

A pass is one workload's fixed item set at a stated input size.  Building
a pass generates every input from the pass seed (this is set-up work);
running an item is timed.  Each item returns its output as bytes, so that
a traced and an untraced pass can be compared byte for byte, together with
whether that output is correct.

Library calls go through this module's globals on purpose: the trace hooks
rebind those names as well as the ones inside `multisymp`.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import random
from contextlib import redirect_stdout
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from multisymp import cli
from multisymp.algebra import RationalSampler
from multisymp.brackets import (
    bracket_field_identity_defect,
    jacobi_defect,
    pseudobracket,
    pseudobracket_aof,
    theta_jacobi_sum,
)
from multisymp.charts import (
    builtin_chart,
    ddw_chart,
    lepage_dedecker_chart,
    maxwell_chart,
    maxwell_pi,
    maxwell_potential_form,
    nondegeneracy_check,
)
from multisymp.dynamics import (
    annihilator_span,
    frame_compatible_hamiltonian,
    hamiltonian_nvector_solve,
    of_sampling_test,
    pseudofiber_directions,
)
from multisymp.exterior import (
    PolyForm,
    PolyMultivector,
    all_index_tuples,
    ext_d,
    form_basis,
    hook,
    vector_basis,
    wedge,
)
from multisymp.fieldlab import (
    Mode,
    functional_series,
    legendre_lift,
    plane_wave_state,
    pointwise_dynamics_on_lift,
    reversibility_error,
    simulate,
)
from multisymp.observables import (
    NotAOF,
    aof_solve,
    aof_tensor,
    algebraic_copolarization,
    charge_current_form,
    classify_aof,
    solve_contraction,
)

WORKLOADS = ("cli", "audit", "calculus", "fieldlab")

# cli and fieldlab outputs are checked against report digests recorded at
# the seed commit, so their inputs come in this many seeded variants.
DIGESTED = ("cli", "fieldlab")
VARIANTS = 16

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


@dataclass
class Item:
    """One timed unit of work.  `run` returns (output bytes, correct)."""

    id: str
    verb: str
    run: Callable[[], tuple[bytes, bool]]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass `index` within a run with workload seed `seed`."""
    return seed * 1009 + index


def variant_of(seed: int, index: int) -> int:
    return (seed + index) % VARIANTS


# ---------------------------------------------------------------------------
# generators (the seeded patterns of the test-suite's random_aof and
# random_aof_like_candidate)
# ---------------------------------------------------------------------------


def random_form(frame, degree, sampler, n_terms=3, coeff_degree=1):
    keys = all_index_tuples(frame.dim, degree)
    terms = {}
    for _ in range(n_terms):
        key = sampler.choice(keys)
        poly = sampler.polynomial(frame.names, max_degree=coeff_degree, n_terms=2)
        terms[key] = terms.get(key, frame.poly_zero()) + poly
    return PolyForm(frame, degree, {k: p for k, p in terms.items() if p})


def random_constant_vector(frame, sampler):
    terms = {}
    for j in range(frame.dim):
        value = sampler.rational()
        if value:
            terms[(j,)] = frame.poly_const(value)
    return PolyMultivector(frame, 1, terms)


def random_form_over(chart, degree, names, sampler, n_terms=2):
    frame = chart.frame
    keys = list(itertools.combinations(sorted(frame.index(n) for n in names), degree))
    terms = {}
    for _ in range(n_terms):
        key = sampler.choice(keys)
        poly = sampler.polynomial(frame.names, max_degree=2, n_terms=2, restrict_to=names)
        terms[key] = terms.get(key, frame.poly_zero()) + poly
    return PolyForm(frame, degree, {k: p for k, p in terms.items() if p})


def _aof_ingredients(chart, sampler):
    frame, n = chart.frame, chart.n
    base = chart.base_coordinate_names()
    field_names = base if chart.name.startswith("lepage-dedecker") else chart.horizontal
    out = [random_form_over(chart, n - 1, field_names, sampler)]
    if chart.theta is not None:
        components = {}
        for name in field_names:
            poly = sampler.polynomial(frame.names, max_degree=1, n_terms=1, restrict_to=field_names)
            if poly:
                components[name] = poly
        if components:
            xi = PolyMultivector.from_named(frame, 1, [((k,), v) for k, v in components.items()])
            out.append(hook(xi, chart.theta))
        verticals = [name for name in base if name not in chart.horizontal]
        if verticals:
            name = sampler.choice(verticals)
            out.append(hook(vector_basis(frame, name), chart.theta).scale(sampler.rational()))
    if chart.name == "maxwell":
        x = [f"x{mu}" for mu in range(4)]
        i, j = sorted(sampler.sample(range(4), 2))
        out.append(wedge(form_basis(frame, x[i], x[j]), maxwell_potential_form(frame)).scale(sampler.rational()))
        out.append(wedge(form_basis(frame, x[sampler.integer(0, 3)]), maxwell_pi(frame)).scale(sampler.rational()))
    if n >= 2:
        out.append(ext_d(random_form(frame, n - 2, sampler, n_terms=2, coeff_degree=1)))
    return [f for f in out if f]


def random_aof(chart, sampler):
    """Random (n-1)-form with a Hamilton vector field (checked by aof_solve)."""
    for _ in range(30):
        form = PolyForm.zero(chart.frame, chart.n - 1)
        for piece in _aof_ingredients(chart, sampler):
            if sampler.integer(0, 1):
                form = form + piece.scale(sampler.rational())
        if form and not isinstance(aof_solve(chart, form), NotAOF):
            return form
    raise RuntimeError(f"random AOF generation did not converge on {chart.name}")


def random_candidate(chart, sampler, kind):
    """Nonzero candidate n-form of one of four kinds: a contraction image,
    base wedges, free momentum-wedge monomials, or an image plus a monomial."""
    frame = chart.frame
    while True:
        if kind == 0:
            form = hook(random_constant_vector(frame, sampler), chart.omega)
        elif kind == 1:
            form = random_form_over(chart, chart.n, chart.base_coordinate_names(), sampler)
        elif kind == 2:
            form = random_form(frame, chart.n, sampler, n_terms=2, coeff_degree=1)
        else:
            form = hook(random_constant_vector(frame, sampler), chart.omega) + random_form(
                frame, chart.n, sampler, n_terms=1, coeff_degree=0
            )
        if form:
            return form


# ---------------------------------------------------------------------------
# cli: the fixed command corpus through multisymp.cli.main
# ---------------------------------------------------------------------------

FAILING_ITEM = "observable:lepage-dedecker:2,2:failing"  # exits 1 by design
FAILING_FORM = json.dumps({"degree": 1, "terms": [{"indices": ["p34"], "coeff": "p12"}]})

CLI_CORPUS = [
    ("check-chart:lepage-dedecker:3,3", ["check-chart", "lepage-dedecker:3,3"]),
    ("check-chart:maxwell", ["check-chart", "maxwell"]),
    ("check-chart:lepage-dedecker-split:3,3", ["check-chart", "lepage-dedecker-split:3,3"]),
    ("observable:ddw:2,2", ["observable", "ddw:2,2", "--form", "@volume-primitive"]),
    ("observable:lepage-dedecker:2,3", ["observable", "lepage-dedecker:2,3", "--form", "@volume-primitive"]),
    ("observable:lepage-dedecker-split:2,2",
     ["observable", "lepage-dedecker-split:2,2", "--form", "@volume-primitive"]),
    ("observable:ddw:3,2", ["observable", "ddw:3,2", "--form", "@volume-primitive"]),
    ("observable:scalar:2:charge", ["observable", "scalar:2", "--form", "@charge"]),
    ("observable:maxwell:1-point",
     ["observable", "maxwell", "--form", "@volume-primitive", "--points", "1"]),
    (FAILING_ITEM, ["observable", "lepage-dedecker:2,2", "--form", FAILING_FORM]),
    ("recheck:failing", ["recheck", None]),  # replays the report of the item above
    ("bracket:maxwell:complementary", ["bracket", "maxwell", "--f", "@pi", "--g", "@a", "--kind", "complementary"]),
    ("bracket:scalar:2:poisson", ["bracket", "scalar:2", "--f", "@charge", "--g", "@charge", "--kind", "poisson"]),
    ("bracket:scalar:2:theta", ["bracket", "scalar:2", "--f", "@charge", "--g", "@charge", "--kind", "theta"]),
    ("bracket:scalar:2,gauged:pseudo",
     ["bracket", "scalar:2,gauged", "--f", "@charge", "--g", "@charge", "--kind", "pseudo"]),
]


def run_cli(argv: list[str]) -> bytes:
    """Exit code line followed by the report bytes written to stdout."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return f"{code}\n".encode() + out.getvalue().encode()


def digest_check(expected: dict | None, item_id: str) -> Callable[[bytes], bool]:
    """Correct when the output matches the digest recorded at the seed
    commit; with no table (recording mode) every output is accepted."""
    if expected is None:
        return lambda output: True
    entry = expected.get(item_id)
    return lambda output: entry is not None and entry == sha256(output)


def cli_pass(seed: int, index: int, workdir: str, expected: dict | None) -> list[Item]:
    variant = variant_of(seed, index)
    table = None if expected is None else expected["cli"][str(variant)]
    report_path = os.path.join(workdir, f"failing-report-{os.getpid()}.json")
    items = []
    for item_id, argv in CLI_CORPUS:
        argv = ["--seed", str(variant)] + [report_path if a is None else a for a in argv]
        check = digest_check(table, item_id)

        def run(argv=argv, check=check, item_id=item_id):
            output = run_cli(argv)
            if item_id == FAILING_ITEM:
                with open(report_path, "wb") as fh:
                    fh.write(output.split(b"\n", 1)[1])
            return output, check(output)

        items.append(Item(item_id, argv[2], run))
    return items


# ---------------------------------------------------------------------------
# audit: sampled observability against exact contraction solvability
# ---------------------------------------------------------------------------

AUDIT_CHARTS = ((2, 2, 24), (2, 3, 8))  # (n, k, candidates per pass)


def audit_pass(seed: int, index: int, workdir: str, expected: dict | None) -> list[Item]:
    items = []
    base = pass_seed(seed, index)
    for n, k, count in AUDIT_CHARTS:
        chart = lepage_dedecker_chart(n, k)
        sampler = RationalSampler(base * 31 + chart.dim)
        point = sampler.point(chart.dim)
        for trial in range(count):
            # the kinds take turns, so every pass has the same mix
            candidate = random_candidate(chart, sampler, trial % 4)

            def run(chart=chart, candidate=candidate, point=point, trial=trial):
                solvable = not isinstance(solve_contraction(chart, candidate.at_point(point)), NotAOF)
                verdict = of_sampling_test(chart, candidate, point, sample_count=5, seed=base ^ trial)
                output = repr((solvable, verdict)).encode()
                return output, verdict.passed == solvable

            items.append(Item(f"{chart.name}:{trial}", "audit", run))
    return items


# ---------------------------------------------------------------------------
# calculus: exact identities over polynomial coefficients, no sampling
# ---------------------------------------------------------------------------

# items per pass; bracket-field is split over two charts, pseudobracket is per chart
CALCULUS_COUNTS = {"bracket-field": 60, "jacobi": 50, "theta-jacobi": 50, "pseudobracket": 12, "classify": 40}


def _solver_hamiltonian(chart, sampler, point):
    if chart.hamiltonian is not None:
        return chart.hamiltonian
    if chart.name.startswith("lepage"):
        return frame_compatible_hamiltonian(chart, sampler, point)
    names = chart.frame.names
    return chart.frame.poly_var("e") + sampler.polynomial(names, 2, 4, restrict_to=[n for n in names if n != "e"])


def calculus_pass(seed: int, index: int, workdir: str, expected: dict | None) -> list[Item]:
    sampler = RationalSampler(pass_seed(seed, index))
    ld21, ddw22, ld22, mx = lepage_dedecker_chart(2, 1), ddw_chart(2, 2), lepage_dedecker_chart(2, 2), maxwell_chart()
    items: list[Item] = []

    def add(item_id, verb, fn):
        items.append(Item(item_id, verb, fn))

    def zero_item(chart, form):
        return form.__repr__().encode(), form == PolyForm.zero(chart.frame, form.degree)

    for chart in (ld21, ddw22):
        for t in range(CALCULUS_COUNTS["bracket-field"] // 2):
            f, g = random_aof(chart, sampler), random_aof(chart, sampler)
            add(f"bracket-field:{chart.name}:{t}", "bracket-field",
                lambda c=chart, f=f, g=g: zero_item(c, bracket_field_identity_defect(c, f, g)))
    for t in range(CALCULUS_COUNTS["jacobi"]):
        f, g, h = (random_aof(ld21, sampler) for _ in range(3))
        add(f"jacobi:{t}", "jacobi", lambda f=f, g=g, h=h: zero_item(ld21, jacobi_defect(ld21, f, g, h)))
    for t in range(CALCULUS_COUNTS["theta-jacobi"]):
        f, g, h = (random_aof(ld21, sampler) for _ in range(3))
        add(f"theta-jacobi:{t}", "theta-jacobi", lambda f=f, g=g, h=h: zero_item(ld21, theta_jacobi_sum(ld21, f, g, h)))

    # Hamilton n-vector solving at fresh points; the solutions feed the
    # pseudobracket items that follow, so those fail when a solve fails.
    for chart in (ld22, ddw22, mx):
        point = sampler.point(chart.dim)
        h = _solver_hamiltonian(chart, sampler, point)
        copol = algebraic_copolarization(chart)
        observables = [random_aof(chart, sampler) for _ in range(CALCULUS_COUNTS["pseudobracket"])]
        solved: dict = {}

        def solve(chart=chart, h=h, point=point, solved=solved):
            solved["sol"] = sol = hamiltonian_nvector_solve(chart, h, point)
            return repr((sol.base_assignment, sol.kernel)).encode(), sol.verify()

        add(f"solve:{chart.name}", "solve", solve)
        for t, observable in enumerate(observables):
            def bracket(chart=chart, h=h, point=point, copol=copol, observable=observable, solved=solved):
                direct = pseudobracket(chart, observable, solved["sol"], copol)
                tensor = aof_tensor(chart, copol, observable)
                return repr(direct).encode(), pseudobracket_aof(chart, h, tensor, point) == direct

            add(f"pseudobracket:{chart.name}:{t}", "pseudobracket", bracket)

    # generalized pseudofibers of a vertical-only Hamiltonian: the
    # directions are vertical and doubling the representatives keeps them
    point = sampler.point(ld22.dim)
    h = frame_compatible_hamiltonian(ld22, sampler, point, vertical_only=True)

    def pseudofiber(point=point, h=h):
        sol = hamiltonian_nvector_solve(ld22, h, point)
        directions = pseudofiber_directions(ld22, sol)
        doubled = pseudofiber_directions(ld22, sol, doubled=True)
        positions = len(ld22.base_coordinate_names())
        vertical = all(v[i] == 0 for v in directions for i in range(positions))
        return repr(directions).encode(), vertical and annihilator_span(directions) == annihilator_span(doubled)

    add("pseudofiber:lepage-dedecker:2,2", "pseudofiber", pseudofiber)

    for t in range(CALCULUS_COUNTS["classify"]):
        observable = random_aof(ld22, sampler)

        def classify(observable=observable):
            cls = classify_aof(ld22, observable)
            split = cls.momentum_part + cls.lift_part + cls.remainder
            closed = ext_d(cls.remainder) == PolyForm.zero(ld22.frame, ld22.n)
            return repr(cls).encode(), split == observable and closed

        add(f"classify:{t}", "classify", classify)

    for chart in (ld21, ddw22, ld22, mx):
        check_seed = sampler.integer(0, 10**6)

        def nondegenerate(chart=chart, check_seed=check_seed):
            verdict = nondegeneracy_check(chart, seed=check_seed)
            return repr(verdict).encode(), verdict.passed

        add(f"nondegeneracy:{chart.name}", "nondegeneracy", nondegenerate)
    return items


# ---------------------------------------------------------------------------
# fieldlab: the floating-point laboratory
# ---------------------------------------------------------------------------

FIELDLAB_CONFIGS = {
    "linear": (0.0, {"charge": True, "smeared": True}),
    "nonlinear_charge": (0.5, {"charge": True}),
    "nonlinear_smeared": (0.5, {"charge": True, "smeared": False}),
}


def _variant_modes(rng: random.Random) -> list[Mode]:
    return [
        Mode(round(rng.uniform(0.9, 1.1), 3), 1, round(rng.uniform(0.0, 0.5), 3)),
        Mode(round(rng.uniform(0.3, 0.5), 3), 2, round(rng.uniform(0.8, 1.4), 3)),
    ]


def experiment_config(variant: int, coupling: float, expectations: dict) -> dict:
    """A shipped conservation config with seeded mode amplitudes and phases."""
    rng = random.Random(variant)
    modes = _variant_modes(rng)
    return {
        "grid_points": 256,
        "length": 2.0 * math.pi,
        "cfl": 0.45,
        "mass2": 1.0,
        "coupling": coupling,
        "crossing_times": 10.0,
        "field_modes": [asdict(m) for m in modes],
        "test_modes": [{"amplitude": 1.0, "wavenumber": 1, "phase": round(rng.uniform(0.0, 1.0), 3)}],
        "record_stride": 8,
        "conserved_tolerance": 1e-5,
        "smeared_tolerance": 1e-4,
        "expectations": expectations,
    }


def array_bytes(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in arrays)


def fieldlab_pass(seed: int, index: int, workdir: str, expected: dict | None) -> list[Item]:
    variant = variant_of(seed, index)
    table = None if expected is None else expected["fieldlab"][str(variant)]
    items = []
    for name, (coupling, expectations) in FIELDLAB_CONFIGS.items():
        path = os.path.join(workdir, f"{name}-{variant}-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(experiment_config(variant, coupling, expectations), fh)
        check = digest_check(table, f"simulate:{name}")

        def run(path=path, check=check):
            output = run_cli(["--seed", str(variant), "simulate", path])
            return output, check(output)

        items.append(Item(f"simulate:{name}", "simulate", run))

    modes = _variant_modes(random.Random(variant))
    chart = builtin_chart("scalar:2")
    charge = charge_current_form(chart)
    lift_state = plane_wave_state(64, 2.0 * math.pi, 0.45, modes, 1.0, 0.0)
    lift_check = digest_check(table, "lift")

    def lift():
        curve = legendre_lift(simulate(lift_state, 160), chart)
        series = functional_series(curve, charge)
        dynamics = pointwise_dynamics_on_lift(curve, chart, charge)
        output = array_bytes(curve.h_residual, series) + repr(sorted(dynamics.items())).encode()
        return output, lift_check(output)

    items.append(Item("lift", "legendre_lift", lift))

    reverse_state = plane_wave_state(256, 2.0 * math.pi, 0.45, modes, 1.0, 0.5)
    reverse_check = digest_check(table, "reversibility")

    def reversibility():
        error = reversibility_error(reverse_state, 10_000)
        output = repr(error).encode()
        return output, error <= 1e-10 and reverse_check(output)

    items.append(Item("reversibility", "reversibility_error", reversibility))
    return items


PASSES = {"cli": cli_pass, "audit": audit_pass, "calculus": calculus_pass, "fieldlab": fieldlab_pass}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)
