"""The four benchmark workloads and the checks made apart from the program.

Each workload turns a seed into a list of operations (``build``): the specs,
rules and sub-seeds are made there, so that building is the set-up and a round
is the run.  An operation calls levysym through its public functions or
``levysym.cli.main`` and then checks the outputs with code of its own: the
integer lattice tests, moments and characteristic functions are recomputed
here with NumPy from the exact (m, s) states, and the analytic values come
from closed forms.  An operation returns the checks that failed; an empty
list means its outputs are correct.

All calls go through module attributes (``simulate.simulate_ensemble``, not a
name imported at load time), so the spans and captures of ``spans`` see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from levysym import checks, cli, mcstats, selftest, simulate, symbols  # noqa: F401

from spans import capture

#: lattice units recomputed here rather than read from levysym
UNIT_VALUE = {"1": 1.0, "sqrt2": math.sqrt(2.0)}
OTHER = {"1": "sqrt2", "sqrt2": "1"}

#: "full" is what the benchmark measures; "smoke" runs every check in seconds
SIZES = {
    "nonuniq-fine": {
        "full": {"n": 8, "paths": 6_000},
        "smoke": {"n": 6, "paths": 2_000},
    },
    "ecf-coarse": {
        "full": {"n": 4, "paths": 10_000, "nulls": 2},
        "smoke": {"n": 4, "paths": 4_000, "nulls": 2},
    },
    "dynkin-grid": {
        "full": {"sym_n": 6, "inc_n": 10, "paths": 2_000, "replay": 200},
        "smoke": {"sym_n": 4, "inc_n": 6, "paths": 500, "replay": 20},
    },
    "uniqueness-audit": {
        "full": {"upoints": 201, "trials": 500, "term_trials": 200},
        "smoke": {"upoints": 21, "trials": 50, "term_trials": 20},
    },
}


@dataclass(frozen=True)
class Op:
    """One operation of a round.

    ``known_fault`` marks the operation that fails because of a fault in the
    program; its failure is counted but does not make the run incorrect.
    """

    name: str
    run: Callable[[], list]
    known_fault: bool = False


def sub_seeds(seed: int, count: int) -> list[int]:
    """Independent 32-bit seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def build(name: str, seed: int, size: str, outdir: Path) -> list[Op]:
    make = {
        "nonuniq-fine": nonuniq_fine,
        "ecf-coarse": ecf_coarse,
        "dynkin-grid": dynkin_grid,
        "uniqueness-audit": uniqueness_audit,
    }[name]
    return make(seed, outdir, **SIZES[name][size])


# ----------------------------------------------------------------------
# independent recomputation
# ----------------------------------------------------------------------
def _cli(argv) -> tuple[int, str]:
    """Run ``levysym.cli.main`` with its standard output kept apart."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def _mantissas(result) -> tuple[list, np.ndarray, np.ndarray]:
    tags = [e.unit_tag for e in result.endpoints]
    m = np.array([e.m for e in result.endpoints], dtype=np.int64)
    s = np.array([e.s for e in result.endpoints], dtype=np.int64)
    return tags, m, s


def _values(token: str, m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """x = k * m * 2**-s, the same rounding as one float multiply."""
    return UNIT_VALUE[token] * np.ldexp(m.astype(np.float64), -s)


def _lattice_problems(label: str, result, own: str) -> list[str]:
    """Nonzero endpoints on M_k (|m| a power of two), tagged k, none tagged the other k."""
    tags, m, s = _mantissas(result)
    nz = m != 0
    a = np.abs(m[nz])
    problems = []
    off = int(np.count_nonzero(a & (a - 1)))
    if off:
        problems.append(f"{label}: {off} nonzero endpoints with |m| not a power of two")
    other = sum(1 for tag, z in zip(tags, nz) if z and tag == OTHER[own])
    if other or any(tag != own for tag in tags):
        problems.append(f"{label}: endpoints not tagged {own!r} ({other} tagged {OTHER[own]!r})")
    if result.truncated_count:
        problems.append(f"{label}: {result.truncated_count} truncated paths")
    return problems


def _weighted_gap(xa: np.ndarray, xb: np.ndarray, u: float) -> float:
    """|phi_a(u) - phi_b(u)| / (1 + u^2) from cosine and sine means."""
    pa = complex(np.cos(u * xa).mean(), np.sin(u * xa).mean())
    pb = complex(np.cos(u * xb).mean(), np.sin(u * xb).mean())
    return abs(pa - pb) / (1.0 + u * u)


def _second_moment(x: np.ndarray) -> tuple[float, float]:
    sq = x * x
    return float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(sq.size))


# ----------------------------------------------------------------------
# nonuniq-fine: the CLI's non-uniqueness verdict at n = 10
# ----------------------------------------------------------------------
def nonuniq_fine(seed: int, outdir: Path, n: int, paths: int) -> list[Op]:
    (cmd_seed,) = sub_seeds(seed, 1)
    out = outdir / "nonuniq"
    horizon = 1.0
    argv = ["nonuniq", "--n", n, "--t", horizon, "--paths", paths,
            "--seed", cmd_seed, "--out", out]

    def run() -> list[str]:
        with capture("simulate", "simulate_ensemble") as calls:
            code, _ = _cli(argv)
        problems = [] if code == cli.EXIT_OK else [f"nonuniq exited {code}"]
        if len(calls) != 2:
            return problems + [f"expected 2 ensembles, captured {len(calls)}"]
        xs = {}
        nonzero = {}
        for (args, _, result), token in zip(calls, ("1", "sqrt2")):
            problems += _lattice_problems(f"k={token}", result, token)
            _, m, s = _mantissas(result)
            nonzero[token] = int(np.count_nonzero(m))
            xs[token] = _values(token, m, s)
            mean, se = _second_moment(xs[token])
            if abs(mean - horizon) > 4.0 * se + 0.05:
                problems.append(f"k={token}: E X^2 = {mean:.5f}, SE {se:.5f}, closed form {horizon}")
        with open(out / "support_audit.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                own = row["lattice"]
                want_off = 0 if row["audited_against"] == own else nonzero[own]
                if (int(row["off_lattice"]), int(row["nonzero_total"])) != (want_off, nonzero[own]):
                    problems.append(f"support_audit.csv row {row} disagrees with the integer audit")
        dist = json.loads((out / "ecf_distance.json").read_text())
        if not dist["distance"] > 10.0 * dist["se_bound"]:
            problems.append(f"ECF distance {dist['distance']:.5g} not > 10 x SE bound {dist['se_bound']:.5g}")
        gap = _weighted_gap(xs["1"], xs["sqrt2"], dist["u_at"])
        if abs(gap - dist["distance"]) > 1e-12:
            problems.append(f"weighted gap at u_at recomputes to {gap!r}, reported {dist['distance']!r}")
        return problems

    return [Op("nonuniq", run)]


# ----------------------------------------------------------------------
# ecf-coarse: ECF null calibration at n = 4
# ----------------------------------------------------------------------
def ecf_coarse(seed: int, outdir: Path, n: int, paths: int, nulls: int) -> list[Op]:
    seeds = sub_seeds(seed, nulls + 2)
    rules = {
        token: simulate.jump_rule_of(
            symbols.SymmetricDoublingApprox(symbols.LatticeUnit.parse(token), n))
        for token in ("1", "sqrt2")
    }
    # k = 1 ensembles "k1-0".."k1-<nulls>", one k = sqrt2 ensemble
    members = [(f"k1-{i}", "1", seeds[i]) for i in range(nulls + 1)]
    members.append(("sqrt2", "sqrt2", seeds[-1]))
    samples: dict[str, tuple] = {}

    def ensemble(label, token, sub_seed):
        def run() -> list[str]:
            rule = rules[token]
            cfg = simulate.SimConfig(horizon=1.0, seed=sub_seed, paths=paths)
            result = simulate.simulate_ensemble(rule, rule.initial_state(), cfg)
            _, m, s = _mantissas(result)
            samples[label] = (mcstats.Sample.from_ensemble(result, label), _values(token, m, s))
            return _lattice_problems(label, result, token)
        return Op(f"ensemble-{label}", run)

    def distance(a, b, null):
        def run() -> list[str]:
            (sa, xa), (sb, xb) = samples[a], samples[b]
            rep = mcstats.ecf_distance(sa, sb)
            ratio = rep.distance / rep.se_bound
            problems = []
            if null and not ratio <= 5.0:
                problems.append(f"null pair {a}/{b}: distance {ratio:.2f} x SE bound (> 5)")
            if not null and not ratio > 10.0:
                problems.append(f"alternative {a}/{b}: distance {ratio:.2f} x SE bound (<= 10)")
            gap = _weighted_gap(xa, xb, rep.u_at)
            if abs(gap - rep.distance) > 1e-12:
                problems.append(f"{a}/{b}: gap at u_at recomputes to {gap!r}, reported {rep.distance!r}")
            return problems
        return Op(f"{'null' if null else 'alt'}-{a}-{b}", run)

    ops = [ensemble(*member) for member in members]
    ops += [distance("k1-0", f"k1-{i}", True) for i in range(1, nulls + 1)]
    ops.append(distance("k1-0", "sqrt2", False))
    return ops


# ----------------------------------------------------------------------
# dynkin-grid: martingale residuals, per-path replay, engine agreement
# ----------------------------------------------------------------------
def _square():
    return symbols.TestFunction(lambda x: x * x, lambda x: 2.0 * x, lambda x: 2.0)


def _identity():
    return symbols.TestFunction(lambda x: x, lambda x: 1.0, lambda x: 0.0)


def _engines_problems(label: str, lockstep, perpath) -> list[str]:
    """Endpoints, event counts and truncations identical in both engines.

    The lock-step ensemble may hold more paths; its first ones are compared.
    """
    problems = []
    same = sum(
        (a.unit_tag, a.m, a.s) == (b.unit_tag, b.m, b.s)
        for a, b in zip(lockstep.endpoints, perpath.endpoints)
    )
    if same != len(perpath.endpoints) or len(lockstep.endpoints) < len(perpath.endpoints):
        problems.append(f"{label}: {len(perpath.endpoints) - same} endpoints differ between engines")
    counts = lockstep.event_counts[:len(perpath.event_counts)]
    if tuple(counts) != tuple(perpath.event_counts):
        problems.append(f"{label}: event counts differ between engines")
    if lockstep.truncated_count != perpath.truncated_count:
        problems.append(
            f"{label}: {lockstep.truncated_count} truncated paths lock-step, "
            f"{perpath.truncated_count} per-path"
        )
    return problems


def dynkin_grid(seed: int, outdir: Path, sym_n: int, inc_n: int, paths: int,
                replay: int) -> list[Op]:
    sym_seed, inc_seed = sub_seeds(seed, 2)
    k1 = symbols.LatticeUnit.parse("1")
    origin = simulate.ExactState("1", 1.0, 0, 0)
    grid = np.linspace(0.0, 1.0, 11)
    sym_spec = symbols.SymmetricDoublingApprox(k1, sym_n)
    inc_spec = symbols.IncreasingDoublingApprox(k1, inc_n)
    terminal: list = []

    def residual_problems(label, rep) -> list[str]:
        # A f = 1 everywhere for both pairs (derivation in the README)
        problems = []
        worst = max(abs(g - 1.0) for g in rep.generator_means)
        if worst > 1e-9:
            problems.append(f"{label}: a generator mean is {worst:.3g} away from 1")
        if abs(rep.residual) > 4.0 * rep.se + 0.01 + rep.quadrature_error:
            problems.append(f"{label}: residual {rep.residual:+.5f} > 4 SE + 0.01 + quad "
                            f"({4.0 * rep.se + 0.01 + rep.quadrature_error:.5f})")
        return problems

    def symmetric() -> list[str]:
        with capture("simulate", "simulate_ensemble") as calls:
            rep = mcstats.dynkin_residual(sym_spec, _square(), origin, 1.0, grid,
                                          paths, sym_seed)
        terminal[:] = calls[-1:]
        return residual_problems("symmetric f = x^2", rep)

    def increasing() -> list[str]:
        rep = mcstats.dynkin_residual(inc_spec, _identity(), origin, 1.0, grid,
                                      paths, inc_seed)
        return residual_problems("increasing f = x", rep)

    def replay_paths() -> list[str]:
        # the first paths of the terminal lock-step ensemble, again per path
        (rule, x0, cfg), _, lockstep = terminal[0]
        again = simulate.SimConfig(horizon=cfg.horizon, seed=cfg.seed, paths=replay,
                                   max_events=cfg.max_events, store_paths=True)
        perpath = simulate.simulate_ensemble(rule, x0, again)
        problems = _engines_problems("replay", lockstep, perpath)
        for i, path in enumerate(perpath.paths):
            if path.endpoint != perpath.endpoints[i] or len(path.times) != perpath.event_counts[i]:
                problems.append(f"replay: stored path {i} disagrees with its endpoint")
                break
        return problems

    fault_rule = simulate.jump_rule_of(symbols.IncreasingDoublingApprox(k1, 32))

    def engines_n32() -> list[str]:
        # the lock-step engine computes 1 << 2n in int64, which overflows for n >= 32
        cfg = simulate.SimConfig(horizon=1.0, seed=3, paths=64, max_events=2000)
        x0 = fault_rule.initial_state()
        lockstep = simulate.simulate_ensemble(fault_rule, x0, cfg)
        perpath = simulate.simulate_ensemble(
            fault_rule, x0, simulate.SimConfig(horizon=1.0, seed=3, paths=64,
                                               max_events=2000, store_paths=True))
        return _engines_problems("n = 32", lockstep, perpath)

    return [
        Op("dynkin-symmetric", symmetric),
        Op("dynkin-increasing", increasing),
        Op("replay", replay_paths),
        Op("engines-n32", engines_n32, known_fault=True),
    ]


# ----------------------------------------------------------------------
# uniqueness-audit: dominance, K, majorants, ellipticity, sweeps, Groenwall
# ----------------------------------------------------------------------
def _margin_problems(label: str, u, margin) -> list[str]:
    u = np.asarray(u, dtype=float)
    bad = np.count_nonzero(np.asarray(margin) < -1e-10 * (1.0 + u * u))
    return [f"{label}: {bad} dominance margins below -1e-10 (1 + u^2)"] if bad else []


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def uniqueness_audit(seed: int, outdir: Path, upoints: int, trials: int,
                     term_trials: int) -> list[Op]:
    # no simulation: the seed only picks the measure self-test draws
    (sweep_seed,) = sub_seeds(seed, 1)
    prodcos = symbols.ProductCosine(symbols.BrownianNegative())
    ugrid = np.linspace(-20.0, 20.0, upoints)

    def fourier_check() -> list[str]:
        out = outdir / "fourier"
        with capture("checks", "assemble_majorant") as majorants:
            code, _ = _cli(["fourier-check", "--symbol", "prodcos", "--csv",
                            "--upoints", upoints, "--out", out])
        problems = [] if code == cli.EXIT_OK else [f"fourier-check exited {code}"]
        doc = json.loads((out / "fourier_check.json").read_text())
        rows = _read_csv(out / "dominance.csv")
        problems += _margin_problems(
            "prodcos", [float(r["u"]) for r in rows], [float(r["margin"]) for r in rows])
        k_closed = float(np.max(0.5 * ugrid**2 / (1.0 + ugrid**2)))
        if abs(doc["K"] - k_closed) > 1e-12 * k_closed:
            problems.append(f"K = {doc['K']!r}, closed form {k_closed!r}")
        if len(majorants) != 12:
            problems.append(f"expected 12 majorants, captured {len(majorants)}")
        for (fs, u, t, *_), _, (P, _) in majorants:
            xgrid = np.linspace(-math.pi, math.pi, 101)
            j = np.array(list(P.weights), dtype=float)
            w = np.array(list(P.weights.values()), dtype=complex)
            transform = np.exp(1j * np.outer(xgrid, j * 1.0)) @ w
            target = np.exp(t * (1.0 - np.cos(xgrid)) * (-0.5 * u * u))
            err = float(np.max(np.abs(transform - target)))
            mass = float(np.sum((1.0 + (u + j) ** 2) / (1.0 + u * u) * np.abs(w)))
            bound = 1.0 + t * u * u / (2.0 * (1.0 + u * u)) + 1e-6
            if P.unit != 1.0 or err > 1e-6:
                problems.append(f"majorant u={u} t={t}: transform error {err:.3g}")
            if mass > bound:
                problems.append(f"majorant u={u} t={t}: weighted mass {mass!r} > {bound!r}")
        return problems

    def localized(ell: int):
        def run() -> list[str]:
            fs = checks.localize_fourierize(prodcos, math.pi, ell, nmax=64)
            dom = checks.check_dominance(fs, ugrid)
            kr = checks.compute_K(fs, ugrid)
            label = f"localized x0 = pi, ell = {ell}"
            problems = _margin_problems(label, dom.u, dom.margin)
            # K again from the coefficient rows (cached, no new symbol calls)
            k_rows = max(
                sum(n * n * (abs(a) + abs(b)) for n, a, b in fs.coefficient_rows(u))
                / (1.0 + u * u)
                for u in ugrid
            ) * fs.k**2
            if abs(kr.K - k_rows) > 1e-9 * k_rows:
                problems.append(f"{label}: K = {kr.K!r}, from the coefficients {k_rows!r}")
            plateau = np.linspace(math.pi - 0.25 / ell, math.pi + 0.25 / ell, 41)
            err = max(
                abs(fs.reconstruct(x, u) - (1.0 - math.cos(x)) * (-0.5 * u * u))
                for u in (0.25, 0.5, 1.0) for x in plateau
            )
            if err > 1e-6:
                problems.append(f"{label}: plateau reconstruction error {err:.3g}")
            return problems
        return Op(f"localize-ell{ell}", run)

    def audit(spec: str):
        def run() -> list[str]:
            out = outdir / f"audit-{spec}"
            radius = 1e-3
            code, _ = _cli(["audit", "--spec", spec, "--x0", 0, "--radius", radius,
                            "--out", out])
            problems = [] if code == cli.EXIT_OK else [f"audit {spec} exited {code}"]
            rows = {r["order"]: r for r in _read_csv(out / "ellipticity.csv")}
            ratio = float(rows["1"]["elliptic_ratio"])
            slope = float(rows["slope"]["elliptic_ratio"])
            if spec == "prodcos":
                # d/dx (1 - cos x) psi = sin x psi: the ratio is max |sin x| = sin(radius)
                ok = abs(ratio - math.sin(radius)) <= 1e-6 and -0.2 <= slope <= 0.2
            else:
                ok = ratio > 100.0 and 1.7 <= slope <= 2.3
            if not ok:
                problems.append(f"audit {spec}: order-1 ratio {ratio!r}, slope {slope!r}")
            return problems
        return Op(f"audit-{spec}", run)

    def selftest_sweeps() -> list[str]:
        with capture("selftest", "measure_algebra_sweep") as algebra, \
                capture("selftest", "term_measure_sweep") as terms:
            code, text = _cli(["measure-selftest", "--trials", trials,
                               "--term-trials", term_trials, "--seed", sweep_seed])
        problems = [] if code == cli.EXIT_OK else [f"measure-selftest exited {code}"]
        results = [r for *_, r in algebra + terms]
        if len(results) != 2 or not all(r.passed for r in results):
            problems.append("a self-test sweep did not pass")
        lines = text.splitlines()
        if len(lines) != 13 or not all(line.startswith("PASS ") for line in lines):
            problems.append(f"self-test printed {len(lines)} lines, not 13 PASS lines")
        return problems

    def groenwall() -> list[str]:
        problems = []
        for c in (0.5, 2.0):
            for steps in (10, 100, 1000):
                ts, phis = checks.groenwall_recursion_table(1.0, c, 1.0, steps)
                rep = checks.groenwall_verify(ts, phis, c)
                # (1 + c h)^m <= e^{c m h}; the recursion adds rounding only.  The
                # hypothesis fails on such tables ((1 + c h)^m > 1 + m c h), so only
                # the conclusion is checked, as in the acceptance suite.
                closed = (1.0 + c / steps) ** np.arange(steps + 1)
                drift = float(np.max(np.abs(np.array(phis) - closed) / closed))
                excess = float(np.max(np.array(phis) - np.exp(c * np.array(ts))))
                if not rep.conclusion_ok or drift > 1e-12 or excess > 0.0:
                    problems.append(f"groenwall c={c} steps={steps}: conclusion fails "
                                    f"(table drift {drift:.3g}, excess {excess:.3g})")
        code, text = _cli(["groenwall", "--c", 2, "--steps", 1000])
        if code != cli.EXIT_OK or "conclusion: ok" not in text:
            problems.append(f"groenwall CLI exited {code}: {text.strip()}")
        return problems

    return [
        Op("fourier-check", fourier_check),
        localized(1),
        localized(2),
        audit("ex31"),
        audit("prodcos"),
        Op("measure-selftest", selftest_sweeps),
        Op("groenwall", groenwall),
    ]
