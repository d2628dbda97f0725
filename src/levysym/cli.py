"""Batch front-end: runs experiments from flags, writes CSV/JSON/SVG artifacts.

Exit codes: 0 all checks passed, 2 an acceptance-style check failed,
3 bad input (flags argparse rejects included), 4 a numeric budget was
exhausted; failures print a machine-readable JSON line to stdout.  This
module is the one writer of artifacts.  A CSV cell is ``true`` or ``false``
for a bool, 17 significant digits (``.17g``, round-trip exact) for a float
and ``str`` of anything else.  The subcommands that simulate
(``simulate``, ``moments`` and ``nonuniq``) write a ``manifest.json`` of
one schema, ``{"config": {horizon, seed, paths, max_events}, "ensembles":
[{k_token, spec, total_events, truncated_paths}, ...]}``, one entry per
lattice.  ``run-config`` replays a ``{"command", "args"}`` document.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path as FsPath

import numpy as np

from . import checks, mcstats, selftest, simulate, svgplot, symbols
from .errors import (BudgetExceeded, DomainError, UnitMismatch, UnsupportedSpec,
                     ViolatedDominance)

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4

#: bias allowance added to 3 SE for even-moment acceptance (the weak limit
#: is approached without a proven rate; empirically well inside this at n=10)
MOMENT_BIAS_ALLOWANCE = {2: 0.05, 4: 0.1}


#: the specs ``simulate`` and ``moments`` run, and those ``audit`` audits, by name
SIMULABLE = {c.wire_name: c for c in (symbols.SymmetricDoublingApprox,
                                      symbols.IncreasingDoublingApprox)}
AUDITABLE = {c.wire_name: c for c in (symbols.SymmetricDoubling, symbols.ProductCosine)}


def _approx_spec(name: str, k_token: str, n: int):
    return SIMULABLE[name](symbols.LatticeUnit.parse(k_token), n)


def _write(path: FsPath, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):  # np.float64 included
        return f"{value:.17g}"
    return str(value)


def _table(path: FsPath, header: str, rows):
    """Write a CSV artifact: the header line, then one line per row of cells."""
    _write(path, header + "\n" + "".join(",".join(map(_cell, row)) + "\n" for row in rows))


def _manifest(outdir: FsPath, cfg, ensembles):
    """Write the manifest of a run: its config, and under ``"ensembles"`` one
    entry per (k_token, spec, result) triple run under ``cfg``, in order, with
    the lattice token, the spec, the total events and the truncated paths."""
    doc = {"config": {"horizon": cfg.horizon, "seed": cfg.seed, "paths": cfg.paths,
                      "max_events": cfg.max_events},
           "ensembles": [{"k_token": token, "spec": spec.to_json(),
                          "total_events": int(sum(result.event_counts)),
                          "truncated_paths": result.truncated_count}
                         for token, spec, result in ensembles]}
    _write(outdir / "manifest.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _fail(reason: str, **info) -> int:
    print(json.dumps({"failed": True, "reason": reason, **info}, sort_keys=True))
    return EXIT_CHECK_FAILED


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_simulate(args) -> int:
    outdir = FsPath(args.out)
    k_tokens = args.k.split(",")
    multi_k = len(k_tokens) > 1
    svg_series = []
    ensembles = []
    for token in k_tokens:
        spec = _approx_spec(args.spec, token, args.n)
        rule = simulate.jump_rule_of(spec)
        x0 = rule.initial_state()
        store = bool(args.svg) or args.store_paths
        cfg = simulate.SimConfig(
            horizon=args.t, seed=args.seed, paths=args.paths,
            max_events=args.max_events, store_paths=store,
        )
        result = simulate.simulate_ensemble(rule, x0, cfg)
        suffix = f"_k_{token.replace('.', 'p')}" if multi_k else ""
        _table(outdir / f"endpoints{suffix}.csv", "path_index,t,value",
               ((i, result.horizon, v) for i, v in enumerate(result.values.tolist())))
        if store and result.paths:
            _table(outdir / f"paths{suffix}.csv", "path_index,jump_time,value_after",
                   ((i, t, state.value) for i, path in enumerate(result.paths)
                    for t, state in zip((0,) + path.times, path.states)))
            for path in result.paths[:3 if not multi_k else 1]:
                svg_series.append(
                    (f"k = {token}", path.times, [s.value for s in path.states])
                )
        ensembles.append((token, spec, result))
    _manifest(outdir, cfg, ensembles)
    if args.svg and svg_series:
        log_y = args.spec == symbols.IncreasingDoublingApprox.wire_name and args.log_y
        _write(
            FsPath(args.svg),
            svgplot.paths_svg(svg_series, args.t, title=args.spec, log_y=log_y),
        )
    return EXIT_OK


def cmd_moments(args) -> int:
    spec = _approx_spec(args.spec, args.k, args.n)
    rule = simulate.jump_rule_of(spec)
    cfg = simulate.SimConfig(horizon=args.t, seed=args.seed, paths=args.paths)
    result = simulate.simulate_ensemble(rule, rule.initial_state(), cfg)
    sample = mcstats.Sample.from_ensemble(result)
    rows = []
    all_ok = True
    for order in (int(o) for o in args.orders.split(",")):
        est = mcstats.moment_ci(sample, order)
        closed = mcstats.closed_moment(rule.family, order, args.t)
        err = abs(est.mean - closed)
        if closed == 0.0:
            tol = 4.0 * est.se
        else:
            tol = 3.0 * est.se + MOMENT_BIAS_ALLOWANCE.get(order, 0.05 * abs(closed))
        ok = err <= tol
        all_ok &= ok
        rows.append((order, est.mean, est.se, closed, err, ok))
    outdir = FsPath(args.out)
    _table(outdir / "moments.csv", "order,mc_mean,mc_se,closed_form,abs_error,pass", rows)
    _manifest(outdir, cfg, [(args.k, spec, result)])
    if not all_ok:
        return _fail("moment outside tolerance",
                     rows=[[r[0], r[1], r[3]] for r in rows if not r[5]])
    return EXIT_OK


def cmd_nonuniq(args) -> int:
    if not 0.0 < args.distance_ratio < math.inf:
        raise ValueError(
            f"--distance-ratio must be finite and positive, got {args.distance_ratio}")
    if args.paths < 2:
        raise ValueError(f"--paths must be at least 2 for a standard error, "
                         f"got {args.paths}")
    outdir = FsPath(args.out)
    samples = {}
    ensembles = []
    audits_ok = True
    audit_rows = []
    for token in ("1", "sqrt2"):
        spec = symbols.SymmetricDoublingApprox(symbols.LatticeUnit.parse(token), args.n)
        rule = simulate.jump_rule_of(spec)
        cfg = simulate.SimConfig(horizon=args.t, seed=args.seed, paths=args.paths)
        result = simulate.simulate_ensemble(rule, rule.initial_state(), cfg)
        samples[token] = mcstats.Sample.from_ensemble(result, label=f"k={token}")
        ensembles.append((token, spec, result))
    _manifest(outdir, cfg, ensembles)
    for own, other in (("1", "sqrt2"), ("sqrt2", "1")):
        own_audit = mcstats.support_audit(samples[own], own)
        cross = mcstats.support_audit(samples[own], other)
        audit_rows += [(own, own, own_audit.off_lattice, own_audit.nonzero_total),
                       (own, other, cross.off_lattice, cross.nonzero_total)]
        audits_ok &= own_audit.off_lattice == 0
        audits_ok &= cross.off_lattice == cross.nonzero_total
    _table(outdir / "support_audit.csv", "lattice,audited_against,off_lattice,nonzero_total",
           audit_rows)

    m1 = mcstats.moment_ci(samples["1"], 2)
    m2 = mcstats.moment_ci(samples["sqrt2"], 2)
    moments_ok = abs(m1.mean - m2.mean) <= 3.0 * (m1.se + m2.se)
    _table(outdir / "moment_comparison.csv", "lattice,order,mc_mean,mc_se",
           [("1", 2, m1.mean, m1.se), ("sqrt2", 2, m2.mean, m2.se)])

    dist = mcstats.ecf_distance(samples["1"], samples["sqrt2"])
    a, b = dist.ecf_a.mean, dist.ecf_b.mean
    _table(outdir / "ecf_report.csv", "u,re_a,im_a,re_b,im_b,weighted_abs_diff",
           zip(dist.u, a.real, a.imag, b.real, b.imag, dist.weighted_gap))
    dist_ok = dist.distance > args.distance_ratio * dist.se_bound
    _write(
        outdir / "ecf_distance.json",
        json.dumps(
            {
                "distance": dist.distance,
                "u_at": dist.u_at,
                "se_bound": dist.se_bound,
                "required_ratio": args.distance_ratio,
                "passed": bool(dist_ok),
            },
            indent=2,
        )
        + "\n",
    )
    if not (audits_ok and moments_ok and dist_ok):
        return _fail(
            "non-uniqueness checks failed",
            audits_ok=audits_ok, moments_ok=moments_ok, distance_ok=bool(dist_ok),
        )
    print(
        f"non-uniqueness confirmed: d = {dist.distance:.5f} "
        f"(> {args.distance_ratio} x SE bound {dist.se_bound:.5f}), "
        f"disjoint supports, matching second moments"
    )
    return EXIT_OK


def cmd_measure_selftest(args) -> int:
    algebra = selftest.measure_algebra_sweep(args.trials, args.seed)
    terms = selftest.term_measure_sweep(args.term_trials, args.seed + 1)
    for line in algebra.lines + terms.lines:
        print(line)
    if not (algebra.passed and terms.passed):
        return _fail("measure selftest failed")
    return EXIT_OK


def cmd_fourier_check(args) -> int:
    outdir = FsPath(args.out)
    if args.symbol == "prodcos":
        fs = checks.fourier_symbol_of_product_cosine(symbols.BrownianNegative())
    elif args.symbol == "localized-prodcos":
        fs = checks.localize_fourierize(
            symbols.ProductCosine(symbols.BrownianNegative()),
            args.x0, args.ell, nmax=args.nmax,
        )
    elif args.symbol == "constant":
        psi, none = symbols.BrownianNegative().psi, np.zeros(0, dtype=complex)
        fs = checks.FourierSymbol(1.0, np.zeros(0, dtype=int),
                                  lambda u: (complex(psi(u)), none, none, 0.0))
    else:
        raise ValueError(f"unknown symbol {args.symbol!r}")
    ugrid = np.linspace(-args.umax, args.umax, args.upoints)
    dom = checks.check_dominance(fs, ugrid)
    kr = checks.compute_K(fs, ugrid)
    doc = {
        "symbol": args.symbol,
        "dominance_passed": bool(dom.passed),
        "worst_margin": dom.worst_margin,
        "worst_margin_u": dom.worst_u,
        "K": kr.K,
        "K_u": kr.u_at,
        "majorant": [],
    }
    if args.csv:
        _table(outdir / "dominance.csv", "u,margin", zip(dom.u, dom.margin))
        _table(outdir / "k_integrand.csv", "u,K_integrand", zip(kr.u, kr.integrand))
    ok = dom.passed
    xgrid = np.linspace(-math.pi, math.pi, 101)
    for u in (float(v) for v in args.majorant_u.split(",") if v):
        for t in (float(v) for v in args.majorant_t.split(",") if v):
            _, rep = checks.assemble_majorant(fs, u, t, args.ncut, xgrid)
            ok &= rep.all_ok
            doc["majorant"].append(
                {
                    "u": u, "t": t,
                    "transform_error": rep.transform_error,
                    "weighted_mass": rep.weighted_mass,
                    "bound": rep.weighted_mass_bound,
                    "passed": bool(rep.all_ok),
                }
            )
    _write(outdir / "fourier_check.json", json.dumps(doc, indent=2) + "\n")
    if not ok:
        return _fail("fourier conditions failed", report=str(outdir / "fourier_check.json"))
    print(f"dominance pass, K = {kr.K:.6f}; majorant checks: {len(doc['majorant'])} ok")
    return EXIT_OK


def cmd_audit(args) -> int:
    outdir = FsPath(args.out)
    spec = AUDITABLE[args.spec]()
    psi = symbols.BrownianNegative()
    if not (math.isfinite(args.umin) and math.isfinite(args.umax)):
        raise ValueError(f"--umin and --umax must be finite, got {args.umin} and {args.umax}")
    ugrid = np.geomspace(max(args.umin, 1e-6), args.umax, args.upoints)
    audit = checks.audit_ellipticity(spec, psi, args.x0, args.radius, ugrid=ugrid,
                                     max_order=args.orders)
    _table(outdir / "ellipticity.csv", "order,elliptic_ratio,growth_ratio",
           [(order, audit.elliptic_ratio.get(order, math.nan),
             audit.growth_ratio.get(order, math.nan)) for order in range(1, args.orders + 1)]
           + [("floor", audit.floor_ratio, ""), ("slope", audit.slope, "")])
    print(
        f"{args.spec}: order-1 ratio {audit.elliptic_ratio.get(1, math.nan):.4g}, "
        f"slope {audit.slope:.3f}, floor {audit.floor_ratio:.4g}"
    )
    if args.bound is not None and any(not v <= args.bound  # a nan ratio fails too
                                      for v in audit.elliptic_ratio.values()):
        return _fail("smoothness ratio exceeds bound", bound=args.bound,
                     ratios={str(k): v for k, v in audit.elliptic_ratio.items()})
    return EXIT_OK


def cmd_run_config(args) -> int:
    """Replay an experiment from a JSON document.

    Schema: {"command": <subcommand>, "args": {<flag>: <value>, ...}} with
    flag names as in --help (underscores or dashes); boolean true means the
    switch is present.
    """
    doc = json.loads(FsPath(args.config).read_text())
    if not isinstance(doc, dict) or "command" not in doc:
        raise ValueError(f"{args.config}: need an object with a \"command\" key")
    flags = doc.get("args", {})
    if not isinstance(flags, dict):
        raise ValueError(f"{args.config}: \"args\" must be an object")
    argv = [str(doc["command"])]
    for key, value in flags.items():
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    return main(argv)


def cmd_groenwall(args) -> int:
    if args.table:
        rows = [
            line.split(",")
            for line in FsPath(args.table).read_text().strip().splitlines()
            if line and not line.startswith(("t,", "#"))
        ]
        if any(len(r) < 2 for r in rows):
            raise ValueError(f"{args.table}: every row needs a t and a phi column")
        ts = [float(r[0]) for r in rows]
        phis = [float(r[1]) for r in rows]
    else:
        ts, phis = checks.groenwall_recursion_table(
            args.phi0, args.c, args.horizon, args.steps
        )
    report = checks.groenwall_verify(ts, phis, args.c)
    print(
        f"hypothesis: {'ok' if report.hypothesis_ok else f'violated at {report.first_violation}'}; "
        f"conclusion: {'ok' if report.conclusion_ok else 'violated'} "
        f"(max excess {report.max_conclusion_excess:.3g})"
    )
    if not report.conclusion_ok:
        return _fail("groenwall conclusion violated",
                     max_excess=report.max_conclusion_excess)
    return EXIT_OK


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
class _Parser(argparse.ArgumentParser):
    """Raises a flag argparse rejects as bad input, for ``main``'s JSON line."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="levysym",
        description="simulate doubling-family jump processes and audit uniqueness conditions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="ensemble/path simulation with CSV + SVG output")
    p.add_argument("--spec", required=True, choices=SIMULABLE)
    p.add_argument("--k", default="1", help="lattice token(s), comma-separated (1, sqrt2, cbrt2, cbrt4, or a number)")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--paths", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-events", type=int, default=10_000_000)
    p.add_argument("--store-paths", action="store_true")
    p.add_argument("--svg", default=None)
    p.add_argument("--log-y", action="store_true")
    p.add_argument("--out", default="out/simulate")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("moments", help="Monte Carlo moments against the closed forms")
    p.add_argument("--spec", required=True, choices=SIMULABLE)
    p.add_argument("--k", default="1")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--orders", default="2,4")
    p.add_argument("--paths", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default="out/moments")
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("nonuniq", help="k=1 vs k=sqrt2: supports, moments, ECF distance")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--paths", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--distance-ratio", type=float, default=10.0)
    p.add_argument("--out", default="out/nonuniq")
    p.set_defaults(fn=cmd_nonuniq)

    p = sub.add_parser("measure-selftest", help="random-measure algebra and term-measure sweeps")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--term-trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=2024)
    p.set_defaults(fn=cmd_measure_selftest)

    p = sub.add_parser("fourier-check", help="dominance / K / majorant reports")
    p.add_argument("--symbol", default="prodcos",
                   choices=["prodcos", "localized-prodcos", "constant"])
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--nmax", type=int, default=64)
    p.add_argument("--ncut", type=int, default=1)
    p.add_argument("--umax", type=float, default=20.0)
    p.add_argument("--upoints", type=int, default=201)
    p.add_argument("--majorant-u", default="0.5,1,5,20")
    p.add_argument("--majorant-t", default="0.1,0.5,1")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out", default="out/fourier")
    p.set_defaults(fn=cmd_fourier_check)

    p = sub.add_parser("audit", help="ellipticity/smoothness ratio tables")
    p.add_argument("--spec", required=True, choices=AUDITABLE)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--radius", type=float, default=1e-3)
    p.add_argument("--umin", type=float, default=1.0)
    p.add_argument("--umax", type=float, default=1e3)
    p.add_argument("--upoints", type=int, default=61)
    p.add_argument("--orders", type=int, default=1)
    p.add_argument("--bound", type=float, default=None)
    p.add_argument("--out", default="out/audit")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("run-config", help="replay an experiment from a JSON config")
    p.add_argument("config", help="JSON file: {command, args}")
    p.set_defaults(fn=cmd_run_config)

    p = sub.add_parser("groenwall", help="verify the discrete Groenwall bound on a table")
    p.add_argument("--table", default=None, help="CSV with t,phi rows")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--phi0", type=float, default=1.0)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=100)
    p.set_defaults(fn=cmd_groenwall)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit:  # only --help exits: a rejected flag raises ValueError
        return EXIT_OK
    except BudgetExceeded as err:
        print(json.dumps({"failed": True, "reason": "numeric budget", "detail": str(err)}))
        return EXIT_BUDGET
    except ViolatedDominance as err:
        return _fail("dominance violated", detail=str(err))
    except (ValueError, DomainError, UnitMismatch, UnsupportedSpec, OSError) as err:
        print(json.dumps({"failed": True, "reason": "input error", "detail": str(err)}))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
