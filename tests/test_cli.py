"""CLI: exit codes, artifact layout and cells, byte-identical reruns."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from levysym.cli import EXIT_BUDGET, EXIT_CHECK_FAILED, EXIT_INPUT, _table, main
from levysym.selftest import measure_algebra_sweep, term_measure_sweep


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


def test_table_cells(tmp_path):
    # bools lower-case, floats (NumPy's too) to 17 significant digits, the rest by str
    out = tmp_path / "t" / "table.csv"
    _table(out, "a,b", [(True, np.False_), (0.1, np.float64(1 / 3)), (7, np.int64(-3)),
                        ("x", ""), (math.nan, 1e300)])
    assert out.read_text() == ("a,b\ntrue,false\n0.10000000000000001,0.33333333333333331\n"
                               "7,-3\nx,\nnan,1.0000000000000001e+300\n")


def test_simulate_writes_artifacts_and_svg(tmp_path):
    out = tmp_path / "sim"
    svg = tmp_path / "fig.svg"
    code = main([
        "simulate", "--spec", "ex31approx", "--k", "sqrt2", "--n", "6", "--t", "1",
        "--paths", "3", "--seed", "7", "--svg", str(svg), "--out", str(out),
    ])
    assert code == 0
    assert (out / "endpoints.csv").exists()
    assert (out / "paths.csv").exists()
    text = (out / "manifest.json").read_text()
    assert '"variant": "ex31approx"' in text and '"tag": "sqrt2"' in text
    manifest = json.loads(text)
    assert manifest["config"]["seed"] == 7
    assert manifest["ensembles"][0]["spec"] == {"variant": "ex31approx", "n": 6,
                                                "k": {"value": 2.0**0.5, "tag": "sqrt2"}}
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text


def test_simulate_multi_k_figure(tmp_path):
    svg = tmp_path / "f.svg"
    code = main([
        "simulate", "--spec", "ex31approx", "--k", "1,cbrt2,cbrt4", "--n", "5",
        "--t", "1", "--seed", "3", "--svg", str(svg), "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    assert (tmp_path / "o" / "endpoints_k_cbrt4.csv").exists()
    assert svg.read_text().count("polyline") == 3


def test_simulate_multi_k_honours_paths(tmp_path):
    code = main([
        "simulate", "--spec", "ex32approx", "--k", "1,sqrt2", "--n", "4",
        "--paths", "5", "--seed", "3", "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    for token in ("1", "sqrt2"):
        rows = (tmp_path / "o" / f"endpoints_k_{token}.csv").read_text().splitlines()
        assert rows[0] == "path_index,t,value"
        assert [r.split(",")[0] for r in rows[1:]] == ["0", "1", "2", "3", "4"]


def test_simulate_tables_hold_a_row_per_path_and_per_state(tmp_path):
    # endpoints.csv: one row per path at the horizon; paths.csv: one row per
    # state, each path's first at the literal time 0 and its last at its endpoint
    out = tmp_path / "o"
    assert main(["simulate", "--spec", "ex31approx", "--k", "1", "--n", "3", "--t", "1.5",
                 "--paths", "3", "--seed", "8", "--store-paths", "--out", str(out)]) == 0
    ends = [r.split(",") for r in (out / "endpoints.csv").read_text().splitlines()]
    assert ends[0] == ["path_index", "t", "value"]
    assert [r[:2] for r in ends[1:]] == [["0", "1.5"], ["1", "1.5"], ["2", "1.5"]]
    rows = [r.split(",") for r in (out / "paths.csv").read_text().splitlines()]
    assert rows[0] == ["path_index", "jump_time", "value_after"]
    events = json.loads((out / "manifest.json").read_text())["ensembles"][0]["total_events"]
    assert len(rows) == 1 + 3 + events
    by_path = {}
    for i, t, value in rows[1:]:
        by_path.setdefault(i, []).append((t, value))
    assert list(by_path) == ["0", "1", "2"]
    for i, states in by_path.items():
        assert states[0][0] == "0"
        assert states[-1][1] == ends[1 + int(i)][2]


def test_reruns_byte_identical(tmp_path):
    args = [
        "moments", "--spec", "ex32approx", "--k", "1", "--n", "4", "--t", "1",
        "--orders", "1,2", "--paths", "2000", "--seed", "11",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "moments.csv").read_bytes() == (
        tmp_path / "b" / "moments.csv"
    ).read_bytes()


def test_moments_failure_exit_code(tmp_path):
    # wrong closed form cannot happen; force failure with tiny sample + odd seed
    # by auditing order 4 with 10 paths repeatedly until one trips is flaky, so
    # instead check the input-error code paths
    code = main(["moments", "--spec", "nope"])
    assert code == EXIT_INPUT


def test_moments_table_marks_each_order_true_or_false(tmp_path, capsys):
    # 20 paths at seed 3 miss the third moment's tolerance, not the first two
    out = tmp_path / "m"
    code = main(["moments", "--spec", "ex32approx", "--k", "1", "--n", "4",
                 "--orders", "1,2,3", "--paths", "20", "--seed", "3", "--out", str(out)])
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == EXIT_CHECK_FAILED and doc["reason"] == "moment outside tolerance"
    rows = [r.split(",") for r in (out / "moments.csv").read_text().splitlines()]
    assert rows[0] == ["order", "mc_mean", "mc_se", "closed_form", "abs_error", "pass"]
    assert [(r[0], r[-1]) for r in rows[1:]] == [("1", "true"), ("2", "true"), ("3", "false")]


def test_simulate_rejects_bad_config(tmp_path):
    base = ["simulate", "--spec", "ex32approx", "--n", "2", "--paths", "3"]
    code = main(base + ["--t", "inf", "--max-events", "50", "--out", str(tmp_path / "a")])
    assert code == EXIT_INPUT
    code = main(base + ["--t", "1", "--max-events", "-4", "--out", str(tmp_path / "b")])
    assert code == EXIT_INPUT
    # a non-finite lattice unit would put every jump at inf or nan
    code = main(["simulate", "--spec", "ex31approx", "--k", "inf", "--n", "4",
                 "--paths", "3", "--out", str(tmp_path / "c")])
    assert code == EXIT_INPUT
    assert not any((tmp_path / d).exists() for d in "abc")


def test_nonuniq_small(tmp_path):
    out = tmp_path / "nu"
    code = main([
        "nonuniq", "--n", "6", "--t", "1", "--paths", "1500", "--seed", "5",
        "--distance-ratio", "5", "--out", str(out),
    ])
    assert code == 0
    audit = (out / "support_audit.csv").read_text().splitlines()
    assert audit[0] == "lattice,audited_against,off_lattice,nonzero_total"
    own = audit[1].split(",")
    assert own[2] == "0"
    dist = json.loads((out / "ecf_distance.json").read_text())
    assert dist["passed"]


def test_nonuniq_reports_the_ecfs_its_distance_computed(tmp_path, monkeypatch):
    # ecf_report.csv has a row per frequency of DEFAULT_UGRID, where each
    # lattice's ECF is computed once, by ecf_distance
    from levysym import mcstats

    grids = []
    ecf = mcstats.ecf
    monkeypatch.setattr(mcstats, "ecf",
                        lambda sample, u: grids.append(len(u)) or ecf(sample, u))
    out = tmp_path / "nu"
    assert main(["nonuniq", "--n", "4", "--paths", "300", "--distance-ratio", "1e-6",
                 "--out", str(out)]) == 0
    assert grids.count(mcstats.DEFAULT_UGRID.size) == 2
    rows = (out / "ecf_report.csv").read_text().splitlines()
    assert rows[0] == "u,re_a,im_a,re_b,im_b,weighted_abs_diff"
    assert len(rows) == 1 + mcstats.DEFAULT_UGRID.size
    assert rows[1].startswith("-20,") and rows[-1].startswith("20,")
    assert rows[101] == "0,1,0,1,0,0"  # both ECFs are exactly 1 at u = 0


#: SHA-256 of the evidence ``test_nonuniq_small``'s run writes, recorded before
#: the Philox key schedule moved onto the key's shape and the lock-step engine
#: recorded ended paths once per tile; manifest.json's was recorded before the
#: single- and multi-lattice manifests shared one writer
NONUNIQ_SHA256 = {
    "manifest.json": "34a13dfeff80c2ce7e76bda3961e2d997356b55104394d8b880d441094205e56",
    "ecf_distance.json": "d4aa5f32eafe6113a98978e92e0bc6044f52e4099919a58d40fd81d171ea372a",
    "ecf_report.csv": "5d5ae15579f36b3e717e3c911f1155ef446e95b1ee6458e149579a1f8c193980",
    "moment_comparison.csv": "76529d89104c03fc68507812f6503bd56e2d827d7fd538f4b45c6e9c6368405b",
    "support_audit.csv": "f2e1beb8aa1f4b64bcbecd958761a035208339a8e4fc0b0fa204dd573a807a45",
}


def test_nonuniq_artifacts_are_pinned(tmp_path):
    out = tmp_path / "nu"
    assert main([
        "nonuniq", "--n", "6", "--t", "1", "--paths", "1500", "--seed", "5",
        "--distance-ratio", "5", "--out", str(out),
    ]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in NONUNIQ_SHA256}
    assert digests == NONUNIQ_SHA256


#: SHA-256 of the evidence of two single-lattice runs, recorded before their
#: manifests moved to the list form that multi-lattice runs write
SINGLE_LATTICE_SHA256 = {
    "simulate": {
        "endpoints.csv": "769f086cb9973cabe5d0f50edd5adfb6b335c631f0591bc9a182c2a1494e8504",
        "paths.csv": "206407d1cdd92a5c470f59392d4d3f050dce8da15094575c5979bb7979dba09a",
    },
    "moments": {
        "moments.csv": "ae50f517aca1e29ed6261c41038b668e2ba03258735e2d60a834416a40b11bdf",
    },
}


@pytest.mark.parametrize("argv, token", [
    (["simulate", "--spec", "ex31approx", "--k", "sqrt2", "--n", "6", "--paths", "3",
      "--seed", "7", "--store-paths"], "sqrt2"),
    (["moments", "--spec", "ex32approx", "--k", "1", "--n", "4", "--orders", "1,2",
      "--paths", "2000", "--seed", "11"], "1"),
], ids=["simulate", "moments"])
def test_single_lattice_run_is_pinned_and_lists_its_ensemble(tmp_path, monkeypatch,
                                                              argv, token):
    from levysym import simulate

    results = []
    run = simulate.simulate_ensemble
    monkeypatch.setattr(simulate, "simulate_ensemble",
                        lambda *a: results.append(run(*a)) or results[-1])
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in SINGLE_LATTICE_SHA256[argv[0]]}
    assert digests == SINGLE_LATTICE_SHA256[argv[0]]
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest) == ["config", "ensembles"]
    (doc,), (result,) = manifest["ensembles"], results
    assert doc["k_token"] == doc["spec"]["k"]["tag"] == token
    assert doc["total_events"] == sum(result.event_counts) > 0
    assert doc["truncated_paths"] == result.truncated_count == 0


#: SHA-256 of tables with cells the pins above do not reach, recorded before
#: every CSV artifact went through one writer: ``nan`` cells and the empty
#: last cell of the floor and slope rows in ellipticity.csv, and one endpoint
#: table per lattice of a two-lattice run
TABLE_SHA256 = {
    "audit": {
        "ellipticity.csv": "8921e459feabd154e8d8a12a9938f4a31110e73a49116a5ec15d3f2997eb67f2",
    },
    "simulate": {
        "endpoints_k_1.csv": "787254804461042a5c0d5c21d6041436ddf7a550b5918d638ceee329ec456b71",
        "endpoints_k_sqrt2.csv":
            "3e84733e30a2a9a5ed4fbe38a715d62d3171c6eac690f669e7e9b4e5c05efccc",
    },
}


@pytest.mark.parametrize("argv", [
    ["audit", "--spec", "ex31", "--x0", "0.5", "--radius", "0.1", "--orders", "3"],
    ["simulate", "--spec", "ex31approx", "--k", "1,sqrt2", "--paths", "3", "--seed", "7"],
], ids=["audit", "simulate"])
def test_tables_are_pinned(tmp_path, argv):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir()) if p.suffix == ".csv"}
    assert digests == TABLE_SHA256[argv[0]]


@pytest.mark.parametrize("argv, tokens", [
    (["simulate", "--spec", "ex31approx", "--k", "1,sqrt2", "--n", "4", "--paths", "40",
      "--max-events", "30"], ["1", "sqrt2"]),
    (["simulate", "--spec", "ex32approx", "--k", "1,sqrt2,cbrt2", "--n", "3",
      "--paths", "40", "--t", "3", "--max-events", "3"], ["1", "sqrt2", "cbrt2"]),
    (["nonuniq", "--n", "4", "--paths", "300", "--distance-ratio", "1e-6"], ["1", "sqrt2"]),
], ids=["simulate-sym", "simulate-inc", "nonuniq"])
def test_multi_lattice_run_writes_one_manifest_of_every_ensemble(tmp_path, monkeypatch,
                                                                 argv, tokens):
    # the event budgets of the simulate runs truncate paths on every lattice
    from levysym import simulate

    results = []
    run = simulate.simulate_ensemble
    monkeypatch.setattr(simulate, "simulate_ensemble",
                        lambda *a: results.append(run(*a)) or results[-1])
    out = tmp_path / "o"
    assert main(argv + ["--seed", "9", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 9
    assert [doc["k_token"] for doc in manifest["ensembles"]] == tokens
    assert len(results) == len(tokens)
    for doc, result in zip(manifest["ensembles"], results):
        assert doc["spec"]["k"]["tag"] == doc["k_token"]
        assert doc["total_events"] == sum(result.event_counts) > 0
        assert doc["truncated_paths"] == result.truncated_count
        assert (result.truncated_count > 0) == (argv[0] == "simulate")


def test_fourier_check_and_csv(tmp_path):
    out = tmp_path / "fc"
    code = main([
        "fourier-check", "--symbol", "prodcos", "--csv",
        "--majorant-u", "1", "--majorant-t", "0.5", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads((out / "fourier_check.json").read_text())
    assert doc["dominance_passed"]
    assert 0.49 <= doc["K"] <= 0.5
    assert (out / "dominance.csv").read_text().splitlines()[0] == "u,margin"
    assert (out / "k_integrand.csv").read_text().splitlines()[0] == "u,K_integrand"


def test_localized_fourier_check_repeats_byte_for_byte(tmp_path, monkeypatch):
    # each localized series keeps its own memo: a second run in the same
    # process starts from nothing, evaluates as often and writes the same bytes
    from levysym.symbols import ProductCosine

    calls = []
    value = ProductCosine.value
    monkeypatch.setattr(ProductCosine, "value",
                        lambda self, x, u: calls.append(1) or value(self, x, u))
    outs = [tmp_path / "first", tmp_path / "second"]
    counts = []
    for out in outs:
        assert main([
            "fourier-check", "--symbol", "localized-prodcos", "--x0", str(math.pi),
            "--csv", "--out", str(out),
        ]) == 0
        counts.append(len(calls) - sum(counts))
    assert counts[0] == counts[1] > 0
    for name in ("fourier_check.json", "dominance.csv", "k_integrand.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


#: SHA-256 of every fourier-check artifact, recorded before the term
#: measures and point masses were built from arrays; the majorant rows of
#: fourier_check.json come from term_measure, dirac and their convolution
FOURIER_CHECK_SHA256 = {
    "prodcos": {
        "dominance.csv": "74812916ab477a63dea9f86a4084579a936cd10d5e14d65c2a73ede61894f84f",
        "fourier_check.json": "5c4eac0152f51ebbb5266891c93520a3a46adfaa8c63af1e6a60ab0ceba5f8e4",
        "k_integrand.csv": "a1ab8908cd9ebd2b3d27b39e9398a63cf81dd3da0dba73b661a66b0e541ae07b",
    },
    "localized-prodcos": {
        "dominance.csv": "5c0295b2c77073405f02b503e90aed055cd69bf9d2ba5928ce9f03aa18dff523",
        "fourier_check.json": "8acfd3ceb7b550d1f6f952894cc03c3c26eb489d45c8bef3f3079e3e1483c3fc",
        "k_integrand.csv": "a5dcb2c047eb3b349077d2c337ca739af0cb489bbb53d03a9856ce382be83e5f",
    },
}


@pytest.mark.parametrize("symbol,extra", [
    ("prodcos", []), ("localized-prodcos", ["--x0", str(math.pi)]),
])
def test_fourier_check_artifacts_are_pinned(tmp_path, symbol, extra):
    out = tmp_path / "fc"
    assert main(["fourier-check", "--symbol", symbol, *extra, "--csv",
                 "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    assert digests == FOURIER_CHECK_SHA256[symbol]


def test_audit_bound_failure_exit(tmp_path):
    code = main([
        "audit", "--spec", "ex31", "--x0", "0", "--radius", "1e-3",
        "--bound", "1.1", "--out", str(tmp_path / "a31"),
    ])
    assert code == EXIT_CHECK_FAILED
    code = main([
        "audit", "--spec", "prodcos", "--x0", "0", "--radius", "1e-3",
        "--bound", "1.1", "--out", str(tmp_path / "apc"),
    ])
    assert code == 0


def test_audit_bound_fails_a_nan_ratio(tmp_path, monkeypatch, capsys):
    from levysym import checks

    audit = checks.audit_ellipticity
    monkeypatch.setattr(checks, "audit_ellipticity", lambda *a, **kw: dataclasses.replace(
        audit(*a, **kw), elliptic_ratio={1: math.nan}))
    code = main(["audit", "--spec", "prodcos", "--bound", "1.1", "--out", str(tmp_path / "a")])
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == EXIT_CHECK_FAILED and doc["reason"] == "smoothness ratio exceeds bound"


def test_numeric_failures_exit_with_json_line(tmp_path, capsys):
    # the order-3 audit of the analytic ex31 symbol away from 0 writes its table
    code = main([
        "audit", "--spec", "ex31", "--x0", "0.5", "--radius", "0.1",
        "--orders", "3", "--out", str(tmp_path / "a"),
    ])
    capsys.readouterr()
    assert code == 0
    rows = (tmp_path / "a" / "ellipticity.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:4]] == ["1", "2", "3"]
    # nmax = 4 cannot resolve the localized series: the truncation budget ran out
    code = main([
        "fourier-check", "--symbol", "localized-prodcos", "--x0", "0.5",
        "--nmax", "4", "--out", str(tmp_path / "f"),
    ])
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == EXIT_BUDGET
    assert doc["failed"] and doc["reason"] == "numeric budget"
    # at x0 = 0 the majorant's rewritten a0 has a positive real part
    code = main([
        "fourier-check", "--symbol", "localized-prodcos", "--x0", "0",
        "--ncut", "64", "--out", str(tmp_path / "d"),
    ])
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == EXIT_CHECK_FAILED
    assert doc["failed"] and doc["reason"] == "dominance violated"
    assert "u = 0.5" in doc["detail"]


@pytest.mark.parametrize("argv", [
    ["groenwall", "--c", "1", "--steps", "0"],
    ["groenwall", "--c", "1", "--steps", "-3"],
    ["groenwall", "--c", "1", "--horizon", "nan"],
    ["audit", "--spec", "ex31", "--orders", "0"],
    ["audit", "--spec", "ex31", "--orders", "4"],
    ["audit", "--spec", "ex31", "--radius", "nan"],
    ["audit", "--spec", "ex31", "--x0", "inf"],
    ["audit", "--spec", "prodcos", "--umax", "inf"],
    ["audit", "--spec", "ex31", "--umin", "nan"],
    ["audit", "--spec", "ex31", "--upoints", "0"],
    ["fourier-check", "--umax", "nan"],
    ["fourier-check", "--upoints", "0"],
    ["simulate", "--spec", "ex31approx", "--seed", "-1"],
    ["nonuniq", "--n", "4", "--seed", str(2**64)],
    ["moments", "--spec", "ex32approx", "--seed", str(2**70)],
    ["measure-selftest", "--trials", "0"],
    ["measure-selftest", "--trials", "-5"],
    ["measure-selftest", "--term-trials", "0"],
])
def test_bad_numeric_inputs_exit_with_json_line(argv, tmp_path, capsys):
    takes_out = argv[0] not in ("groenwall", "measure-selftest")
    code = main(argv + (["--out", str(tmp_path / "a")] if takes_out else []))
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == EXIT_INPUT
    assert doc["failed"] and doc["reason"] == "input error"
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("x0", ["inf", "-inf", "nan", "1e308"])
def test_localized_fourier_check_rejects_an_x0_without_finite_phases(x0, tmp_path, capsys):
    # 1e308 is finite, but 2 pi nmax (1/2 - ell x0) is not
    out = tmp_path / "a"
    code = main(["fourier-check", "--symbol", "localized-prodcos", f"--x0={x0}",
                 "--out", str(out)])
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == EXIT_INPUT and doc["reason"] == "input error"
    assert doc["detail"].startswith("x0 must be finite")
    assert not out.exists()


@pytest.mark.parametrize("nmax", ["-1", "0", "2048", "3000"])
def test_fourier_check_rejects_nmax_outside_the_resolved_wavenumbers(nmax, tmp_path, capsys):
    out = tmp_path / "a"
    code = main(["fourier-check", "--symbol", "localized-prodcos", "--x0", "3.14159",
                 "--nmax", nmax, "--out", str(out)])
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == EXIT_INPUT and doc["reason"] == "input error"
    assert doc["detail"].startswith("nmax must be an integer in 1..2047")
    assert not out.exists()


@pytest.mark.parametrize("ratio", ["nan", "inf", "-1", "0"])
def test_nonuniq_rejects_a_distance_ratio_that_is_not_finite_and_positive(
        ratio, tmp_path, capsys, monkeypatch):
    # the gate d > ratio * SE bound reads false at nan and holds vacuously at -1
    from levysym import simulate

    def unreachable(*args):
        raise AssertionError("nonuniq simulated before checking its inputs")

    monkeypatch.setattr(simulate, "simulate_ensemble", unreachable)
    out = tmp_path / "a"
    code = main(["nonuniq", "--n", "4", "--paths", "300", f"--distance-ratio={ratio}",
                 "--out", str(out)])
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == EXIT_INPUT and doc["reason"] == "input error"
    assert "--distance-ratio" in doc["detail"]
    assert not out.exists()


def test_nonuniq_rejects_fewer_than_two_paths_before_simulating(tmp_path, capsys,
                                                                monkeypatch):
    # one path per lattice leaves no standard error for the moment comparison
    from levysym import simulate

    def unreachable(*args):
        raise AssertionError("nonuniq simulated before checking its inputs")

    monkeypatch.setattr(simulate, "simulate_ensemble", unreachable)
    out = tmp_path / "a"
    code = main(["nonuniq", "--n", "4", "--paths", "1", "--out", str(out)])
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == EXIT_INPUT and doc["reason"] == "input error"
    assert "--paths" in doc["detail"]
    assert not out.exists()


def test_groenwall_table_io(tmp_path):
    table = tmp_path / "phi.csv"
    table.write_text("t,phi\n0,1\n0.5,1.1\n1.0,1.2\n")
    assert main(["groenwall", "--table", str(table), "--c", "1.0"]) == 0
    bad = tmp_path / "bad.csv"
    bad.write_text("t,phi\n0,1\n0.5,5.0\n")
    assert main(["groenwall", "--table", str(bad), "--c", "1.0"]) == EXIT_CHECK_FAILED
    # tables that cannot be checked: header only, a row without phi, a NaN phi
    for text in ("t,phi\n", "t,phi\n0,1\n0.5\n", "t,phi\n0,1\n0.5,nan\n"):
        table.write_text(text)
        assert main(["groenwall", "--table", str(table), "--c", "1.0"]) == EXIT_INPUT


@pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
def test_groenwall_rejects_a_rate_that_is_not_finite(c, tmp_path, capsys):
    table = tmp_path / "phi.csv"
    table.write_text("t,phi\n0,1\n0.5,5\n1,50\n")
    code = main(["groenwall", "--table", str(table), f"--c={c}"])
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == EXIT_INPUT and doc["reason"] == "input error"
    assert "rate c must be finite" in doc["detail"]


def test_selftest_quick():
    assert main(["measure-selftest", "--trials", "40", "--term-trials", "15"]) == 0


@pytest.mark.parametrize("sweep", [measure_algebra_sweep, term_measure_sweep])
@pytest.mark.parametrize("trials", [0, -5, 2.0, True, "3", None])
def test_sweeps_reject_bad_trial_counts(sweep, trials):
    with pytest.raises(ValueError, match="trial count"):
        sweep(trials, 1)


#: stdout of `levysym measure-selftest` at its defaults (500 and 200 trials,
#: seed 2024), recorded before the measure algebra dropped its per-object work
SELFTEST_DEFAULT_STDOUT = """\
PASS measure[commutative]: worst 8.882e-16 (tol 1e-12)
PASS measure[associative]: worst 1.790e-15 (tol 1e-12)
PASS measure[unit]: worst 0.000e+00 (tol 1e-12)
PASS measure[submultiplicative]: worst 1.776e-15 (tol 1e-12)
PASS measure[fourier_hom]: worst 1.700e-14 (tol 1e-12)
PASS measure[tv_domination]: worst 8.882e-16 (tol 1e-12)
PASS measure[orthogonal_additivity]: worst 0.000e+00 (tol 1e-12)
PASS measure[atom_bound]: worst 0.000e+00 (tol 1e-12)
PASS measure[exp_mass]: worst 8.164e-15 (tol 1e-08)
PASS measure[exp_first_moment]: worst 1.233e-12 (tol 1e-08)
PASS measure[exp_second_moment]: worst 1.881e-10 (tol 1e-08)
PASS measure[odd_exp_tv_symmetry]: worst 4.441e-16 (tol 1e-12)
PASS term_measure sweep (200 draws): fourier 8.064e-13, tv excess 0.000e+00, \
centering 4.419e-17, second-moment excess 0.000e+00
"""


def test_selftest_default_stdout_is_pinned(capsys):
    assert main(["measure-selftest"]) == 0
    assert capsys.readouterr().out == SELFTEST_DEFAULT_STDOUT


def test_run_config_replays(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(
        json.dumps(
            {
                "command": "moments",
                "args": {
                    "spec": "ex32approx", "k": "1", "n": 4, "t": 1.0,
                    "orders": "1,2", "paths": 2000, "seed": 11,
                    "out": str(tmp_path / "cfg_out"),
                },
            }
        )
    )
    assert main(["run-config", str(cfg)]) == 0
    direct = tmp_path / "direct"
    assert main([
        "moments", "--spec", "ex32approx", "--k", "1", "--n", "4", "--t", "1",
        "--orders", "1,2", "--paths", "2000", "--seed", "11", "--out", str(direct),
    ]) == 0
    assert (tmp_path / "cfg_out" / "moments.csv").read_bytes() == (
        direct / "moments.csv"
    ).read_bytes()


@pytest.mark.parametrize("doc, detail", [
    ({"args": {"seed": 1}}, '"command"'),
    ([["moments"]], '"command"'),
    ("moments", '"command"'),
    ({"command": "moments", "args": ["--seed", "1"]}, '"args" must be an object'),
    ({"command": "moments", "args": "seed"}, '"args" must be an object'),
], ids=["no-command", "list", "string", "args-list", "args-string"])
def test_run_config_rejects_malformed_documents(doc, detail, tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    code = main(["run-config", str(cfg)])
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == EXIT_INPUT
    assert line["failed"] and line["reason"] == "input error"
    assert detail in line["detail"]


@pytest.mark.parametrize("argv, detail", [
    (["fourier-check", "--nmax", "abc"], "argument --nmax: invalid int value: 'abc'"),
    (["audit", "--spec", "nope"], "argument --spec: invalid choice: 'nope'"),
    (["simulate"], "the following arguments are required: --spec"),
    (["nonuniq", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
    (["no-such-command"], "invalid choice: 'no-such-command'"),
    ([], "the following arguments are required: command"),
], ids=["type", "choice", "required", "unknown-flag", "unknown-command", "empty"])
def test_flags_argparse_rejects_exit_with_json_line(argv, detail, tmp_path, capsys):
    # given directly, and replayed from a run-config document where one can be
    cfg = tmp_path / "exp.json"
    runs = [argv]
    if argv[:1] == ["fourier-check"]:
        cfg.write_text(json.dumps({"command": argv[0], "args": {"nmax": "abc"}}))
        runs.append(["run-config", str(cfg)])
    for run_argv in runs:
        code = main(run_argv)
        line = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert code == EXIT_INPUT
        assert line["failed"] and line["reason"] == "input error"
        assert detail in line["detail"]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["audit", "--help"]) == 0
    assert "usage: levysym audit" in capsys.readouterr().out
