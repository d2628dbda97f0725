"""CLI: exit codes, artifact layout, byte-identical reruns."""

import json

import pytest

from levysym.cli import EXIT_BUDGET, EXIT_CHECK_FAILED, EXIT_INPUT, main


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


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
    assert manifest["spec"] == {"variant": "ex31approx", "n": 6,
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
    ["simulate", "--spec", "ex31approx", "--seed", "-1"],
    ["nonuniq", "--n", "4", "--seed", str(2**64)],
    ["moments", "--spec", "ex32approx", "--seed", str(2**70)],
])
def test_bad_numeric_inputs_exit_with_json_line(argv, tmp_path, capsys):
    code = main(argv + (["--out", str(tmp_path / "a")] if argv[0] != "groenwall" else []))
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == EXIT_INPUT
    assert doc["failed"] and doc["reason"] == "input error"
    assert not (tmp_path / "a").exists()


def test_groenwall_table_io(tmp_path):
    table = tmp_path / "phi.csv"
    table.write_text("t,phi\n0,1\n0.5,1.1\n1.0,1.2\n")
    assert main(["groenwall", "--table", str(table), "--c", "1.0"]) == 0
    bad = tmp_path / "bad.csv"
    bad.write_text("t,phi\n0,1\n0.5,5.0\n")
    assert main(["groenwall", "--table", str(bad), "--c", "1.0"]) == EXIT_CHECK_FAILED


def test_selftest_quick():
    assert main(["measure-selftest", "--trials", "40", "--term-trials", "15"]) == 0


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
