"""Tests for the command-line interface and report plumbing."""

import copy
import csv
import itertools
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

import swtr.cli as cli
from swtr.airy import SgnTable, max_index_bound
from swtr.charts import local_expansions, standard_charts
from swtr.cli import (
    DEFAULT_TOLERANCES,
    VerifyConfig,
    bperiod_contract,
    cli_main,
    format_index_tuple,
    reference_stages,
    verify_theorem,
)
from swtr.errors import BasisMismatch, SwtrError, TruncationInsufficient
from swtr.hyperelliptic import build_cycles, invert_a_map, new_curve, periods
from swtr.spectral import LocalSpectralCurve, eo_run


def test_selftest_command_exits_zero(capsys):
    assert cli_main(["airy-selftest", "--kmax", "9"]) == 0
    out = capsys.readouterr().out
    assert "S_0,3;111" in out and "0.5" in out


def test_eo_run_golden_csv(tmp_path, capsys):
    out = tmp_path / "sgn_table.csv"
    assert cli_main(["eo-run", "--points", "1", "--s", "zero",
                     "--chi-max", "2", "--out", str(out)]) == 0
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["g", "n", "indices", "re", "im"]
    out = capsys.readouterr().out
    stats = re.search(r"recursion: (\d+) tuples evaluated, (\d+) stored, [\d.]+ s", out)
    assert stats and int(stats[2]) == len(rows) - 1 <= int(stats[1])
    # the split-term product count follows the time on the same line
    products = re.search(r"recursion: .*, [\d.]+ s, (\d+) products$", out, re.M)
    engine = eo_run(LocalSpectralCurve(ram=("0",)), 2).engine
    assert products and int(products[1]) == engine.products > 0
    hits = [r for r in rows[1:] if r[0] == "1" and r[1] == "1" and r[2] == "(3)"]
    assert len(hits) == 1
    assert abs(float(hits[0][3]) - 0.0625) < 1e-13
    assert abs(float(hits[0][4])) < 1e-13


def test_missing_config_exits_two(tmp_path):
    code = cli_main(["verify-theorem", "--config", str(tmp_path / "missing.json")])
    assert code == 2


def test_bad_config_exits_two(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"genus": 1, "u0": [[0.3, 0.1]], "chi_max": 0}))
    assert cli_main(["verify-theorem", "--config", str(p)]) == 2


@pytest.mark.parametrize("raw, named", [
    ({"k_bound": 7}, "['k_bound']"),
    ({"chi_max": 2, "kbound": 7, "nfft": 128}, "['kbound', 'nfft']"),
    ({"tolerances": {"theorem_rel": 1e-4, "extraction": 1e-9}}, "['extraction']"),
    ({"series_order": 44}, "['series_order']"),
    ({"delta_a": [1e-3, 5e-4]}, "['delta_a']"),
    ({"seed": 11}, "['seed']"),
    ({"tolerances": {"quadrature": 1e-11}}, "['quadrature']"),
])
def test_unknown_config_keys_are_refused(tmp_path, capsys, raw, named):
    # a key the config does not know (k_bound and series_order among them) is
    # refused by name, not ignored
    with pytest.raises(ValueError, match=re.escape(named)):
        VerifyConfig.from_dict({"genus": 1, "u0": [[0.3, 0.1]], **raw})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"genus": 1, "u0": [[0.3, 0.1]], **raw}))
    assert cli_main(["verify-theorem", "--config", str(p)]) == 2
    assert named in capsys.readouterr().err


_G1 = {"genus": 1, "u0": [[0.3, 0.1]]}


@pytest.mark.parametrize("raw, named", [
    ([1, 2], "config must be a JSON object, got list"),
    ({**_G1, "check_n4": "false"}, "check_n4 must be true or false, got 'false'"),
    ({**_G1, "check_n4": 1}, "check_n4 must be true or false, got 1"),
    ({"genus": 1.7, "u0": [[0.3, 0.1]]}, "genus must be an integer, got 1.7"),
    ({"genus": True, "u0": [[0.3, 0.1]]}, "genus must be an integer, got True"),
    ({**_G1, "chi_max": 2.5}, "chi_max must be an integer, got 2.5"),
    ({**_G1, "tolerances": {"theorem_rel": float("inf")}},
     "tolerance theorem_rel must be finite and positive, got inf"),
    ({**_G1, "tolerances": {"route_rel": float("nan")}},
     "tolerance route_rel must be finite and positive, got nan"),
    ({**_G1, "tolerances": {"theorem_rel": True}},
     "tolerance theorem_rel must be a number, got True"),
    ({**_G1, "tolerances": {"route_rel": "1e-5"}},
     "tolerance route_rel must be a number, got '1e-5'"),
    ({**_G1, "tolerances": {"theorem_rel": None}},
     "tolerance theorem_rel must be a number, got None"),
    ({**_G1, "tolerances": [1, 2]}, "tolerances must be a JSON object, got list"),
    ({**_G1, "Lambda": True}, "Lambda must be a number, complex string or [re, im] pair, got True"),
    ({**_G1, "Lambda": "1+"}, "Lambda must be a number, complex string or [re, im] pair, got '1+'"),
    ({"genus": 1, "u0": [True]},
     "u0[0] must be a number, complex string or [re, im] pair, got True"),
    ({"genus": 1, "u0": [[0.3, 0.1, 0.2]]},
     "u0[0] must be a number, complex string or [re, im] pair, got [0.3, 0.1, 0.2]"),
    ({"genus": 1, "u0": 5}, "u0 must be a list of moduli, got 5"),
])
def test_malformed_config_values_are_refused(tmp_path, capsys, raw, named):
    # a config that is not an object, a value of the wrong kind and a
    # tolerance that is not finite are refused by name with exit 2, not
    # coerced (a string "false" is truthy, int(1.7) is 1, float(true) a
    # tolerance of 1.0 and complex(true) a Lambda of 1, str(5) a directory
    # "5") or run (an infinite tolerance passes every check, NaN fails
    # every one)
    with pytest.raises(ValueError, match=re.escape(named)):
        VerifyConfig.from_dict(raw)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    for extra in ([], ["--out", str(tmp_path / "o")]):
        assert cli_main(["verify-theorem", "--config", str(p)] + extra) == 2
        err = capsys.readouterr().err
        assert f"error: bad config: {named}" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_out_dir_that_is_not_a_string_is_refused(tmp_path, monkeypatch, capsys):
    # str(5) would write the outputs to a directory named "5"; --out, a
    # string, replaces the config's out_dir before it is read
    raw = {**_G1, "out_dir": 5}
    with pytest.raises(ValueError, match="out_dir must be a string, got 5"):
        VerifyConfig.from_dict(raw)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    assert cli_main(["verify-theorem", "--config", "cfg.json"]) == 2
    err = capsys.readouterr().err
    assert "error: bad config: out_dir must be a string, got 5" in err and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]
    assert VerifyConfig.from_dict({**raw, "out_dir": "o"}).out_dir == "o"


def test_integral_floats_are_integers_and_tol_flag_is_checked(tmp_path, capsys):
    # JSON has one number type, so 2.0 is the integer 2; --tol goes through
    # the same tolerance check as the config's
    cfg = VerifyConfig.from_dict({"genus": 2.0, "u0": ["0.3+0.1j", "0.2-0.15j"], "chi_max": 3.0})
    assert (type(cfg.genus), type(cfg.chi_max), cfg.genus, cfg.chi_max) == (int, int, 2, 3)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_G1))
    for tol, named in (("inf", "got inf"), ("nan", "got nan"), ("0", "got 0.0")):
        assert cli_main(["verify-theorem", "--config", str(p), "--tol", tol,
                         "--out", str(tmp_path / "o")]) == 2
        assert f"tolerance theorem_rel must be finite and positive, {named}" in (
            capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, named", [
    (["eo-run", "--chi-max", "0"], "--chi-max must be at least 1, got 0"),
    (["eo-run", "--points", "0"], "--points must be at least 1, got 0"),
    (["airy-selftest", "--kmax", "3"], "--kmax must be at least 6, got 3"),
    (["verify-theorem", "--config", "cfg.json", "--seed", "12"], "--seed"),
])
def test_bad_arguments_exit_two_before_any_work(tmp_path, capsys, argv, named):
    out = tmp_path / "sgn_table.csv"
    (tmp_path / "cfg.json").write_text(json.dumps({"genus": 1, "u0": [[0.3, 0.1]]}))
    argv = [str(tmp_path / a) if a == "cfg.json" else a for a in argv]
    extra = ["--out", str(out)] if argv[0] == "eo-run" else []
    assert cli_main(argv + extra) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["eo-run"], ["sw-periods"], ["verify-theorem", "--config", "cfg.json"]],
                         ids=["eo-run", "sw-periods", "verify-theorem"])
def test_unwritable_output_path_exits_two(tmp_path, capsys, monkeypatch, argv):
    # a path under a regular file cannot be made, as root too: every writing
    # command names it and exits 2, the configuration-error code, before it
    # computes what the path would hold
    def computed(*args, **kwargs):
        raise AssertionError("computed before the output path was checked")

    monkeypatch.setattr(cli, "reference_stages", computed)
    monkeypatch.setattr(cli, "eo_run", computed)
    plain = tmp_path / "plain"
    plain.write_text("")
    (tmp_path / "cfg.json").write_text(json.dumps({"genus": 1, "u0": [[0.3, 0.1]]}))
    argv = [str(tmp_path / a) if a == "cfg.json" else a for a in argv]
    out = plain / "out"
    assert cli_main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: Not a directory\n"


def test_sw_periods_has_no_k_bound_flag(tmp_path):
    assert cli_main(["sw-periods", "--k-bound", "7", "--out", str(tmp_path / "p.json")]) == 2


def test_extended_precision_unsupported(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"genus": 1, "u0": [[0.3, 0.1]]}))
    assert cli_main(["verify-theorem", "--config", str(p),
                     "--precision", "extended"]) == 2


@pytest.mark.parametrize("genus, u0, named", [(2, ["0.3+0.1j"], "genus 2 needs 2 moduli u0, got 1"),
                                              (1, ["0.3+0.1j", "0.2"], "genus 1 needs 1 moduli u0, got 2"),
                                              (0, [], "genus must be >= 1, got 0")])
def test_genus_and_moduli_mismatch_is_a_config_error(tmp_path, capsys, genus, u0, named):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"genus": genus, "u0": u0, "out_dir": str(tmp_path / "o")}))
    assert cli_main(["verify-theorem", "--config", str(cfgp)]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err and named in err
    assert not (tmp_path / "o").exists()


def test_sw_periods_refuses_a_genus_and_moduli_mismatch(tmp_path, capsys):
    # the curve is checked before --out is opened, so no empty file is left
    out = tmp_path / "periods.json"
    assert cli_main(["sw-periods", "--genus", "2", "--u0", "0.3+0.1j", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err and "genus 2 needs 2 moduli u0, got 1" in err
    assert not out.exists()


def test_sw_periods_command(tmp_path):
    out = tmp_path / "periods.json"
    assert cli_main(["sw-periods", "--genus", "1", "--u0", "0.3+0.1j",
                     "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["genus"] == 1
    assert len(data["branch_points"]) == 4
    assert "tau" in data and "s_coeffs" in data and "c_coeffs" in data


def test_verify_theorem_cli_and_outputs(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({
        "genus": 1,
        "u0": [[0.3, 0.1]],
        "out_dir": str(tmp_path / "out"),
    }))
    assert cli_main(["verify-theorem", "--config", str(cfgp)]) == 0
    outdir = tmp_path / "out"
    report = json.loads((outdir / "report.json").read_text())
    assert report["passed"] is True
    assert report["metadata"]["matched_convention"] == "minus"
    assert report["metadata"]["derivative_radius"] >= cli.DERIVATIVE_RADIUS
    assert "delta_a" not in report["metadata"]
    # one entry per upper chart: each gate's worst weighed residual, within
    # the chart gate, and the radius it is weighed on
    residuals = report["metadata"]["chart_residuals"]
    assert list(residuals) == ["(0, 1)"]
    assert set(residuals["(0, 1)"]) == {"one-form", "F round-trip", "rho"}
    assert max(residuals["(0, 1)"]["one-form"], residuals["(0, 1)"]["F round-trip"]) < 1e-10
    assert residuals["(0, 1)"]["rho"] > 0
    assert (outdir / "sgn_table.csv").exists()
    assert (outdir / "periods.json").exists()


def test_report_records_the_quadrature(monkeypatch, tmp_path):
    # metadata.quadrature names the rule, its first level and cap, and per
    # reference contour the deepest level any integral on it used, on the
    # reference or on a moved curve: the largest node count asked of it
    from swtr.hyperelliptic import QuadratureWorkspace

    used = {}
    nodes = QuadratureWorkspace.nodes

    def counted(self, contour, n_panels):
        used[contour] = max(used.get(contour, 0), n_panels)
        return nodes(self, contour, n_panels)

    monkeypatch.setattr(QuadratureWorkspace, "nodes", counted)
    levels = {}
    for u0 in ((-1.9 - 0.34j,), (0.3 + 0.1j, 0.2 - 0.15j)):
        used.clear()
        rep = verify_theorem(VerifyConfig(genus=len(u0), u0=u0, out_dir=str(tmp_path)))
        cycles = rep.artifacts.cycles
        conts = [c for cycle in cycles.a_cycles for _, c in cycle] + cycles.chain_loops
        names = [f"{x}_{i}" for x in "AC" for i in range(1, len(u0) + 1)]
        quad = json.loads(json.dumps(rep.metadata["quadrature"]))
        assert quad["nodes"] == {n: used[c] for n, c in zip(names, conts)}
        assert quad["start_nodes"] == 128 <= min(quad["nodes"].values())
        assert max(quad["nodes"].values()) < quad["max_nodes"] == 65536
        assert quad["rule"].startswith("periodic trapezoidal")
        levels[len(u0)] = quad["nodes"]
    # the genus 1 point doubles its chain loop once; genus 2 stays at the first level
    assert levels == {1: {"A_1": 128, "C_1": 256}, 2: dict.fromkeys(names, 128)}


def test_generic_moduli_sweep():
    # standard-normal complex moduli from one generator: 60 draws at genus 1,
    # 150 at genus 2 and 100 at genus 3, each verified with check_n4.  The
    # cycles are built from the branch points alone, so at least 97% of each
    # genus pass, and every other draw is refused by a typed error, none by
    # a failed check
    rng = np.random.default_rng(0)
    sizes = {1: 60, 2: 150, 3: 100}
    passed, refused = dict.fromkeys(sizes, 0), dict.fromkeys(sizes, 0)
    for g, n in sizes.items():
        for _ in range(n):
            u0 = tuple(rng.standard_normal(g) + 1j * rng.standard_normal(g))
            try:
                passed[g] += verify_theorem(VerifyConfig(genus=g, u0=u0, check_n4=True)).passed
            except SwtrError:
                refused[g] += 1
    assert passed == {1: 59, 2: 149, 3: 97}
    assert all(passed[g] >= 0.97 * n and passed[g] + refused[g] == n for g, n in sizes.items())


def test_fourth_derivative_term():
    # the n = 4 term holds under the sign rule d^n F = -(-2 pi i)^(1-n) M_{0,n},
    # whose prefactor has the opposite sign of n = 3's
    rep = verify_theorem(VerifyConfig(genus=1, u0=(0.3 + 0.1j,), check_n4=True))
    assert rep.metadata["matched_convention"] == "minus"
    assert "matched_convention_n4" not in rep.metadata
    d4 = [c for c in rep.checks if c.name.startswith("prepotential_d4")]
    assert [c.name for c in d4] == ["prepotential_d4_[1111]"]
    assert d4[0].passed and d4[0].rel_err < 1e-8
    assert d4[0].info == "n = 4 term (plus convention)"


@pytest.mark.parametrize("genus, u0", [(2, (0.3 + 0.1j, 0.2 - 0.15j)),
                                       (3, (0.3 + 0.1j, 0.2 - 0.15j, 0.1 + 0.05j))],
                         ids=["g2", "g3"])
def test_fourth_derivative_and_route_checks_at_higher_genus(genus, u0):
    # d_k^2 tau_ij for i <= j and every k, and the worst of d_k tau_ik against
    # d_k^2 b_i, all from the one circle per modulus
    rep = verify_theorem(VerifyConfig(genus=genus, u0=u0, check_n4=True))
    assert rep.passed and rep.metadata["matched_convention"] == "minus"
    d4 = [c for c in rep.checks if c.name.startswith("prepotential_d4")]
    names = [f"prepotential_d4_[{i}{j}{k}{k}]" for i in range(1, genus + 1)
             for j in range(i, genus + 1) for k in range(1, genus + 1)]
    assert [c.name for c in d4] == names
    assert all(c.passed and c.rel_err < 1e-8 for c in d4)
    routes = [c for c in rep.checks if c.name == "derivative_routes_agree"]
    assert len(routes) == 1 and routes[0].passed
    assert routes[0].tol == DEFAULT_TOLERANCES["route_rel"]


@pytest.mark.parametrize("degree", range(1, 11))
def test_circle_derivatives_are_exact_to_their_degree(degree):
    # on N = 8 nodes the first-derivative rule is exact to degree N and the
    # second to degree N + 1; one degree higher the r^N term of the rule shows
    n = len(cli.CIRCLE_NODES)
    assert n == 8
    assert np.allclose(cli.CIRCLE_NODES, np.exp(2j * np.pi * np.arange(n) / n), rtol=0, atol=1e-15)
    rng = np.random.default_rng(degree)
    coef = rng.standard_normal((degree + 1, 2, 3, 2)) @ np.array([1, 1j])
    centre, r = 0.4 - 0.2j, 0.5

    def poly(x, deriv=0):
        return sum(math.perm(k, deriv) * coef[k] * x ** (k - deriv)
                   for k in range(deriv, degree + 1))

    values = [poly(centre + r * w) for w in cli.CIRCLE_NODES]
    d1, d2 = cli.circle_derivatives(values, r)
    for got, deriv, exact_to in ((d1, 1, n), (d2, 2, n + 1)):
        err = np.max(np.abs(got - poly(centre, deriv))) / np.max(np.abs(coef))
        assert (err < 1e-13) == (degree <= exact_to), (deriv, err)


@pytest.mark.parametrize("genus, u0, check_n4", [(1, (0.3 + 0.1j,), True),
                                                 (2, (0.3 + 0.1j, 0.2 - 0.15j), False),
                                                 (2, (0.3 + 0.1j, 0.2 - 0.15j), True)],
                         ids=["g1-n4", "g2", "g2-n4"])
def test_derivatives_take_one_stacked_pass_on_u_lines(monkeypatch, genus, u0, check_n4):
    # the nodes u0 + r w_j v_k, v_k = (da/du)^-1 e_k, serve the n = 3, n = 4
    # and route checks alike: one stacked period pass of 8g curves, with no
    # Newton solve
    from swtr import hyperelliptic
    from swtr.hyperelliptic import CurveRows, QuadratureWorkspace

    def refuse(*args, **kwargs):
        raise AssertionError("invert_a_map called")

    assert not hasattr(cli, "invert_a_map")
    monkeypatch.setattr(hyperelliptic, "invert_a_map", refuse)
    stacks = []
    moved_to = QuadratureWorkspace.moved_to
    monkeypatch.setattr(QuadratureWorkspace, "moved_to", lambda self, c: stacks.append(
        c.rows if isinstance(c, CurveRows) else [c]) or moved_to(self, c))
    rep = verify_theorem(VerifyConfig(genus=genus, u0=u0, check_n4=check_n4))
    assert rep.passed
    pd = rep.artifacts.pd
    r = rep.metadata["derivative_radius"]
    assert r == cli.DERIVATIVE_RADIUS * max(1.0, np.max(np.abs(pd.a)))
    assert rep.metadata["derivative_nodes"] == len(cli.CIRCLE_NODES) == 8
    assert len(stacks) == 1 and len(stacks[0]) == 8 * genus
    v = np.linalg.inv(-pd.a_jacobian)
    expected = [np.array(u0) + r * w * v[:, k] for k in range(genus) for w in cli.CIRCLE_NODES]
    got = np.array([c.u for c in stacks[0]])
    assert np.max(np.abs(got - expected)) <= 1e-15 * max(1.0, np.max(np.abs(u0)))
    # the nodes sit off the a-space circle by about r |a''| / 2
    assert 0 < rep.metadata["derivative_a_offset"] < 1e-2


def _a_circle_derivatives(curve, cycles, pd, r):
    """d_k tau, d_k^2 tau and d_k^2 b from the a-space circle a0 + r w_j e_k, each node
    solved by invert_a_map at the Newton tolerance the verifier once used: the oracle."""
    g, n = curve.g, len(cli.CIRCLE_NODES)
    targets = [pd.a + r * w * e for e in np.eye(g) for w in cli.CIRCLE_NODES]
    solved = [p for _, _, p in invert_a_map(curve, cycles, pd, targets, tol=1e-11)]
    d_tau, d2_tau = np.zeros((2, g, g, g), dtype=complex)
    d2_b = np.zeros((g, g), dtype=complex)
    for k in range(g):
        nodes = solved[n * k:n * (k + 1)]
        d_tau[:, :, k], d2_tau[:, :, k] = cli.circle_derivatives([p.tau for p in nodes], r)
        d2_b[:, k] = cli.circle_derivatives([p.b for p in nodes], r)[1]
    return d_tau, d2_tau, d2_b


@pytest.mark.parametrize("genus, u0", [(1, (0.3 + 0.1j,)), (2, (0.3 + 0.1j, 0.2 - 0.15j)),
                                       (3, (0.3 + 0.1j, 0.2 - 0.15j, 0.1 + 0.05j))],
                         ids=["g1", "g2", "g3"])
def test_line_derivatives_match_the_a_space_circle(genus, u0):
    # the u-line nodes with the chain-rule term give the derivatives of the
    # a-space circle.  Measured, relative to each oracle's largest entry:
    # d_tau <= 1.3e-13 and d2_tau, d2_b <= 1.6e-10 at g1-g3 (the second
    # derivatives carry rounding / r^2); the bounds leave a margin of 6-8x
    curve = new_curve(genus, u0)
    cycles = build_cycles(curve)
    pd = periods(curve, cycles)
    r = cli.DERIVATIVE_RADIUS * max(1.0, float(np.max(np.abs(pd.a))))
    got = cli.prepotential_derivatives(curve, cycles, pd, r)
    oracle = _a_circle_derivatives(curve, cycles, pd, r)
    for name, x, y, bound in zip(("d_tau", "d2_tau", "d2_b"), got, oracle, (1e-12, 1e-9, 1e-9)):
        assert np.max(np.abs(x - y)) <= bound * np.max(np.abs(y)), name
    # the nodes sit off that circle by about r |a''| / 2 (in units of r):
    # the lines bend in a-space, which the chain-rule term accounts for
    assert 0 < got[3] < 1e-2


def test_identity_error_at_a_genus_one_point_off_the_acceptance_point():
    # at u0 = 1.5 + 0.2i the a-space nodes carried the Newton stop residual
    # divided by r into d_tau (2.1e-11); the u-line nodes solve nothing
    rep = verify_theorem(VerifyConfig(genus=1, u0=(1.5 + 0.2j,)))
    assert rep.passed and rep.metadata["matched_convention"] == "minus"
    assert rep.metadata["sign_convention_rel_errors"]["minus"] <= 1e-12


def test_verify_with_nonunit_scale():
    cfg = VerifyConfig(genus=1, u0=(0.25 - 0.2j,), Lambda=1.15 + 0.05j)
    rep = verify_theorem(cfg)
    assert rep.passed
    assert rep.metadata["matched_convention"] == "minus"


def test_check_failure_exits_one(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({
        "genus": 1, "u0": [[0.3, 0.1]], "out_dir": str(tmp_path / "o"),
        "tolerances": {"theorem_rel": 1e-16},
    }))
    assert cli_main(["verify-theorem", "--config", str(cfgp)]) == 1


def test_determinism_of_reports():
    cfg = VerifyConfig(genus=1, u0=(0.3 + 0.1j,))
    r1 = verify_theorem(cfg)
    r2 = verify_theorem(cfg)
    d1, d2 = r1.as_dict(), r2.as_dict()
    d1.pop("timing")
    d2.pop("timing")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_bperiod_contract_zero_and_mismatch():
    table = SgnTable([(1, "0"), (3, "0")], basis_tag="bergman")
    table.entries[(0, 3)] = {}
    zero_c = {m: np.zeros(1, dtype=complex) for m in table.modes}
    out = bperiod_contract(table, zero_c, [(0, 3)])
    assert np.max(np.abs(out[(0, 3)])) == 0
    # all-zero c
    table.entries[(0, 3)] = {(0, 0, 0): 0.5}
    out = bperiod_contract(table, zero_c, [(0, 3)])
    assert np.max(np.abs(out[(0, 3)])) == 0
    table.basis_tag = "canonical"
    with pytest.raises(BasisMismatch):
        bperiod_contract(table, {}, [(0, 3)])


def test_bperiod_contract_refuses_missing_c_mode():
    # a table mode without c data is an error naming the mode, not a zero row
    table = SgnTable([(1, "0"), (3, "0"), (5, "0")], basis_tag="bergman")
    table.entries[(0, 3)] = {(0, 0, 2): 0.5}
    c = {(1, "0"): np.ones(1, dtype=complex), (3, "0"): np.ones(1, dtype=complex)}
    with pytest.raises(TruncationInsufficient, match=re.escape("table mode (5, '0')")):
        bperiod_contract(table, c, [(0, 3)])


def _dense_contract(table, c_coeffs, genus):
    """Reference route: expand every entry into the full dim^n tensor."""
    cmat = np.array([c_coeffs.get(m, np.zeros(genus)) for m in table.modes], dtype=complex)
    out = {}
    for (g, n), cell in table.entries.items():
        dense = np.zeros((len(table.modes),) * n, dtype=complex)
        for key, val in cell.items():
            for perm in set(itertools.permutations(key)):
                dense[perm] = val
        for _ in range(n):
            dense = np.tensordot(dense, cmat, axes=(0, 0))
        out[(g, n)] = (2j * np.pi) ** n * dense
    return out


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bperiod_contract_matches_dense_expansion(n):
    rng = np.random.default_rng(n)
    modes = [(k, lab) for lab in ("0", "1") for k in (1, 3, 5)]
    table = SgnTable(modes, basis_tag="bergman")
    keys = list(itertools.combinations_with_replacement(range(len(modes)), n))
    picks = rng.choice(len(keys), size=min(40, len(keys)), replace=False)
    table.entries[(0, n)] = {keys[int(p)]: complex(*rng.standard_normal(2)) for p in picks}
    table.entries[(1, 1)] = {(2,): 0.3 - 0.1j}
    c_coeffs = {m: rng.standard_normal(3) + 1j * rng.standard_normal(3) for m in modes[:-1]}
    c_coeffs[modes[-1]] = np.zeros(3, dtype=complex)
    got = bperiod_contract(table, c_coeffs, list(table.entries))
    ref = _dense_contract(table, c_coeffs, 3)
    for cell in ref:
        scale = float(np.max(np.abs(ref[cell])))
        assert np.max(np.abs(got[cell] - ref[cell])) <= 1e-13 * scale


def test_bperiod_contract_memory_genus_two_chi_three():
    # four ramification points, modes up to 13, as in a genus-2 verify run;
    # the dense route peaks at ~62 MB here (a 20^5 tensor for omega_{0,5})
    ram = ((0, 1), (0, -1), (1, 1), (1, -1))
    rng = np.random.default_rng(0)
    modes = [(k, lab) for lab in ram for k in range(1, 14)]
    s = {(m1, m2): 0.25 * complex(*rng.standard_normal(2))
         for i, m1 in enumerate(modes) for m2 in modes[i:]}
    table = eo_run(LocalSpectralCurve(ram=ram, bergman_reg=s), 3).table
    c_coeffs = {m: rng.standard_normal(2) + 1j * rng.standard_normal(2) for m in table.modes}
    tracemalloc.start()
    try:
        out = bperiod_contract(table, c_coeffs, list(table.entries))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out[(0, 5)].shape == (2,) * 5
    assert peak < 2e6


def test_chi_three_contraction_needs_no_wider_data():
    # g1 at chi_max = 3: the table reaches mode 9, and s and c to the derived
    # bound 9 give every cell's contraction in every bit as data to 11 do,
    # both read from one chart set built to the order 11 needs; c data to 7
    # lacks mode 9 and is refused (contracting a zero row for it put the
    # omega_{2,1} contraction 10.8% off)
    art = reference_stages(VerifyConfig(genus=1, u0=(0.3 + 0.1j,), chi_max=3))
    assert max(k for k, _ in art.c_coeffs) == 9
    assert max(k for (k, _), _ in art.s_coeffs) == 9
    charts = standard_charts(art.curve, 2 * 11 + 1)
    narrow_s, narrow_c = local_expansions(art.bk, charts, k_bound=9)
    wide_s, wide_c = local_expansions(art.bk, charts, k_bound=11)

    def contract(s_coeffs, c_coeffs):
        curve = LocalSpectralCurve(ram=tuple(sorted(charts)), bergman_reg=dict(s_coeffs))
        table = eo_run(curve, 3).table
        return bperiod_contract(table, c_coeffs, list(table.entries))

    got, wide = contract(narrow_s, narrow_c), contract(wide_s, wide_c)
    assert sorted(got) == sorted(wide) and len(got) == 7
    for cell in got:
        assert got[cell].tobytes() == wide[cell].tobytes(), cell
    short_c = {m: v for m, v in narrow_c.items() if m[0] <= 7}
    with pytest.raises(TruncationInsufficient, match=re.escape("table mode (9, (0, -1))")):
        contract(narrow_s, short_c)


@pytest.mark.parametrize("genus, u0, chi_max", [(2, (0.3 + 0.1j, 0.2 - 0.15j), 1),
                                                (3, (0.3 + 0.1j, 0.2 - 0.15j, 0.1 + 0.05j), 3)],
                         ids=["g2-chi1", "g3-chi3"])
def test_verifier_charts_reach_exactly_the_derived_mode(genus, u0, chi_max):
    # the charts are built to 2 k_bound + 1: local data to k_bound are
    # computed from them, and one mode more is refused, naming the order
    art = reference_stages(VerifyConfig(genus=genus, u0=u0, chi_max=chi_max))
    k_bound = max_index_bound(chi_max) - 1
    local_expansions(art.bk, art.charts, k_bound)
    with pytest.raises(TruncationInsufficient,
                       match=re.escape(f"beyond truncation order {2 * k_bound + 1}")):
        local_expansions(art.bk, art.charts, k_bound + 1)


@pytest.mark.parametrize("genus, u0, chi_max", [(1, (0.3 + 0.1j,), 3),
                                                (2, (0.3 + 0.1j, 0.2 - 0.15j), 1),
                                                (3, (0.3 + 0.1j, 0.2 - 0.15j, 0.1 + 0.05j), 1)],
                         ids=["g1-chi3", "g2-chi1", "g3-chi1"])
def test_identity_errors_do_not_depend_on_the_chart_order(genus, u0, chi_max, monkeypatch):
    # charts to the derived order give the identity errors of charts to 44,
    # in every bit
    cfg = VerifyConfig(genus=genus, u0=u0, chi_max=chi_max)
    derived = verify_theorem(cfg)
    monkeypatch.setattr(cli, "standard_charts", lambda curve, order: standard_charts(curve, 44))
    wide = verify_theorem(cfg)

    def identity_errors(rep):
        return [(c.name, c.rel_err.hex()) for c in rep.checks if c.name.startswith("prepotential")]
    assert identity_errors(derived) == identity_errors(wide)
    assert len(identity_errors(derived)) == genus * (genus + 1) * (genus + 2) // 6


_CI_U0 = (0.3 + 0.1j, 0.2 - 0.15j, 0.1 + 0.05j)


def _by_modes(table, cell):
    """A cell's entries in stored order, keyed by mode tuples, values as float hex."""
    return [(tuple(table.modes[i] for i in key), val.real.hex(), val.imag.hex())
            for key, val in table.entries[cell].items()]


def _bits(arrays):
    return {key: np.asarray(val).tobytes() for key, val in arrays.items()}


@pytest.mark.parametrize("check_n4", [False, True], ids=["n3", "n4"])
@pytest.mark.parametrize("chi_max", [1, 2, 3])
@pytest.mark.parametrize("genus", [1, 2, 3])
def test_verify_fills_genus_zero_only_and_moves_no_bit(monkeypatch, genus, chi_max, check_n4):
    # the verify fills (0, 3) .. (0, chi + 2), with s and c to 2 chi - 1;
    # against a verify on the whole table to chi, with s and c to
    # max_index_bound(chi) - 1, its checks, its cells by mode tuples (their
    # index keys shift with the mode list), its contracted (0, 3) and (0, 4)
    # and its s and c up to 2 chi - 1 are the same to the bit
    cfg = VerifyConfig(genus=genus, u0=_CI_U0[:genus], chi_max=chi_max, check_n4=check_n4)
    rep = verify_theorem(cfg)
    with monkeypatch.context() as m:
        m.setattr(cli, "fill_bound", lambda chi, cells: max_index_bound(chi))
        m.setattr(cli, "eo_run", lambda curve, chi, cells: eo_run(curve, chi))
        full = verify_theorem(cfg)
    reach = 2 * cfg.chi - 1
    cells = [(0, n) for n in range(3, cfg.chi + 3)]
    assert rep.omega.cells() == cells
    assert {(0, 3), (1, 1)} <= set(full.omega.cells())

    def checks(report):
        return [(c.name, c.lhs, c.rhs, c.rel_err, c.passed) for c in report.checks]
    assert checks(rep) == checks(full) and len(checks(rep)) > 1
    for cell in cells:
        assert _by_modes(rep.omega.table, cell) == _by_modes(full.omega.table, cell), cell
    contracted = [(0, 3), (0, 4)] if check_n4 else [(0, 3)]
    assert _bits(bperiod_contract(rep.omega.table, rep.artifacts.c_coeffs, contracted)) == (
        _bits(bperiod_contract(full.omega.table, full.artifacts.c_coeffs, contracted)))
    art, wide = rep.artifacts, full.artifacts
    assert max(k for k, _ in art.c_coeffs) == reach < max(k for k, _ in wide.c_coeffs)
    assert _bits(art.c_coeffs) == _bits({m: v for m, v in wide.c_coeffs.items() if m[0] <= reach})
    assert _bits(art.s_coeffs) == _bits({pair: v for pair, v in wide.s_coeffs.items()
                                         if max(pair[0][0], pair[1][0]) <= reach})


def test_format_index_tuple():
    assert format_index_tuple([(3, "0")], single_label=True) == "(3)"
    assert format_index_tuple([(1, (0, 1)), (3, (0, -1))], single_label=False) \
        == "(1@0+;3@0-)"


def test_bperiod_contract_against_nested_quadrature():
    """Triple B-period of the first cell by direct nested contour quadrature."""
    from swtr.charts import ebar_at_points
    from swtr.hyperelliptic import bergman_kernel, build_cycles, new_curve, periods
    from swtr.spectral import LocalSpectralCurve, eo_run

    curve = new_curve(1, (0.3 + 0.1j,))
    cycles = build_cycles(curve)
    pd = periods(curve, cycles)
    bk = bergman_kernel(curve, cycles, pd)
    charts = standard_charts(curve, 44)
    s_coeffs, c_coeffs = local_expansions(bk, charts, k_bound=7)
    omega = eo_run(LocalSpectralCurve(ram=tuple(sorted(charts)),
                                      bergman_reg=dict(s_coeffs)), chi_max=1)
    contracted = bperiod_contract(omega.table, c_coeffs, [(0, 3)])[(0, 3)][0, 0, 0]

    # direct route: cache ebar values on fixed quadrature nodes of B_1 and
    # evaluate the multi-differential as a triple sum.  B_1's chain loop
    # crosses the chart circles, where ebar_at_points refuses its nodes; a
    # copy of it at elliptic sigma 0.3 encloses the same two branch points,
    # so it is in the same class, and clears them
    ws = cycles.workspace
    nodes = []
    for coef, cont in cycles.b_cycles[0]:
        cont = copy.copy(cont)
        cont.sigma = 0.3
        data = ws.nodes(cont, 48)
        evals = {}
        for lab, ch in charts.items():
            eb = ebar_at_points(bk, ch, data.z, data.y, k_bound=3)
            evals[lab] = eb
        nodes.append((coef, data, evals))
    modes = omega.table.modes

    def period_vector():
        vec = {}
        for m_idx, (k, lab) in enumerate(modes):
            total = 0j
            for coef, data, evals in nodes:
                total += coef * np.sum(data.w * data.dzdt * evals[lab][k - 1])
            vec[m_idx] = total
        return vec

    pv = period_vector()
    direct = 0j
    import itertools
    cell = omega.table.entries[(0, 3)]
    for key, val in cell.items():
        for perm in set(itertools.permutations(key)):
            direct += val * pv[perm[0]] * pv[perm[1]] * pv[perm[2]]
    assert abs(direct - contracted) < 1e-4 * max(1.0, abs(contracted))
