"""Tests for the command-line interface and report plumbing."""

import csv
import itertools
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from swtr.airy import SgnTable
from swtr.cli import (
    VerifyConfig,
    bperiod_contract,
    cli_main,
    format_index_tuple,
    verify_theorem,
)
from swtr.errors import BasisMismatch
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
    stats = re.search(r"recursion: (\d+) tuples evaluated, (\d+) stored, [\d.]+ s",
                      capsys.readouterr().out)
    assert stats and int(stats[2]) == len(rows) - 1 <= int(stats[1])
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


def test_extended_precision_unsupported(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"genus": 1, "u0": [[0.3, 0.1]]}))
    assert cli_main(["verify-theorem", "--config", str(p),
                     "--precision", "extended"]) == 2


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
        "delta_a": [1e-3, 5e-4],
        "out_dir": str(tmp_path / "out"),
    }))
    assert cli_main(["verify-theorem", "--config", str(cfgp)]) == 0
    outdir = tmp_path / "out"
    report = json.loads((outdir / "report.json").read_text())
    assert report["passed"] is True
    assert report["metadata"]["matched_convention"] in ("plus", "minus")
    assert (outdir / "sgn_table.csv").exists()
    assert (outdir / "periods.json").exists()


def test_fd_grid_refinement_order():
    cfg = VerifyConfig(genus=1, u0=(0.3 + 0.1j,), delta_a=(2e-3, 1e-3, 5e-4))
    rep = verify_theorem(cfg)
    orders = [c for c in rep.checks if c.name == "fd_order"]
    assert orders and orders[0].passed
    assert orders[0].lhs.real >= 1.8


def test_zero_displacement_flagged_non_informative():
    cfg = VerifyConfig(genus=1, u0=(0.3 + 0.1j,), delta_a=(0.0, 1e-3, 5e-4))
    rep = verify_theorem(cfg)
    flags = [c for c in rep.checks if c.name == "fd3_step_zero"]
    assert flags and not flags[0].mandatory and "non-informative" in flags[0].info
    assert rep.passed


def test_fourth_derivative_term():
    # the n = 4 term matches with the opposite prefactor sign of n = 3,
    # following the alternating (-1)^n (1/2 pi i)^(n-1) pattern
    cfg = VerifyConfig(genus=1, u0=(0.3 + 0.1j,), check_n4=True,
                       delta_a=(4e-3, 2e-3))
    rep = verify_theorem(cfg)
    assert rep.metadata["matched_convention"] == "minus"
    assert rep.metadata["matched_convention_n4"] == "plus"
    d4 = [c for c in rep.checks if c.name.startswith("prepotential_d4")]
    assert d4 and d4[0].passed and d4[0].rel_err < 1e-4


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
    out = bperiod_contract(table, {(1, "0"): np.zeros(1, dtype=complex)}, 1)
    assert np.max(np.abs(out[(0, 3)])) == 0
    # all-zero c
    table.entries[(0, 3)] = {(0, 0, 0): 0.5}
    out = bperiod_contract(table, {(1, "0"): np.zeros(1, dtype=complex)}, 1)
    assert np.max(np.abs(out[(0, 3)])) == 0
    table.basis_tag = "canonical"
    with pytest.raises(BasisMismatch):
        bperiod_contract(table, {}, 1)


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
    got = bperiod_contract(table, c_coeffs, 3)
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
        out = bperiod_contract(table, c_coeffs, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out[(0, 5)].shape == (2,) * 5
    assert peak < 2e6


def test_format_index_tuple():
    assert format_index_tuple([(3, "0")], single_label=True) == "(3)"
    assert format_index_tuple([(1, (0, 1)), (3, (0, -1))], single_label=False) \
        == "(1@0+;3@0-)"


def test_bperiod_contract_against_nested_quadrature():
    """Triple B-period of the first cell by direct nested contour quadrature."""
    from swtr.charts import ebar_at_points, local_expansions, standard_charts
    from swtr.hyperelliptic import bergman_kernel, build_cycles, new_curve, periods
    from swtr.spectral import LocalSpectralCurve, eo_run

    curve = new_curve(1, (0.3 + 0.1j,))
    cycles = build_cycles(curve)
    pd = periods(curve, cycles)
    bk = bergman_kernel(curve, cycles, pd)
    charts = standard_charts(curve, curve)
    s_coeffs, c_coeffs = local_expansions(bk, charts, k_bound=7)
    omega = eo_run(LocalSpectralCurve(ram=tuple(sorted(charts)),
                                      bergman_reg=dict(s_coeffs)), chi_max=1)
    contracted = bperiod_contract(omega.table, c_coeffs, 1)[(0, 3)][0, 0, 0]

    # direct route: cache ebar values on fixed quadrature nodes of B_1 and
    # evaluate the multi-differential as a triple sum
    ws = cycles.workspace
    nodes = []
    for coef, cont in cycles.b_cycles[0]:
        data = ws.nodes(cont, 24)
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
