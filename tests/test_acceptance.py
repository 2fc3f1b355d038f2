"""Acceptance suite: one test per release criterion, each printing its own
pass/fail line (run with -s to see them on success)."""

import time

import numpy as np

from qutritxxz.entanglement import (
    negativity,
    partial_transpose,
    pure_state_negativity_oracle,
)
from qutritxxz.matkernel import hermitian_eig
from qutritxxz.model import (
    ModelParams,
    analytic_spectrum,
    hamiltonian_tensor,
    hf_coupling,
)
from qutritxxz.output import emit_csv
from qutritxxz.sweeps import (
    SweepSpec,
    detect_critical_field,
    figure_preset,
    run_sweep,
)
from qutritxxz.thermal import gibbs_analytic, gibbs_numeric, ground_state_mixture
from qutritxxz.validate import validate

from conftest import haar_unitary, random_params


def _report(num, ok, text):
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}  criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_and_3_spectrum_cross_validation():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    gaps, chi, total = [], [], []
    for _ in range(1000):
        p = random_params(rng)
        spec = analytic_spectrum(p)
        numeric = hermitian_eig(hamiltonian_tensor(p)).eigenvalues
        gaps.append(np.max(np.abs(np.sort(spec.eps) - numeric)))
        chi.append(abs(spec.chi1 * spec.chi2 - 8.0))
        total.append(abs(float(spec.eps.sum())))
    elapsed = time.perf_counter() - t0
    # np.max, unlike max, keeps a NaN
    worst, worst_chi, worst_sum = (float(np.max(x)) for x in (gaps, chi, total))
    _report(1, worst < 1e-10 and elapsed < 10.0,
            f"1000-draw spectrum match, worst {worst:.2e}, {elapsed:.1f}s")
    _report(3, worst_chi < 1e-12 and worst_sum < 1e-12,
            f"chi1*chi2=8 worst {worst_chi:.2e}, sum(eps)=0 worst {worst_sum:.2e}")


def test_criterion_2_density_matrix_cross_validation():
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    gaps = []
    for _ in range(200):
        p = random_params(rng)
        t = float(rng.uniform(0.05, 5.0))
        diff = gibbs_analytic(p, t).rho - gibbs_numeric(p, t).rho
        gaps.append(np.max(np.abs(diff)))
    elapsed = time.perf_counter() - t0
    worst = float(np.max(gaps))
    _report(2, worst < 1e-10 and elapsed < 10.0,
            f"200-draw Gibbs dual route, worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_hf_coupling_maximum():
    grid = np.round(np.arange(0.01, 8.0, 0.001), 3)
    vals = np.array([hf_coupling(r) for r in grid])
    r_star = float(grid[vals.argmax()])
    ok = (abs(r_star - 1.25) < 1e-3
          and abs(hf_coupling(1.25) - 0.235460) < 1e-4
          and hf_coupling(6.0) < 1e-3)
    _report(4, ok, f"J(R) max at R={r_star}, J={hf_coupling(1.25):.6f}, "
                   f"J(6)={hf_coupling(6.0):.2e}")


def test_criterion_5_headline_negativity():
    p = ModelParams(R=0.5, gamma=1.0, Dz=1.0, B=0.0)
    full = negativity(ground_state_mixture(p).rho)
    oracle = pure_state_negativity_oracle(analytic_spectrum(p).vecs[:, 8])
    route_gap = abs(full - oracle)
    paper_gap = abs(full - 0.9616)
    ok = route_gap < 1e-9 and paper_gap < 0.01
    _report(5, ok, f"N = {full:.6f} (routes agree to {route_gap:.1e}); "
                   f"residual {paper_gap:.4f} vs the published 0.9616")


def test_criterion_6_zero_temperature_field_plateaus():
    p = ModelParams(R=1.0, gamma=1.0, Dz=1.0)
    gj, r = p.gamma * p.J, p.r
    closed = sorted([(gj + np.sqrt(gj * gj + 8 * r * r)) / 2 - r, gj + r])
    points = detect_critical_field(p, b_max=2.0)
    cross_ok = (len(points) == 2
                and all(abs(cp.value - want) < 1e-6 for cp, want in zip(points, closed))
                and abs(points[0].value - 0.539683) < 1e-4
                and abs(points[1].value - 1.246616) < 1e-4)

    def plateau(b):
        return negativity(ground_state_mixture(
            ModelParams(R=1.0, gamma=1.0, Dz=1.0, B=b)).rho)

    lo, mid, hi = plateau(0.2), plateau(0.9), plateau(1.5)
    plateau_ok = (abs(lo - 0.974159) < 1e-4 and abs(mid - 0.5) < 1e-10 and hi == 0.0)
    _report(6, cross_ok and plateau_ok,
            f"crossings B = {points[0].value:.6f}, {points[1].value:.6f}; "
            f"plateaus {lo:.6f} / {mid:.3f} / {hi:.1f}")


def test_criterion_7_qualitative_figures(tmp_path):
    # (a) monotone decay in T, exact zero by T = 5, at the default point
    spec = SweepSpec(vary="T", start=0.04, stop=5.0, steps=125,
                     fixed=ModelParams(R=0.5, Dz=1.0, B=0.0))
    path_a = tmp_path / "nt.csv"
    emit_csv(run_sweep(spec), path_a)
    rows = [line.split(",") for line in path_a.read_text().splitlines()[1:]]
    n_t = [float(r[-1]) for r in rows]
    a_ok = bool(np.all(np.diff(n_t) <= 1e-12) and n_t[-1] == 0.0)

    # (b) Dz parity and large-Dz saturation on emitted data
    spec_b = SweepSpec(vary="Dz", start=-100.0, stop=100.0, steps=201,
                       fixed=ModelParams(R=0.5, B=0.5), T=0.08)
    path_b = tmp_path / "ndz.csv"
    emit_csv(run_sweep(spec_b), path_b)
    vals = {}
    for line in path_b.read_text().splitlines()[1:]:
        parts = line.split(",")
        vals[float(parts[1])] = float(parts[-1])
    parity = max(abs(vals[d] - vals[-d]) for d in vals if d > 0)
    b_ok = parity < 1e-10 and abs(vals[50.0] - vals[100.0]) < 1e-3

    # (c) onset monotonic across the fig3b / fig3c preset families, read off
    # the emitted CSVs
    def onsets(name):
        curves = figure_preset(name)
        out = []
        for res in curves:
            path = tmp_path / f"{name}_{res.meta['label']}.csv"
            emit_csv(res, path)
            onset = 0.0
            for line in path.read_text().splitlines()[1:]:
                parts = line.split(",")
                dz, n = float(parts[1]), float(parts[-1])
                if dz >= 0 and n > 1e-3:
                    onset = dz
                    break
            out.append(onset)
        return out

    by_r = onsets("fig3b")
    by_b = onsets("fig3c")
    c_ok = (by_r[0] > by_r[1] > by_r[2]) and (by_b[0] < by_b[1] < by_b[2])
    _report(7, a_ok and b_ok and c_ok,
            f"(a) monotone decay to 0: {a_ok}; (b) parity {parity:.1e}, "
            f"saturation: {b_ok}; (c) onsets vs R {by_r}, vs B {by_b}")


def test_criterion_8_property_suite():
    rng = np.random.default_rng(8)
    failures = []
    for _ in range(20):
        p = random_params(rng)
        t = float(rng.uniform(0.05, 3.0))
        state = gibbs_analytic(p, t)
        rho = state.rho
        h = hamiltonian_tensor(p)
        if abs(np.trace(rho).real - 1.0) > 1e-12:
            failures.append("trace")
        if hermitian_eig(rho).eigenvalues[0] < -1e-12:
            failures.append("psd")
        if np.max(np.abs(h @ rho - rho @ h)) > 1e-10:
            failures.append("commutation")
        if not np.array_equal(partial_transpose(partial_transpose(rho)), rho):
            failures.append("pt_involution")
        n0 = negativity(rho)
        u = np.kron(haar_unitary(rng), haar_unitary(rng))
        if abs(negativity(u @ rho @ u.conj().T) - n0) > 1e-9:
            failures.append("local_unitary")
        flip_dz = ModelParams(R=p.R, gamma=p.gamma, Dz=-p.Dz, B=p.B)
        flip_b = ModelParams(R=p.R, gamma=p.gamma, Dz=p.Dz, B=-p.B)
        if abs(negativity(gibbs_analytic(flip_dz, t).rho) - n0) > 1e-10:
            failures.append("dz_parity")
        if abs(negativity(gibbs_analytic(flip_b, t).rho) - n0) > 1e-10:
            failures.append("b_parity")
    vecs = analytic_spectrum(ModelParams(R=0.7, gamma=1.1, Dz=0.9, B=0.4)).vecs
    for i in range(9):
        c = vecs[:, i]
        full = negativity(np.outer(c, c.conj()))
        if abs(full - pure_state_negativity_oracle(c)) > 1e-10:
            failures.append(f"oracle_phi{i + 1}")
    _report(8, not failures, f"property suite failures: {failures or 'none'}")


def test_criterion_9_determinism(tmp_path):
    for name in ("fig1", "fig2b", "fig4c"):
        a, b = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
        emit_csv(figure_preset(name), a)
        emit_csv(figure_preset(name), b)
        if a.read_bytes() != b.read_bytes():
            _report(9, False, f"{name} rerun differs")
    _report(9, True, "preset reruns byte-identical")


def test_criterion_10_runtime_budget(tmp_path):
    t0 = time.perf_counter()
    report = validate()
    for name in ("fig1", "fig2a", "fig2b", "fig3a", "fig3b", "fig3c",
                 "fig4a", "fig4b", "fig4c"):
        emit_csv(figure_preset(name), tmp_path / f"{name}.csv")
    elapsed = time.perf_counter() - t0
    _report(10, report["passed"] and elapsed < 60.0,
            f"validate + all presets in {elapsed:.1f}s, validate passed: "
            f"{report['passed']}")
