"""Self-validation: every closed form cross-checked against an
independent numeric route, plus the symmetry and oracle properties.

All draws use fixed seeds, so the report is reproducible.  The headline
check also records the residual against the published value 0.9616,
which the closed-form ground state does not reproduce exactly.
"""

import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .entanglement import (
    NEGATIVE_EIG_TOL,
    negativity,
    partial_transpose,
    pure_state_negativity_oracle,
)
from .matkernel import eigvalsh, hermitian_eig
from .model import (
    ModelParams,
    analytic_spectrum,
    hamiltonian_closed_form,
    hamiltonian_tensor,
    hf_coupling,
)
from .sweeps import detect_critical_field
from .thermal import (
    GROUND_DEGENERACY_TOL,
    gibbs_analytic,
    gibbs_numeric,
    ground_state_mixture,
    thermal_point,
)

PAPER_HEADLINE_NEGATIVITY = 0.9616


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    worst_residual: float
    tolerance: float
    detail: str = ""


def _random_params(rng) -> ModelParams:
    return ModelParams(
        R=float(rng.uniform(0.05, 6.0)),
        gamma=float(rng.uniform(-2.0, 2.0)),
        Dz=float(rng.uniform(-3.0, 3.0)),
        B=float(rng.uniform(-3.0, 3.0)),
    )


def check_spectrum(n_draws=1000, seed=20240901):
    """Closed-form eigenvalues/eigenvectors vs the Jacobi eigensolver."""
    rng = np.random.default_rng(seed)
    worst_eig = worst_vec = worst_chi = worst_sum = 0.0
    for _ in range(n_draws):
        p = _random_params(rng)
        spec = analytic_spectrum(p)
        h = hamiltonian_tensor(p)
        numeric = eigvalsh(h)
        worst_eig = max(worst_eig, float(np.max(np.abs(spec.sorted_eigenvalues() - numeric))))
        res = h @ spec.vecs - spec.vecs * spec.eps
        worst_vec = max(worst_vec, float(np.max(np.linalg.norm(res, axis=0))))
        worst_chi = max(worst_chi, abs(spec.chi1 * spec.chi2 - 8.0))
        worst_sum = max(worst_sum, abs(float(spec.eps.sum())))
    return [
        Check("spectrum_analytic_vs_numeric", worst_eig < 1e-10, worst_eig, 1e-10,
              f"{n_draws} random parameter draws"),
        Check("eigenvector_residuals", worst_vec < 1e-12, worst_vec, 1e-12),
        Check("chi1_chi2_equals_8", worst_chi < 1e-12, worst_chi, 1e-12),
        Check("traceless_eigenvalue_sum", worst_sum < 1e-12, worst_sum, 1e-12),
    ]


def check_hamiltonian_routes(n_draws=100, seed=7):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_draws):
        p = _random_params(rng)
        worst = max(worst, float(np.max(np.abs(
            hamiltonian_tensor(p) - hamiltonian_closed_form(p)))))
    return [Check("hamiltonian_tensor_vs_closed_form", worst < 1e-12, worst, 1e-12)]


def check_gibbs_routes(n_draws=200, seed=20240902):
    """Closed-form density-matrix elements vs spectral exponentiation."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_draws):
        p = _random_params(rng)
        t = float(rng.uniform(0.05, 5.0))
        diff = gibbs_analytic(p, t).rho - gibbs_numeric(p, t).rho
        worst = max(worst, float(np.max(np.abs(diff))))
    return [Check("gibbs_analytic_vs_numeric", worst < 1e-10, worst, 1e-10,
                  f"{n_draws} draws, T in [0.05, 5]")]


def _field_crossings(p: ModelParams) -> list:
    """Closed-form B of the two T = 0 level crossings seen at R = Dz = 1:
    eps7 meets eps9, then eps4 meets eps7."""
    gj, r = p.gamma * p.J, p.r
    return sorted([(gj + np.sqrt(gj * gj + 8 * r * r)) / 2 - r, gj + r])


def check_ground_mixture(n_draws=100, seed=20240904):
    """Closed-form T = 0 mixture vs the projector on the Jacobi ground level
    of the tensor Hamiltonian: random draws, each also at r = 0, plus the
    fully degenerate r = B = 0 point and the two fig4c crossings."""
    rng = np.random.default_rng(seed)
    p1 = ModelParams(R=1.0, gamma=1.0, Dz=1.0)
    points = [ModelParams(Dz=0.0, j_override=0.0)]
    points += [replace(p1, B=float(b)) for b in _field_crossings(p1)]
    for _ in range(n_draws):
        p = _random_params(rng)
        points += [p, replace(p, Dz=0.0, j_override=0.0)]
    worst = 0.0
    for p in points:
        state = ground_state_mixture(p)
        dec = hermitian_eig(hamiltonian_tensor(p))
        w = dec.eigenvalues
        v = dec.eigenvectors[:, w - w[0] < GROUND_DEGENERACY_TOL]
        if state.Z != v.shape[1]:
            worst = float("inf")
            break
        worst = max(worst, float(np.max(np.abs(state.rho - (v @ v.conj().T) / state.Z))))
    return [Check("ground_mixture_closed_form_vs_jacobi", worst < 1e-12, worst, 1e-12,
                  f"{len(points)} points, incl. r = 0 and the fig4c crossings")]


def check_symmetries(n_draws=20, seed=11):
    """Dz-parity and B-parity of the thermal negativity."""
    rng = np.random.default_rng(seed)
    worst_dz = worst_b = 0.0
    for _ in range(n_draws):
        p = _random_params(rng)
        t = float(rng.uniform(0.05, 2.0))
        n0 = negativity(gibbs_analytic(p, t).rho).value
        n_dz = negativity(gibbs_analytic(replace(p, Dz=-p.Dz), t).rho).value
        n_b = negativity(gibbs_analytic(replace(p, B=-p.B), t).rho).value
        worst_dz = max(worst_dz, abs(n0 - n_dz))
        worst_b = max(worst_b, abs(n0 - n_b))
    return [
        Check("negativity_even_in_Dz", worst_dz < 1e-10, worst_dz, 1e-10),
        Check("negativity_even_in_B", worst_b < 1e-10, worst_b, 1e-10),
    ]


def _same_invariants(p: ModelParams, k: float) -> ModelParams:
    """Params with the same gamma*J, r = hypot(J, Dz) and B as p, but
    J/k, gamma*k and Dz >= 0 (k >= 1, and k = -1 flips the signs of J and
    gamma): N and Z depend on J and Dz only through gamma*J and r."""
    j = p.J / k
    return ModelParams(gamma=p.gamma * k, Dz=math.sqrt(max(p.r ** 2 - j * j, 0.0)),
                       B=p.B, j_override=j)


def check_invariants(n_draws=50, seed=20240906):
    """Negativity and Z of pairs with equal (gamma*J, r, B, T): a random
    point and one with the signs of J and gamma flipped, or J rescaled by
    1/k and gamma by k with Dz = sqrt(r^2 - (J/k)^2).  N is compared through
    thermal_point and through negativity(gibbs_numeric(...).rho), Z through
    thermal_point, relative to its size."""
    rng = np.random.default_rng(seed)
    worst_n = worst_z = 0.0
    for _ in range(n_draws):
        p = _random_params(rng)
        t = float(rng.uniform(0.05, 2.0))
        q = _same_invariants(p, -1.0 if rng.random() < 0.5 else float(rng.uniform(1.0, 3.0)))
        z_p, _, n_p = thermal_point(p, t)
        z_q, _, n_q = thermal_point(q, t)
        dense = [negativity(gibbs_numeric(x, t).rho).value for x in (p, q)]
        worst_n = max(worst_n, abs(n_p - n_q), abs(dense[0] - dense[1]))
        worst_z = max(worst_z, abs(z_p - z_q) / z_p)
    return [
        Check("negativity_invariant_in_gammaJ_r", worst_n < 1e-12, worst_n, 1e-12,
              f"{n_draws} pairs, closed form and gibbs_numeric"),
        Check("partition_function_invariant_in_gammaJ_r", worst_z < 1e-12, worst_z, 1e-12,
              "relative"),
    ]


def check_oracle(seed=13):
    """Pure-state negativity oracle vs the partial-transpose pipeline on all
    nine closed-form eigenvectors, plus the PT involution."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        p = _random_params(rng)
        vecs = analytic_spectrum(p).vecs
        for i in range(9):
            c = vecs[:, i]
            full = negativity(np.outer(c, c.conj())).value
            worst = max(worst, abs(full - pure_state_negativity_oracle(c)))
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    inv = float(np.max(np.abs(partial_transpose(partial_transpose(rho)) - rho)))
    return [
        Check("pure_state_oracle_vs_pt_pipeline", worst < 1e-10, worst, 1e-10),
        Check("partial_transpose_involution", inv == 0.0, inv, 0.0),
    ]


def check_negativity_routes(n_draws=100, seed=20240903):
    """negativity(rho) and the closed-form thermal_point vs dense Jacobi
    (hermitian_eig) on the whole partial transpose, for states from every
    route a sweep point can take: the closed form, the numeric fallback at
    r = 0 and the T = 0 mixture.

    negativity runs eigvalsh, which is the same _jacobi arithmetic as
    hermitian_eig, so negativity_sector_vs_dense reads 0.0 by construction;
    it guards negativity's PSD gate, sort order and -1e-12 cut.  The
    independent comparison is negativity_closed_form_vs_dense."""
    rng = np.random.default_rng(seed)
    worst_sector = worst_point = 0.0
    for _ in range(n_draws):
        p = _random_params(rng)
        t = float(rng.uniform(0.01, 5.0))
        r0 = replace(p, Dz=0.0, j_override=0.0)
        cases = ((p, t, gibbs_analytic(p, t)),
                 (r0, t, gibbs_numeric(r0, t)),
                 (p, 0.0, ground_state_mixture(p)))
        for params, temperature, state in cases:
            w = hermitian_eig(partial_transpose(state.rho)).eigenvalues
            dense = -float(w[w < -NEGATIVE_EIG_TOL].sum())
            worst_sector = max(worst_sector, abs(negativity(state.rho).value - dense))
            worst_point = max(worst_point, abs(thermal_point(params, temperature)[2] - dense))
    return [Check("negativity_sector_vs_dense", worst_sector < 1e-12, worst_sector, 1e-12,
                  f"{n_draws} draws x 3 routes, T in [0.01, 5]"),
            Check("negativity_closed_form_vs_dense", worst_point < 1e-12, worst_point, 1e-12,
                  f"thermal_point, {n_draws} draws at T > 0, r = 0 and T = 0")]


def check_hf_maximum():
    grid = np.arange(0.01, 8.0, 0.001)
    vals = np.array([hf_coupling(r) for r in grid])
    r_star = float(grid[vals.argmax()])
    res_r = abs(r_star - 1.25)
    res_j = abs(hf_coupling(1.25) - 0.235460)
    tail = hf_coupling(6.0)
    return [
        Check("hf_maximum_location", res_r < 1e-3, res_r, 1e-3, f"argmax {r_star}"),
        Check("hf_maximum_value", res_j < 1e-4, res_j, 1e-4),
        Check("hf_tail_below_1e-3", tail < 1e-3, tail, 1e-3, f"J(6) = {tail:.3e}"),
    ]


def check_headline():
    """Low-T negativity at B=0, Dz=1, R=0.5 by two independent routes: the
    T = 0 state and the oracle share the closed-form ground vector, but the
    full partial-transpose pipeline and the pure-state oracle compute the
    negativity independently.  The residual against the published 0.9616
    is reported, not hidden."""
    p = ModelParams(R=0.5, gamma=1.0, Dz=1.0, B=0.0)
    full = negativity(ground_state_mixture(p).rho).value
    spec = analytic_spectrum(p)
    oracle = pure_state_negativity_oracle(spec.vecs[:, 8])
    route_gap = abs(full - oracle)
    paper_gap = abs(full - PAPER_HEADLINE_NEGATIVITY)
    return [
        Check("headline_route_agreement", route_gap < 1e-9, route_gap, 1e-9,
              f"full PT {full:.6f}, pure-state oracle {oracle:.6f}"),
        Check("headline_vs_published_0.9616", paper_gap < 0.01, paper_gap, 0.01,
              f"tool reports {full:.6f}; residual {paper_gap:.6f} vs the "
              "published 0.9616 (the closed-form ground state does not "
              "reproduce that value)"),
    ]


def check_critical_field():
    """Envelope crossings vs the closed-form crossing equations at Dz = 1,
    gamma = 1: R = 1 and seeded R in [0.2, 3], where both lie below B = 2."""
    rng = np.random.default_rng(20240905)
    worst = 0.0
    for r in [1.0, *rng.uniform(0.2, 3.0, 20)]:
        p = ModelParams(R=float(r), gamma=1.0, Dz=1.0)
        expected = _field_crossings(p)
        found = [cp.value for cp in detect_critical_field(p, b_max=2.0)]
        if len(found) != len(expected):
            worst = float("inf")
            break
        worst = max(worst, *(abs(a - b) for a, b in zip(found, expected)))
    return [Check("critical_field_vs_closed_form", worst < 1e-12, worst, 1e-12,
                  "R = 1 and 20 seeded R in [0.2, 3]")]


def validate(fast: bool = False) -> dict:
    """Run every check and return a machine-readable report, with the
    seconds each check function took under "timings"."""
    t0 = time.perf_counter()
    runs = [
        (check_spectrum, {"n_draws": 100 if fast else 1000}),
        (check_hamiltonian_routes, {"n_draws": 20 if fast else 100}),
        (check_gibbs_routes, {"n_draws": 40 if fast else 200}),
        (check_ground_mixture, {"n_draws": 20 if fast else 100}),
        (check_symmetries, {"n_draws": 5 if fast else 20}),
        (check_invariants, {"n_draws": 10 if fast else 50}),
        (check_oracle, {}),
        (check_negativity_routes, {"n_draws": 20 if fast else 100}),
        (check_hf_maximum, {}),
        (check_headline, {}),
        (check_critical_field, {}),
    ]
    checks, timings = [], {}
    for check, kwargs in runs:
        start = time.perf_counter()
        checks += check(**kwargs)
        timings[check.__name__] = time.perf_counter() - start
    return {
        "passed": all(c.passed for c in checks),
        "elapsed_seconds": time.perf_counter() - t0,
        "timings": timings,
        "checks": [asdict(c) for c in checks],
    }
