"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  The lattice-trend criterion dominates the runtime
(a few minutes); everything else finishes in seconds.
"""

import time

import numpy as np
import pytest

from fermidistill.closed_forms import (
    FourModeParams,
    TwoModeParams,
    four_mode_covariance,
    four_mode_f,
    four_mode_p,
    four_mode_split,
    two_mode_covariance,
    two_mode_max_fidelity,
    two_mode_split,
)
from fermidistill.fock import density_from_covariance, fock_vector
from fermidistill.lattice import (
    LatticeGeometry,
    ToeplitzKernel,
    fit_power_law,
    lattice_point,
    min_length,
)
from fermidistill.linalg import pfaffian
from fermidistill.protocol import (
    BOUND_ATOL,
    optimal_pf_bound,
    run_protocol,
    sample_suboptimal,
    scan_m,
)
from fermidistill.states import (
    BipartiteSplit,
    ValidationError,
    fock_fidelity,
    maximally_entangled_projection,
    parity_probability,
    random_covariance,
    random_x_zero_covariance,
    target_orientation,
)

from helpers import (
    dense_lattice_point,
    majorana_ops,
    parity_from_indices,
    parity_operator,
    random_orthogonal,
)


def report(number: int, label: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number}: {status} - {label} ({elapsed:.1f}s){suffix}")


@pytest.fixture(scope="module")
def x_zero_states():
    """Shared state set for the optimality and monotonicity criteria."""
    states = []
    for seed in range(60):
        states.append(random_x_zero_covariance(4, np.random.default_rng(1000 + seed)))
    return states


def test_criterion_1_oracle_equivalence():
    """Pfaffian p and fidelity match dense brute force on 4 and 6 modes."""
    start = time.perf_counter()
    worst = 0.0
    count = 0
    rng = np.random.default_rng(7)
    for n_modes, runs in ((4, 160), (6, 48)):
        split = BipartiteSplit.halves(2 * n_modes)
        half = n_modes  # reference-space dimension per side
        theta = parity_from_indices(n_modes, range(2 * n_modes))
        eye = np.eye(2**n_modes)
        for _ in range(runs):
            s = random_covariance(n_modes, rng)
            v = random_orthogonal(half, rng)
            e = maximally_entangled_projection(v, split)
            rho = density_from_covariance(s)
            psi = fock_vector(e)

            orient = target_orientation(e)
            sector = orient * ((-1) ** (n_modes // 2))
            p_oracle = float(np.trace(rho @ (eye + sector * theta)).real) / 2
            p_formula = parity_probability(s, orientation=orient)
            worst = max(worst, abs(p_oracle - p_formula))

            fid_oracle = float((psi.conj() @ rho @ psi).real)
            worst = max(worst, abs(fid_oracle - fock_fidelity(s, e)))
            count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and count >= 200 and elapsed < 120
    report(1, "probability/fidelity vs dense oracle", ok, elapsed,
           f"{count} states, max deviation {worst:.2e}")
    assert worst <= 1e-9
    assert count >= 200
    assert elapsed < 120


def test_criterion_2_closed_form_consistency():
    """Closed forms match the Pfaffian route; two-mode optimum beats a grid."""
    start = time.perf_counter()
    worst = 0.0
    valid = 0
    for sigma in (0.1, 0.25, 0.4, 0.55, 0.7):
        for x in np.linspace(-0.75, 0.75, 10):
            for y in np.linspace(-0.75, 0.75, 10):
                params = FourModeParams(x, x, y, y, sigma)
                try:
                    s = four_mode_covariance(params)
                except ValidationError:
                    continue
                valid += 1
                worst = max(worst, abs(parity_probability(s) - four_mode_p(params)))
                if four_mode_p(params) > 1e-6:
                    rep = run_protocol(s, four_mode_split(), 2)
                    worst = max(worst, abs(rep.p - four_mode_p(params)))
                    worst = max(worst, abs(rep.f - four_mode_f(params)))

    # two-mode supremum vs an O(2) angle grid at ~1e-3 resolution
    rng = np.random.default_rng(3)
    grid_gap = 0.0
    checked = 0
    angles = np.linspace(0.0, 2 * np.pi, 6284)
    while checked < 5:
        a, b, c, d = rng.uniform(-0.7, 0.7, 4)
        try:
            s = two_mode_covariance(TwoModeParams(a, b, c, d))
        except ValidationError:
            continue
        checked += 1
        value, _ = two_mode_max_fidelity(TwoModeParams(a, b, c, d))
        best = 0.0
        for phi in angles:
            cs, sn = np.cos(phi), np.sin(phi)
            for y in (np.array([[cs, -sn], [sn, cs]]), np.array([[-cs, sn], [sn, cs]])):
                e = maximally_entangled_projection(y, two_mode_split())
                best = max(best, fock_fidelity(s, e))
        assert best <= value + 1e-9
        grid_gap = max(grid_gap, value - best)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and grid_gap <= 1e-6 and valid >= 300 and elapsed < 60
    report(2, "closed forms vs Pfaffian route and grid search", ok, elapsed,
           f"{valid} grid states, max dev {worst:.2e}, grid gap {grid_gap:.2e}")
    assert worst <= 1e-10
    assert grid_gap <= 1e-6
    assert elapsed < 60


def test_criterion_3_optimal_protocol_bound(x_zero_states):
    """Vanishing-X states: canonical pf attains the product bound, samples never beat it."""
    start = time.perf_counter()
    worst_eq = 0.0
    worst_exceed = -np.inf
    for idx, (s, split) in enumerate(x_zero_states[:50]):
        rep = run_protocol(s, split, 2)
        bound = optimal_pf_bound(rep.lambdas)
        worst_eq = max(worst_eq, abs(rep.pf - bound))
        sample = sample_suboptimal(s, split, 2, trials=1000, seed=42 + idx)
        worst_exceed = max(worst_exceed, sample.best_pf - bound)
    elapsed = time.perf_counter() - start
    ok = worst_eq <= BOUND_ATOL and worst_exceed <= BOUND_ATOL and elapsed < 600
    report(3, "optimal-protocol product bound on X = 0 states", ok, elapsed,
           f"50 states x 1000 samples, |pf - bound| {worst_eq:.2e}, "
           f"max excess {worst_exceed:.2e}")
    assert worst_eq <= BOUND_ATOL
    assert worst_exceed <= BOUND_ATOL
    assert elapsed < 600


def test_criterion_4_pf_monotone_in_m(x_zero_states):
    """pf(m=2) >= pf(m=3) >= pf(m=4) on the same state set, no exceptions."""
    start = time.perf_counter()
    violations = []
    for s, split in x_zero_states[:50]:
        reports, reason = scan_m(s, split, 4)
        assert reason is None
        pfs = [r.pf for r in reports]
        if not (pfs[0] >= pfs[1] - 1e-12 and pfs[1] >= pfs[2] - 1e-12):
            violations.append(pfs)
    elapsed = time.perf_counter() - start
    report(4, "pf nonincreasing in m", not violations, elapsed,
           f"50 states, {len(violations)} violations")
    assert not violations


def test_criterion_5_lattice_pipeline_equivalence():
    """Iterative circulant/Krylov route equals the dense route to 1e-8."""
    start = time.perf_counter()
    worst = 0.0
    for L in (32, 64, 128):
        for N in (0, 1, 10):
            geometry = LatticeGeometry(L, N)
            fast = lattice_point(geometry, m=2)
            ref = dense_lattice_point(geometry, m=2)
            worst = max(worst, abs(fast.p - ref.p), abs(fast.f - ref.f))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 60
    report(5, "lattice iterative vs dense route", ok, elapsed,
           f"9 geometries, max deviation {worst:.2e}")
    assert worst <= 1e-8
    assert elapsed < 60


def test_criterion_6_lattice_trends():
    """Desk-scale trends: monotone f and p, power-law fits, minimal lengths."""
    start = time.perf_counter()
    grid = [2000, 5000, 10000, 20000, 30000, 50000, 70000, 100000]
    distances = [1, 10, 100]
    f_table = {}
    p_table = {}
    for N in distances:
        fs, ps = [], []
        for L in grid:
            rep = lattice_point(LatticeGeometry(L, N), m=2)
            fs.append(rep.f)
            ps.append(rep.p)
        f_table[N] = fs
        p_table[N] = ps

    monotone_L = all(
        all(b > a for a, b in zip(vals, vals[1:]))
        for table in (f_table, p_table)
        for vals in table.values()
    )
    monotone_N = all(
        f_table[n1][i] > f_table[n2][i] and p_table[n1][i] > p_table[n2][i]
        for n1, n2 in ((1, 10), (10, 100))
        for i in range(len(grid))
    )

    worst_rms = 0.0
    for N in distances:
        fit = fit_power_law(list(zip(grid, f_table[N])), L_min=20000)
        assert fit.warnings == ()
        worst_rms = max(worst_rms, fit.residual)

    lengths = [
        min_length(1, 0.9, L_lo=500, L_hi=20000),
        min_length(10, 0.9, L_lo=2000, L_hi=200000),
        min_length(100, 0.9, L_lo=20000, L_hi=800000),
    ]
    lengths_ok = lengths[0] <= lengths[1] <= lengths[2]

    elapsed = time.perf_counter() - start
    ok = monotone_L and monotone_N and worst_rms <= 0.05 and lengths_ok and elapsed < 1800
    report(6, "lattice trends, fits and minimal lengths", ok, elapsed,
           f"monotone L {monotone_L}, monotone N {monotone_N}, "
           f"fit rms {worst_rms:.4f}, L(N, 0.9) = {lengths}")
    assert monotone_L
    assert monotone_N
    assert worst_rms <= 0.05
    assert lengths_ok
    assert elapsed < 1800


def test_criterion_7_performance_floor():
    """Matrix-free product under 50 ms at L = 2^17; one 1e6-site point under 5 min."""
    L = 1 << 17
    kern = ToeplitzKernel(L, -(L + 1))
    rng = np.random.default_rng(0)
    x = rng.standard_normal(L)
    for _ in range(3):
        kern.matvec(x)
    times = []
    for _ in range(11):
        t0 = time.perf_counter()
        kern.matvec(x)
        times.append(time.perf_counter() - t0)
    matvec_ms = float(np.median(times) * 1e3)

    t0 = time.perf_counter()
    rep = lattice_point(LatticeGeometry(10**6, 1), m=2)
    point_s = time.perf_counter() - t0
    ok = matvec_ms < 50 and point_s < 300 and 0 < rep.f < 1
    report(7, "performance floor", ok, matvec_ms / 1e3 + point_s,
           f"matvec {matvec_ms:.1f} ms, 1e6-site point {point_s:.1f} s, f = {rep.f:.6f}")
    assert matvec_ms < 50
    assert point_s < 300


def test_criterion_8_parity_identities():
    """Parity operator identities and the adapted-basis value for n <= 6."""
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(5)
    for n in range(1, 7):
        ops = majorana_ops(n)
        theta = parity_operator(n)
        dim = 2**n
        worst = max(worst, np.abs(theta - theta.conj().T).max())
        worst = max(worst, np.abs(theta @ theta - np.eye(dim)).max())
        for op in ops:
            worst = max(worst, np.abs(theta @ op + op @ theta).max())
        s = random_covariance(n, rng)
        rho = density_from_covariance(s)
        lhs = float(np.trace(rho @ theta).real)
        g = s.g
        rhs = (2.0**n) * ((-1.0) ** n) * pfaffian((g - g.T) / 2)
        worst = max(worst, abs(lhs - rhs))
    # adapted-basis parity of the target state: (-1)^m
    for m in (1, 2, 3):
        n = 2 * m
        split = BipartiteSplit.halves(2 * n)
        e = maximally_entangled_projection(np.eye(n), split)
        psi = fock_vector(e)
        theta = parity_from_indices(n, range(2 * n))
        value = float((psi.conj() @ theta @ psi).real)
        worst = max(worst, abs(value - (-1.0) ** m))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10
    report(8, "parity operator identities (n <= 6)", ok, elapsed,
           f"max deviation {worst:.2e}")
    assert worst <= 1e-10
