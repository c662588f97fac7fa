import itertools
from dataclasses import fields

import numpy as np
import pytest

from fermidistill.closed_forms import (
    FourModeParams,
    TwoModeParams,
    f_vs_g_scan,
    four_mode_covariance,
    four_mode_f,
    four_mode_g,
    four_mode_p,
    four_mode_split,
    max_singlet_fraction,
    two_mode_correlation,
    two_mode_covariance,
    two_mode_max_fidelity,
    two_mode_split,
)
from fermidistill.fock import density_from_covariance
from fermidistill.protocol import run_protocol
from fermidistill.states import (
    ValidationError,
    blocks,
    fock_fidelity,
    maximally_entangled_projection,
    parity_probability,
    validate,
)

from helpers import (
    density_dense_products,
    four_mode_covariance_explicit,
    majorana_ops,
    orthogonal_2x2_grid,
    two_mode_covariance_explicit,
)


def random_two_mode(rng):
    for _ in range(100):
        a, b, c, d = rng.uniform(-0.7, 0.7, 4)
        params = TwoModeParams(a, b, c, d)
        try:
            two_mode_covariance(params)
            return params
        except ValidationError:
            continue
    raise RuntimeError("sampling failed")


def random_four_mode(rng, sigma=None):
    for _ in range(100):
        nus = rng.uniform(-0.6, 0.6, 4)
        sig = sigma if sigma is not None else rng.uniform(0.05, 0.6)
        params = FourModeParams(*nus, sig)
        try:
            four_mode_covariance(params)
            return params
        except ValidationError:
            continue
    raise RuntimeError("sampling failed")


class TestTwoMode:
    def test_zero_params_maximally_mixed(self):
        s = two_mode_covariance(TwoModeParams(0, 0, 0, 0))
        np.testing.assert_allclose(s.matrix, 0.5 * np.eye(4), atol=0)

    def test_cd_one_maximally_entangled(self):
        s = two_mode_covariance(TwoModeParams(0, 0, 1, 1))
        blk = blocks(s, two_mode_split())
        assert np.abs(blk.x).max() == 0
        assert np.abs(blk.z).max() == 0
        np.testing.assert_allclose(blk.y.T @ blk.y, np.eye(2), atol=1e-12)

    def test_all_ones_rejected_by_eigenvalue_check(self):
        # a = b = c = d = 1 puts eigenvalues at -1/2 and 3/2
        with pytest.raises(ValidationError):
            two_mode_covariance(TwoModeParams(1, 1, 1, 1))

    def test_norm_boundary_is_pure_product(self):
        s = two_mode_covariance(TwoModeParams(1, 1, 0, 0))
        ev = np.linalg.eigvalsh(s.matrix)
        np.testing.assert_allclose(np.sort(ev), [0, 0, 1, 1], atol=1e-12)

    def test_constraint_violation(self):
        with pytest.raises(ValidationError):
            two_mode_covariance(TwoModeParams(1.0, 1.0, 1.0, -1.0))

    @pytest.mark.parametrize(
        "params", [(0, 0, np.nan, np.inf), (0, 0, 1e308, np.nan), (np.nan,) * 4]
    )
    def test_nan_params_rejected_by_check(self, params):
        # refused as the parameters are read, before check() could square them
        with pytest.raises(ValidationError, match="has (a non-finite entry|an entry of 1e100)"):
            TwoModeParams(*params).check()

    def test_huge_numpy_params_rejected_without_overflow(self):
        # numpy scalars would square to inf with an overflow warning
        with np.errstate(all="raise"), pytest.raises(
            ValidationError, match="a has an entry of 1e100 or more"
        ):
            TwoModeParams(*np.array([1e200, 0, 0, 0])).check()

    def test_correlation_zero_params(self):
        r = two_mode_correlation(TwoModeParams(0, 0, 0, 0))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(r, expected)

    def test_correlation_single_entries(self):
        assert two_mode_correlation(TwoModeParams(1, 0, 0, 0))[3, 0] == 1.0
        assert two_mode_correlation(TwoModeParams(0, 0.5, 0, 0))[0, 3] == 0.5
        assert two_mode_correlation(TwoModeParams(0, 0, 0.3, 0))[2, 1] == -0.3
        assert two_mode_correlation(TwoModeParams(0, 0, 0, 0.4))[1, 2] == 0.4

    def test_correlation_against_dense_paulis(self, rng):
        # Pauli expectations through the local-operator identification:
        # site-1 operators sqrt(2) B_a, site-2 operators need the parity string
        params = random_two_mode(rng)
        s = two_mode_covariance(params)
        # section basis order (A1, A2, B1, B2) = canonical (0, 2, 1, 3)
        perm = [0, 2, 1, 3]
        inv = np.argsort(perm)
        rho = density_from_covariance(s.matrix[np.ix_(inv, inv)])
        ops_sec = [majorana_ops(2)[p] for p in perm]
        reference = density_dense_products(s.matrix, ops_sec)
        np.testing.assert_allclose(rho, reference, rtol=0, atol=1e-13)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.diag([1.0, -1.0]).astype(complex)
        paulis = [np.eye(2, dtype=complex), sx, sy, sz]
        r = two_mode_correlation(params)
        for i in range(4):
            for j in range(4):
                op = np.kron(paulis[i], paulis[j])
                val = float(np.trace(rho @ op).real)
                assert val == pytest.approx(r[i, j], abs=1e-9), (i, j)

    def test_max_fidelity_perfect(self):
        value, optimizer = two_mode_max_fidelity(TwoModeParams(0, 0, 1, 1))
        assert value == pytest.approx(1.0)
        np.testing.assert_allclose(optimizer, np.eye(2), atol=0)

    def test_max_fidelity_maximally_mixed(self):
        value, _ = two_mode_max_fidelity(TwoModeParams(0, 0, 0, 0))
        assert value == pytest.approx(0.25)

    def test_optimizer_attains_value(self, rng):
        for _ in range(10):
            params = random_two_mode(rng)
            value, optimizer = two_mode_max_fidelity(params)
            s = two_mode_covariance(params)
            e = maximally_entangled_projection(optimizer, two_mode_split())
            assert fock_fidelity(s, e) == pytest.approx(value, abs=1e-10)

    def test_grid_search_never_exceeds(self, rng):
        params = random_two_mode(rng)
        value, _ = two_mode_max_fidelity(params)
        s = two_mode_covariance(params)
        best = max(
            fock_fidelity(s, maximally_entangled_projection(y, two_mode_split()))
            for y in orthogonal_2x2_grid(721)
        )
        assert best <= value + 1e-9
        assert best >= value - 1e-4  # grid resolution


class TestFourMode:
    def test_zero_params_maximally_mixed(self):
        s = four_mode_covariance(FourModeParams(0, 0, 0, 0, 0))
        np.testing.assert_allclose(s.matrix, 0.5 * np.eye(8), atol=0)

    def test_sigma_one_maximally_entangled(self):
        s = four_mode_covariance(FourModeParams(0, 0, 0, 0, 1))
        blk = blocks(s, four_mode_split())
        assert np.abs(blk.x).max() == 0
        np.testing.assert_allclose(blk.y, np.eye(4), atol=0)

    @pytest.mark.parametrize("params", [(0, 0, 0, 0, np.inf), (np.nan, 0, 0, 0, 0.5)])
    def test_non_finite_params_rejected(self, params):
        with np.errstate(all="raise"), pytest.raises(ValidationError, match="a non-finite entry"):
            four_mode_covariance(FourModeParams(*params))

    def test_small_sigma_valid(self, rng):
        params = FourModeParams(0.1, -0.2, 0.15, 0.05, 0.2)
        assert validate(four_mode_covariance(params)).passed

    def test_block_structure(self, rng):
        params = random_four_mode(rng)
        blk = blocks(four_mode_covariance(params), four_mode_split())
        np.testing.assert_allclose(blk.y, params.sigma * np.eye(4), atol=1e-12)
        expected_x = np.zeros((4, 4))
        expected_x[0, 1], expected_x[1, 0] = params.nu1, -params.nu1
        expected_x[2, 3], expected_x[3, 2] = params.nu2, -params.nu2
        np.testing.assert_allclose(blk.x, expected_x, atol=1e-12)

    def test_p_special_values(self):
        assert four_mode_p(FourModeParams(0, 0, 0, 0, 1)) == pytest.approx(1.0)
        assert four_mode_p(FourModeParams(0, 0, 0, 0, 0)) == pytest.approx(0.5)

    def test_p_matches_pfaffian_route(self, rng):
        for _ in range(8):
            params = random_four_mode(rng)
            s = four_mode_covariance(params)
            assert parity_probability(s) == pytest.approx(four_mode_p(params), abs=1e-10)

    def test_f_special_values(self):
        assert four_mode_f(FourModeParams(0, 0, 0, 0, 1)) == pytest.approx(1.0)
        assert four_mode_f(FourModeParams(0, 0, 0, 0, 0)) == pytest.approx(0.25)

    def test_f_matches_protocol_route(self, rng):
        for _ in range(8):
            params = random_four_mode(rng)
            s = four_mode_covariance(params)
            report = run_protocol(s, four_mode_split(), 2)
            assert report.p == pytest.approx(four_mode_p(params), abs=1e-10)
            assert report.f == pytest.approx(four_mode_f(params), abs=1e-10)

    def test_singlet_fraction(self, rng):
        params = random_four_mode(rng)
        assert max_singlet_fraction(params) == pytest.approx(
            max(four_mode_f(params), four_mode_g(params))
        )

    def test_closed_forms_against_dense_oracle(self, rng):
        # p and f straight from the 2^4-dimensional brute force
        from fermidistill.fock import fock_vector
        from fermidistill.states import partner_projection, maximally_entangled_projection

        params = random_four_mode(rng)
        s = four_mode_covariance(params)
        split = four_mode_split()
        # assign one Majorana pair per normal-form mode; any consistent
        # assignment represents the same abstract state
        perm = [0, 4, 1, 5, 2, 6, 3, 7]
        inv = np.argsort(perm)
        ops = majorana_ops(4)
        ops_sec = [ops[p] for p in perm]
        rho = density_from_covariance(s.matrix[np.ix_(inv, inv)])
        reference = density_dense_products(s.matrix, ops_sec)
        np.testing.assert_allclose(rho, reference, rtol=0, atol=1e-13)
        prod = np.eye(16, dtype=complex)
        for a in (0, 2, 4, 6):
            prod = prod @ ops_sec[a] @ ops_sec[a + 1]
        theta_sec = (2**4) * (1j**4) * prod  # parity in the section ordering
        p_oracle = float(np.trace(rho @ (np.eye(16) + theta_sec)).real) / 2
        assert p_oracle == pytest.approx(four_mode_p(params), abs=1e-9)

        e = maximally_entangled_projection(np.sign(params.sigma) * np.eye(4), split)
        psi_e = fock_vector(e.matrix[np.ix_(inv, inv)])
        psi_t = fock_vector(partner_projection(e, split).matrix[np.ix_(inv, inv)])
        fid_sum = float((psi_e.conj() @ rho @ psi_e).real) + float(
            (psi_t.conj() @ rho @ psi_t).real
        )
        assert fid_sum / p_oracle == pytest.approx(four_mode_f(params), abs=1e-9)


class TestScan:
    def test_sigma_one_f_dominates(self):
        rows = f_vs_g_scan(np.linspace(-0.1, 0.1, 4), np.linspace(-0.1, 0.1, 4), 0.99)
        valid = [r for r in rows if r["valid"]]
        assert valid and all(r["f_ge_g"] for r in valid)

    def test_sigma_zero_g_wins_somewhere(self):
        rows = f_vs_g_scan(np.linspace(-0.6, 0.6, 6), np.linspace(-0.6, 0.6, 6), 0.0)
        valid = [r for r in rows if r["valid"]]
        assert any(not r["f_ge_g"] for r in valid)

    def test_disagreement_shrinks_with_sigma(self):
        xs = ys = np.linspace(-0.7, 0.7, 8)
        frac = []
        for sigma in (0.1, 0.3, 0.5):
            rows = [r for r in f_vs_g_scan(xs, ys, sigma) if r["valid"]]
            frac.append(sum(not r["f_ge_g"] for r in rows) / len(rows))
        assert frac[0] >= frac[1] >= frac[2]

    def test_invalid_points_marked(self):
        rows = f_vs_g_scan([2.0], [2.0], 0.2)
        assert rows[0]["valid"] is False
        assert rows[0]["f"] is None


@pytest.mark.parametrize(
    "params_type, build, explicit",
    [
        (TwoModeParams, two_mode_covariance, two_mode_covariance_explicit),
        (FourModeParams, four_mode_covariance, four_mode_covariance_explicit),
    ],
    ids=["two-mode", "four-mode"],
)
def test_assembly_matches_explicit_entries(params_type, build, explicit, rng):
    # block assembly against the matrices written out entry by entry: equal
    # matrices where the parameters are valid, the same error where not
    size = len(fields(params_type))
    grid = [*itertools.product((-1.0, 0.0, 0.5, 1.0), repeat=size)]
    grid += [tuple(v) for v in rng.uniform(-1.0, 1.0, (500, size))]
    valid = 0
    for values in grid:
        params = params_type(*values)
        try:
            expected = explicit(params).matrix
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                build(params)
            assert str(got.value) == str(exc), values
            continue
        assert np.array_equal(build(params).matrix, expected), values
        valid += 1
    assert 0 < valid < len(grid)
