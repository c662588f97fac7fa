import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermidistill.cli import main
from fermidistill.fock import (
    MAX_MODES,
    _wick_table,
    density_from_covariance,
    fock_vector,
    joint_parity,
    majorana_ops,
    parity_from_indices,
    parity_operator,
    smear,
    verify_all,
)
from fermidistill.linalg import pfaffian, random_orthogonal
from fermidistill.states import (
    BipartiteSplit,
    CovarianceMatrix,
    ValidationError,
    fock_fidelity,
    maximally_entangled_projection,
    parity_probability,
    partner_projection,
    random_basis_projection,
    random_covariance,
    save_covariance,
    target_orientation,
)

from helpers import density_dense_products, pfaffian_combinatorial, wick_table_recursive


def mixed(n):
    return CovarianceMatrix(0.5 * np.eye(2 * n))


class TestMajorana:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_car_and_selfadjointness(self, n):
        ops = majorana_ops(n)
        dim = 2**n
        for a, op_a in enumerate(ops):
            np.testing.assert_allclose(op_a, op_a.conj().T, atol=1e-12)
            for b, op_b in enumerate(ops):
                anti = op_a @ op_b + op_b @ op_a
                expected = np.eye(dim) if a == b else np.zeros((dim, dim))
                np.testing.assert_allclose(anti, expected, atol=1e-12)

    def test_single_mode_squares(self):
        ops = majorana_ops(1)
        for op in ops:
            np.testing.assert_allclose(op @ op, 0.5 * np.eye(2), atol=1e-14)

    def test_irreducibility_commutant(self):
        # only multiples of the identity commute with every operator
        n = 2
        ops = majorana_ops(n)
        dim = 2**n
        rows = []
        for op in ops:
            comm = np.kron(np.eye(dim), op) - np.kron(op.T, np.eye(dim))
            rows.append(comm)
        stacked = np.vstack(rows)
        null_dim = dim * dim - np.linalg.matrix_rank(stacked, tol=1e-10)
        assert null_dim == 1

    def test_out_of_range(self, tmp_path, capsys, rng):
        # one limit, the one the README documents, for the operators, the
        # oracle check and the CLI
        assert MAX_MODES == 6
        with pytest.raises(ValidationError):
            majorana_ops(0)
        with pytest.raises(ValidationError):
            majorana_ops(MAX_MODES + 1)
        split = BipartiteSplit.halves(2 * MAX_MODES)
        e = maximally_entangled_projection(random_orthogonal(MAX_MODES, rng), split)
        assert verify_all(random_covariance(MAX_MODES, rng), e, split).max_deviation <= 1e-9
        big = random_covariance(MAX_MODES + 1, rng)
        big_split = BipartiteSplit.from_alice(range(MAX_MODES + 1), 2 * MAX_MODES + 2)
        with pytest.raises(ValidationError):
            verify_all(big, big, big_split)
        path = tmp_path / "big.json"
        save_covariance(path, big, big_split)
        assert main(["oracle", str(path)]) == 1
        assert f"limited to {MAX_MODES} modes" in capsys.readouterr().err


class TestDensity:
    def test_maximally_mixed(self):
        rho = density_from_covariance(mixed(2))
        np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-12)

    def test_two_point_moments(self, rng):
        n = 3
        s = random_covariance(n, rng)
        ops = majorana_ops(n)
        rho = density_from_covariance(s, ops)
        for a in range(2 * n):
            for b in range(2 * n):
                moment = np.trace(rho @ ops[a] @ ops[b])
                assert moment == pytest.approx(s.matrix[a, b], abs=1e-10)

    def test_pure_state_is_rank_one(self, rng):
        e = random_basis_projection(2, rng)
        rho = density_from_covariance(e)
        psi = fock_vector(e)
        np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), atol=1e-9)

    def test_invalid_covariance_rejected(self):
        g = np.zeros((4, 4))
        g[0, 1], g[1, 0] = 0.8, -0.8
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            density_from_covariance(CovarianceMatrix(0.5 * np.eye(4) + 1j * g))


class TestDensityAgainstDenseProducts:
    """The Pauli-string construction against one dense product per monomial."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), permute=st.booleans())
    def test_small_states(self, n, seed, permute):
        # a permuted list repeats x within a half: colliding scatter indices
        rng = np.random.default_rng(seed)
        ops = majorana_ops(n)
        if permute:
            ops = [ops[p] for p in rng.permutation(2 * n)]
        s = random_covariance(n, rng).matrix
        rho = density_from_covariance(s, ops)
        np.testing.assert_allclose(rho, density_dense_products(s, ops), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n, perm_seed", [(5, None), (6, None), (6, 3)])
    def test_five_and_six_modes(self, n, perm_seed):
        rng = np.random.default_rng(100 + n)
        ops = majorana_ops(n)
        if perm_seed is not None:
            ops = [ops[p] for p in np.random.default_rng(perm_seed).permutation(2 * n)]
        s = random_covariance(n, rng).matrix
        rho = density_from_covariance(s, ops)
        np.testing.assert_allclose(rho, density_dense_products(s, ops), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_wick_table(self, n, rng):
        s = random_covariance(n, rng).matrix
        table = _wick_table(s)
        reference = wick_table_recursive(s)
        assert table.shape == (4**n,)
        for mask in range(4**n):
            expected = reference.get(mask, 0.0)
            assert abs(table[mask] - expected) <= 1e-13
        # sampled even minors against the sum over perfect matchings
        for _ in range(20):
            size = 2 * int(rng.integers(1, n + 1))
            idx = np.sort(rng.choice(2 * n, size=size, replace=False))
            mask = int(np.sum(1 << idx))
            minor = s[np.ix_(idx, idx)]
            assert abs(table[mask] - pfaffian_combinatorial(minor)) <= 1e-13

    def test_non_pauli_operator_rejected(self, rng):
        n = 2
        ops = majorana_ops(n)
        coeffs = np.zeros(2 * n)
        coeffs[0] = coeffs[1] = np.sqrt(0.5)
        mixed_ops = [smear(ops, coeffs)] + ops[1:]
        with pytest.raises(ValidationError, match="Pauli string"):
            density_from_covariance(random_covariance(n, rng), mixed_ops)


class TestFockVector:
    def test_canonical_vacuum(self):
        # covariance of the reference vacuum in the canonical ordering
        n = 2
        ops = majorana_ops(n)
        dim = 2**n
        vac = np.zeros(dim)
        vac[0] = 1.0
        e = np.zeros((2 * n, 2 * n), dtype=complex)
        for a in range(2 * n):
            for b in range(2 * n):
                e[a, b] = vac.conj() @ ops[a] @ ops[b] @ vac
        psi = fock_vector(CovarianceMatrix(e), ops)
        assert abs(np.vdot(psi, vac)) == pytest.approx(1.0, abs=1e-10)

    def test_two_point_function(self, rng):
        n = 3
        e = random_basis_projection(n, rng)
        ops = majorana_ops(n)
        psi = fock_vector(e, ops)
        for a in range(2 * n):
            for b in range(2 * n):
                val = psi.conj() @ ops[a] @ ops[b] @ psi
                assert val == pytest.approx(e.matrix[a, b], abs=1e-10)

    def test_fidelity_formula_vs_oracle(self, rng):
        # |<psi_E, rho_S psi_E>| equals the Pfaffian formula
        n = 3
        ops = majorana_ops(n)
        for _ in range(5):
            s = random_covariance(n, rng)
            e = random_basis_projection(n, rng)
            rho = density_from_covariance(s, ops)
            psi = fock_vector(e, ops)
            overlap = float((psi.conj() @ rho @ psi).real)
            assert overlap == pytest.approx(fock_fidelity(s, e), abs=1e-9)

    def test_non_projection_rejected(self, rng):
        with pytest.raises(ValidationError, match="projection"):
            fock_vector(random_covariance(2, rng, purity=0.5))


class TestParityOperator:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_selfadjoint_unitary(self, n):
        th = parity_operator(n)
        np.testing.assert_allclose(th, th.conj().T, atol=1e-12)
        np.testing.assert_allclose(th @ th, np.eye(2**n), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_anticommutes_with_fields(self, n):
        th = parity_operator(n)
        for op in majorana_ops(n):
            np.testing.assert_allclose(th @ op + op @ th, 0 * th, atol=1e-12)

    def test_trace_formula(self, rng):
        # tr(rho theta) = 2^n (-1)^n Pf(-i(S - 1/2))
        for n in (2, 3):
            ops = majorana_ops(n)
            th = parity_operator(n)
            s = random_covariance(n, rng)
            rho = density_from_covariance(s, ops)
            lhs = float(np.trace(rho @ th).real)
            g = (-1j * (s.matrix - 0.5 * np.eye(2 * n))).real
            rhs = (2.0**n) * ((-1.0) ** n) * pfaffian((g - g.T) / 2)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_rotated_basis_sign(self, rng):
        # det +1 rotations leave theta invariant, det -1 flips the sign
        n = 2
        ops = majorana_ops(n)
        th = parity_operator(n)
        r = random_orthogonal(2 * n, rng)
        rotated = [smear(ops, r[:, a]) for a in range(2 * n)]
        prod = np.eye(2**n, dtype=complex)
        for op in rotated:
            prod = prod @ op
        th_rot = (2**n) * (1j**n) * prod
        np.testing.assert_allclose(th_rot, np.linalg.det(r) * th, atol=1e-10)

    def test_orientation_argument(self):
        np.testing.assert_allclose(parity_operator(2, -1), -parity_operator(2, 1), atol=0)


class TestJointParity:
    def test_maximally_mixed_uniform(self):
        split = BipartiteSplit.halves(8)
        ops = majorana_ops(4)
        rho = np.eye(16) / 16
        result = joint_parity(rho, split, ops)
        for key in ("++", "+-", "-+", "--"):
            assert result.probabilities[key] == pytest.approx(0.25, abs=1e-12)

    def test_maximally_entangled_same_parity(self, rng):
        split = BipartiteSplit.halves(8)
        ops = majorana_ops(4)
        v = random_orthogonal(4, rng)
        e = maximally_entangled_projection(v, split)
        rho = density_from_covariance(e, ops)
        result = joint_parity(rho, split, ops)
        same = result.probabilities["++"] + result.probabilities["--"]
        diff = result.probabilities["+-"] + result.probabilities["-+"]
        # all weight on one parity-product sector, which one set by det(v)
        if round(np.linalg.det(v)) == 1:
            assert same == pytest.approx(1.0, abs=1e-10)
        else:
            assert diff == pytest.approx(1.0, abs=1e-10)

    def test_matches_pfaffian_probability(self, rng):
        # total modes 4 (m = 2): sector labels line up with the formula
        split = BipartiteSplit.halves(8)
        ops = majorana_ops(4)
        for _ in range(5):
            s = random_covariance(4, rng)
            rho = density_from_covariance(s, ops)
            result = joint_parity(rho, split, ops)
            same = result.probabilities["++"] + result.probabilities["--"]
            assert same == pytest.approx(parity_probability(s), abs=1e-9)


class TestVerifyAll:
    def test_random_four_mode(self, rng):
        split = BipartiteSplit.halves(8)
        s = random_covariance(4, rng)
        e = maximally_entangled_projection(random_orthogonal(4, rng), split)
        report = verify_all(s, e, split)
        assert report.max_deviation <= 1e-9, report.summary()

    def test_state_with_itself(self, rng):
        split = BipartiteSplit.halves(8)
        e = maximally_entangled_projection(random_orthogonal(4, rng), split)
        report = verify_all(e, e, split)
        assert report.max_deviation <= 1e-9

    def test_partner_overlap_identity(self, rng):
        # (fid_E + fid_partner)/p equals twice the kept posterior overlap
        split = BipartiteSplit.halves(8)
        ops = majorana_ops(4)
        s = random_covariance(4, rng)
        v = random_orthogonal(4, rng)
        e = maximally_entangled_projection(v, split)
        rho = density_from_covariance(s, ops)
        psi = fock_vector(e, ops)
        result = joint_parity(rho, split, ops)
        orient = target_orientation(e)
        keep = ("++", "--") if orient > 0 else ("+-", "-+")
        overlap = sum(float((psi.conj() @ result.posterior[k] @ psi).real) for k in keep)
        p = parity_probability(s, orientation=orient)
        fid_sum = fock_fidelity(s, e) + fock_fidelity(s, partner_projection(e, split))
        assert 2 * overlap == pytest.approx(fid_sum, abs=1e-9)
        assert fid_sum / p == pytest.approx(2 * overlap / p, abs=1e-9)
