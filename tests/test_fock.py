import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermidistill import fock
from fermidistill.cli import main
from fermidistill.fock import (
    MAX_MODES,
    _wick_table,
    density_from_covariance,
    fock_vector,
    joint_parity,
    verify_all,
)
from fermidistill.linalg import pfaffian
from fermidistill.states import (
    BipartiteSplit,
    CovarianceMatrix,
    ValidationError,
    fock_fidelity,
    maximally_entangled_projection,
    parity_probability,
    partner_projection,
    random_covariance,
    save_covariance,
    target_orientation,
)

from helpers import (
    density_dense_products,
    fock_vector_smeared,
    joint_parity_dense_products,
    majorana_ops,
    majorana_ops_kron,
    parity_dense_products,
    parity_from_indices,
    parity_operator,
    pfaffian_combinatorial,
    random_basis_projection,
    random_orthogonal,
    smear,
    wick_table_recursive,
)


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

    @pytest.mark.parametrize("n", range(1, MAX_MODES + 1))
    def test_matches_kron_reference(self, n):
        ops = majorana_ops(n)
        reference = majorana_ops_kron(n)
        assert len(ops) == len(reference) == 2 * n
        for op, ref in zip(ops, reference):
            assert op.dtype == ref.dtype and np.abs(op - ref).max() == 0

    def test_strings_cached_read_only(self):
        # built once per size and shared, so no caller may write to them
        for arrays in (fock._majorana_strings(3), fock._bit_tables(6)):
            assert all(not x.flags.writeable for x in arrays)
            with pytest.raises(ValueError, match="read-only"):
                arrays[0][0] = 1
        assert fock._majorana_strings(3) is fock._majorana_strings(3)
        for _ in range(2):
            with pytest.raises(ValidationError, match="1 <= n <= 6"):
                fock._majorana_strings(MAX_MODES + 1)

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
        # the CLI oracle runs on the 2m-mode restriction: 8 modes at m = 4
        path = tmp_path / "big.json"
        save_covariance(path, random_covariance(8, rng), BipartiteSplit.halves(16))
        assert main(["oracle", str(path), "--m", "4"]) == 1
        assert f"dense oracle supports 1 <= n <= {MAX_MODES}" in capsys.readouterr().err


class TestDensity:
    def test_maximally_mixed(self):
        rho = density_from_covariance(mixed(2))
        np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-12)

    def test_two_point_moments(self, rng):
        n = 3
        s = random_covariance(n, rng)
        ops = majorana_ops(n)
        rho = density_from_covariance(s)
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
    """The Pauli-string construction against one dense product per monomial.

    A covariance in another ordering, whose index k labels canonical
    operator perm[k], is the reference's covariance with the permuted
    operators, and the canonical S[np.ix_(inv, inv)] for the library.
    """

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), permute=st.booleans())
    def test_small_states(self, n, seed, permute):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(2 * n) if permute else np.arange(2 * n)
        s = random_covariance(n, rng).matrix
        inv = np.argsort(perm)
        rho = density_from_covariance(s[np.ix_(inv, inv)])
        ops = [majorana_ops(n)[p] for p in perm]
        np.testing.assert_allclose(rho, density_dense_products(s, ops), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n, perm_seed", [(5, None), (6, None), (6, 3)])
    def test_five_and_six_modes(self, n, perm_seed):
        rng = np.random.default_rng(100 + n)
        perm = np.arange(2 * n)
        if perm_seed is not None:
            perm = np.random.default_rng(perm_seed).permutation(2 * n)
        s = random_covariance(n, rng).matrix
        inv = np.argsort(perm)
        rho = density_from_covariance(s[np.ix_(inv, inv)])
        ops = [majorana_ops(n)[p] for p in perm]
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


def _permuted(matrix, rng):
    """The covariance in a random other ordering of the real basis."""
    inv = np.argsort(rng.permutation(len(matrix)))
    return matrix[np.ix_(inv, inv)]


def _even_subsets(n, rng, count=4):
    """The empty and the full index set and `count` random even-size ones."""
    sizes = 2 * rng.integers(0, n + 1, size=count)
    return [(), tuple(range(2 * n))] + [
        tuple(rng.choice(2 * n, size=k, replace=False)) for k in sizes
    ]


def _assert_fock_vector_matches(e):
    n = len(e) // 2
    psi = fock_vector(e)
    assert abs(abs(np.vdot(fock_vector_smeared(e), psi)) - 1.0) <= 1e-12
    w, vecs = np.linalg.eigh(e)
    ops = majorana_ops(n)
    for g in vecs[:, w < 0.5].T:
        assert np.linalg.norm(smear(ops, g) @ psi) <= 1e-12


def _assert_joint_parity_matches(rho, split):
    got = joint_parity(rho, split)
    ref = joint_parity_dense_products(rho, split)
    assert got.probabilities.keys() == ref.probabilities.keys()
    for key, p in ref.probabilities.items():
        assert abs(got.probabilities[key] - p) <= 1e-13
        np.testing.assert_allclose(got.posterior[key], ref.posterior[key], rtol=0, atol=1e-13)


class TestStringsAgainstDenseRoutes:
    """Parity monomials, joint parity and Fock vectors against dense products.

    The references in helpers build every operator as a dense matrix and
    every product as a matrix product.
    """

    @pytest.mark.parametrize("n", range(1, MAX_MODES + 1))
    def test_parity_monomials_exact(self, n, rng):
        for idx in _even_subsets(n, rng):
            got = parity_from_indices(n, idx)
            assert np.array_equal(got, parity_dense_products(n, idx)), idx

    @pytest.mark.parametrize("permute", [False, True], ids=["canonical", "permuted"])
    @pytest.mark.parametrize("n", range(1, MAX_MODES + 1))
    def test_fock_vectors(self, n, permute, rng):
        for _ in range(2):
            e = random_basis_projection(n, rng).matrix
            _assert_fock_vector_matches(_permuted(e, rng) if permute else e)

    @pytest.mark.parametrize("permute", [False, True], ids=["canonical", "permuted"])
    @pytest.mark.parametrize("n", range(1, MAX_MODES + 1))
    def test_joint_parity(self, n, permute, rng):
        s = random_covariance(n, rng).matrix
        rho = density_from_covariance(_permuted(s, rng) if permute else s)
        for alice in _even_subsets(n, rng):
            _assert_joint_parity_matches(rho, BipartiteSplit.from_alice(alice, 2 * n))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), permute=st.booleans())
    def test_small_states(self, n, seed, permute):
        rng = np.random.default_rng(seed)
        s = random_covariance(n, rng).matrix
        e = random_basis_projection(n, rng).matrix
        if permute:
            s, e = _permuted(s, rng), _permuted(e, rng)
        alice = _even_subsets(n, rng, count=1)[-1]
        assert np.array_equal(parity_from_indices(n, alice), parity_dense_products(n, alice))
        _assert_fock_vector_matches(e)
        _assert_joint_parity_matches(
            density_from_covariance(s), BipartiteSplit.from_alice(alice, 2 * n)
        )


class TestMalformedOracleInput:
    @pytest.mark.parametrize(
        "call, shape",
        [
            (lambda: density_from_covariance(np.eye(3) * 0.5), (3, 3)),
            (lambda: density_from_covariance(np.full(4, 0.5)), (4,)),
            (lambda: density_from_covariance(np.eye(2 * MAX_MODES + 2) * 0.5), (14, 14)),
            (lambda: fock_vector(np.ones((2, 3))), (2, 3)),
            (lambda: fock_vector(np.eye(3)), (3, 3)),
            (lambda: fock_vector(np.zeros((0, 0))), (0, 0)),
            (lambda: verify_all(np.eye(3) * 0.5, np.eye(4), BipartiteSplit.halves(4)), (3, 3)),
        ],
        ids=["odd-side", "vector", "seven-modes", "rectangular", "odd-projection", "empty",
             "verify-all"],
    )
    def test_shape_named(self, call, shape):
        # these used to end in ValueError from reshape, LinAlgError, or a
        # misleading "null space is not one-dimensional"
        with pytest.raises(ValidationError, match=f"got shape {re.escape(str(shape))}"):
            call()


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
        psi = fock_vector(CovarianceMatrix(e))
        assert abs(np.vdot(psi, vac)) == pytest.approx(1.0, abs=1e-10)

    def test_two_point_function(self, rng):
        n = 3
        e = random_basis_projection(n, rng)
        ops = majorana_ops(n)
        psi = fock_vector(e)
        for a in range(2 * n):
            for b in range(2 * n):
                val = psi.conj() @ ops[a] @ ops[b] @ psi
                assert val == pytest.approx(e.matrix[a, b], abs=1e-10)

    def test_fidelity_formula_vs_oracle(self, rng):
        # |<psi_E, rho_S psi_E>| equals the Pfaffian formula
        n = 3
        for _ in range(5):
            s = random_covariance(n, rng)
            e = random_basis_projection(n, rng)
            rho = density_from_covariance(s)
            psi = fock_vector(e)
            overlap = float((psi.conj() @ rho @ psi).real)
            assert overlap == pytest.approx(fock_fidelity(s, e), abs=1e-9)

    def test_non_projection_rejected(self, rng):
        with pytest.raises(ValidationError, match="projection"):
            fock_vector(random_covariance(2, rng))


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
            th = parity_operator(n)
            s = random_covariance(n, rng)
            rho = density_from_covariance(s)
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

    @pytest.mark.parametrize(
        "call",
        [
            lambda: parity_from_indices(2, [0, 5]),
            lambda: parity_from_indices(2, [0, -1]),
            lambda: parity_from_indices(2, [0, 1, 1, 2]),
            lambda: joint_parity(np.eye(16) / 16, BipartiteSplit.halves(20)),
        ],
        ids=["index-beyond-2n", "negative-index", "repeated-index", "split-wider-than-rho"],
    )
    def test_malformed_indices_rejected(self, call):
        # an index >= 2n used to end in IndexError, a negative one picked
        # B[-1], and a repeated one gave an anti-Hermitian "parity"
        with pytest.raises(ValidationError):
            call()


class TestJointParity:
    def test_maximally_mixed_uniform(self):
        split = BipartiteSplit.halves(8)
        rho = np.eye(16) / 16
        result = joint_parity(rho, split)
        for key in ("++", "+-", "-+", "--"):
            assert result.probabilities[key] == pytest.approx(0.25, abs=1e-12)

    def test_maximally_entangled_same_parity(self, rng):
        split = BipartiteSplit.halves(8)
        v = random_orthogonal(4, rng)
        e = maximally_entangled_projection(v, split)
        rho = density_from_covariance(e)
        result = joint_parity(rho, split)
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
        for _ in range(5):
            s = random_covariance(4, rng)
            rho = density_from_covariance(s)
            result = joint_parity(rho, split)
            same = result.probabilities["++"] + result.probabilities["--"]
            assert same == pytest.approx(parity_probability(s), abs=1e-9)

    @pytest.mark.parametrize("shape", [(16, 8), (12, 12), (0, 0), (16,)])
    def test_shape_not_a_power_of_two_rejected(self, shape):
        with pytest.raises(ValidationError, match="not 2\\^n x 2\\^n"):
            joint_parity(np.zeros(shape), BipartiteSplit.halves(8))


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

    def test_checks_the_library_parity_formula(self, rng, monkeypatch):
        # a wrong parity_expectation must show up as a deviation, so the
        # oracle compares the trace with the library's formula itself
        split = BipartiteSplit.halves(8)
        s = random_covariance(4, rng)
        e = maximally_entangled_projection(random_orthogonal(4, rng), split)
        honest = verify_all(s, e, split).deviations["parity_expectation"]
        monkeypatch.setattr(fock, "parity_expectation", lambda s: 2.0)
        report = verify_all(s, e, split)
        assert report.deviations["parity_expectation"] > 1.0
        assert report.max_deviation > 1.0 and honest <= 1e-9

    def test_partner_overlap_identity(self, rng):
        # (fid_E + fid_partner)/p equals twice the kept posterior overlap
        split = BipartiteSplit.halves(8)
        s = random_covariance(4, rng)
        v = random_orthogonal(4, rng)
        e = maximally_entangled_projection(v, split)
        rho = density_from_covariance(s)
        psi = fock_vector(e)
        result = joint_parity(rho, split)
        orient = target_orientation(e)
        keep = ("++", "--") if orient > 0 else ("+-", "-+")
        overlap = sum(float((psi.conj() @ result.posterior[k] @ psi).real) for k in keep)
        p = parity_probability(s, orientation=orient)
        fid_sum = fock_fidelity(s, e) + fock_fidelity(s, partner_projection(e, split))
        assert 2 * overlap == pytest.approx(fid_sum, abs=1e-9)
        assert fid_sum / p == pytest.approx(2 * overlap / p, abs=1e-9)
