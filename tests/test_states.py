import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermidistill import states
from fermidistill.linalg import ENTRY_LIMIT, pfaffian
from fermidistill.states import (
    BipartiteSplit,
    BlockDecomposition,
    ConvergenceError,
    CovarianceMatrix,
    RealProjectionPair,
    ValidationError,
    assemble_covariance,
    blocks,
    fock_fidelity,
    load_covariance,
    maximally_entangled_projection,
    parity_expectation,
    parity_probability,
    partner_projection,
    protocol_quantities,
    random_covariance,
    random_x_zero_covariance,
    restrict,
    save_covariance,
    target_orientation,
    validate,
)
from fermidistill.states import _protocol_quantities_stack

from helpers import (haar_frame, output_fidelity, random_antisymmetric, random_basis_projection,
                     random_orthogonal, twirl_coefficients)


# (field, value, message) of a one-mode covariance file with one bad field
MALFORMED_FIELDS = [
    ("entries", [[1, 0, 0], [0, 0], [0, 0], [0, 0]], "pairs of numbers"),
    ("entries", [[1, 0, 0]] * 4, "pairs of numbers"),
    ("entries", [["a", "b"], [0, 0], [0, 0], [0, 0]], "pairs of numbers"),
    ("entries", [[None, 0], [0, 0], [0, 0], [0, 0]], "pairs of numbers"),
    ("entries", 7, "expected 4 entries"),
    ("modes", 0, "positive integer"),
    ("modes", -1, "positive integer"),
    ("modes", "1", "positive integer"),
    ("split_a", [0.5], "integer indices"),
    ("split_a", ["0"], "integer indices"),
    ("split_a", 0, "integer indices"),
    ("split_a", [0, 0], "index 0 appears more than once"),
    ("modes", True, "positive integer"),  # JSON true, which Python reads as 1
    ("split_a", [True], "integer indices"),
]


def mixed(n):
    return CovarianceMatrix(np.zeros((2 * n, 2 * n)))


class TestBipartiteSplit:
    def test_repeated_index_rejected(self):
        with pytest.raises(ValidationError, match="index 0 appears more than once"):
            BipartiteSplit((0, 0, 0, 1), (2, 3, 4, 5))
        with pytest.raises(ValidationError, match="index 5 appears more than once"):
            BipartiteSplit((0, 1), (2, 5, 5))

    def test_negative_index_rejected(self):
        with pytest.raises(ValidationError, match="index -1 is negative"):
            BipartiteSplit((0, -1), (1, 2))
        with pytest.raises(ValidationError, match="index -1 is negative"):
            BipartiteSplit((0, 1, 2, -1), (3, 4, 5, 7))

    def test_from_alice_rejects_repeated_index(self):
        with pytest.raises(ValidationError, match="index 0 appears more than once"):
            BipartiteSplit.from_alice([0, 0, 0, 1], 6)


class TestValidate:
    def test_maximally_mixed_valid(self):
        assert validate(mixed(3)).passed

    def test_basis_projection_valid(self, rng):
        assert validate(random_basis_projection(3, rng)).passed

    def test_identity_invalid_reality(self):
        # S = 1 has Re S = 1, not 1/2: refused where S is converted to G
        with pytest.raises(ValidationError, match="reality"):
            validate(np.eye(4))

    def test_random_covariance_valid(self, rng):
        for _ in range(10):
            assert validate(random_covariance(4, rng)).passed

    def test_x_zero_sampler_failure_is_typed(self):
        # this seed draws no Y block with singular values above 0.05 in
        # the sampler's 200 attempts at 8 modes per side
        with pytest.raises(ConvergenceError):
            random_x_zero_covariance(8, np.random.default_rng(13))

    def test_spectrum_violation_detected(self):
        g = np.zeros((4, 4))
        g[0, 1], g[1, 0] = 0.9, -0.9  # eigenvalues of iG reach 0.9 > 1/2
        report = validate(CovarianceMatrix(g))
        assert not report.passed
        assert any("spectrum" in name for name, mag, tol in report.checks if mag > tol)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e100, 1e308])
    def test_non_finite_or_huge_entries_fail_one_check(self, value):
        # G G^T would overflow (or carry NaN): such a G is refused where it
        # enters, before validate could see it, with no floating-point error
        g = np.zeros((4, 4))
        g[0, 1], g[1, 0] = value, -value
        with np.errstate(all="raise"), pytest.raises(
            ValidationError, match="covariance G has (a non-finite entry|an entry of 1e100)"
        ):
            validate(CovarianceMatrix(g))
        s = np.eye(4) / 2 + 0j
        s.imag = g
        with np.errstate(all="raise"), pytest.raises(ValidationError, match="covariance G has"):
            validate(s)

    def test_reports_do_not_raise(self):
        # even garbage input produces a report rather than an exception
        garbage = np.arange(16.0).reshape(4, 4)
        report = validate(CovarianceMatrix(garbage - garbage.T))
        assert not report.passed
        assert [name for name, _, _ in report.checks] == ["spectrum max(0, sigma_max(G) - 1/2)"]


class TestBlocks:
    def test_maximally_mixed_blocks_vanish(self):
        blk = blocks(mixed(2), BipartiteSplit.halves(4))
        assert np.abs(blk.x).max() == 0
        assert np.abs(blk.y).max() == 0
        assert np.abs(blk.z).max() == 0

    def test_maximally_entangled_blocks(self, rng):
        v = random_orthogonal(4, rng)
        split = BipartiteSplit.halves(8)
        e = maximally_entangled_projection(v, split)
        blk = blocks(e, split)
        assert np.abs(blk.x).max() < 1e-12
        assert np.abs(blk.z).max() < 1e-12
        np.testing.assert_allclose(blk.y.T @ blk.y, np.eye(4), atol=1e-12)

    def test_maximally_entangled_complex_v_rejected(self):
        # the real part alone is the identity, a valid Y-block
        with pytest.raises(ValidationError, match="V is not real"):
            maximally_entangled_projection((1 + 0.5j) * np.eye(4), BipartiteSplit.halves(8))

    def test_maximally_entangled_nan_v_rejected(self):
        v = np.eye(4)
        v[0, 0] = np.nan
        with pytest.raises(ValidationError, match="Y-block V has a non-finite entry"):
            maximally_entangled_projection(v, BipartiteSplit.halves(8))

    def test_maximally_entangled_split_out_of_range(self):
        with pytest.raises(ValidationError, match="index 4 out of range for 4 indices"):
            maximally_entangled_projection(np.eye(2), BipartiteSplit((0, 1), (4, 5)))

    def test_antisymmetry_of_diagonal_blocks(self, rng):
        s = random_covariance(4, rng)
        blk = blocks(s, BipartiteSplit.halves(8))
        np.testing.assert_allclose(blk.x, -blk.x.T, atol=1e-12)
        np.testing.assert_allclose(blk.z, -blk.z.T, atol=1e-12)

    def test_roundtrip_through_assemble(self, rng):
        s = random_covariance(3, rng)
        split = BipartiteSplit((0, 1, 2), (3, 4, 5))
        blk = blocks(s, split)
        s2, split2 = assemble_covariance(blk)
        blk2 = blocks(s2, split2)
        np.testing.assert_allclose(blk.x, blk2.x, atol=1e-12)
        np.testing.assert_allclose(blk.y, blk2.y, atol=1e-12)
        np.testing.assert_allclose(blk.z, blk2.z, atol=1e-12)

    def test_wrong_basis_rejected(self):
        s = np.full((4, 4), 0.25) + 0.5 * np.eye(4)  # real symmetric, not 1/2 + i*antisym
        with pytest.raises(ValidationError, match="imaginary residue|basis"):
            blocks(s, BipartiteSplit.halves(4))
        nan_real = mixed(2).matrix
        nan_real[0, 1] = complex(np.nan, 0.0)
        with pytest.raises(ValidationError, match="reality"):
            blocks(nan_real, BipartiteSplit.halves(4))


class TestParity:
    def test_maximally_mixed_expectation_zero(self):
        assert parity_expectation(mixed(3)) == 0.0

    def test_pure_state_expectation_unimodular(self, rng):
        for _ in range(5):
            e = random_basis_projection(3, rng)
            assert abs(parity_expectation(e)) == pytest.approx(1.0, abs=1e-10)

    def test_adapted_basis_parity_value(self):
        # target state in its adapted basis: expectation (-1)^m before the fix
        for m in (1, 2, 3):
            e = maximally_entangled_projection(np.eye(2 * m), BipartiteSplit.halves(4 * m))
            assert parity_expectation(e) == pytest.approx((-1.0) ** m, abs=1e-12)

    def test_probability_maximally_mixed(self):
        for m in (1, 2, 3):
            assert parity_probability(mixed(2 * m)) == pytest.approx(0.5)

    def test_probability_on_target_is_one(self, rng):
        for m in (1, 2):
            v = random_orthogonal(2 * m, rng)
            e = maximally_entangled_projection(v, BipartiteSplit.halves(4 * m))
            orient = target_orientation(e)
            assert parity_probability(e, orientation=orient) == pytest.approx(1.0, abs=1e-10)

    def test_probability_equals_expectation_relation(self, rng):
        # p = (1 + (-1)^m <parity>)/2, both through the same Pfaffian
        s = random_covariance(2, rng)
        m = 1
        expect = parity_expectation(s)
        assert parity_probability(s) == pytest.approx((1 + (-1) ** m * expect) / 2, abs=1e-12)

    def test_orientation_flip(self, rng):
        s = random_covariance(2, rng)
        p_plus = parity_probability(s, orientation=1)
        p_minus = parity_probability(s, orientation=-1)
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)


class TestFidelity:
    def test_self_fidelity_one(self, rng):
        e = random_basis_projection(3, rng)
        assert fock_fidelity(e, e) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed_fidelity(self, rng):
        for n in (1, 2, 3, 4):
            e = random_basis_projection(n, rng)
            assert fock_fidelity(mixed(n), e) == pytest.approx(2.0 ** -n, abs=1e-10)

    def test_fidelity_in_unit_interval(self, rng):
        for _ in range(20):
            s = random_covariance(3, rng)
            e = random_basis_projection(3, rng)
            assert 0.0 <= fock_fidelity(s, e) <= 1.0

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValidationError):
            fock_fidelity(mixed(2), random_basis_projection(3, rng))

    def test_each_check_named(self, rng):
        s, e = random_covariance(2, rng).matrix, random_basis_projection(2, rng).matrix
        shift = np.full((4, 4), 0.25)  # real symmetric: breaks S = 1/2 + iG
        kink = np.zeros((4, 4), complex)
        kink[0, 2] = 0.3j  # G = Im S no longer antisymmetric: refused by from_s
        for evaluate in (lambda k: parity_expectation(s + k), lambda k: fock_fidelity(s + k, e),
                         lambda k: fock_fidelity(s, e + k)):
            with pytest.raises(ValidationError, match="covariance G is not antisymmetric"):
                evaluate(kink)
        with pytest.raises(ValidationError, match="reality"):
            fock_fidelity(s + shift, e)
        with pytest.raises(ValidationError, match="reality"):
            fock_fidelity(np.full((4, 4), np.nan), e)
        with pytest.raises(ValidationError, match="reality"):
            fock_fidelity(s, e + shift)
        with pytest.raises(ValidationError, match="orientation Pfaffian"):
            fock_fidelity(s, mixed(2))

    @pytest.mark.parametrize("sign", [1, -1], ids=["symmetric", "antisymmetric"])
    def test_huge_entries_refused_before_overflow(self, sign):
        # G + G^T (symmetric pair) or G - G^T (antisymmetric pair) would
        # overflow; the entries are named and no floating-point error is raised
        g = np.zeros((4, 4))
        g[0, 1], g[1, 0] = 1e308, sign * 1e308
        s = np.eye(4) / 2 + 0j
        s.imag = g
        for evaluate in (parity_expectation, lambda s: fock_fidelity(s, s)):
            with np.errstate(all="raise"), pytest.raises(
                ValidationError, match="covariance G has an entry of 1e100 or more"
            ):
                evaluate(s)
        g[0, 1] = np.nan
        with np.errstate(all="raise"), pytest.raises(ValidationError, match="a non-finite entry"):
            parity_expectation(CovarianceMatrix(g))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_fidelity_sum_bounded_by_parity_probability(self, seed):
        # fid(S, E) + fid(S, partner) = p * f <= p
        rng = np.random.default_rng(seed)
        n = rng.choice([2, 4])
        split = BipartiteSplit.halves(2 * n)
        s = random_covariance(n, rng)
        v = random_orthogonal(n, rng)
        e = maximally_entangled_projection(v, split)
        both = fock_fidelity(s, e) + fock_fidelity(s, partner_projection(e, split))
        p = parity_probability(s, orientation=target_orientation(e))
        assert both <= p + 1e-9


class TestPartnerProjection:
    def test_sign_flip(self, rng):
        split = BipartiteSplit.halves(8)
        e = maximally_entangled_projection(np.eye(4), split)
        partner = partner_projection(e, split)
        blk = blocks(partner, split)
        np.testing.assert_allclose(blk.y, -np.eye(4), atol=1e-12)

    def test_involution(self, rng):
        split = BipartiteSplit.halves(8)
        e = maximally_entangled_projection(random_orthogonal(4, rng), split)
        back = partner_projection(partner_projection(e, split), split)
        np.testing.assert_allclose(back.matrix, e.matrix, atol=1e-12)

    def test_nan_entry_rejected(self):
        split = BipartiteSplit.halves(8)
        e = maximally_entangled_projection(np.eye(4), split).matrix
        e[0, 5] = complex(0.0, np.nan)
        with pytest.raises(ValidationError, match="covariance G has a non-finite entry"):
            partner_projection(e, split)

    def test_same_orientation(self, rng):
        split = BipartiteSplit.halves(8)
        e = maximally_entangled_projection(random_orthogonal(4, rng), split)
        partner = partner_projection(e, split)
        assert parity_expectation(partner) == pytest.approx(parity_expectation(e), abs=1e-10)
        assert target_orientation(partner) == target_orientation(e)


class TestProtocolQuantities:
    def test_perfect_state(self, rng):
        split = BipartiteSplit.halves(8)
        v = random_orthogonal(4, rng)
        e = maximally_entangled_projection(v, split)
        q = protocol_quantities(blocks(e, split), RealProjectionPair(np.eye(4), v.T))
        assert q.p == pytest.approx(1.0, abs=1e-10)
        assert q.f == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed(self, rng):
        split = BipartiteSplit.halves(8)
        v = random_orthogonal(4, rng)
        q = protocol_quantities(blocks(mixed(4), split), RealProjectionPair(np.eye(4), v.T))
        assert q.p == pytest.approx(0.5, abs=1e-12)
        assert q.f == pytest.approx(0.25, abs=1e-12)

    def test_pf_consistency(self, rng):
        split = BipartiteSplit.halves(8)
        s = random_covariance(4, rng)
        v = random_orthogonal(4, rng)
        q = protocol_quantities(blocks(s, split), RealProjectionPair(np.eye(4), v.T))
        assert q.pf == pytest.approx(q.p * q.f, abs=1e-12)


class TestProtocolQuantitiesStack:
    def test_sequence_matches_single_evaluations(self, rng):
        # pairs of unequal width in one call: a narrower pair's numbers do not
        # depend on the widest pair's columns that pad it, related or not
        split = BipartiteSplit.halves(16)
        s = random_covariance(8, rng)
        wide = random_orthogonal(8, rng)
        other = random_orthogonal(8, rng)
        pairs = [RealProjectionPair(wide[:, :r], wide[::-1, :r]) for r in (2, 4, 8)]
        pairs.append(RealProjectionPair(other[:, :4], wide[:, 4:]))
        pairs.append(RealProjectionPair(other, wide))
        out = protocol_quantities(blocks(s, split), pairs)
        assert len(out) == len(pairs)
        for q, pair in zip(out, pairs):
            alone = protocol_quantities(blocks(s, split), pair)
            assert q.p == pytest.approx(alone.p, abs=1e-13)
            assert q.pf == pytest.approx(alone.pf, abs=1e-13)

    def test_overflowing_blocks_rejected(self):
        # entries below the entry limit, but det(Y' +- 1) and Pf(M+-) near 1e396
        blk = BlockDecomposition(np.zeros((4, 4)), 1e99 * np.eye(4), np.zeros((4, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="blocks X, Y, Z too large"):
                protocol_quantities(blk, RealProjectionPair(np.eye(4), np.eye(4)))

    @staticmethod
    def _stack(rng, count=5):
        # Bob's frames turned by each member's pairing V', so that the
        # frames' columns are paired
        split = BipartiteSplit.halves(16)
        s = random_covariance(8, rng)
        ua = np.stack([random_orthogonal(8, rng)[:, :4] for _ in range(count)])
        ub = np.stack([random_orthogonal(8, rng)[:, :4] for _ in range(count)])
        vp = np.stack([random_orthogonal(4, rng) for _ in range(count)])
        return s, split, ua, ub, vp, ub @ vp.transpose(0, 2, 1)

    def test_members_match_single_evaluation(self, rng):
        s, split, ua, ub, vp, paired = self._stack(rng)
        p, pf = _protocol_quantities_stack(blocks(s, split), ua, paired)
        for i in range(len(ua)):
            q = protocol_quantities(blocks(s, split), RealProjectionPair(ua[i], ub[i] @ vp[i].T))
            assert p[i] == pytest.approx(q.p, abs=1e-13)
            assert pf[i] == pytest.approx(q.pf, abs=1e-13)

    @pytest.mark.parametrize("vanishing, m", [("all", 2), ("some", 2), ("all", 3), ("some", 3)],
                             ids=["all", "some", "all-m3", "some-m3"])
    def test_determinant_cross_check_fires(self, rng, monkeypatch, vanishing, m):
        # member 3 has X' = 0 (with "some", only member 3 does); perturbing,
        # after elimination, its Pf(M0), the one Pfaffian of an m = 2 member,
        # or at m = 3 its Pf(M+), leaves the determinant form to notice
        r = 2 * m
        s, split = random_x_zero_covariance(4, rng)
        blk = blocks(s, split)
        ua = np.stack([random_orthogonal(8, rng)[:, :r] for _ in range(5)])
        ub = np.stack([random_orthogonal(8, rng)[:, :r] for _ in range(5)])
        vp = np.stack([random_orthogonal(r, rng) for _ in range(5)])
        ub = ub @ vp.transpose(0, 2, 1)
        if vanishing == "some":
            x = np.zeros((8, 8))
            x[0, 1], x[1, 0] = 0.01, -0.01
            blk = BlockDecomposition(x, blk.y, blk.z)
            ua[3] = 0.0
            ua[3, 2:] = random_orthogonal(6, rng)[:, :r]
        _protocol_quantities_stack(blk, ua, ub)
        eliminate = states._eliminate
        # the stack holds the 5 members' M0, then at m = 3 their M+ and M-
        slot = 3 if m == 2 else 5 + 3

        def perturbed(work, scratch):
            assert work.shape[2] == (5 if m == 2 else 15)
            pfs = eliminate(work, scratch)
            pfs[slot] += 1e-3
            return pfs

        monkeypatch.setattr(states, "_eliminate", perturbed)
        with pytest.raises(ValidationError, match="stack member 3: block-Pfaffian and determinant"
                                                  " forms disagree"):
            _protocol_quantities_stack(blk, ua, ub)


class TestPencilIdentity:
    """At m = 2 pf is (Pf(M0) + 1 + e_2) / 8, from the pencil Pf(M0 + tJ).

    The oracle is the definition, (Pf(M+) + Pf(M-)) / 16 with M+- = M0 +- J
    built explicitly and evaluated by the public `pfaffian`.
    """

    KINDS = ["generic", "x_zero", "z_zero", "y_unit", "y_rank_deficient", "padded"]

    @staticmethod
    def _case(kind, rng):
        """Blocks of an 8 + 8-dimensional state and a pair of rank-4 frames on it."""
        ua, ub = (random_orthogonal(8, rng)[:, :4] for _ in range(2))
        if kind == "y_unit":
            # a pure maximally entangled state, Bob's frame turned so that Y' = +-1
            v, sign, zero = random_orthogonal(8, rng), rng.choice([-1.0, 1.0]), np.zeros((8, 8))
            return BlockDecomposition(zero, v, zero), ua, sign * v.T @ ua
        if kind == "y_rank_deficient":
            rank = int(rng.integers(0, 4))
            y = rng.standard_normal((8, rank)) @ rng.standard_normal((rank, 8))
            g = np.block([[random_antisymmetric(8, rng), y], [-y.T, random_antisymmetric(8, rng)]])
            g *= 0.5 * rng.uniform(0.2, 0.95) / np.linalg.norm(g, 2)
            return blocks(CovarianceMatrix(g), BipartiteSplit.halves(16)), ua, ub
        if kind in ("generic", "padded"):
            return blocks(random_covariance(8, rng), BipartiteSplit.halves(16)), ua, ub
        blk = blocks(*random_x_zero_covariance(4, rng))
        if kind == "z_zero":  # A and B swapped
            blk = BlockDecomposition(blk.z, -blk.y.T, blk.x)
        return blk, ua, ub

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31), kind=st.sampled_from(KINDS))
    def test_pf_is_the_two_pfaffians(self, seed, kind):
        rng = np.random.default_rng(seed)
        blk, ua, ub = self._case(kind, rng)
        lone = protocol_quantities(blk, RealProjectionPair(ua, ub))
        # the same member at a random place in a stack of 512
        j = int(rng.integers(512))
        if kind == "padded":
            # the others of rank 4, 6 or 8, at least one of 8, so the member is padded
            ranks = rng.choice([4, 6, 8], 511)
            ranks[0] = 8
            pairs = [RealProjectionPair(random_orthogonal(8, rng)[:, :r],
                                        random_orthogonal(8, rng)[:, :r]) for r in ranks]
            pairs.insert(j, RealProjectionPair(ua, ub))
            q = protocol_quantities(blk, pairs)[j]
            p, pf = q.p, q.pf
        else:
            fa, fb = (haar_frame(rng.standard_normal((512, 8, 4))) for _ in range(2))
            fa[j], fb[j] = ua, ub
            p, pf = (out[j] for out in _protocol_quantities_stack(blk, fa, fb))
        assert (p, pf) == (lone.p, lone.pf)
        x, y, z = ua.T @ blk.x @ ua, ua.T @ blk.y @ ub, ub.T @ blk.z @ ub
        x, z = (x - x.T) / 2, (z - z.T) / 2
        m_pm = [np.block([[x, y + t * np.eye(4)], [-(y + t * np.eye(4)).T, z]]) for t in (1, -1)]
        assert pf == pytest.approx(pfaffian(np.stack(m_pm)).sum() / 16, abs=1e-14)


class TestFrames:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_rotation_within_span_invariant(self, seed):
        # p, f and pf depend on the kept subspaces and V = ua ub^T, not on
        # the orthonormal bases: turning both frames by one O keeps V
        rng = np.random.default_rng(seed)
        split = BipartiteSplit.halves(16)
        s = random_covariance(8, rng)
        ua = random_orthogonal(8, rng)[:, :4]
        ub = random_orthogonal(8, rng)[:, :4]
        o = random_orthogonal(4, rng)
        q = protocol_quantities(blocks(s, split), RealProjectionPair(ua, ub))
        q_rot = protocol_quantities(blocks(s, split), RealProjectionPair(ua @ o, ub @ o))
        assert q_rot.p == pytest.approx(q.p, abs=1e-12)
        assert q_rot.pf == pytest.approx(q.pf, abs=1e-12)
        if q.f is not None:
            assert q_rot.f == pytest.approx(q.f, abs=1e-12)

    def test_non_orthonormal_rejected(self, rng):
        u = random_orthogonal(4, rng)[:, :2]
        with pytest.raises(ValidationError, match="orthonormal"):
            RealProjectionPair(1.01 * u, u)
        with pytest.raises(ValidationError, match="orthonormal"):
            RealProjectionPair(u, u @ u.T)  # a projection is not a frame

    def test_nan_frame_rejected(self):
        with pytest.raises(ValidationError, match="ua has a non-finite entry"):
            RealProjectionPair(np.full((4, 4), np.nan), np.eye(4))
        with pytest.raises(ValidationError, match="ub has a non-finite entry"):
            RealProjectionPair(np.eye(4), np.full((4, 2), np.nan))

    def test_odd_column_count_rejected(self, rng):
        u = random_orthogonal(4, rng)
        with pytest.raises(ValidationError, match="even number of columns"):
            RealProjectionPair(u[:, :3], u[:, :2])
        with pytest.raises(ValidationError, match="even number of columns"):
            RealProjectionPair(u[:, :2], u[:, 0])

    def test_complex_rejected(self, rng):
        u = random_orthogonal(4, rng)[:, :2]
        with pytest.raises(ValidationError, match="not real"):
            RealProjectionPair(u, 1j * u)

    def test_unequal_ranks_rejected(self, rng):
        split = BipartiteSplit.halves(8)
        s = random_covariance(4, rng)
        u = random_orthogonal(4, rng)
        with pytest.raises(ValidationError, match="equal rank"):
            protocol_quantities(blocks(s, split), RealProjectionPair(u[:, :2], u))


class TestTwirl:
    def test_pure_target(self):
        lam_p, lam_m, mu_p, mu_m = twirl_coefficients(1.0, 1.0, 0.0, 2)
        assert (lam_p, lam_m, mu_p, mu_m) == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-12)

    def test_maximally_mixed_uniform(self):
        # n = 2m modes maximally mixed: fidelities 4^-m, weights 1/(4 d^2)
        for m in (2, 3):
            fid = 4.0 ** -m
            lam_p, lam_m, mu_p, mu_m = twirl_coefficients(0.5, fid, fid, m)
            d2 = 4.0 ** (m - 1)
            assert lam_p == pytest.approx(0.0, abs=1e-12)
            assert lam_m == pytest.approx(0.0, abs=1e-12)
            assert mu_p == pytest.approx(1.0 / (4 * d2), abs=1e-12)
            assert mu_m == pytest.approx(1.0 / (4 * d2), abs=1e-12)

    def test_roundtrip_residual(self, rng):
        for _ in range(10):
            m = int(rng.integers(2, 5))
            d2 = 4.0 ** (m - 1)
            # sample a consistent coefficient set, derive the observables
            lam_p, lam_m = rng.uniform(0, 0.3, 2)
            mu_p = rng.uniform(0, 0.2 / (2 * d2))
            mu_m = (1 - (lam_p + lam_m + 2 * mu_p * d2)) / (2 * d2)
            p = lam_p + lam_m + 2 * mu_p * d2
            got = twirl_coefficients(p, lam_p + mu_p, lam_m + mu_p, m)
            assert got == pytest.approx((lam_p, lam_m, mu_p, mu_m), abs=1e-12)

    def test_inconsistent_inputs_rejected(self):
        # fid_e + fid_partner > p would give the twirled state a negative
        # eigenvalue; no state produces such inputs
        with pytest.raises(ValidationError, match="negative"):
            twirl_coefficients(0.1, 0.9, 0.9, 2)

    def test_negative_lambda_is_legitimate(self):
        # a pure product state has p = 1 with vanishing overlap on both
        # targets: lambda+- = -1/6 while every eigenvalue stays >= 0
        lam_p, lam_m, mu_p, mu_m = twirl_coefficients(1.0, 0.0, 0.0, 2)
        assert lam_p == pytest.approx(-1 / 6)
        assert lam_m == pytest.approx(-1 / 6)
        assert mu_p == pytest.approx(1 / 6)
        assert mu_m == pytest.approx(0.0)
        # the four defining equations hold
        d2 = 4.0
        assert (lam_p + lam_m) / 2 + mu_p * d2 == pytest.approx(0.5)
        assert mu_m * d2 == pytest.approx(0.0)

    def test_coefficients_from_random_quasifree_states(self, rng):
        # inputs generated by actual states never trip the consistency check
        split = BipartiteSplit.halves(8)
        for _ in range(25):
            s = random_covariance(4, rng)
            v = random_orthogonal(4, rng)
            e = maximally_entangled_projection(v, split)
            fid_e = fock_fidelity(s, e)
            fid_t = fock_fidelity(s, partner_projection(e, split))
            p = parity_probability(s, orientation=target_orientation(e))
            lam_p, lam_m, mu_p, mu_m = twirl_coefficients(p, fid_e, fid_t, 2)
            assert lam_p + mu_p == pytest.approx(fid_e, abs=1e-12)
            assert lam_m + mu_p == pytest.approx(fid_t, abs=1e-12)
            assert mu_p >= -1e-12 and mu_m >= -1e-12


class TestOutputFidelity:
    def test_perfect(self):
        f, flag = output_fidelity(1.0, 0.0, 1.0, 2)
        assert f == 1.0 and flag

    def test_boundary_not_distillable(self):
        f, flag = output_fidelity(1 / 16, 1 / 16, 0.5, 2)
        assert f == pytest.approx(0.25)
        assert not flag  # 1/4 <= 1/2 = 1/d

    def test_zero_probability_rejected(self):
        with pytest.raises(ValidationError):
            output_fidelity(0.1, 0.1, 0.0, 2)


class TestRestrict:
    def test_identity_projection(self, rng):
        s = random_covariance(4, rng)
        split = BipartiteSplit.halves(8)
        out, _ = restrict(s, split, RealProjectionPair.identity(4, 4))
        # same state up to the orthonormal frame choice: compare spectra
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out.matrix), np.linalg.eigvalsh(s.matrix), atol=1e-10
        )

    def test_maximally_mixed_stays_mixed(self, rng):
        split = BipartiteSplit.halves(8)
        u = random_orthogonal(4, rng)[:, :2]
        pair = RealProjectionPair(u, u)
        out, _ = restrict(mixed(4), split, pair)
        np.testing.assert_allclose(out.matrix, 0.5 * np.eye(4), atol=1e-12)

    def test_output_valid(self, rng):
        split = BipartiteSplit.halves(12)
        s = random_covariance(6, rng)
        ua = random_orthogonal(6, rng)[:, :4]
        ub = random_orthogonal(6, rng)[:, :4]
        out, new_split = restrict(s, split, RealProjectionPair(ua, ub))
        assert validate(out).passed
        assert out.matrix.shape == (8, 8)
        assert len(new_split.a) == len(new_split.b) == 4


class TestFileFormat:
    def test_roundtrip(self, tmp_path, rng):
        s = random_covariance(3, rng)
        split = BipartiteSplit((0, 2, 4), (1, 3, 5))
        path = tmp_path / "state.json"
        save_covariance(path, s, split)
        s2, split2 = load_covariance(path)
        np.testing.assert_allclose(s.matrix, s2.matrix, atol=0)
        assert split2.a == split.a

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=3))
    def test_roundtrip_property(self, tmp_path_factory, data, n):
        # every antisymmetric real G with entries below ENTRY_LIMIT round-trips
        # exactly; an S whose real part is off 1/2, or whose imaginary part
        # G is not antisymmetric, is refused at load
        dim = 2 * n
        finite = st.floats(allow_nan=False, allow_infinity=False)
        below = st.floats(-ENTRY_LIMIT, ENTRY_LIMIT, exclude_min=True, exclude_max=True)
        upper = np.array(data.draw(st.lists(below, min_size=dim * dim, max_size=dim * dim)))
        upper = np.triu(upper.reshape(dim, dim), 1)
        g = upper - upper.T
        split_a = data.draw(st.lists(st.integers(0, dim - 1), unique=True, max_size=dim))
        split = BipartiteSplit.from_alice(split_a, dim)
        path = tmp_path_factory.mktemp("roundtrip") / "state.json"
        save_covariance(path, CovarianceMatrix(g), split)
        s2, split2 = load_covariance(path)
        np.testing.assert_array_equal(s2.g, g)
        assert (split2.a, split2.b) == (split.a, split.b)

        saved = path.read_text()
        entry = data.draw(st.integers(0, dim * dim - 1))
        off = data.draw(finite.filter(lambda x: abs(x) >= 10 * states.STRUCT_ATOL))
        payload = json.loads(saved)
        payload["entries"][entry][0] += off
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="reality"):
            load_covariance(path)

        # G[entry] moved by 10 to 1e7 times the tolerance, towards zero or
        # past it, so that no entry reaches ENTRY_LIMIT
        kick = data.draw(st.floats(10.0, 1e7)) * states.STRUCT_ATOL * max(1.0, np.abs(g).max())
        payload = json.loads(saved)
        im = payload["entries"][entry][1]
        payload["entries"][entry][1] = im - kick if im > 0 else im + kick
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="covariance G is not antisymmetric"):
            load_covariance(path)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"modes": 2, "split_a": [0, 1]}')
        with pytest.raises(ValidationError, match="entries"):
            load_covariance(path)

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text('{"modes": 2, "split_a": [0, 1], "entries": [[0.5, 0.0]]}')
        with pytest.raises(ValidationError, match="expected 16 entries"):
            load_covariance(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entry_named(self, tmp_path, rng, value):
        path = tmp_path / "state.json"
        save_covariance(path, random_covariance(2, rng), BipartiteSplit.halves(4))
        payload = json.loads(path.read_text())
        payload["entries"][6][1] = value
        path.write_text(json.dumps(payload))
        # S[1, 2] = payload entry 6: refused by the entry gate as G[1, 2]
        with pytest.raises(ValidationError, match=r"G has a non-finite entry at \(1, 2\)"):
            load_covariance(path)

    @pytest.mark.parametrize("field, value, message", MALFORMED_FIELDS)
    def test_malformed_field_rejected(self, tmp_path, field, value, message):
        path = tmp_path / "bad.json"
        payload = {"modes": 1, "split_a": [0], "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]}
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=message):
            load_covariance(path)


@pytest.mark.parametrize("case", ["exact", "within", "beyond"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), size=st.floats(0.0, 1.0))
def test_antisymmetry_is_checked_on_entry(tmp_path_factory, case, seed, n, size):
    # CovarianceMatrix refuses |G + G^T|_max > STRUCT_ATOL max(1, |G|_max) and
    # stores (G - G^T)/2: an exactly antisymmetric G bitwise, a G within the
    # tolerance exactly antisymmetrised, which the scalar formulas then read
    rng = np.random.default_rng(seed)
    gs, ge = random_covariance(n, rng).g, random_basis_projection(n, rng).g
    dim = 2 * n
    half = np.eye(dim) / 2
    if case == "exact":
        g = gs * 10.0 ** rng.integers(-50, 51)
        for stored in (CovarianceMatrix(g).g, CovarianceMatrix.from_s(half + 1j * g).g):
            assert stored.tobytes() == g.tobytes()
    elif case == "within":
        raw = []
        for g in (gs, ge):
            noise = rng.standard_normal((dim, dim))
            noise += noise.T
            raw.append(g + noise * (0.4 * size * states.STRUCT_ATOL / np.abs(noise).max()))
        for g in raw:
            stored = CovarianceMatrix(g).g
            assert stored.tobytes() == ((g - g.T) / 2).tobytes()
            np.testing.assert_array_equal(stored, -stored.T)
        s, e = (half + 1j * g for g in raw)
        a, b = (CovarianceMatrix((g - g.T) / 2) for g in raw)
        assert parity_expectation(s) == parity_expectation(a)
        assert abs(parity_expectation(s) - parity_expectation(CovarianceMatrix(gs))) <= 1e-8
        assert fock_fidelity(s, e) == fock_fidelity(a, b)
    else:
        i, j = rng.integers(dim, size=2)
        g = gs.copy()
        g[i, j] += (1 + size * 1e6) * 2 * states.STRUCT_ATOL * rng.choice([-1, 1])
        s = half + 1j * g
        path = tmp_path_factory.mktemp("beyond") / "state.json"
        path.write_text(json.dumps({"modes": n, "split_a": [0], "entries": [
            [z.real, z.imag] for z in s.ravel().tolist()]}))
        for refuse in (lambda: CovarianceMatrix(g), lambda: CovarianceMatrix.from_s(s),
                       lambda: load_covariance(path)):
            with pytest.raises(ValidationError, match="covariance G is not antisymmetric"):
                refuse()


class TestPipelineComposition:
    def test_twirl_route_equals_protocol_route(self, rng):
        # p, fidelities -> twirl -> output fidelity reproduces the direct
        # two-Pfaffian evaluation on random states and random targets
        split = BipartiteSplit.halves(8)
        for _ in range(10):
            s = random_covariance(4, rng)
            v = random_orthogonal(4, rng)
            e = maximally_entangled_projection(v, split)
            fid_e = fock_fidelity(s, e)
            fid_t = fock_fidelity(s, partner_projection(e, split))
            p = parity_probability(s, orientation=target_orientation(e))
            assert p > 1e-6
            f_twirl, distillable = output_fidelity(fid_e, fid_t, p, 2)
            q = protocol_quantities(blocks(s, split), RealProjectionPair(np.eye(4), v.T))
            assert q.p == pytest.approx(p, abs=1e-12)
            assert q.f == pytest.approx(f_twirl, abs=1e-10)
            assert distillable == (q.f > 0.5)
            # the twirled-state coefficients reproduce the same observables
            lam_p, lam_m, mu_p, mu_m = twirl_coefficients(p, fid_e, fid_t, 2)
            assert lam_p + mu_p == pytest.approx(fid_e, abs=1e-12)
            assert (lam_p + lam_m) / 2 + 4 * mu_p == pytest.approx(p / 2, abs=1e-12)


class TestBasisCovariance:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_protocol_quantities_invariant_under_local_rotations(self, seed):
        # independent real orthogonal rotations of each party's reference
        # space (determinants +-1 at random) must leave p and f unchanged;
        # this exercises the orientation normalization directly
        rng = np.random.default_rng(seed)
        split = BipartiteSplit.halves(8)
        s = random_covariance(4, rng)
        v = random_orthogonal(4, rng)
        q = protocol_quantities(blocks(s, split), RealProjectionPair(np.eye(4), v.T))

        ra = random_orthogonal(4, rng)
        rb = random_orthogonal(4, rng)
        r = np.zeros((8, 8))
        r[:4, :4] = ra
        r[4:, 4:] = rb
        s_rot = CovarianceMatrix(r.T @ s.g @ r)
        v_rot = ra.T @ v @ rb
        q_rot = protocol_quantities(blocks(s_rot, split), RealProjectionPair(np.eye(4), v_rot.T))
        assert q_rot.p == pytest.approx(q.p, abs=1e-11)
        assert q_rot.pf == pytest.approx(q.pf, abs=1e-11)

    def test_parity_probability_covariant_with_target(self, rng):
        # rotating the basis flips the raw Pfaffian sign with det(R), and
        # the target-derived orientation flips with it
        split = BipartiteSplit.halves(8)
        s = random_covariance(4, rng)
        v = random_orthogonal(4, rng)
        e = maximally_entangled_projection(v, split)
        p = parity_probability(s, orientation=target_orientation(e))

        ra = random_orthogonal(4, rng)
        rb = random_orthogonal(4, rng)
        r = np.zeros((8, 8))
        r[:4, :4] = ra
        r[4:, 4:] = rb
        s_rot = CovarianceMatrix(r.T @ s.g @ r)
        e_rot = CovarianceMatrix(r.T @ e.g @ r)
        p_rot = parity_probability(s_rot, orientation=target_orientation(e_rot))
        assert p_rot == pytest.approx(p, abs=1e-11)


class TestRandomStates:
    @pytest.mark.parametrize(
        "draw",
        [
            lambda seed: random_covariance(3, seed).matrix,
            lambda seed: random_basis_projection(3, seed).matrix,
            lambda seed: random_x_zero_covariance(2, seed)[0].matrix,
        ],
        ids=["covariance", "basis_projection", "x_zero_covariance"],
    )
    def test_generator_draws_like_its_seed(self, draw):
        np.testing.assert_array_equal(draw(17), draw(np.random.default_rng(17)))

    @pytest.mark.parametrize("seed", [np.nan, 1.0, np.inf, "1"])
    def test_samplers_need_an_integer_seed(self, seed):
        for draw in (random_covariance, random_x_zero_covariance):
            with pytest.raises(ValidationError, match="seed must be an integer"):
                draw(2, seed)
            draw(2, np.int64(3))

    @pytest.mark.parametrize("n_modes", [0, -1, 2.5, True])
    def test_samplers_need_positive_integer_modes(self, n_modes):
        for draw in (random_covariance, random_x_zero_covariance):
            with np.errstate(all="raise"), pytest.raises(ValidationError, match="positive integer"):
                draw(n_modes, 1)
        assert random_covariance(np.int64(2), 1).g.shape == (4, 4)
