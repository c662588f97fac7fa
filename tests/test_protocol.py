import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermidistill import protocol
from fermidistill.fock import density_from_covariance, fock_vector, joint_parity
from fermidistill.linalg import STRUCT_ATOL, _scratch_size, svd
from fermidistill.protocol import (
    NOTE_TEXT,
    SAMPLE_CHUNK,
    InsufficientRankError,
    Note,
    hashing_rate,
    optimal_choice,
    optimal_pf_bound,
    run_protocol,
    sample_suboptimal,
    scan_m,
)
from fermidistill.states import (
    BipartiteSplit,
    CovarianceMatrix,
    RealProjectionPair,
    ValidationError,
    blocks,
    maximally_entangled_projection,
    partner_projection,
    protocol_quantities,
    random_covariance,
    random_x_zero_covariance,
    restrict,
    target_orientation,
)

from helpers import haar_frame, polar_decompose, random_orthogonal


class TestOptimalChoice:
    def test_perfect_state_full_m(self, rng):
        split = BipartiteSplit.halves(8)
        v = random_orthogonal(4, rng)
        e = maximally_entangled_projection(v, split)
        choice = optimal_choice(e, split, 2)
        np.testing.assert_allclose(choice.d.ua @ choice.d.ua.T, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(choice.d.ub @ choice.d.ub.T, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(choice.v, v, atol=1e-10)
        np.testing.assert_allclose(choice.lambdas, np.ones(4), atol=1e-10)

    def test_diagonal_y_selects_top_coordinates(self):
        # S with Y = diag(distinct positive values), X = Z = 0 on 6|6 dims
        diag = np.array([0.9, 0.8, 0.6, 0.5, 0.3, 0.2])
        g = np.zeros((12, 12))
        g[:6, 6:] = np.diag(diag) / 2
        g[6:, :6] = -np.diag(diag) / 2
        s = CovarianceMatrix(g)
        split = BipartiteSplit.halves(12)
        choice = optimal_choice(s, split, 2)
        expected = np.diag([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(choice.d.ua @ choice.d.ua.T, expected, atol=1e-10)
        np.testing.assert_allclose(choice.d.ub @ choice.d.ub.T, expected, atol=1e-10)
        np.testing.assert_allclose(choice.v, expected, atol=1e-10)

    def test_insufficient_rank(self):
        split = BipartiteSplit.halves(8)
        with pytest.raises(InsufficientRankError, match="insufficient rank"):
            optimal_choice(CovarianceMatrix(np.zeros((8, 8))), split, 2)

    def test_degenerate_cut_warns(self):
        diag = np.array([0.9, 0.8, 0.6, 0.6, 0.6, 0.2])  # lambda_4 == lambda_5
        g = np.zeros((12, 12))
        g[:6, 6:] = np.diag(diag) / 2
        g[6:, :6] = -np.diag(diag) / 2
        s = CovarianceMatrix(g)
        choice = optimal_choice(s, BipartiteSplit.halves(12), 2)
        assert choice.warnings == (Note("degenerate_cut", (4, 5)),)

    def test_m_too_small(self, rng):
        s = random_covariance(4, rng)
        with pytest.raises(ValidationError):
            optimal_choice(s, BipartiteSplit.halves(8), 1)

    @pytest.mark.parametrize("sigma", [0.45, -0.45])
    def test_uniform_coupling_polar_factor(self, sigma):
        # Y = sigma * identity: the canonical isometry is sign(sigma) * identity
        from fermidistill.closed_forms import FourModeParams, four_mode_covariance, four_mode_split

        s = four_mode_covariance(FourModeParams(0.1, -0.2, 0.15, 0.05, sigma))
        choice = optimal_choice(s, four_mode_split(), 2)
        np.testing.assert_allclose(choice.v, np.sign(sigma) * np.eye(4), atol=1e-10)


class TestBound:
    def test_all_ones(self):
        assert optimal_pf_bound([1, 1, 1, 1]) == pytest.approx(1.0)

    def test_all_zeros(self):
        assert optimal_pf_bound([0, 0, 0, 0]) == pytest.approx(2 * 2.0**-4)

    def test_two_ones_two_zeros(self):
        assert optimal_pf_bound([1, 1, 0, 0]) == pytest.approx(0.25)

    def test_out_of_range_rejected(self):
        for lams in ([1.2, 0.5], [np.nan, 0.5]):
            with pytest.raises(ValidationError, match=r"in \[0, 1\]"):
                optimal_pf_bound(lams)

    @settings(max_examples=50, deadline=None)
    @given(
        lams=st.lists(st.floats(0, 1), min_size=2, max_size=8).filter(lambda l: len(l) % 2 == 0),
        extra=st.tuples(st.floats(0, 1), st.floats(0, 1)),
    )
    def test_monotone_under_extension(self, lams, extra):
        # appending any two values in [0, 1] can only decrease the bound
        assert optimal_pf_bound(lams) >= optimal_pf_bound(list(lams) + list(extra)) - 1e-12


class TestHashingRate:
    def test_perfect_fidelity(self):
        assert hashing_rate(0.7, 1.0) == pytest.approx(0.7)

    def test_half_fidelity_zero(self):
        # bracket = 1 - 1 - log2(3)/2 < 0
        assert hashing_rate(0.9, 0.5) == 0.0

    def test_zero_probability(self):
        assert hashing_rate(0.0, 0.9) == 0.0

    def test_continuity_at_zero_fidelity(self):
        assert hashing_rate(1.0, 0.0) == pytest.approx(hashing_rate(1.0, 1e-300), abs=1e-12)

    def test_nondecreasing_in_fidelity(self):
        grid = np.linspace(0.25, 1.0, 301)
        rates = [hashing_rate(0.8, f) for f in grid]
        assert all(r2 >= r1 - 1e-12 for r1, r2 in zip(rates, rates[1:]))


class TestRunProtocol:
    def test_perfect_input(self, rng):
        split = BipartiteSplit.halves(8)
        e = maximally_entangled_projection(random_orthogonal(4, rng), split)
        report = run_protocol(e, split, 2)
        assert report.p == pytest.approx(1.0, abs=1e-10)
        assert report.f == pytest.approx(1.0, abs=1e-10)
        assert report.rate == pytest.approx(1.0, abs=1e-9)
        assert report.distillable

    def test_x_zero_attains_bound(self, rng):
        s, split = random_x_zero_covariance(4, rng)
        report = run_protocol(s, split, 2)
        bound = optimal_pf_bound(report.lambdas)
        assert report.pf == pytest.approx(bound, abs=1e-9)
        assert "bound_missed" not in [n.kind for n in report.warnings]

    def test_report_serialization(self, rng):
        s, split = random_x_zero_covariance(4, rng)
        report = run_protocol(s, split, 2)
        payload = json.loads(json.dumps(report.to_dict()))
        assert set(payload) == {
            "m", "p", "f", "pf", "rate", "lambdas", "distillable", "warnings",
        }
        assert payload["pf"] == pytest.approx(payload["p"] * payload["f"], abs=1e-12)


# Each kind of note and the message its values render to, word for word as
# the sweep CSV's message cell and the JSON `warnings` list have always read.
PINNED_NOTES = {
    "degenerate_cut": ((4, 5), "degenerate singular value at the cut (lambda_4 == lambda_5); "
                       "the kept subspace depends on the SVD basis choice"),
    "bound_missed": ((0.25, 0.3), "pf = 2.500000000000e-01 misses the bound "
                     "3.000000000000e-01 despite a vanishing diagonal block"),
    "above_reference": ((0.3125, 0.3), "pf = 3.125000000000e-01 above the vanishing-block "
                        "reference 3.000000000000e-01 (no optimality statement applies)"),
    "skipped_not_finite": ((800, float("nan")), "skipped L=800: value nan is not finite"),
    "skipped_saturated": ((4000, 1.0), "skipped L=4000: value 1.0 >= 1"),
}


@pytest.mark.parametrize("kind", sorted(PINNED_NOTES))
def test_note_text_pinned(kind):
    assert set(NOTE_TEXT) == set(PINNED_NOTES)
    values, text = PINNED_NOTES[kind]
    assert str(Note(kind, values)) == text


def _invalid_states():
    """A state past the spectral bound (sigma_max(G) > 1/2) and one with G not antisymmetric."""
    g = random_covariance(4, 1).g
    broken = g.copy()
    broken[0, 5] += 0.3
    return [("spectrum", CovarianceMatrix(3 * g)), ("antisymmetry", CovarianceMatrix(broken))]


class TestInvalidStateRefused:
    @pytest.mark.parametrize("check, s", _invalid_states(), ids=["spectrum", "antisymmetry"])
    def test_every_entry_point_raises(self, check, s):
        split = BipartiteSplit.halves(8)
        calls = [
            lambda: optimal_choice(s, split, 2),
            lambda: run_protocol(s, split, 2),
            lambda: scan_m(s, split, 2),
            lambda: sample_suboptimal(s, split, 2, trials=5, seed=1),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match=f"invalid state(.|\n)*{check}.*VIOLATED"):
                call()


class TestScanM:
    def test_perfect_state_all_ones(self, rng):
        split = BipartiteSplit.halves(16)
        e = maximally_entangled_projection(random_orthogonal(8, rng), split)
        reports, reason = scan_m(e, split, 4)
        assert reason is None
        assert [r.m for r in reports] == [2, 3, 4]
        for r in reports:
            assert r.pf == pytest.approx(1.0, abs=1e-9)

    def test_monotone_decreasing_pf(self, rng):
        for seed in range(5):
            s, split = random_x_zero_covariance(4, np.random.default_rng(seed))
            reports, reason = scan_m(s, split, 4)
            assert reason is None
            pfs = [r.pf for r in reports]
            assert pfs[0] >= pfs[1] - 1e-12 >= pfs[2] - 2e-12

    def test_truncation_reason(self, rng):
        # rank-4 Y supports m = 2 but not m = 3
        diag = np.array([0.9, 0.8, 0.6, 0.5, 0.0, 0.0])
        g = np.zeros((12, 12))
        g[:6, 6:] = np.diag(diag) / 2
        g[6:, :6] = -np.diag(diag) / 2
        s = CovarianceMatrix(g)
        reports, reason = scan_m(s, BipartiteSplit.halves(12), 4)
        assert [r.m for r in reports] == [2]
        assert "insufficient rank" in reason

    @staticmethod
    def _assert_reports_match(reports, s, split):
        # each report of the one stack against its own run_protocol
        for report in reports:
            alone = run_protocol(s, split, report.m)
            for name in ("p", "f", "pf"):
                assert getattr(report, name) == pytest.approx(getattr(alone, name), abs=1e-12)
            assert report.lambdas == alone.lambdas
            assert report.warnings == alone.warnings
            assert report.rate == alone.rate
            assert report.distillable == alone.distillable

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), modes=st.integers(2, 6),
           kind=st.sampled_from(["generic", "x_zero", "maximally_entangled"]),
           beyond=st.integers(0, 1))
    def test_each_report_matches_run_protocol(self, seed, modes, kind, beyond):
        # m_max = modes + 1 runs out of dimensions after m = modes
        rng = np.random.default_rng(seed)
        split = BipartiteSplit.halves(4 * modes)
        if kind == "generic":
            s = random_covariance(2 * modes, rng)
        elif kind == "x_zero":
            s, split = random_x_zero_covariance(modes, rng)
        else:
            s = maximally_entangled_projection(random_orthogonal(2 * modes, rng), split)
        reports, reason = scan_m(s, split, modes + beyond)
        assert [r.m for r in reports] == list(range(2, modes + 1))
        assert (reason is None) == (beyond == 0)
        self._assert_reports_match(reports, s, split)

    def test_truncated_scan_keeps_its_reports(self):
        # the rank-4 state of test_truncation_reason: m = 2 alone, and the reason
        # run_protocol gives for m = 3
        g = np.zeros((12, 12))
        g[:6, 6:] = np.diag([0.9, 0.8, 0.6, 0.5, 0.0, 0.0]) / 2
        g[6:, :6] = -g[:6, 6:].T
        s, split = CovarianceMatrix(g), BipartiteSplit.halves(12)
        reports, reason = scan_m(s, split, 3)
        self._assert_reports_match(reports, s, split)
        with pytest.raises(InsufficientRankError) as exc:
            run_protocol(s, split, 3)
        assert reason == str(exc.value)
        assert scan_m(s, split, 4) == (reports, reason)

    @pytest.mark.parametrize("m_max", [2, 4])
    def test_one_elimination_per_scan(self, monkeypatch, m_max, rng):
        from fermidistill import states

        eliminate, calls = states._eliminate, []
        monkeypatch.setattr(states, "_eliminate",
                            lambda work, scratch: calls.append(work.shape) or eliminate(work, scratch))
        s, split = random_covariance(8, rng), BipartiteSplit.halves(16)
        reports, _ = scan_m(s, split, m_max)
        assert len(reports) == m_max - 1
        # 3 Pfaffian matrices of 4 m_max rows for each m
        assert calls == [(4 * m_max, 4 * m_max, 3 * (m_max - 1))]

    @pytest.mark.parametrize("m_max", [1, 0, -3])
    def test_m_max_below_two_rejected(self, m_max, rng):
        s, split = random_x_zero_covariance(2, rng)
        with pytest.raises(ValidationError, match=f"m >= 2, got m_max = {m_max}"):
            scan_m(s, split, m_max)


def _reference_sample(s, split, m, trials, seed):
    """Per-trial loop: one row of one generator per trial and one evaluation per trial."""
    k, r = len(split.a), 2 * m
    rng = np.random.default_rng(seed)
    best = None
    for t in range(trials):
        row = rng.standard_normal(2 * k * r)
        ua = haar_frame(row[: k * r].reshape(k, r))
        ub = haar_frame(row[k * r:].reshape(k, r))
        q = protocol_quantities(blocks(s, split), RealProjectionPair(ua, ub))
        if best is None or q.pf > best[1].pf:
            best = (t, q, ua, ub, ua @ ub.T)
    return best


class TestSampleSuboptimal:
    @pytest.mark.parametrize("trials", [1, SAMPLE_CHUNK // 2, SAMPLE_CHUNK // 2 + 1, SAMPLE_CHUNK,
                                        SAMPLE_CHUNK + 1, 2 * SAMPLE_CHUNK + 1])
    @pytest.mark.parametrize("kind", ["x_zero", "general"])
    def test_matches_per_trial_reference(self, trials, kind):
        rng = np.random.default_rng(404)
        if kind == "x_zero":
            s, split = random_x_zero_covariance(4, rng)
        else:
            s, split = random_covariance(8, rng), BipartiteSplit.halves(16)
        sample = sample_suboptimal(s, split, 2, trials, seed=trials)
        t, q, ua, ub, v = _reference_sample(s, split, 2, trials, seed=trials)
        assert sample.trial == t
        assert sample.best_pf == pytest.approx(q.pf, abs=1e-12)
        assert sample.best_p == pytest.approx(q.p, abs=1e-12)
        assert sample.best_f == pytest.approx(q.f, abs=1e-10)
        np.testing.assert_allclose(sample.d.ua, ua, atol=1e-12)
        np.testing.assert_allclose(sample.d.ub, ub, atol=1e-12)
        np.testing.assert_allclose(sample.v, v, atol=1e-12)

    def test_m_below_two_rejected(self, rng):
        s, split = random_x_zero_covariance(4, rng)
        with pytest.raises(ValidationError, match="m >= 2"):
            sample_suboptimal(s, split, 1, trials=3, seed=0)

    def test_m_beyond_rank_rejected(self, rng):
        s, split = random_x_zero_covariance(2, rng)
        with pytest.raises(InsufficientRankError, match="needs rank 2m = 6"):
            sample_suboptimal(s, split, 3, trials=3, seed=0)

    def test_never_beats_optimal_on_x_zero(self, rng):
        s, split = random_x_zero_covariance(4, rng)
        report = run_protocol(s, split, 2)
        sample = sample_suboptimal(s, split, 2, trials=60, seed=11)
        assert sample.best_pf <= report.pf + 1e-9

    def test_deterministic_per_seed(self, rng):
        s, split = random_x_zero_covariance(4, rng)
        first = sample_suboptimal(s, split, 2, trials=8, seed=5)
        second = sample_suboptimal(s, split, 2, trials=8, seed=5)
        assert first.best_pf == second.best_pf
        assert first.trial == second.trial

    def test_independent_of_chunk_size_and_prefix_stable(self, rng, monkeypatch):
        s, split = random_x_zero_covariance(4, rng)
        whole = sample_suboptimal(s, split, 2, trials=20, seed=9)
        monkeypatch.setattr(protocol, "SAMPLE_CHUNK", 3)
        chunked = sample_suboptimal(s, split, 2, trials=20, seed=9)
        prefix = sample_suboptimal(s, split, 2, trials=whole.trial + 1, seed=9)
        for other in (chunked, prefix):
            assert other.trial == whole.trial
            assert other.best_pf == pytest.approx(whole.best_pf, abs=1e-12)
            np.testing.assert_allclose(other.v, whole.v, atol=1e-12)

    def test_draw_larger_than_elimination_scratch(self, rng, monkeypatch):
        # at |A| = 26 > 6 r a trial's draw outgrows its share of the
        # elimination scratch, whose front holds it
        s, split = random_covariance(26, rng), BipartiteSplit.halves(52)
        k, r = 26, 4
        assert 2 * k * r > _scratch_size(2 * r, 3)
        whole = sample_suboptimal(s, split, 2, trials=20, seed=9)
        t, q, _, _, v = _reference_sample(s, split, 2, 20, seed=9)
        assert whole.trial == t
        assert whole.best_pf == pytest.approx(q.pf, abs=1e-12)
        np.testing.assert_allclose(whole.v, v, atol=1e-12)
        monkeypatch.setattr(protocol, "SAMPLE_CHUNK", 3)
        chunked = sample_suboptimal(s, split, 2, trials=20, seed=9)
        prefix = sample_suboptimal(s, split, 2, trials=whole.trial + 1, seed=9)
        for other in (chunked, prefix):
            assert other.trial == whole.trial
            assert other.best_pf == pytest.approx(whole.best_pf, abs=1e-12)
            np.testing.assert_allclose(other.v, whole.v, atol=1e-12)

    def test_memory_bounded_in_trials(self, rng):
        # the peak is set by the chunk, not the trial count: below the
        # workspace (scratch, frames, Pfaffian matrices) plus one more
        # Pfaffian stack and one more frame stack per trial
        s, split = random_x_zero_covariance(4, rng)
        k, r = 8, 4
        sample_suboptimal(s, split, 2, trials=2, seed=1)
        peaks = []
        for trials in (2 * SAMPLE_CHUNK, 20 * SAMPLE_CHUNK):
            tracemalloc.start()
            try:
                sample_suboptimal(s, split, 2, trials=trials, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] == pytest.approx(peaks[0], rel=0.05)
        pfaffian_stack = 3 * (2 * r) ** 2
        workspace = 2 * pfaffian_stack + 2 * k * r
        assert max(peaks) < 8 * SAMPLE_CHUNK * (workspace + pfaffian_stack + 2 * k * r)

    def test_sampled_quantities_consistent(self, rng):
        s, split = random_x_zero_covariance(4, rng)
        sample = sample_suboptimal(s, split, 2, trials=4, seed=3)
        q = protocol_quantities(blocks(s, split), sample.d)
        assert q.pf == pytest.approx(sample.best_pf, abs=1e-12)

    def test_general_states_recorded(self, rng):
        # no optimality assertion for general X, Z != 0; just consistency
        s = random_covariance(4, rng)
        split = BipartiteSplit.halves(8)
        sv = svd(blocks(s, split).y)[1]
        if sv[3] < 1e-6:
            pytest.skip("degenerate draw")
        report = run_protocol(s, split, 2)
        sample = sample_suboptimal(s, split, 2, trials=40, seed=7)
        assert 0.0 <= sample.best_pf <= 1.0
        assert sample.best_pf <= max(report.pf, sample.best_pf)


def _oracle_p_pf(s, split, d, vp):
    """p and pf of the protocol (d, d.ua vp d.ub^T) from the dense Fock oracle.

    The state is restricted to the frames, where the target is the
    maximally entangled state with Y-block vp: p is the joint-parity
    weight of the target's sector and pf its fidelity plus its partner's.
    """
    rs, rsplit = restrict(s, split, d)
    e = maximally_entangled_projection(vp, rsplit)
    rho = density_from_covariance(rs)
    n = len(rsplit.a)  # the restricted state has 2r indices, so r modes
    probs = joint_parity(rho, rsplit).probabilities
    sector = target_orientation(e) * (-1) ** (n // 2)
    p = probs["++"] + probs["--"] if sector > 0 else probs["+-"] + probs["-+"]
    pf = sum(float((psi.conj() @ rho @ psi).real)
             for psi in (fock_vector(e), fock_vector(partner_projection(e, rsplit))))
    return p, pf


class TestTwoFrameOracle:
    """A protocol evaluated through its two frames agrees with the dense oracle."""

    @staticmethod
    def _state(kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "x_zero":
            return random_x_zero_covariance(3, rng)
        return random_covariance(6, rng), BipartiteSplit.halves(12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["x_zero", "general"])
    def test_sampled_winner(self, kind, seed):
        # the winner's V = ua ub^T compresses onto its frames to the identity
        s, split = self._state(kind, seed)
        sample = sample_suboptimal(s, split, 2, trials=50, seed=seed)
        np.testing.assert_allclose(sample.v, sample.d.ua @ sample.d.ub.T, atol=1e-15)
        p, pf = _oracle_p_pf(s, split, sample.d, np.eye(4))
        assert sample.best_p == pytest.approx(p, abs=1e-9)
        assert sample.best_pf == pytest.approx(pf, abs=1e-9)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["x_zero", "general"])
    def test_reflection_pairing(self, kind, seed):
        # det V' = -1: Bob's frame turned by V' carries the target's orientation
        s, split = self._state(kind, seed)
        rng = np.random.default_rng(100 + seed)
        k = len(split.a)
        d = RealProjectionPair(random_orthogonal(k, rng)[:, :4], random_orthogonal(k, rng)[:, :4])
        vp = random_orthogonal(4, rng)
        if np.linalg.det(vp) > 0:
            vp[:, 0] *= -1
        q = protocol_quantities(blocks(s, split), RealProjectionPair(d.ua, d.ub @ vp.T))
        p, pf = _oracle_p_pf(s, split, d, vp)
        assert q.p == pytest.approx(p, abs=1e-9)
        assert q.pf == pytest.approx(pf, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31), modes=st.sampled_from([2, 3]),
           proper=st.booleans())
    def test_frames_alone_fix_orientation(self, seed, modes, proper):
        # Bob's frame turned by an orthogonal W pairs the columns by V' = W^T,
        # proper or improper; the frames alone carry the target's orientation
        rng = np.random.default_rng(seed)
        s, split = random_covariance(2 * modes, rng), BipartiteSplit.halves(4 * modes)
        k = 2 * modes
        ua, ub = random_orthogonal(k, rng)[:, :4], random_orthogonal(k, rng)[:, :4]
        w = random_orthogonal(4, rng)
        if (np.linalg.det(w) > 0) != proper:
            w[:, 0] *= -1
        q = protocol_quantities(blocks(s, split), RealProjectionPair(ua, ub @ w))
        p, pf = _oracle_p_pf(s, split, RealProjectionPair(ua, ub), w.T)
        assert q.p == pytest.approx(p, abs=1e-9)
        assert q.pf == pytest.approx(pf, abs=1e-9)


class TestLargerM:
    def test_bound_attained_at_odd_m(self):
        # 12-mode states with vanishing Alice block: equality must hold
        # through m = 5, including odd m where the orientation factor of
        # the canonical isometry can be negative
        for seed in range(3):
            s, split = random_x_zero_covariance(6, np.random.default_rng(300 + seed))
            for m in (2, 3, 4, 5):
                report = run_protocol(s, split, m)
                bound = optimal_pf_bound(report.lambdas)
                assert report.pf == pytest.approx(bound, abs=1e-9), (seed, m)

    def test_scan_monotone_to_m6(self):
        s, split = random_x_zero_covariance(6, np.random.default_rng(77))
        reports, reason = scan_m(s, split, 6)
        assert reason is None
        pfs = [r.pf for r in reports]
        assert all(a >= b - 1e-11 for a, b in zip(pfs, pfs[1:]))


class TestSingleEvaluationPath:
    @staticmethod
    def _count(monkeypatch, owners, name):
        # wrap `name` under every module that looks it up, so calls made
        # through any of them are counted
        calls = []
        for owner in owners:
            original = getattr(owner, name, None)
            if original is None:
                continue

            def counted(*args, _original=original, **kwargs):
                calls.append(name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return calls

    def _counters(self, monkeypatch):
        from fermidistill import lattice, linalg, protocol, states

        return (self._count(monkeypatch, (states, protocol, lattice), "blocks"),
                self._count(monkeypatch, (linalg, protocol), "svd"))

    def test_one_extraction_and_one_svd_per_state(self, monkeypatch, rng):
        s, split = random_covariance(8, rng), BipartiteSplit.halves(16)
        block_calls, svd_calls = self._counters(monkeypatch)
        run_protocol(s, split, 2)
        assert (len(block_calls), len(svd_calls)) == (1, 1)
        block_calls.clear()
        svd_calls.clear()
        reports, reason = scan_m(s, split, 4)
        assert reason is None and len(reports) == 3
        assert (len(block_calls), len(svd_calls)) == (1, 1)

    def test_raw_covariance_converted_once(self, monkeypatch, rng):
        # a raw S becomes a CovarianceMatrix once per call, then is validated
        # and split into blocks as that one state
        s, split = random_covariance(4, rng).matrix, BipartiteSplit.halves(8)
        from_s, conversions = CovarianceMatrix.from_s.__func__, []

        def counted(cls, raw):
            conversions.append(1)
            return from_s(cls, raw)

        monkeypatch.setattr(CovarianceMatrix, "from_s", classmethod(counted))
        for call in (lambda: optimal_choice(s, split, 2), lambda: run_protocol(s, split, 2),
                     lambda: scan_m(s, split, 2),
                     lambda: sample_suboptimal(s, split, 2, trials=3, seed=1)):
            conversions.clear()
            call()
            assert len(conversions) == 1

    def test_lattice_point_extracts_blocks_once(self, monkeypatch):
        from fermidistill.lattice import LatticeGeometry, lattice_point

        block_calls, _ = self._counters(monkeypatch)
        lattice_point(LatticeGeometry(32, 1), m=2)
        assert len(block_calls) == 1

    @staticmethod
    def _rank_deficient():
        # rank-6 Y on 8 + 8 dimensions: m = 2, 3 exist, m = 4 does not
        y = np.diag([0.9, 0.7, 0.7, 0.5, 0.4, 0.2, 0.0, 0.0])
        g = np.block([[np.zeros((8, 8)), y], [-y.T, np.zeros((8, 8))]]) / 2
        return CovarianceMatrix(g), BipartiteSplit.halves(16)

    @pytest.mark.parametrize("kind", ["general", "x_zero", "rank_deficient"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scan_equals_per_m_runs(self, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "general":
            s, split = random_covariance(8, rng), BipartiteSplit.halves(16)
        elif kind == "x_zero":
            s, split = random_x_zero_covariance(4, rng)
        else:
            s, split = self._rank_deficient()
        reports, reason = scan_m(s, split, 5)
        expected, expected_reason = [], None
        for m in range(2, 6):
            try:
                expected.append(run_protocol(s, split, m))
            except InsufficientRankError as exc:
                expected_reason = str(exc)
                break
        assert [r.to_dict() for r in reports] == [r.to_dict() for r in expected]
        assert reason == expected_reason
        if kind == "rank_deficient":
            assert [r.m for r in reports] == [2, 3] and "insufficient rank" in reason
        else:
            assert [r.m for r in reports] == [2, 3, 4] and "needs rank 2m = 10" in reason

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        values=st.lists(st.sampled_from([0.15, 0.4, 0.4, 0.75, 0.95]), min_size=8, max_size=8),
        signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=8, max_size=8),
        m=st.sampled_from([2, 3, 4]),
    )
    def test_v_is_polar_factor_of_compressed_y(self, seed, values, signs, m):
        # degenerate spectra (repeated values) and negative coupling
        # (negative diagonal entries before the random rotations)
        rng = np.random.default_rng(seed)
        y = np.diag(np.multiply(values, signs))
        y = random_orthogonal(8, rng) @ y @ random_orthogonal(8, rng)
        g = np.block([[np.zeros((8, 8)), y], [-y.T, np.zeros((8, 8))]]) / 2
        s, split = CovarianceMatrix(g), BipartiteSplit.halves(16)
        choice = optimal_choice(s, split, m)
        ua, ub = choice.d.ua, choice.d.ub
        reference = ua @ polar_decompose(ua.T @ y @ ub)[0] @ ub.T
        np.testing.assert_allclose(choice.v, reference, rtol=0, atol=1e-12)


class TestTrustedInvariants:
    """What the elimination kernel and the protocol stack take on trust holds on every path.

    `linalg._eliminate` checks nothing: every stack it gets from `states` is
    exactly antisymmetric as built.  `_protocol_quantities_stack` trusts its
    frames: `RealProjectionPair` checked them, or `_orthonormalise` made
    them.  Both are wrapped here and every public route is driven through them.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        from fermidistill import states

        eliminate, stack, calls = states._eliminate, states._protocol_quantities_stack, []

        def exactly_antisymmetric(work, scratch):
            assert np.array_equal(work, -work.transpose(1, 0, 2))
            calls.append("eliminate")
            return eliminate(work, scratch)

        def orthonormal_frames(blk, ua, ub, *buffers):
            for u in (ua, ub):
                gram = np.swapaxes(u, 1, 2) @ u
                assert (np.abs(gram - np.eye(u.shape[2])).max(axis=(1, 2)) <= STRUCT_ATOL).all()
            calls.append("stack")
            return stack(blk, ua, ub, *buffers)

        monkeypatch.setattr(states, "_eliminate", exactly_antisymmetric)
        for owner in (states, protocol):
            monkeypatch.setattr(owner, "_protocol_quantities_stack", orthonormal_frames)
        return calls

    @pytest.mark.parametrize("kind", ["general", "x_zero"])
    def test_protocol_entry_points(self, calls, kind):
        rng = np.random.default_rng(5)
        if kind == "general":
            s, split = random_covariance(8, rng), BipartiteSplit.halves(16)
        else:
            s, split = random_x_zero_covariance(4, rng)
        run_protocol(s, split, 2)
        reports, _ = scan_m(s, split, 4)
        d = optimal_choice(s, split, 3).d
        # another pairing of the same spans, as a caller may pass
        protocol_quantities(blocks(s, split), RealProjectionPair(d.ua, d.ub[:, ::-1]))
        assert len(reports) == 3
        # one stack each: scan_m evaluates m = 2, 3, 4 together, padded to m = 4
        assert calls.count("stack") == calls.count("eliminate") == 3

    @pytest.mark.parametrize("kind, modes", [("general", 4), ("x_zero", 4),
                                             ("general", 2), ("x_zero", 2)])
    def test_sampler_chunks(self, calls, monkeypatch, kind, modes):
        # SAMPLE_CHUNK = 3 gives three full chunks and a partial one; at two
        # modes per side the frames are square (|A| = 2m)
        monkeypatch.setattr(protocol, "SAMPLE_CHUNK", 3)
        rng = np.random.default_rng(6)
        if kind == "general":
            s, split = random_covariance(2 * modes, rng), BipartiteSplit.halves(4 * modes)
        else:
            s, split = random_x_zero_covariance(modes, rng)
        sample_suboptimal(s, split, 2, trials=10, seed=3)
        assert calls.count("stack") == calls.count("eliminate") == 4

    @pytest.mark.parametrize("L", [2000, 2001])
    def test_lattice_points(self, calls, L):
        from fermidistill.lattice import LatticeGeometry, lattice_point

        lattice_point(LatticeGeometry(L, 1), m=2)
        assert calls == ["stack", "eliminate"]
