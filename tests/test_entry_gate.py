"""Every public entry point refuses NaN, inf and huge entries where they enter.

The table below lists each public name of `states`, `protocol`,
`closed_forms`, `fock` and `lattice` (their `__all__`), plus
`linalg.pfaffian` and `linalg.svd`, with small valid defaults for every
argument and one slot per numeric argument: an entry of an array, a
scalar parameter, or an integer parameter.  Each of NaN, +-inf, 1e100,
1e200, 1e308 and -0.0 is planted in each slot in turn, at entry (0, 1)
of an array, and a hypothesis test plants them at other entries too.
Every such call must either return finite numbers or raise a
`ValidationError` subclass, and it must raise no warning on the way.
Every integer slot must also refuse a bool, Python's or numpy's.
Names without a numeric input (exceptions, result records, functions of
no argument) are listed in EXEMPT with the reason, and a static check
keeps the table and EXEMPT equal to the `__all__` lists.
"""

import dataclasses
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermidistill import closed_forms, fock, lattice, linalg, protocol, states
from fermidistill.closed_forms import FourModeParams, TwoModeParams
from fermidistill.lattice import LatticeGeometry, ToeplitzKernel
from fermidistill.linalg import ValidationError
from fermidistill.states import (
    BipartiteSplit,
    BlockDecomposition,
    CovarianceMatrix,
    RealProjectionPair,
)

PLANTED = [np.nan, np.inf, -np.inf, 1e100, 1e200, 1e308, -0.0]
MODULES = {"states": states, "protocol": protocol, "closed_forms": closed_forms,
           "fock": fock, "lattice": lattice}

# 2 + 2 modes for the protocols (m = 2 keeps them all), 1 + 1 modes for the oracle
SPLIT = BipartiteSplit.halves(8)
G = states.random_covariance(4, 0).g
S = CovarianceMatrix(G).matrix
BLK = states.blocks(S, SPLIT)
FRAME = np.eye(4)[:, :2]
SPLIT2 = BipartiteSplit.halves(4)
S2 = states.random_covariance(2, 1).matrix
E2 = states.maximally_entangled_projection(np.eye(2), SPLIT2).matrix
RHO = fock.density_from_covariance(S2)
TWO = (0.3, 0.2, 0.4, 0.1)
FOUR = (0.1, -0.2, 0.15, 0.05, 0.2)
PF_INPUT = G[:4, :4] - G[:4, :4].T
SAMPLES = [(1000, 0.9), (2000, 0.95), (4000, 0.97), (8000, 0.99)]


@dataclasses.dataclass(frozen=True)
class Plant:
    """The value v to plant in one slot, or nothing when v is None.

    An array slot gets v at entry `at`, each index taken modulo the
    array's shape (a vector uses the first only); a scalar slot is v.
    """

    v: float | None = None
    at: tuple[int, int] = (0, 1)

    def put(self, a, part="real"):
        """A copy of a with the real (or imaginary) part of entry `at` set to v."""
        if self.v is None:
            return a
        a = np.array(a)
        getattr(a, part)[tuple(i % n for i, n in zip(self.at, a.shape))] = self.v
        return a

    def arg(self, default):
        return default if self.v is None else self.v


def state_slots(call):
    """Slots of a function whose only numeric input is a raw covariance S: G = Im S, and Re S."""
    return {"G": lambda p: call(p.put(S, "imag")), "Re S": lambda p: call(p.put(S))}


def blk_slots(call):
    return {name: (lambda p, name=name: call(BlockDecomposition(
        **{b: p.put(getattr(BLK, b)) if b == name else getattr(BLK, b) for b in "xyz"})))
        for name in "xyz"}


def params_slots(cls, default, call):
    return {f.name: (lambda p, i=i: call(cls(*(p.arg(x) if j == i else x
                                                for j, x in enumerate(default)))))
            for i, f in enumerate(dataclasses.fields(cls))}


def saved(p):
    """Load a covariance file whose entry S[at] has imaginary part v, as JSON writes it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        states.save_covariance(path, S, SPLIT)
        if p.v is not None:
            payload = json.loads(path.read_text())
            row, col = (i % len(S) for i in p.at)
            payload["entries"][row * len(S) + col][1] = p.v
            path.write_text(json.dumps(payload))
        return states.load_covariance(path)


def save(s):
    with tempfile.TemporaryDirectory() as tmp:
        return states.save_covariance(Path(tmp) / "out.json", s, SPLIT)


def geometry(L=8, N=1):
    return LatticeGeometry(L, N)


TABLE = {
    "states.CovarianceMatrix": {"g": lambda p: CovarianceMatrix(p.put(G))},
    "states.BipartiteSplit": {
        "a": lambda p: BipartiteSplit((p.arg(0), 1, 2, 3), (4, 5, 6, 7)),
        "dim": lambda p: BipartiteSplit.halves(p.arg(8)),
    },
    "states.BlockDecomposition": blk_slots(lambda blk: blk),
    "states.RealProjectionPair": {
        "ua": lambda p: RealProjectionPair(p.put(FRAME), FRAME),
        "ub": lambda p: RealProjectionPair(FRAME, p.put(FRAME)),
    },
    "states.validate": state_slots(states.validate),
    "states.blocks": state_slots(lambda s: states.blocks(s, SPLIT)),
    "states.assemble_covariance": blk_slots(states.assemble_covariance),
    "states.parity_expectation": state_slots(states.parity_expectation),
    "states.parity_probability": {
        **state_slots(states.parity_probability),
        "orientation": lambda p: states.parity_probability(S, p.arg(1)),
    },
    "states.fock_fidelity": {
        "S": lambda p: states.fock_fidelity(p.put(S2, "imag"), E2),
        "E": lambda p: states.fock_fidelity(S2, p.put(E2, "imag")),
    },
    "states.partner_projection": {
        "E": lambda p: states.partner_projection(p.put(E2, "imag"), SPLIT2),
    },
    "states.protocol_quantities": {
        **blk_slots(lambda blk: states.protocol_quantities(blk, RealProjectionPair(
            np.eye(4), np.eye(4)))),
        "ua": lambda p: states.protocol_quantities(BLK, RealProjectionPair(
            p.put(np.eye(4)), np.eye(4))),
    },
    "states.restrict": {
        **state_slots(lambda s: states.restrict(s, SPLIT, RealProjectionPair(FRAME, FRAME))),
        "ua": lambda p: states.restrict(S, SPLIT, RealProjectionPair(p.put(FRAME), FRAME)),
    },
    "states.maximally_entangled_projection": {
        "V": lambda p: states.maximally_entangled_projection(p.put(np.eye(4)), SPLIT),
    },
    "states.target_orientation": {
        "E": lambda p: states.target_orientation(p.put(E2, "imag")),
    },
    "states.random_covariance": {
        "n_modes": lambda p: states.random_covariance(p.arg(2), 0),
        "seed": lambda p: states.random_covariance(2, p.arg(0)),
    },
    "states.load_covariance": {"entry": saved},
    "states.save_covariance": state_slots(save),
    "protocol.optimal_choice": {
        **state_slots(lambda s: protocol.optimal_choice(s, SPLIT, 2)),
        "m": lambda p: protocol.optimal_choice(S, SPLIT, p.arg(2)),
    },
    "protocol.optimal_pf_bound": {"lambdas": lambda p: protocol.optimal_pf_bound(
        p.put(np.array([0.9, 0.5])))},
    "protocol.hashing_rate": {
        "p": lambda p: protocol.hashing_rate(p.arg(0.5), 0.9),
        "f": lambda p: protocol.hashing_rate(0.5, p.arg(0.9)),
    },
    "protocol.run_protocol": {
        **state_slots(lambda s: protocol.run_protocol(s, SPLIT, 2)),
        "m": lambda p: protocol.run_protocol(S, SPLIT, p.arg(2)),
    },
    "protocol.scan_m": {
        **state_slots(lambda s: protocol.scan_m(s, SPLIT, 2)),
        "m_max": lambda p: protocol.scan_m(S, SPLIT, p.arg(2)),
    },
    "protocol.sample_suboptimal": {
        **state_slots(lambda s: protocol.sample_suboptimal(s, SPLIT, 2, 4, 0)),
        "m": lambda p: protocol.sample_suboptimal(S, SPLIT, p.arg(2), 4, 0),
        "trials": lambda p: protocol.sample_suboptimal(S, SPLIT, 2, p.arg(4), 0),
        "seed": lambda p: protocol.sample_suboptimal(S, SPLIT, 2, 4, p.arg(0)),
    },
    "closed_forms.TwoModeParams": params_slots(TwoModeParams, TWO, lambda params: params),
    "closed_forms.FourModeParams": params_slots(FourModeParams, FOUR, lambda params: params),
    "closed_forms.two_mode_covariance": params_slots(
        TwoModeParams, TWO, closed_forms.two_mode_covariance),
    "closed_forms.two_mode_correlation": params_slots(
        TwoModeParams, TWO, closed_forms.two_mode_correlation),
    "closed_forms.two_mode_max_fidelity": params_slots(
        TwoModeParams, TWO, closed_forms.two_mode_max_fidelity),
    **{f"closed_forms.{name}": params_slots(FourModeParams, FOUR, getattr(closed_forms, name))
       for name in ("four_mode_covariance", "four_mode_p", "four_mode_f", "four_mode_g",
                    "max_singlet_fraction")},
    "closed_forms.f_vs_g_scan": {
        "x": lambda p: closed_forms.f_vs_g_scan(p.put(np.array([0.1, 0.2])), [0.1], 0.2),
        "y": lambda p: closed_forms.f_vs_g_scan([0.1], p.put(np.array([0.1, 0.2])), 0.2),
        "sigma": lambda p: closed_forms.f_vs_g_scan([0.1], [0.1], p.arg(0.2)),
    },
    "fock.density_from_covariance": {
        "G": lambda p: fock.density_from_covariance(p.put(S2, "imag")),
        "Re S": lambda p: fock.density_from_covariance(p.put(S2)),
    },
    "fock.fock_vector": {
        "G": lambda p: fock.fock_vector(p.put(E2, "imag")),
        "Re S": lambda p: fock.fock_vector(p.put(E2)),
    },
    "fock.joint_parity": {
        "Re rho": lambda p: fock.joint_parity(p.put(RHO), SPLIT2),
        "Im rho": lambda p: fock.joint_parity(p.put(RHO, "imag"), SPLIT2),
    },
    "fock.verify_all": {
        "S": lambda p: fock.verify_all(p.put(S2, "imag"), E2, SPLIT2),
        "E": lambda p: fock.verify_all(S2, p.put(E2, "imag"), SPLIT2),
    },
    "lattice.ToeplitzKernel": {
        "L": lambda p: ToeplitzKernel(p.arg(8), -9),
        "r": lambda p: ToeplitzKernel(8, p.arg(-9)),
    },
    "lattice.LatticeGeometry": {
        "L": lambda p: LatticeGeometry(p.arg(8), 1),
        "N": lambda p: LatticeGeometry(8, p.arg(1)),
    },
    "lattice.top_singular_triplets": {
        "k": lambda p: lattice.top_singular_triplets(ToeplitzKernel(8, -9), p.arg(2)),
    },
    "lattice.restricted_covariance": {
        "m": lambda p: lattice.restricted_covariance(geometry(), p.arg(2)),
    },
    "lattice.lattice_point": {
        "m": lambda p: lattice.lattice_point(geometry(), p.arg(2)),
        "seed": lambda p: lattice.lattice_point(geometry(), 2, seed=p.v),  # accepted and ignored
    },
    "lattice.sweep": {
        "L": lambda p: lattice.sweep([p.arg(8)], [1]),
        "N": lambda p: lattice.sweep([8], [p.arg(1)]),
        "m": lambda p: lattice.sweep([8], [1], m=p.arg(2)),
        "jobs": lambda p: lattice.sweep([8], [1], jobs=p.arg(1)),
    },
    "lattice.fit_power_law": {
        "L": lambda p: lattice.fit_power_law([(p.arg(500), 0.8)] + SAMPLES, 0),
        "value": lambda p: lattice.fit_power_law([(500, p.arg(0.8))] + SAMPLES, 0),
        "L_min": lambda p: lattice.fit_power_law(SAMPLES, p.arg(0)),
    },
    "lattice.min_length": {
        name: (lambda p, i=i: lattice.min_length(
            *(p.arg(x) if j == i else x for j, x in enumerate((1, 0.3, 2, 3, 2)))))
        for i, name in enumerate(("N", "x", "L_lo", "L_hi", "m"))
    },
    "linalg.pfaffian": {"A": lambda p: linalg.pfaffian(p.put(PF_INPUT))},
    "linalg.svd": {"A": lambda p: linalg.svd(p.put(BLK.y))},
}

RESULT = "a result record the package fills from inputs that passed the gate"
EXEMPT = {
    **{f"{m}.{name}": "an exception type" for m, name in (
        ("states", "ValidationError"), ("states", "ConvergenceError"),
        ("protocol", "InsufficientRankError"), ("lattice", "ConvergenceError"))},
    **{f"{m}.{name}": RESULT for m, name in (
        ("states", "ValidationReport"), ("states", "ProtocolQuantities"),
        ("protocol", "ProtocolChoice"), ("protocol", "DistillationReport"),
        ("protocol", "SuboptimalSample"), ("fock", "OracleReport"),
        ("lattice", "SingularTriplet"), ("protocol", "Note"), ("lattice", "PowerLawFit"))},
    "closed_forms.two_mode_split": "takes no argument",
    "closed_forms.four_mode_split": "takes no argument",
    "lattice.sweep_to_csv": "formats the rows `sweep` returns",
}


def assert_finite(out, where="result"):
    """Every number reachable from out (arrays, records, containers) is finite.

    A note is a message, like the str it replaces: the note on a skipped
    fit point names the non-finite value it skipped, by design.
    """
    if isinstance(out, (bool, int, str, Path, protocol.Note)) or out is None:
        return
    if isinstance(out, (float, complex, np.number, np.ndarray)):
        assert np.isfinite(np.asarray(out)).all(), f"{where} is not finite: {out!r}"
    elif isinstance(out, dict):
        for key, value in out.items():
            assert_finite(value, f"{where}[{key!r}]")
    elif isinstance(out, (list, tuple)):
        for i, value in enumerate(out):
            assert_finite(value, f"{where}[{i}]")
    else:
        assert type(out).__module__.startswith("fermidistill"), f"{where}: {type(out)}"
        for key, value in vars(out).items():
            assert_finite(value, f"{where}.{key}")


def call(slot, plant):
    """slot(plant) with every warning recorded: its result, or the ValidationError it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = slot(plant)
        except ValidationError as exc:
            out = exc
    assert not caught, [str(w.message) for w in caught]
    return out


def test_table_covers_every_public_name():
    public = {f"{m}.{name}" for m, module in MODULES.items() for name in module.__all__}
    public |= {"linalg.pfaffian", "linalg.svd"}
    assert not set(TABLE) & set(EXEMPT)
    assert set(TABLE) | set(EXEMPT) == public
    assert all(TABLE.values())


@pytest.mark.parametrize("name", sorted(TABLE))
def test_defaults_are_valid(name):
    # unplanted, every slot's call succeeds with finite numbers
    for slot in TABLE[name].values():
        out = call(slot, Plant())
        assert not isinstance(out, ValidationError), out
        assert_finite(out)


def refused_or_finite(slot, plant):
    out = call(slot, plant)
    if not isinstance(out, ValidationError):
        assert_finite(out)


@pytest.mark.parametrize("name", sorted(TABLE))
def test_every_slot_refuses_or_survives_each_value(name):
    for slot in TABLE[name].values():
        for v in PLANTED:
            refused_or_finite(slot, Plant(v))


# Every integer argument of the table, as (name, slot): a bool is refused
# there, though Python reads it as 0 or 1.  lattice_point's seed is accepted
# and ignored, so it is not among them.
INTEGER_SLOTS = [
    ("states.BipartiteSplit", "a"), ("states.BipartiteSplit", "dim"),
    ("states.parity_probability", "orientation"),
    ("states.random_covariance", "n_modes"), ("states.random_covariance", "seed"),
    ("protocol.optimal_choice", "m"), ("protocol.run_protocol", "m"),
    ("protocol.scan_m", "m_max"),
    *[("protocol.sample_suboptimal", slot) for slot in ("m", "trials", "seed")],
    ("lattice.ToeplitzKernel", "L"), ("lattice.ToeplitzKernel", "r"),
    ("lattice.LatticeGeometry", "L"), ("lattice.LatticeGeometry", "N"),
    ("lattice.top_singular_triplets", "k"), ("lattice.restricted_covariance", "m"),
    ("lattice.lattice_point", "m"),
    *[("lattice.sweep", slot) for slot in ("L", "N", "m", "jobs")],
    *[("lattice.min_length", slot) for slot in ("N", "L_lo", "L_hi", "m")],
]


@pytest.mark.parametrize("name, slot", INTEGER_SLOTS)
def test_boolean_refused_as_integer(name, slot):
    for v in (True, False, np.True_, np.False_):
        out = call(TABLE[name][slot], Plant(v))
        assert isinstance(out, ValidationError), (v, out)


@pytest.mark.parametrize("name", sorted(name for name, slots in TABLE.items() if "seed" in slots))
def test_negative_seed_refused_by_name(name):
    # numpy refuses -1 with a plain ValueError; a seed that is used is refused
    # as it becomes a generator, and lattice_point's is accepted and ignored
    out = call(TABLE[name]["seed"], Plant(-1))
    if name == "lattice.lattice_point":
        assert_finite(out)
    else:
        assert isinstance(out, ValidationError) and "seed" in str(out), out


@pytest.mark.parametrize("name", sorted(TABLE))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_planted_entry_is_refused_or_harmless(name, data):
    slot = data.draw(st.sampled_from(sorted(TABLE[name])), label="slot")
    v = data.draw(st.sampled_from(PLANTED), label="value")
    at = data.draw(st.tuples(st.integers(0, 7), st.integers(0, 7)), label="entry")
    refused_or_finite(TABLE[name][slot], Plant(v, at))
