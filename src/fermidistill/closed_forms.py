"""Exact two- and four-mode formulas used as independent cross-checks.

Both families are written in a real basis adapted to the split in which
the off-diagonal block of the covariance is diagonal; the basis vectors
are ordered per party, one (position-like, momentum-like) pair per
mode.  The four-mode family additionally assumes the off-diagonal block
is a multiple of the identity and that the two diagonal blocks commute,
which brings them to a normal form with one antisymmetric 2x2 block per
mode (parameters nu_1..nu_4) and coupling sigma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_real
from .states import (
    BipartiteSplit,
    BlockDecomposition,
    CovarianceMatrix,
    ValidationError,
    assemble_covariance,
    fock_fidelity,
    maximally_entangled_projection,
    validate,
)

__all__ = [
    "TwoModeParams",
    "FourModeParams",
    "two_mode_covariance",
    "two_mode_split",
    "two_mode_correlation",
    "two_mode_max_fidelity",
    "four_mode_covariance",
    "four_mode_split",
    "four_mode_p",
    "four_mode_f",
    "four_mode_g",
    "max_singlet_fraction",
    "f_vs_g_scan",
]


@dataclass(frozen=True)
class _Params:
    def __post_init__(self):  # each parameter becomes a Python float read by `as_real`
        for name in self.__dataclass_fields__:
            object.__setattr__(self, name, float(as_real(getattr(self, name), name)))


@dataclass(frozen=True)
class TwoModeParams(_Params):
    """One mode per party; X = [[0,a],[-a,0]], Z likewise with b, Y = diag(c, d)."""

    a: float
    b: float
    c: float
    d: float

    def check(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        q = a * a + b * b + c * c + d * d
        if not q <= 2.0 + 1e-12:
            raise ValidationError(f"parameter norm {q:.6g} is not at most 2")
        if not q <= 1.0 + (a * b - c * d) ** 2 + 1e-12:
            raise ValidationError("parameters violate 1 + (ab - cd)^2 >= a^2+b^2+c^2+d^2")


@dataclass(frozen=True)
class FourModeParams(_Params):
    """Two modes per party in normal form: nu per mode, uniform coupling sigma."""

    nu1: float
    nu2: float
    nu3: float
    nu4: float
    sigma: float

    @property
    def nus(self) -> tuple[float, float, float, float]:
        return (self.nu1, self.nu2, self.nu3, self.nu4)

    def check(self):
        """The state is the direct sum of the two-mode states (nu1, nu3) and (nu2, nu4)."""
        TwoModeParams(self.nu1, self.nu3, self.sigma, self.sigma).check()
        TwoModeParams(self.nu2, self.nu4, self.sigma, self.sigma).check()


def _normal_form(*nus: float) -> np.ndarray:
    """The block diagonal sum of nu_k [[0, 1], [-1, 0]], one block per mode."""
    return np.kron(np.diag(nus), [[0.0, 1.0], [-1.0, 0.0]])


def two_mode_split() -> BipartiteSplit:
    return BipartiteSplit((0, 1), (2, 3))


def two_mode_covariance(params: TwoModeParams) -> CovarianceMatrix:
    """The 4x4 covariance with the stated blocks; raises if invalid."""
    params.check()
    a, b, c, d = params.a, params.b, params.c, params.d
    out, _ = assemble_covariance(
        BlockDecomposition(_normal_form(a), np.diag([c, d]), _normal_form(b))
    )
    validate(out).require("two-mode parameters give an invalid state")
    return out


def two_mode_correlation(params: TwoModeParams) -> np.ndarray:
    """Pauli correlation table r_ij = <sigma^i (x) sigma^j>, i,j = 0..3.

    Follows from Wick's theorem after the standard Jordan-Wigner
    identification of the four Majorana operators with local Paulis.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    r = np.zeros((4, 4))
    r[0, 0] = 1.0
    r[0, 3] = b
    r[1, 2] = d
    r[2, 1] = -c
    r[3, 0] = a
    r[3, 3] = a * b - c * d
    return r


def two_mode_max_fidelity(params: TwoModeParams) -> tuple[float, np.ndarray]:
    """Supremum of the fidelity over maximally entangled quasifree states.

    value = max(1 - ab + cd + |c+d|, 1 + ab - cd + |c-d|) / 4.  The
    optimizer is sign(c+d) * I on the rotation branch and
    sign(c-d) * diag(1, -1) on the reflection branch; ties go to the
    first branch.  The attained value is re-verified through the
    Pfaffian fidelity before returning.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    v1 = (1 - a * b + c * d + abs(c + d)) / 4.0
    v2 = (1 + a * b - c * d + abs(c - d)) / 4.0
    if v1 >= v2:
        sign = 1.0 if c + d >= 0 else -1.0
        optimizer = sign * np.eye(2)
        value = v1
    else:
        sign = 1.0 if c - d >= 0 else -1.0
        optimizer = sign * np.diag([1.0, -1.0])
        value = v2
    s = two_mode_covariance(params)
    e = maximally_entangled_projection(optimizer, two_mode_split())
    achieved = fock_fidelity(s, e)
    if abs(achieved - value) > 1e-9:
        raise ValidationError(
            f"optimizer does not attain the closed-form value: {achieved:.12f} vs {value:.12f}"
        )
    return float(value), optimizer


def four_mode_split() -> BipartiteSplit:
    return BipartiteSplit((0, 1, 2, 3), (4, 5, 6, 7))


def four_mode_covariance(params: FourModeParams) -> CovarianceMatrix:
    """The 8x8 covariance in normal form; raises if invalid.

    Mode 1 couples to mode 3 and mode 2 to mode 4, so Y = sigma * I_4.
    `check` then keeps every state built here in the domain of `four_mode_p`.
    """
    n1, n2, n3, n4 = params.nus
    out, _ = assemble_covariance(
        BlockDecomposition(_normal_form(n1, n2), params.sigma * np.eye(4), _normal_form(n3, n4))
    )
    validate(out).require("four-mode parameters give an invalid state")
    params.check()
    return out


def four_mode_p(params: FourModeParams) -> float:
    """Success probability (1 + (sigma^2 - nu1 nu3)(sigma^2 - nu2 nu4)) / 2; raises if invalid."""
    params.check()
    n1, n2, n3, n4 = params.nus
    s2 = params.sigma ** 2
    return float((1.0 + (s2 - n1 * n3) * (s2 - n2 * n4)) / 2.0)


def four_mode_f(params: FourModeParams) -> float:
    """Output fidelity of the canonical protocol at m = 2, D = identity."""
    n1, n2, n3, n4 = params.nus
    s2 = params.sigma ** 2
    p = four_mode_p(params)
    if p <= 0:
        raise ValidationError("fidelity undefined at p = 0")
    return float(((n1 * n3 - s2 - 1.0) * (n2 * n4 - s2 - 1.0) + 4.0 * s2) / (8.0 * p))


def four_mode_g(params: FourModeParams) -> float:
    """Competing singlet-fraction branch reached by a non-quasifree target."""
    n1, n2, n3, n4 = params.nus
    s2 = params.sigma ** 2
    p = four_mode_p(params)
    if p <= 0:
        raise ValidationError("g undefined at p = 0")
    return float((n1 * n3 - s2 + 1.0) * (n2 * n4 - s2 + 1.0) / (8.0 * p))


def max_singlet_fraction(params: FourModeParams) -> float:
    """Maximal singlet fraction of the post-measurement pair: max(f, g)."""
    return float(max(four_mode_f(params), four_mode_g(params)))


def f_vs_g_scan(
    x_values, y_values, sigma: float
) -> list[dict]:
    """Grid comparison of f and g over x = nu1 = nu2, y = nu3 = nu4.

    Returns one record per grid point with keys x, y, sigma, f, g,
    f_ge_g and valid; invalid parameter combinations are kept in the
    output but marked and carry no values; `FourModeParams` refuses a
    non-finite or huge x, y or sigma.
    """
    rows = []
    for x in x_values:
        for y in y_values:
            params = FourModeParams(x, x, y, y, sigma)
            row = {"x": float(x), "y": float(y), "sigma": float(sigma)}
            try:
                four_mode_covariance(params)
                f = four_mode_f(params)
                g = four_mode_g(params)
                row.update({"f": float(f), "g": float(g), "f_ge_g": bool(f >= g), "valid": True})
            except ValidationError:
                row.update({"f": None, "g": None, "f_ge_g": None, "valid": False})
            rows.append(row)
    return rows
