"""The twisted bracket [X, Y]_J = X o JY - Y o JX on functions.

Vector fields act on functions as X(u) = sum_k X^k du/dx^k; J acts on a
field through the tangent representation.  The twisted bracket is not a
vector field (it fails the Leibniz rule by explicit first-order terms), but
restricted to the eigenspace splitting CTM = T^(1,0) + T^(0,1) it reduces
to commutators and anticommutators:

    [X, Y]_J =  i [X, Y]   for JX = iX, JY = iY
    [X, Y]_J = -i [X, Y]   for JX = -iX, JY = -iY
    [X, Y]_J = -i {X, Y}   for JX = iX, JY = -iY
    [X, Y]_J = +i {X, Y}   for JX = -iX, JY = iY

The mixed-case signs above are what the operator definition expands to;
``bracket_law_check`` also evaluates the opposite pairing and reports which
sign the expansion actually matches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ComplexField, Patch, matvec, resolve_mode
from .report import interior_sup
from .structures import AlmostComplexStructure

__all__ = [
    "VectorFieldC",
    "EigenfieldError",
    "apply_vf",
    "j_action",
    "bracket",
    "bracket_j",
    "potential_vf_residual",
    "splitting_projections",
    "eigen_residual",
    "bracket_law_check",
    "leibniz_defect_check",
    "LawReport",
    "LeibnizReport",
]


class EigenfieldError(ValueError):
    """Vector field is not in the declared eigenspace."""


@dataclass(frozen=True, eq=False)
class VectorFieldC:
    """Complexified vector field: one complex component per coordinate."""

    patch: Patch
    components: tuple[ComplexField, ...]

    def __post_init__(self):
        if len(self.components) != self.patch.dim:
            raise ValueError(
                f"expected {self.patch.dim} components, got {len(self.components)}")
        for c in self.components:
            if c.patch != self.patch:
                raise ValueError("components must share the patch")

    @classmethod
    def from_exprs(cls, patch: Patch, pairs) -> "VectorFieldC":
        comps = []
        for re_text, im_text in pairs:
            comps.append(ComplexField.from_exprs(patch, re_text, im_text))
        return cls(patch, tuple(comps))

    @classmethod
    def coordinate(cls, patch: Patch, axis: int) -> "VectorFieldC":
        """The coordinate field d/dx^axis (1-based)."""
        comps = tuple(ComplexField.of(patch, 1.0 if k == axis else 0.0)
                      for k in range(1, patch.dim + 1))
        return cls(patch, comps)

    def is_exact(self) -> bool:
        return all(c.is_exact for c in self.components)

    def __add__(self, other: "VectorFieldC") -> "VectorFieldC":
        return VectorFieldC(self.patch, tuple(a + b for a, b in
                                              zip(self.components, other.components)))

    def __sub__(self, other: "VectorFieldC") -> "VectorFieldC":
        return VectorFieldC(self.patch, tuple(a - b for a, b in
                                              zip(self.components, other.components)))

    def scaled(self, factor: complex) -> "VectorFieldC":
        return VectorFieldC(self.patch,
                            tuple(c * factor for c in self.components))


def apply_vf(x: VectorFieldC, u, mode: str = "auto") -> ComplexField:
    """Directional action X(u) = sum_k X^k du/dx^k."""
    u = ComplexField.of(x.patch, u)
    if u.patch != x.patch:
        raise ValueError("field and function live on different patches")
    acc = None
    for k, comp in enumerate(x.components, start=1):
        term = comp * u.diff(k, mode)
        acc = term if acc is None else acc + term
    return acc


def j_action(acs: AlmostComplexStructure, x: VectorFieldC) -> VectorFieldC:
    """Componentwise tangent action (JX)^k = sum_j T[k, j] X^j."""
    if x.patch != acs.patch:
        raise ValueError("vector field and structure live on different patches")
    return VectorFieldC(x.patch, matvec(acs.j_tan, x.components))


def bracket(x: VectorFieldC, y: VectorFieldC, u, mode: str = "auto") -> ComplexField:
    """Commutator action [X, Y](u) = X(Y(u)) - Y(X(u))."""
    return apply_vf(x, apply_vf(y, u, mode), mode) \
        - apply_vf(y, apply_vf(x, u, mode), mode)


def bracket_j(acs: AlmostComplexStructure, x: VectorFieldC, y: VectorFieldC,
              u, mode: str = "auto") -> ComplexField:
    """Twisted bracket action X((JY)(u)) - Y((JX)(u))."""
    jy = j_action(acs, y)
    jx = j_action(acs, x)
    return apply_vf(x, apply_vf(jy, u, mode), mode) \
        - apply_vf(y, apply_vf(jx, u, mode), mode)


def commutator_field(x: VectorFieldC, y: VectorFieldC, mode: str = "auto",
                     ) -> VectorFieldC:
    """The vector field [X, Y] with components X(Y^k) - Y(X^k)."""
    comps = []
    for k in range(x.patch.dim):
        comps.append(apply_vf(x, y.components[k], mode)
                     - apply_vf(y, x.components[k], mode))
    return VectorFieldC(x.patch, tuple(comps))


def potential_vf_residual(acs: AlmostComplexStructure, x: VectorFieldC,
                          y: VectorFieldC, u, mode: str = "auto") -> ComplexField:
    """[X, Y]_J(u) - (J[X, Y])(u).

    Equals d(j_cot du)(X, Y) pointwise; on coordinate fields it reproduces
    the exterior-derivative components R_sq, and it vanishes for every u
    whose potential form is closed.
    """
    lhs = bracket_j(acs, x, y, u, mode)
    rhs = apply_vf(j_action(acs, commutator_field(x, y, mode)), u, mode)
    return lhs - rhs


def splitting_projections(acs: AlmostComplexStructure, x: VectorFieldC,
                          ) -> tuple[VectorFieldC, VectorFieldC]:
    """Eigenspace parts X = X10 + X01 with J X10 = i X10, J X01 = -i X01."""
    jx = j_action(acs, x)
    x10 = (x - jx.scaled(1j)).scaled(0.5)
    x01 = (x + jx.scaled(1j)).scaled(0.5)
    return x10, x01


def eigen_residual(acs: AlmostComplexStructure, x: VectorFieldC, sign: int,
                   ) -> float:
    """Sup norm of (JX) - sign*i*X over the grid (eigenfield check)."""
    jx = j_action(acs, x)
    worst = 0.0
    for a, b in zip(jx.components, x.components):
        gap = a - b * (sign * 1j)
        vals = np.abs(gap.values)
        worst = max(worst, float(vals.max()))
    return worst


_CASES = {
    "holo_holo": (1, 1),
    "antiholo_antiholo": (-1, -1),
    "holo_antiholo": (1, -1),
    "antiholo_holo": (-1, 1),
}


@dataclass
class LawReport:
    """Residuals of a bracket law on declared eigenfields.

    For the mixed cases both anticommutator signs are evaluated;
    ``law_residual`` is the sign consistent with the operator expansion and
    ``displayed_matches`` records whether that agrees with the conventional
    ``+i`` / ``-i`` pairing for (1,0)x(0,1) / (0,1)x(1,0).
    """

    case: str
    law_residual: float
    alternative_residual: float | None
    displayed_matches: bool
    eigen_residuals: tuple[float, float]
    mode: str


def bracket_law_check(acs: AlmostComplexStructure, x: VectorFieldC,
                      y: VectorFieldC, u, case: str, mode: str = "auto",
                      tolerance: float = 1e-8) -> LawReport:
    """Compare [X, Y]_J(u) against the eigenspace law for the given case.

    ``case`` declares the eigenspaces of X and Y ("holo_holo",
    "antiholo_antiholo", "holo_antiholo", "antiholo_holo"); the declaration
    is verified first and a violation raises ``EigenfieldError``.
    """
    if case not in _CASES:
        raise ValueError(f"unknown case {case!r}; pick one of {sorted(_CASES)}")
    sx, sy = _CASES[case]
    ex = eigen_residual(acs, x, sx)
    ey = eigen_residual(acs, y, sy)
    if ex > tolerance or ey > tolerance:
        raise EigenfieldError(
            f"fields are not in the declared eigenspaces for {case!r} "
            f"(residuals {ex:.2e}, {ey:.2e})")
    mode = resolve_mode(mode, acs.is_exact and x.is_exact() and y.is_exact())
    lhs = bracket_j(acs, x, y, u, mode)
    if sx == sy:
        law = bracket(x, y, u, mode) * (sx * 1j)
        return LawReport(case, interior_sup((lhs - law).values, acs.patch), None,
                         True, (ex, ey), mode)
    anti = apply_vf(x, apply_vf(y, u, mode), mode) \
        + apply_vf(y, apply_vf(x, u, mode), mode)
    # operator expansion: [X,Y]_J = sy*i*X(Y(u)) - sx*i*Y(X(u)) = -sx*i*{X,Y}
    expansion_sign = -sx
    displayed_sign = +1 if case == "holo_antiholo" else -1
    res_expansion = interior_sup((lhs - anti * (expansion_sign * 1j)).values,
                                 acs.patch)
    res_displayed = interior_sup((lhs - anti * (displayed_sign * 1j)).values,
                                 acs.patch)
    return LawReport(
        case=case,
        law_residual=res_expansion,
        alternative_residual=res_displayed,
        displayed_matches=bool(expansion_sign == displayed_sign
                               or res_displayed <= tolerance),
        eigen_residuals=(ex, ey),
        mode=mode,
    )


@dataclass
class LeibnizReport:
    defect_residual: float
    mode: str


def leibniz_defect_check(acs: AlmostComplexStructure, x: VectorFieldC,
                         y: VectorFieldC, f, h, mode: str = "auto",
                         ) -> LeibnizReport:
    """Verify the product expansion of the twisted bracket::

        [X,Y]_J(fh) = [X,Y]_J(f) h + f [X,Y]_J(h)
                      + X(f)(JY)(h) - (JX)(f) Y(h)
                      + X(h)(JY)(f) - (JX)(h) Y(f)

    The first-order correction terms are exactly the failure of
    [X, Y]_J to be a derivation.
    """
    f = ComplexField.of(acs.patch, f)
    h = ComplexField.of(acs.patch, h)
    mode = resolve_mode(mode, acs.is_exact and f.is_exact and h.is_exact
                        and x.is_exact() and y.is_exact())
    jx = j_action(acs, x)
    jy = j_action(acs, y)
    lhs = bracket_j(acs, x, y, f * h, mode)
    rhs = (bracket_j(acs, x, y, f, mode) * h
           + f * bracket_j(acs, x, y, h, mode)
           + apply_vf(x, f, mode) * apply_vf(jy, h, mode)
           - apply_vf(jx, f, mode) * apply_vf(y, h, mode)
           + apply_vf(x, h, mode) * apply_vf(jy, f, mode)
           - apply_vf(jx, h, mode) * apply_vf(y, f, mode))
    return LeibnizReport(interior_sup((lhs - rhs).values, acs.patch), mode)
