"""Decision procedures for scalar-flat Hermitian existence.

Implements the ruled-surface criterion (genus g and the intrinsic twist
invariant m decide everything), the split-bundle corollaries, the
total-scalar-image trichotomy, the Hirzebruch anti-canonical section count,
and the minimal-surface gate.  All inequalities are implemented exactly as
strict or non-strict as the theorems state them:

    m <= g                       (realizability of the descriptor)
    stable  <=>  m > 0           (rank two)
    scalar-flat Hermitian  <=>  g >= 2  and  m > 2 - 2g.

The invariant m is an input or is derived from split data as -|deg L|; no
attempt is made to compute it for indecomposable bundles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DescriptorError, NagataViolation
from .geom_core import ClassificationReport
from .positivity import CERTIFICATE_STRATEGY, anti_kx_rc_flag, in_certified_range, split_margin

# fired-case identifiers, one per proof branch of the ruled-surface theorem
CASE_HIRZEBRUCH = "Hirzebruch"
CASE_ELLIPTIC = "elliptic base"
CASE_1 = "case (1)"   # m <= 2 - 2g: tautological bundle effective, no metric
CASE_2 = "case (2)"   # 2 - 2g < m <= 0: dual bundle nef of degree < 2g - 2
CASE_3 = "case (3)"   # 0 < m < 2g - 2: bundle nef of degree < 2g - 2
CASE_4 = "case (4)"   # m >= 2g - 2: forces g = 2, m = 2, stable ample bundle


def m_split_rank2(deg_l: int) -> int:
    """Twist invariant of the split model P(L + trivial): m = -|deg L|."""
    return -abs(int(deg_l))


def validate_m(m: int, g: int) -> None:
    """Reject descriptors with m > g, which no rank-two bundle realizes."""
    if g < 0:
        raise DescriptorError(f"genus must be nonnegative, got {g}")
    if m > g:
        raise NagataViolation(f"m = {m} exceeds the genus bound m <= g = {g}")


def is_stable_rank2(m: int) -> bool:
    """Rank-two stability in terms of the twist invariant: stable iff m > 0."""
    return m > 0


def total_scalar_image(kx_rc: bool, anti_kx_rc: bool, ricci_flat: bool) -> str:
    """Image of the total scalar curvature over all Gauduchon metrics.

    Four cases: the whole real line when the canonical and anti-canonical
    bundles are both RC-positive, a half line when exactly one is, and {0}
    when neither is (equivalently, when the manifold is Chern Ricci-flat).
    """
    if ricci_flat and (kx_rc or anti_kx_rc):
        raise DescriptorError(
            "inconsistent flags: a Ricci-flat manifold has neither the canonical "
            "nor the anti-canonical bundle RC-positive")
    if kx_rc and anti_kx_rc:
        return "AllReals"
    if anti_kx_rc:
        return "PositiveReals"
    if kx_rc:
        return "NegativeReals"
    return "ZeroOnly"


def classify_ruled(g: int, m: int) -> ClassificationReport:
    """Scalar-flat Hermitian verdict for a ruled surface with invariants (g, m).

    Verdict is "yes" exactly when g >= 2 and m > 2 - 2g.  Exactly one proof
    case fires per input; it is recorded in the report together with the
    obstruction or construction of that case.
    """
    validate_m(m, g)
    if g == 0:
        # every such surface is a Hirzebruch model with twist k = -m >= 0
        fired, attach = CASE_HIRZEBRUCH, {
            "obstruction": "anti-canonical bundle is effective, so the canonical "
                           "bundle is not RC-positive",
            "anticanonical_sections": hirzebruch_anticanonical_h0(-m),
        }
    elif g == 1:
        fired, attach = CASE_ELLIPTIC, {
            "obstruction": "over an elliptic base the anti-canonical bundle is "
                           "pseudo-effective in all three bundle types "
                           "(indecomposable of degree zero or not, decomposable), "
                           "so the canonical bundle is not RC-positive",
        }
    elif m <= 2 - 2 * g:
        fired, attach = CASE_1, {
            "obstruction": "tautological bundle effective and anti-canonical "
                           "bundle pseudo-effective, so the canonical bundle is "
                           "not RC-positive",
        }
    elif m <= 0:
        fired, attach = CASE_2, {
            "construction": "dual bundle is nef of degree -m in [0, 2g-2); both "
                            "canonical and anti-canonical bundles are RC-positive",
        }
    elif m < 2 * g - 2:
        fired, attach = CASE_3, {
            "construction": "bundle is nef of degree m in (0, 2g-2); both "
                            "canonical and anti-canonical bundles are RC-positive",
        }
    else:
        fired, attach = CASE_4, {
            "construction": "stable ample bundle; the canonical twist is unitary "
                            "flat and the tautological contribution is negative, "
                            "so both canonical and anti-canonical bundles are "
                            "RC-positive",
        }
    # cases (2)-(4) construct RC-positive metrics on the canonical bundle; the
    # other branches are obstructions to exactly that
    kx_rc = fired in (CASE_2, CASE_3, CASE_4)
    image = total_scalar_image(kx_rc, anti_kx_rc_flag(g)[0], ricci_flat=False)
    return ClassificationReport("yes" if kx_rc else "no", "unknown" if kx_rc else "no",
                                image, fired, attach)


def classify_split(g: int, deg_l: int, n: int) -> ClassificationReport:
    """Verdicts for the split projective-bundle model P((L + trivial^(n-1))^*).

    Hermitian "yes" exactly in_certified_range, with the closed-form
    split_margin attached.  Scalar-flat Kahler metrics exist exactly in the
    polystable case deg L = 0 (with g >= 2); for 0 < |deg L| < (2g-2)/(n-1)
    the model has scalar-flat Hermitian but no scalar-flat Kahler metrics.

    For n = 2 the fired case (and every verdict outside the range) comes from
    the ruled-surface criterion with m = -|deg L|.  For n > 2 the verdict is
    "no" outside the range with the total-scalar image left unknown.
    """
    if n < 2:
        raise DescriptorError(f"fiber rank n must be at least 2, got {n}")
    m = m_split_rank2(deg_l)
    validate_m(m, g)
    d = -m
    ruled = classify_ruled(g, m) if n == 2 else None
    if not in_certified_range(g, d, n):
        if ruled is not None:
            return ruled
        return ClassificationReport(
            "no", "no", "unknown", "higher-rank split (outside certified range)",
            {"obstruction": f"|deg L| = {d} is not strictly below "
                            f"(2g-2)/(n-1) = {(2 * g - 2) / (n - 1):g}"})
    attach = {"margin": split_margin(g, d, n), "strategy": CERTIFICATE_STRATEGY}
    if d == 0:
        attach["polystable"] = True
    fired = ruled.fired_case if ruled is not None else "higher-rank split"
    return ClassificationReport("yes", "no" if d else "yes", "AllReals", fired, attach)


def hirzebruch_anticanonical_h0(k: int) -> int:
    """Anti-canonical section count of the Hirzebruch surface with twist k >= 0.

    Projecting to the rational base turns the sections into sections of a sum
    of three line bundles of degrees k+2, 2 and 2-k, each contributing
    max(0, degree + 1); the total (k+3) + 3 + max(0, 3-k) is always positive,
    which is the effectivity obstruction used by the classifier.
    """
    if k < 0:
        raise DescriptorError(f"Hirzebruch twist must be nonnegative, got {k}")
    return (k + 3) + 3 + max(0, 3 - k)


# ---------------------------------------------------------------------------
# descriptors

_TORSION_CANONICAL = ("{} surfaces have torsion canonical bundle (a power of the "
                      "canonical bundle is trivial), hence Chern Ricci-flat metrics")
_EFFECTIVE_ANTICANONICAL = ("{} surfaces have effective anti-canonical bundle, so "
                            "the canonical bundle is not RC-positive")

#: class -> (Kodaira dimension, gate verdict, gate reason with "{}" for the
#: class name); Ruled has no fixed verdict, its gate is the (g, m) criterion
SURFACE_CLASSES = {
    "Enriques": (0.0, "admits", _TORSION_CANONICAL),
    "BiElliptic": (0.0, "admits", _TORSION_CANONICAL),
    "K3": (0.0, "admits", _TORSION_CANONICAL),
    "Torus": (0.0, "admits", _TORSION_CANONICAL),
    "Kodaira": (0.0, "admits", _TORSION_CANONICAL),
    "RationalMinimal": (-math.inf, "rejected", _EFFECTIVE_ANTICANONICAL),
    "Hirzebruch": (-math.inf, "rejected", _EFFECTIVE_ANTICANONICAL),
    "Ruled": (-math.inf, None, None),
    "Inoue": (-math.inf, "rejected", "Inoue surfaces have semi-positive but not "
                                     "unitary-flat canonical bundle"),
    "Hopf": (-math.inf, "rejected",
             "Hopf surfaces have semi-positive anti-canonical bundle"),
    "VII0_b2_positive": (-math.inf, "possible_unknown",
                         "class VII_0 surfaces with positive second Betti number "
                         "are not completely classified; existence is open"),
}


@dataclass(frozen=True)
class MinimalSurfaceDescriptor:
    """Minimal surface described by Kodaira dimension and class.

    Classes with Kodaira dimension 1 or 2 are not enumerated (they are
    rejected wholesale); for those pass surface_class=None.
    """

    kodaira_dim: float
    surface_class: str | None = None
    genus: int | None = None
    m: int | None = None

    def __post_init__(self):
        if self.kodaira_dim not in (-math.inf, 0.0, 1.0, 2.0):
            raise DescriptorError(f"Kodaira dimension must be -inf, 0, 1 or 2, "
                                  f"got {self.kodaira_dim!r}")
        if self.kodaira_dim in (1.0, 2.0):
            if self.surface_class is not None:
                raise DescriptorError(
                    "no enumerated class has positive Kodaira dimension")
            return
        if self.surface_class is None:
            raise DescriptorError("a class is required when the Kodaira dimension "
                                  "is 0 or -inf")
        if self.surface_class not in SURFACE_CLASSES:
            raise DescriptorError(f"unknown surface class {self.surface_class!r}")
        kodaira_dim = SURFACE_CLASSES[self.surface_class][0]
        if kodaira_dim != self.kodaira_dim:
            raise DescriptorError(
                f"class {self.surface_class} has Kodaira dimension "
                f"{kodaira_dim}, not {self.kodaira_dim}")
        if self.surface_class == "Ruled":
            if self.genus is None or self.m is None:
                raise DescriptorError("Ruled descriptors need genus and m")
            validate_m(self.m, self.genus)

    @classmethod
    def of_class(cls, surface_class: str, genus: int | None = None,
                 m: int | None = None) -> "MinimalSurfaceDescriptor":
        if surface_class not in SURFACE_CLASSES:
            raise DescriptorError(f"unknown surface class {surface_class!r}")
        return cls(kodaira_dim=SURFACE_CLASSES[surface_class][0],
                   surface_class=surface_class, genus=genus, m=m)


@dataclass(frozen=True)
class GateResult:
    verdict: str          # "admits" | "rejected" | "possible_unknown"
    reason: str
    report: ClassificationReport | None = None

    def to_dict(self) -> dict:
        out = {"verdict": self.verdict, "reason": self.reason}
        if self.report is not None:
            out["report"] = self.report.to_dict()
        return out


def minimal_surface_gate(descriptor: MinimalSurfaceDescriptor) -> GateResult:
    """Scalar-flat Hermitian gate over the minimal-surface classes.

    Kodaira dimension 1 or 2 is rejected outright; every other class reads
    its verdict and reason from SURFACE_CLASSES.  The five Kodaira-zero
    classes admit (torsion canonical bundle).  Rational minimal and
    Hirzebruch surfaces are rejected (effective anti-canonical bundle), as
    are Inoue surfaces (canonical bundle semi-positive but not unitary flat)
    and Hopf surfaces (anti-canonical bundle semi-positive).  Ruled surfaces
    delegate to the (g, m) criterion, and class VII_0 with positive second
    Betti number is left open.
    """
    if descriptor.kodaira_dim in (1.0, 2.0):
        return GateResult("rejected",
                          "positive Kodaira dimension forbids a zero-total-scalar "
                          "Gauduchon metric")
    cls_name = descriptor.surface_class
    _kodaira_dim, verdict, reason = SURFACE_CLASSES[cls_name]
    if verdict is not None:
        return GateResult(verdict, reason.format(cls_name))
    # Ruled
    report = classify_ruled(descriptor.genus, descriptor.m)
    verdict = "admits" if report.scalar_flat_hermitian == "yes" else "rejected"
    return GateResult(verdict,
                      f"ruled surface criterion (g = {descriptor.genus}, "
                      f"m = {descriptor.m}) fired {report.fired_case}", report)
