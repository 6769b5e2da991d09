"""RC-positivity certificates.

A line bundle is RC-positive when some metric gives its curvature at least
one positive eigenvalue at every point.  The scan below certifies this for
block-diagonal (1,1)-forms on split projective-bundle models by reporting the
minimum over sample points of the largest eigenvalue against a fixed block
reference metric.  A failed scan never refutes RC-positivity (the property
quantifies over all metrics); negative verdicts are issued only by the
classifier's theorem table.

The canonical-bundle certificate of a split model uses the constant densities
kappa = pi deg L and gamma = pi (2g - 2), so it is a function of (g, deg L, n)
alone and holds no grid; kx_curvature_form samples its form on whatever curve
chart the caller scans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import canonical_curvature_split
from .errors import DescriptorError
from .geom_core import (CurveModel, OneOneForm, SplitBundle, _require_chart, _require_integer,
                        make_line_bundle)

#: eigenvalue margin above which a scan counts as positive
RC_TOLERANCE = 1e-9
#: how every certificate's densities are chosen (recorded in its dict)
CERTIFICATE_STRATEGY = "constant"
#: default fiber sampling: s1 in {0, 1/64, ..., 1} with exact endpoints
DEFAULT_FIBER_SAMPLES = 65


def default_fiber_samples() -> np.ndarray:
    return np.linspace(0.0, 1.0, DEFAULT_FIBER_SAMPLES)


def in_certified_range(g: int, deg_l: int, n: int) -> bool:
    """Existence condition for the split model P((L + trivial^(n-1))^*):
    g >= 2 and (n-1) |deg L| < 2g - 2, tested in integers."""
    return g >= 2 and (n - 1) * abs(deg_l) < 2 * g - 2


def split_margin(g: int, deg_l: int, n: int) -> float:
    """Closed-form margin pi (2g - 2 - (n-1) |deg L|) of the constant certificate,
    in the float order of its grid minimum gamma - (n-1) kappa (bit-equal)."""
    return np.pi * (2 * g - 2) - (n - 1) * (np.pi * abs(deg_l))


@dataclass(frozen=True)
class RCReport:
    """Result of a pointwise max-eigenvalue scan of a block (1,1)-form."""

    min_max_eigenvalue: float
    witness: dict

    @property
    def rc_positive(self) -> bool:
        return self.min_max_eigenvalue > RC_TOLERANCE

    def to_dict(self) -> dict:
        return {
            "min_max_eigenvalue": self.min_max_eigenvalue,
            "witness": self.witness,
            "rc_positive": self.rc_positive,
            "tolerance": RC_TOLERANCE,
        }


def rc_scan(form: OneOneForm, curve: CurveModel) -> RCReport:
    """Scan a block-diagonal form for everywhere-positive top eigenvalue.

    Eigenvalues are taken against the fixed block reference metric
    lam * sqrt(-1) dz^dzbar on the base plus the Fubini-Study form on the
    fiber: at each (base point, fiber sample) they are base_component / lam
    together with fs_multiple.  The reported witness is the first sample
    point (in fixed scan order) attaining the minimum; the scan is positive
    when that minimum exceeds RC_TOLERANCE.
    """
    _require_chart(form.base_component[0], curve.resolution, "form base")
    top = np.maximum(form.base_component / curve.lam[None, :, :], form.fs_multiple)
    flat_index = int(np.argmin(top))
    k, i, j = np.unravel_index(flat_index, top.shape)
    min_max = float(top[k, i, j])
    witness = {"sample_index": int(k), "s1": float(form.s1[k]), "grid": [int(i), int(j)]}
    return RCReport(min_max_eigenvalue=min_max, witness=witness)


@dataclass(frozen=True, eq=False)
class Certificate:
    """Constructive RC-positivity certificate for the canonical bundle of
    P((L + trivial^(n-1))^*) over a genus-g base, deg L = deg_l >= 0.

    The densities are the constants kappa = pi deg L and gamma = pi (2g - 2),
    so the three integers determine the rest: the margin gamma - (n-1) kappa
    is split_margin, and the certificate is issued exactly
    in_certified_range, which roundoff in the margin cannot flip on the
    boundary.  An unissued certificate carries a witness at grid point
    (0, 0), the first in scan order, since every point attains the minimum.
    A bool or a non-integer argument is a DescriptorError; a numpy integer is
    stored as int, so to_dict stays JSON-serialisable."""

    genus: int
    deg_l: int
    n: int

    def __post_init__(self):
        for name in ("genus", "deg_l", "n"):
            value = _require_integer(getattr(self, name), f"certificate {name}")
            object.__setattr__(self, name, value)
        g, deg_l, n = self.genus, self.deg_l, self.n
        if g < 2:
            raise DescriptorError(f"certificate construction needs genus >= 2, got {g}")
        if deg_l < 0:
            raise DescriptorError(f"certificate construction needs deg L >= 0, got {deg_l}")
        if n < 2:
            raise DescriptorError(f"fiber rank n must be at least 2, got {n}")

    @property
    def margin(self) -> float:
        return split_margin(self.genus, self.deg_l, self.n)

    @property
    def issued(self) -> bool:
        return in_certified_range(self.genus, self.deg_l, self.n)

    @property
    def witness(self) -> dict | None:
        if self.issued:
            return None
        margin = self.margin
        # on the excluded boundary roundoff can leave the float margin positive
        violation = "outside certified range" if margin > 0.0 else "margin not positive"
        return {"violation": violation, "grid": [0, 0], "value": margin}

    def to_dict(self) -> dict:
        return {
            "genus": self.genus,
            "deg_l": self.deg_l,
            "n": self.n,
            "strategy": CERTIFICATE_STRATEGY,
            "margin": self.margin,
            "issued": self.issued,
            "witness": self.witness,
        }


def kx_certificate_split(g: int, deg_l: int, n: int) -> Certificate:
    """The Certificate of (g, deg_l, n); DescriptorError outside its domain.
    To scan non-constant densities, build them with make_line_bundle and pass
    canonical_curvature_split's form to rc_scan."""
    return Certificate(genus=g, deg_l=deg_l, n=n)


def kx_curvature_form(certificate: Certificate, curve: CurveModel) -> OneOneForm:
    """Assemble the canonical-bundle curvature form certified by a Certificate
    on the given curve chart, sampled at the fiber weights of
    default_fiber_samples.  A chart whose genus is not the certificate's
    raises DegreeError (canonical_curvature_split's degree check)."""
    line = make_line_bundle(certificate.deg_l, "constant", curve)
    trivial = make_line_bundle(0, "constant", curve)
    bundle = SplitBundle((line,) + (trivial,) * (certificate.n - 1))
    canonical = make_line_bundle(2 * certificate.genus - 2, "constant", curve)
    return canonical_curvature_split(bundle, canonical, default_fiber_samples())


def anti_kx_rc_flag(g: int) -> tuple[bool, str]:
    """RC-positivity of the anti-canonical bundle of a projective-bundle model.

    Projective bundles are covered by rational curves, and a projective
    manifold covered by rational curves always carries a metric whose Ricci
    curvature has a positive eigenvalue everywhere; the flag is therefore
    true for every model in scope.
    """
    if _require_integer(g, "genus") < 0:
        raise DescriptorError(
            f"expected a projective-bundle model over a curve (genus >= 0), got {g!r}")
    return True, ("uniruled: the model is covered by rational curves, "
                  "so the anti-canonical bundle is RC-positive")
