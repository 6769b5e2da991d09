"""Domain types for curve models, bundle models and fibered total spaces.

Numerical conventions
---------------------
The computational chart for a base curve is *always* the periodic unit square
[0, 1)^2 with complex coordinate z = x + iy, regardless of the declared genus.
Genus is bookkeeping: it never constrains the area density, and it enters the
mathematics only through required integrals such as the canonical-bundle
degree 2g - 2.  This decoupling of topology from analysis is deliberate and is
the central modeling decision of the package: every curvature formula consumed
downstream depends only on scalar densities and their integrals, never on an
embedding of a genus-g surface.  Verdicts about genus-g geometry are therefore
exactly as trustworthy as the density bookkeeping, no more.

Degree convention: a line bundle stores its curvature density kappa, meaning
the curvature form is R = kappa * sqrt(-1) dz^dzbar.  Since
sqrt(-1) dz^dzbar = 2 dx^dy and deg = (1/2pi) * integral(R),

    deg = (1/pi) * integral over the unit square of kappa dx dy,

so a constant density kappa = pi carries degree one.  Every constructed
bundle satisfies this quantization exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DegreeError, DescriptorError

#: integral-versus-degree agreement demanded of user-supplied densities
DEGREE_INPUT_TOL = 1e-6
#: quantization tolerance guaranteed for constructed bundles, per unit of
#: max(1, |degree|): pi * degree loses its last bits on the way through the
#: grid sum and back
DEGREE_QUANTIZATION_TOL = 1e-8
#: simplex-weight normalization tolerance
SIMPLEX_TOL = 1e-12

MIN_RESOLUTION = 8


def _require_integer(value, what: str) -> int:
    """value as an int; DescriptorError naming `what` for a bool or anything
    else that is not an int or a numpy integer (a float is not truncated)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DescriptorError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _require_resolution(value, what="curve resolution", minimum=MIN_RESOLUTION) -> int:
    """value as an int of at least `minimum`, else DescriptorError."""
    resolution = _require_integer(value, what)
    if resolution < minimum:
        raise DescriptorError(f"resolution must be at least {minimum}, got {resolution}")
    return resolution


def _require_grid(shape: tuple, trailing: tuple = (), n=None) -> int:
    """The side n >= 1 of an (n, n, n, n) + `trailing` shape, equal to `n`
    when given; DescriptorError for any other shape."""
    if (len(shape) != 4 + len(trailing) or shape[4:] != trailing
            or shape[:4] != (shape[0],) * 4 or n not in (None, shape[0])):
        raise DescriptorError(
            f"expected an equal-resolution grid ({n or 'n'},) * 4 + {trailing}, got {shape}")
    return _require_resolution(shape[0], "grid resolution", 1)


def _real(values, what="field", dtype=float) -> np.ndarray:
    """values as a float64 array, or as a complex128 one for dtype=complex
    (np.asarray, so an array of that dtype is not copied); DescriptorError
    naming `what` for a ragged or non-numeric one, and for a complex one
    when the dtype is float (never truncated)."""
    try:    # np.iscomplexobj itself raises on a ragged list
        if dtype is complex or not np.iscomplexobj(values):
            return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        kind = "complex" if dtype is complex else "real"
        raise DescriptorError(f"expected a {kind} {what}: {exc}") from exc
    raise DescriptorError(f"expected a real {what}, got a complex one")


def _real_number(value, what: str) -> float:
    """value as a float; DescriptorError naming `what` for anything _real
    refuses and for an array that is not 0-d."""
    number = _real(value, what)
    if number.ndim != 0:
        raise DescriptorError(f"expected a real {what}, got shape {number.shape}")
    return float(number)


def _require_finite(values: np.ndarray, what="field") -> np.ndarray:
    """values; DescriptorError naming `what` if an entry is NaN or infinite."""
    if not np.isfinite(values).all():
        raise DescriptorError(f"{what} entries must be finite")
    return values


def _require_chart(values, n: int, what: str) -> np.ndarray:
    """values as a real (n, n) curve-grid field; DescriptorError naming
    `what` for anything else."""
    values = _real(values, what)
    if values.shape != (n, n):
        raise DescriptorError(f"{what} shape {values.shape} does not match curve grid {(n, n)}")
    return values


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr)
    out = out.copy()
    out.setflags(write=False)
    return out


def grid_coordinates(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Open (x, y) coordinate arrays of the n x n periodic unit square.

    Shapes (n, 1) and (1, n); broadcasting them against each other yields
    full grids.  field[i, j] sits at x = i/n, y = j/n.
    """
    t = np.arange(n) / n
    return t[:, None], t[None, :]


@dataclass(frozen=True, eq=False)
class CurveModel:
    """Computational chart for a base curve.

    genus       -- degree bookkeeping only (see module docstring)
    resolution  -- grid is resolution x resolution over the periodic unit square
    lam         -- fiducial area density: reference form is lam * sqrt(-1) dz^dzbar
    """

    genus: int
    resolution: int
    lam: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "genus", _require_integer(self.genus, "curve genus"))
        object.__setattr__(self, "resolution", _require_resolution(self.resolution))
        if self.genus < 0:
            raise DescriptorError(f"genus must be nonnegative, got {self.genus}")
        lam = _require_chart(self.lam, self.resolution, "area density")
        if not np.all(np.isfinite(lam)) or np.any(lam <= 0.0):
            raise DescriptorError("area density must be finite and positive everywhere")
        object.__setattr__(self, "lam", _freeze(lam))

    @classmethod
    def flat(cls, genus: int, resolution: int) -> "CurveModel":
        """Chart with the constant area density one."""
        # checked before np.ones, which raises on a float or a negative size
        lam = np.ones((_require_resolution(resolution),) * 2)
        return cls(genus=genus, resolution=resolution, lam=lam)

    @property
    def cell_area(self) -> float:
        return 1.0 / float(self.resolution) ** 2

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        return grid_coordinates(self.resolution)

    def matches(self, other: "CurveModel") -> bool:
        """Same grid and same fiducial density (genus must agree too)."""
        return (self.genus == other.genus
                and self.resolution == other.resolution
                and np.array_equal(self.lam, other.lam))


def integrate(field_values: np.ndarray, curve: CurveModel) -> float:
    """Integral of a density over the unit square: sum * cell area."""
    values = _require_chart(field_values, curve.resolution, "field")
    return float(np.sum(values) * curve.cell_area)


@dataclass(frozen=True, eq=False)
class LineBundleModel:
    """A degree integer plus a curvature density on the curve grid.

    Invariant: (1/pi) * integrate(kappa) equals the degree to within
    DEGREE_QUANTIZATION_TOL * max(1, |degree|).  Use make_line_bundle to
    construct instances; it projects user input onto the invariant exactly.
    """

    degree: int
    kappa: np.ndarray
    curve: CurveModel

    def __post_init__(self):
        object.__setattr__(self, "degree", _require_integer(self.degree, "line bundle degree"))
        kappa = _require_chart(self.kappa, self.curve.resolution, "curvature density")
        _require_finite(kappa, "curvature density")
        object.__setattr__(self, "kappa", _freeze(kappa))
        measured = self.measured_degree()
        if abs(measured - self.degree) > DEGREE_QUANTIZATION_TOL * max(1, abs(self.degree)):
            raise DegreeError(
                f"density integrates to degree {measured!r}, declared {self.degree}")

    def measured_degree(self) -> float:
        return integrate(self.kappa, self.curve) / np.pi


def make_line_bundle(degree: int, profile, curve: CurveModel) -> LineBundleModel:
    """Build a line bundle model of the given degree.

    profile is either the string "constant" (density kappa = pi * degree) or a
    supplied (n, n) density field whose integral must match pi * degree to
    within DEGREE_INPUT_TOL; the field is then shifted by a constant so the
    quantization invariant holds exactly.  A larger mismatch signals an
    inconsistent input and is rejected rather than silently renormalized.
    """
    degree = _require_integer(degree, "line bundle degree")
    n = curve.resolution
    if isinstance(profile, str):
        if profile != "constant":
            raise DescriptorError(f"unknown profile {profile!r}")
        kappa = np.full((n, n), np.pi * degree)
    else:
        supplied = _require_chart(profile, n, "density profile")
        raw = integrate(supplied, curve)
        if abs(raw - np.pi * degree) > DEGREE_INPUT_TOL:
            raise DegreeError(
                f"supplied density integrates to {raw!r}, expected {np.pi * degree!r} "
                f"for degree {degree} (tolerance {DEGREE_INPUT_TOL})")
        kappa = supplied + (np.pi * degree - raw)
    return LineBundleModel(degree=degree, kappa=kappa, curve=curve)


def tensor_product(a: LineBundleModel, b: LineBundleModel) -> LineBundleModel:
    """Tensor product model: degrees add, curvature densities add."""
    if not a.curve.matches(b.curve):
        raise DescriptorError("tensor factors live on different curve models")
    return LineBundleModel(degree=a.degree + b.degree, kappa=a.kappa + b.kappa, curve=a.curve)


@dataclass(frozen=True, eq=False)
class SplitBundle:
    """Ordered direct sum of line bundle models with a diagonal Hermitian structure."""

    summands: tuple[LineBundleModel, ...]

    def __post_init__(self):
        summands = tuple(self.summands)
        if len(summands) < 1:
            raise DescriptorError("a split bundle needs at least one summand")
        base = summands[0].curve
        for s in summands[1:]:
            if not s.curve.matches(base):
                raise DescriptorError("all summands must share one curve model grid")
        object.__setattr__(self, "summands", summands)

    @property
    def rank(self) -> int:
        return len(self.summands)

    @property
    def total_degree(self) -> int:
        return sum(s.degree for s in self.summands)

    @property
    def curve(self) -> CurveModel:
        return self.summands[0].curve


@dataclass(frozen=True, eq=False)
class FiberSimplexPoint:
    """Normalized fiber weights s_alpha = |a_alpha|^2 / |a|^2 of a point on the
    projectivized fiber; nonnegative and summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = _real(self.weights, "simplex weight vector")
        if w.ndim != 1 or w.size < 1:
            raise DescriptorError("weights must be a nonempty vector")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise DescriptorError("weights must be finite and nonnegative")
        if abs(float(np.sum(w)) - 1.0) > SIMPLEX_TOL:
            raise DescriptorError(
                f"weights sum to {float(np.sum(w))!r}, not 1 within {SIMPLEX_TOL}")
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def rank(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True, eq=False)
class OneOneForm:
    """Sampled block-diagonal (1,1)-form on a fibered total space.

    base_component[k] is the base-base scalar density at fiber sample k;
    s1[k] records the weight on the distinguished first summand at that
    sample (the remaining weight sits on the trivial directions, which the
    base component never depends on for split bundles).  The fiber block is
    fs_multiple * omega_FS.  Cross terms are identically zero by
    construction, which is what restricts this representation to diagonal
    bundle data.
    """

    base_component: np.ndarray
    s1: np.ndarray
    fs_multiple: float

    def __post_init__(self):
        base = _real(self.base_component, "base component")
        s1 = np.atleast_1d(_real(self.s1, "fiber weight vector"))
        if base.ndim != 3 or len(base) == 0:
            raise DescriptorError(
                f"base component must be (samples >= 1, n, n), got shape {base.shape}")
        if s1.shape != (base.shape[0],):
            raise DescriptorError(
                f"fiber sample count {s1.shape} does not match base component {base.shape}")
        if not np.all((s1 >= 0.0) & (s1 <= 1.0)):    # NaN fails both
            raise DescriptorError("fiber weights must lie in [0, 1]")
        _require_finite(base, "base component")
        fs_multiple = _real_number(self.fs_multiple, "fiber multiple")
        if not np.isfinite(fs_multiple):
            raise DescriptorError("fiber multiple must be finite")
        object.__setattr__(self, "base_component", _freeze(base))
        object.__setattr__(self, "s1", _freeze(s1))
        object.__setattr__(self, "fs_multiple", fs_multiple)

    @property
    def sample_count(self) -> int:
        return int(self.s1.size)


VERDICTS = ("yes", "no", "unknown")
IMAGES = ("AllReals", "PositiveReals", "NegativeReals", "ZeroOnly", "unknown")


@dataclass(frozen=True)
class ClassificationReport:
    """Existence verdicts plus the decision branch and certificate that produced them.

    Invariant: both verdicts are in VERDICTS, the Hermitian one is "yes"
    exactly when the total-scalar image is AllReals or ZeroOnly, and the
    Kahler one is "yes" only when the Hermitian one is.
    """

    scalar_flat_hermitian: str
    scalar_flat_kahler: str
    total_scalar_image: str
    fired_case: str
    certificate: dict | None = field(default=None)

    def __post_init__(self):
        if self.scalar_flat_hermitian not in VERDICTS:
            raise DescriptorError(f"bad Hermitian verdict {self.scalar_flat_hermitian!r}")
        if self.scalar_flat_kahler not in VERDICTS:
            raise DescriptorError(f"bad Kahler verdict {self.scalar_flat_kahler!r}")
        if self.total_scalar_image not in IMAGES:
            raise DescriptorError(f"bad total-scalar image {self.total_scalar_image!r}")
        flat_image = self.total_scalar_image in ("AllReals", "ZeroOnly")
        if (self.scalar_flat_hermitian == "yes") != flat_image:
            raise DescriptorError(
                f"verdict {self.scalar_flat_hermitian!r} inconsistent with "
                f"total-scalar image {self.total_scalar_image!r}")
        if self.scalar_flat_kahler == "yes" and self.scalar_flat_hermitian != "yes":
            raise DescriptorError("a scalar-flat Kahler metric is in particular Hermitian")

    def to_dict(self) -> dict:
        return {
            "scalar_flat_hermitian": self.scalar_flat_hermitian,
            "scalar_flat_kahler": self.scalar_flat_kahler,
            "total_scalar_image": self.total_scalar_image,
            "fired_case": self.fired_case,
            "certificate": self.certificate,
        }


# ---------------------------------------------------------------------------
# external interfaces: JSON bundle descriptors and CSV density grids

def _no_data_row(lines) -> bool:
    """Whether no line holds text outside a '#' comment (np.loadtxt warns then)."""
    return not any(line.split("#", 1)[0].strip() for line in lines)


def load_field_csv(path) -> np.ndarray:
    """Read an n x n density grid from CSV (row-major, decimal floats)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            if _no_data_row(handle):
                raise DescriptorError(f"{path}: no density values")
        values = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except ValueError as exc:    # text that is not UTF-8, or a value that is not a float
        raise DescriptorError(f"{path}: {exc}") from exc
    if values.shape[0] != values.shape[1]:
        raise DescriptorError(f"field file {path} is {values.shape}, expected square")
    return values


def _plain_file_name(name) -> bool:
    """Whether `name` names a file in its referrer's own directory."""
    return (isinstance(name, str) and name not in ("", ".", "..") and "\0" not in name
            and Path(name).name == name)


def load_bundle_descriptor(source) -> tuple[CurveModel, SplitBundle]:
    """Build (CurveModel, SplitBundle) from a JSON descriptor.

    Schema: {"genus": int, "resolution": int,
             "summands": [{"degree": int, "profile": "constant" | {"file": name}}]}
    genus, resolution and every degree must be integers; a float or a
    boolean is a DescriptorError, never truncated.  A profile file is a plain
    file name in the descriptor's directory (the working directory for a dict
    source), checked before any file is opened.  The fiducial density is
    constant one.
    """
    base_dir = Path(".")
    if isinstance(source, dict):
        doc = source
    else:
        path = Path(source)
        base_dir = path.parent
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:    # text that is not UTF-8 or not JSON
            raise DescriptorError(f"{path}: not a JSON descriptor: {exc}") from exc
    try:
        genus, resolution, raw_summands = doc["genus"], doc["resolution"], doc["summands"]
    except (KeyError, TypeError) as exc:
        raise DescriptorError(f"malformed bundle descriptor: {exc}") from exc
    genus = _require_integer(genus, "malformed bundle descriptor: 'genus'")
    resolution = _require_integer(resolution, "malformed bundle descriptor: 'resolution'")
    if not isinstance(raw_summands, list) or not raw_summands:
        raise DescriptorError("descriptor must list at least one summand")
    curve = CurveModel.flat(genus=genus, resolution=resolution)
    summands = []
    for entry in raw_summands:
        try:
            degree = entry["degree"]
            profile = entry.get("profile", "constant")
        except (KeyError, TypeError) as exc:
            raise DescriptorError(f"malformed summand entry {entry!r}: {exc}") from exc
        degree = _require_integer(degree, f"malformed summand entry {entry!r}: 'degree'")
        if isinstance(profile, dict):
            if not _plain_file_name(profile.get("file")):
                raise DescriptorError(
                    f"malformed summand entry {entry!r}: profile needs a 'file' "
                    "name in the descriptor's directory")
            profile = load_field_csv(base_dir / profile["file"])
        summands.append(make_line_bundle(degree, profile, curve))
    return curve, SplitBundle(tuple(summands))
