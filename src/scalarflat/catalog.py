"""Built-in catalog of worked examples with frozen expected verdicts.

Each entry records a descriptor, the expected pipeline output and a note on
its mathematical origin.  Running the catalog is the regression suite: every
expected field must be reproduced (floats to 1e-12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classifier import (
    MinimalSurfaceDescriptor,
    classify_ruled,
    classify_split,
    minimal_surface_gate,
)

PI = math.pi
FLOAT_TOL = 1e-12


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str          # "ruled" | "split" | "minimal"
    params: dict
    expected: dict
    source: str


# h^0(-K) of F_k is max(9, k + 6), frozen so the entries check the classifier's count
_HIRZEBRUCH_H0 = (9, 9, 9, 9, 10, 11)


def _hirzebruch(k: int) -> CatalogEntry:
    return CatalogEntry(
        name=f"hirzebruch-{k}",
        kind="ruled",
        params={"genus": 0, "m": -k},
        expected={
            "scalar_flat_hermitian": "no",
            "total_scalar_image": "PositiveReals",
            "fired_case": "Hirzebruch",
            "certificate": {"anticanonical_sections": _HIRZEBRUCH_H0[k]},
        },
        source=f"rational ruled surface with twist {k}: effective anti-canonical bundle",
    )


def catalog_entries() -> list[CatalogEntry]:
    entries: list[CatalogEntry] = [_hirzebruch(k) for k in range(len(_HIRZEBRUCH_H0))]
    entries += [
        CatalogEntry(
            "elliptic-base", "ruled", {"genus": 1, "m": 0},
            {"scalar_flat_hermitian": "no", "fired_case": "elliptic base",
             "total_scalar_image": "PositiveReals"},
            "projective bundle over an elliptic curve: anti-canonical bundle nef"),
        CatalogEntry(
            "elliptic-base-twisted", "ruled", {"genus": 1, "m": -3},
            {"scalar_flat_hermitian": "no", "fired_case": "elliptic base"},
            "decomposable bundle over an elliptic curve"),
        CatalogEntry(
            "polystable-split", "split", {"genus": 2, "deg_l": 0, "n": 2},
            {"scalar_flat_hermitian": "yes", "scalar_flat_kahler": "yes",
             "total_scalar_image": "AllReals", "fired_case": "case (2)",
             "certificate": {"margin": 2 * PI, "polystable": True}},
            "balanced split bundle over a genus-2 curve: polystable, Kahler case"),
        CatalogEntry(
            "split-g2-deg1", "split", {"genus": 2, "deg_l": 1, "n": 2},
            {"scalar_flat_hermitian": "yes", "scalar_flat_kahler": "no",
             "fired_case": "case (2)", "certificate": {"margin": PI}},
            "unbalanced split bundle inside the strict degree window: Hermitian "
            "metrics exist, Kahler ones do not (not polystable)"),
        CatalogEntry(
            "split-g2-deg2", "split", {"genus": 2, "deg_l": 2, "n": 2},
            {"scalar_flat_hermitian": "no", "fired_case": "case (1)",
             "total_scalar_image": "PositiveReals"},
            "split degree at the window boundary |deg L| = 2g-2: excluded"),
        CatalogEntry(
            "plane-quintic", "split", {"genus": 6, "deg_l": 5, "n": 2},
            {"scalar_flat_hermitian": "yes", "scalar_flat_kahler": "no",
             "fired_case": "case (2)", "certificate": {"margin": 5 * PI}},
            "smooth plane curve of degree 5: genus (d-1)(d-2)/2 = 6, hyperplane "
            "twist degree 5 < 2g-2 = 10"),
        CatalogEntry(
            "plane-quintic-overtwisted", "split", {"genus": 6, "deg_l": 10, "n": 2},
            {"scalar_flat_hermitian": "no", "fired_case": "case (1)"},
            "genus-6 base with twist degree 10 = 2g-2: excluded by strictness"),
        CatalogEntry(
            "plane-sextic", "split", {"genus": 10, "deg_l": 6, "n": 2},
            {"scalar_flat_hermitian": "yes", "certificate": {"margin": 12 * PI}},
            "smooth plane curve of degree 6: genus 10, twist degree 6 < 18"),
        CatalogEntry(
            "plane-septic", "split", {"genus": 15, "deg_l": 7, "n": 2},
            {"scalar_flat_hermitian": "yes", "certificate": {"margin": 21 * PI}},
            "smooth plane curve of degree 7: genus 15, twist degree 7 < 28"),
        CatalogEntry(
            "threefold-plane-sextic", "split", {"genus": 10, "deg_l": 6, "n": 3},
            {"scalar_flat_hermitian": "yes", "scalar_flat_kahler": "no",
             "fired_case": "higher-rank split", "certificate": {"margin": 6 * PI}},
            "rank-3 split bundle over the degree-6 plane curve: 6 < (2g-2)/2 = 9; "
            "Hermitian yes, Kahler no (not polystable)"),
        CatalogEntry(
            "threefold-boundary", "split", {"genus": 2, "deg_l": 1, "n": 3},
            {"scalar_flat_hermitian": "no", "total_scalar_image": "unknown"},
            "rank-3 boundary case deg L = (2g-2)/(n-1): outside the strict window, "
            "no certificate"),
        CatalogEntry(
            "threefold-balanced", "split", {"genus": 2, "deg_l": 0, "n": 3},
            {"scalar_flat_hermitian": "yes", "scalar_flat_kahler": "yes",
             "certificate": {"margin": 2 * PI}},
            "trivial rank-3 bundle over a genus-2 curve: product with the plane"),
        CatalogEntry(
            "stable-maximal", "ruled", {"genus": 2, "m": 2},
            {"scalar_flat_hermitian": "yes", "fired_case": "case (4)",
             "total_scalar_image": "AllReals"},
            "genus 2 with maximal invariant m = g = 2: stable ample bundle"),
        CatalogEntry(
            "genus2-mild-twist", "ruled", {"genus": 2, "m": -1},
            {"scalar_flat_hermitian": "yes", "fired_case": "case (2)"},
            "genus 2, m = -1 inside (2-2g, 0]"),
        CatalogEntry(
            "genus3-stable", "ruled", {"genus": 3, "m": 1},
            {"scalar_flat_hermitian": "yes", "fired_case": "case (3)"},
            "genus 3, stable bundle of degree 1 in (0, 2g-2)"),
        CatalogEntry(
            "genus3-deep-twist", "ruled", {"genus": 3, "m": -5},
            {"scalar_flat_hermitian": "no", "fired_case": "case (1)"},
            "genus 3, m = -5 <= 2-2g: effective tautological section"),
        CatalogEntry(
            "minimal-k3", "minimal", {"surface_class": "K3"},
            {"verdict": "admits"},
            "K3 surface: trivial canonical bundle, Ricci-flat"),
        CatalogEntry(
            "minimal-torus", "minimal", {"surface_class": "Torus"},
            {"verdict": "admits"},
            "complex 2-torus: flat metrics"),
        CatalogEntry(
            "minimal-enriques", "minimal", {"surface_class": "Enriques"},
            {"verdict": "admits"},
            "Enriques surface: 2-torsion canonical bundle"),
        CatalogEntry(
            "minimal-kodaira", "minimal", {"surface_class": "Kodaira"},
            {"verdict": "admits"},
            "Kodaira surface: torsion canonical bundle, non-Kahler"),
        CatalogEntry(
            "minimal-hopf", "minimal", {"surface_class": "Hopf"},
            {"verdict": "rejected"},
            "Hopf surface: semi-positive anti-canonical bundle"),
        CatalogEntry(
            "minimal-inoue", "minimal", {"surface_class": "Inoue"},
            {"verdict": "rejected"},
            "Inoue surface: semi-positive, non-flat canonical bundle"),
        CatalogEntry(
            "minimal-vii0-b2", "minimal", {"surface_class": "VII0_b2_positive"},
            {"verdict": "possible_unknown"},
            "class VII_0 with b_2 > 0: classification incomplete"),
        CatalogEntry(
            "minimal-ruled-delegate", "minimal",
            {"surface_class": "Ruled", "genus": 2, "m": 0},
            {"verdict": "admits"},
            "minimal ruled surface delegated to the (g, m) criterion"),
    ]
    return entries


def run_entry(entry: CatalogEntry) -> dict:
    """Run an entry's pipeline; returns the actual output dictionary."""
    if entry.kind == "ruled":
        return classify_ruled(entry.params["genus"], entry.params["m"]).to_dict()
    if entry.kind == "split":
        return classify_split(entry.params["genus"], entry.params["deg_l"],
                              entry.params["n"]).to_dict()
    if entry.kind == "minimal":
        descriptor = MinimalSurfaceDescriptor.of_class(
            entry.params["surface_class"],
            genus=entry.params.get("genus"), m=entry.params.get("m"))
        return minimal_surface_gate(descriptor).to_dict()
    raise ValueError(f"unknown catalog kind {entry.kind!r}")


def _match(expected, actual, path: str, mismatches: list[str]) -> None:
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            mismatches.append(f"{path}: expected a mapping, got {actual!r}")
            return
        for key, value in expected.items():
            if key not in actual:
                mismatches.append(f"{path}.{key}: missing")
            else:
                _match(value, actual[key], f"{path}.{key}", mismatches)
    elif isinstance(expected, float):
        if not isinstance(actual, (int, float)) or abs(actual - expected) > FLOAT_TOL:
            mismatches.append(f"{path}: expected {expected!r}, got {actual!r}")
    elif expected != actual:
        mismatches.append(f"{path}: expected {expected!r}, got {actual!r}")


def check_entry(entry: CatalogEntry) -> tuple[bool, dict, list[str]]:
    """Run one entry and compare against its frozen expectation."""
    actual = run_entry(entry)
    mismatches: list[str] = []
    _match(entry.expected, actual, entry.name, mismatches)
    return not mismatches, actual, mismatches
