"""Every setting of the public API and the CLI, pinned in one table each.

API lists the parameters of each public callable exported by scalarflat,
and of each public method of an exported class, as "name" or
"name=default".  CLI lists each subcommand's arguments the same way, with
required flags written bare.  Adding, removing or re-defaulting a setting
shows up as a one-line diff here.  Exception classes are left out: they
take only a message.  The README's flag-default table is checked against
the parser and the module constants it names.
"""

import argparse
import importlib
import inspect
import re
from pathlib import Path

import scalarflat
from scalarflat.cli import build_parser

API = {
    "Certificate": "genus, deg_l, n",
    "Certificate.to_dict": "",
    "ClassificationReport": "scalar_flat_hermitian, scalar_flat_kahler, total_scalar_image, "
                            "fired_case, certificate=None",
    "ClassificationReport.to_dict": "",
    "ConformalSolution": "f, residual, solve_residual, iterations, rounds",
    "CurveModel": "genus, resolution, lam",
    "CurveModel.coordinates": "",
    "CurveModel.flat": "genus, resolution",
    "CurveModel.matches": "other",
    "FiberSimplexPoint": "weights",
    "GateResult": "verdict, reason, report=None",
    "GateResult.to_dict": "",
    "LineBundleModel": "degree, kappa, curve",
    "LineBundleModel.measured_degree": "",
    "MetricModel4T": "g",
    "MetricModel4T.conformal": "exponent",
    "MetricModel4T.flat": "resolution",
    "MetricModel4T.from_kahler_potential": "phi",
    "MetricModel4T.rescaled": "exponent",
    "MinimalSurfaceDescriptor": "kodaira_dim, surface_class=None, genus=None, m=None",
    "MinimalSurfaceDescriptor.of_class": "surface_class, genus=None, m=None",
    "OneOneForm": "base_component, s1, fs_multiple",
    "RCReport": "min_max_eigenvalue, witness",
    "RCReport.to_dict": "",
    "RicciField": "ric",
    "SplitBundle": "summands",
    "anti_kx_rc_flag": "g",
    "canonical_curvature_split": "bundle, canonical, s1",
    "chern_curvature_matrix": "h",
    "chern_ricci": "metric",
    "chern_scalar": "metric",
    "classify_ruled": "g, m",
    "classify_split": "g, deg_l, n",
    "conformal_ricci": "ric, f",
    "conformal_scalar_flat": "metric, tol=1e-10",
    "hirzebruch_anticanonical_h0": "k",
    "integrate": "field_values, curve",
    "is_gauduchon": "metric",
    "is_stable_rank2": "m",
    "kx_certificate_split": "g, deg_l, n",
    "kx_curvature_form": "certificate, curve",
    "load_bundle_descriptor": "source",
    "m_split_rank2": "deg_l",
    "make_line_bundle": "degree, profile, curve",
    "minimal_surface_gate": "descriptor",
    "poisson_periodic": "rho",
    "prescribe_curvature": "target, current",
    "rc_scan": "form, curve",
    "tautological_base_curvature": "bundle, point",
    "tensor_product": "a, b",
    "total_scalar": "metric",
    "total_scalar_image": "kx_rc, anti_kx_rc",
    "validate_m": "m, g",
}

CLI = {
    "classify ruled": "--genus, --m",
    "classify split": "--genus, --deg-l, --n=2",
    "classify minimal": "--class, --genus=None, --m=None",
    "rc-check": "--genus, --deg-l, --n=2",
    "curvature": "--metric, --out=None",
    "solve": "target, --metric, --out, --tol=1e-10",
    "catalog": "--run-all=False",
    "report": "--genus, --deg-l, --n=2",
}


def _parameters(signature: inspect.Signature) -> str:
    parts = []
    for param in signature.parameters.values():
        if param.name == "self":
            continue
        if param.default is inspect.Parameter.empty:
            parts.append(param.name)
        else:
            parts.append(f"{param.name}={param.default!r}")
    return ", ".join(parts)


def _api_surface() -> dict[str, str]:
    surface = {}
    for name in scalarflat.__dict__:
        obj = getattr(scalarflat, name)
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        if inspect.isclass(obj) and issubclass(obj, BaseException):
            continue
        surface[name] = _parameters(inspect.signature(obj))
        if inspect.isclass(obj):
            for attr, value in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(value, (classmethod, staticmethod)) or inspect.isfunction(value):
                    surface[f"{name}.{attr}"] = _parameters(
                        inspect.signature(getattr(obj, attr)))
    return surface


def _arguments(parser: argparse.ArgumentParser) -> str:
    parts = []
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction, argparse._SubParsersAction)):
            continue
        flag = action.option_strings[-1] if action.option_strings else action.dest
        bare = action.required or not action.option_strings
        parts.append(flag if bare else f"{flag}={action.default!r}")
    return ", ".join(parts)


def _cli_surface(parser: argparse.ArgumentParser, prefix: str = "") -> dict[str, str]:
    surface = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command, sub in action.choices.items():
                name = f"{prefix} {command}".strip()
                if any(isinstance(a, argparse._SubParsersAction) for a in sub._actions):
                    surface.update(_cli_surface(sub, name))
                else:
                    surface[name] = _arguments(sub)
    return surface


def test_public_api_settings_are_pinned():
    assert _api_surface() == API


def test_cli_settings_are_pinned():
    assert _cli_surface(build_parser()) == CLI


#: a row of the README table: | `command --flag` (what it sets) | default | `module.CONSTANT` |
README_ROW = re.compile(r"^\| `(?P<command>[a-z -]+?) (?P<flag>--[a-z-]+)`[^|]*"
                        r"\| (?P<default>[^|]+?) \| `(?P<module>\w+)\.(?P<constant>\w+)` \|$")


def _readme_flag_table() -> list[str]:
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8").splitlines()
    start = lines.index("| flag | default | constant |") + 2    # past the separator
    end = start
    while end < len(lines) and lines[end].startswith("|"):
        end += 1
    return lines[start:end]


def test_readme_flag_defaults_match_the_parser_and_their_constants():
    lines = _readme_flag_table()
    assert lines, "README's flag-default table has no rows"
    surface = _cli_surface(build_parser())
    for line in lines:
        row = README_ROW.match(line)
        assert row, f"unparsed README table row: {line}"
        constant = getattr(importlib.import_module(f"scalarflat.{row['module']}"),
                           row["constant"])
        assert row["default"] == repr(constant), line
        assert f"{row['flag']}={constant!r}" in surface[row["command"]].split(", "), line
