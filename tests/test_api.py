"""The package's public surface: its exported names and its module seams."""

from __future__ import annotations

import ast
from pathlib import Path

import dpconv

SOURCES = sorted((Path(dpconv.__file__).parent).glob("*.py"))

PUBLIC = [
    "AccountingError",
    "BoundResult",
    "CompositionQuery",
    "ConvolvedPld",
    "DeltaResult",
    "Direction",
    "DomainError",
    "Grid",
    "GridTooSmallError",
    "MechanismSpec",
    "NonConvergenceError",
    "PldDensity",
    "RootFindingError",
    "Scheme",
    "SpectralResidueError",
    "TargetDeltaBelowFloor",
    "TargetDeltaTooLarge",
    "alpha_bound",
    "alpha_lambda_limit",
    "analytic_lambda_limit",
    "analytic_tail_bound",
    "delta_of_epsilon",
    "delta_of_epsilons",
    "discretization_estimate",
    "discretize",
    "epsilon_of_delta",
    "loss_inverse_poisson",
    "loss_inverse_with_replacement",
    "loss_inverse_without_replacement",
    "loss_poisson",
    "loss_with_replacement",
    "loss_without_replacement",
    "periodisation_bound",
    "pld_density",
    "pld_density_poisson",
    "pld_density_with_replacement",
    "pld_density_without_replacement",
    "tail_estimate",
]


def test_all_lists_exactly_the_public_names():
    assert sorted(dpconv.__all__) == PUBLIC


def test_every_public_name_is_importable():
    for name in dpconv.__all__:
        assert getattr(dpconv, name) is not None, name


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses_across_modules(path: Path) -> list[str]:
    """`from .m import _x` and `m._x` in one module, where m is a sibling module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    siblings = {source.stem for source in SOURCES}
    modules = set()
    found = []
    for node in ast.walk(tree):
        within = isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("dpconv")
        )
        if within:
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
                if node.module in (None, "dpconv") and alias.name in siblings:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_reaches_into_another_modules_private_names():
    found = {path.name: private_uses_across_modules(path) for path in SOURCES}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_the_check_sees_both_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import spectral\n"
        "from .accountant import _grid_inverse, convolutions\n"
        "spectral._map(len, [])\n"
    )
    assert private_uses_across_modules(probe) == [
        "from .accountant import _grid_inverse",
        "spectral._map",
    ]
