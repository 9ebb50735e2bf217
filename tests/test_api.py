"""The package's public surface: its exported names and its module seams."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import dpconv
import dpconv.mechanisms

SOURCES = sorted((Path(dpconv.__file__).parent).glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"

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
    "periodisation_bound",
    "tail_estimate",
]


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC) == 26
    assert sorted(dpconv.__all__) == PUBLIC


def test_every_public_name_is_importable():
    for name in dpconv.__all__:
        assert getattr(dpconv, name) is not None, name


def test_readme_public_api_section_names_exactly_all():
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    intro, rest = section.strip().split("\n\n", 1)
    bullets = rest.split("\n\n", 1)[0]
    assert bullets.startswith("- ")
    named = re.findall(r"`(\w+)`", bullets)
    assert sorted(named) == sorted(dpconv.__all__)
    assert intro == f"`dpconv.__all__` holds {len(dpconv.__all__)} names:"


def test_mechanisms_keeps_the_per_scheme_formulas_a_profiler_hooks_by_name():
    # perfbench/tracing.py wraps these in dpconv.mechanisms' namespace by
    # name (pld_density_* and loss_with_replacement), and MechanismSpec.density
    # reaches them through that namespace. They left __all__, not the module.
    for name in (
        "pld_density_poisson",
        "pld_density_without_replacement",
        "pld_density_with_replacement",
        "loss_with_replacement",
    ):
        function = getattr(dpconv.mechanisms, name)
        assert callable(function) and function.__module__ == "dpconv.mechanisms", name
        assert name not in dpconv.__all__


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
        "from .accountant import _build_result, convolutions\n"
        "spectral._map(len, [])\n"
    )
    assert private_uses_across_modules(probe) == [
        "from .accountant import _build_result",
        "spectral._map",
    ]


# The package's modules, each above every module it may import. __init__
# re-exports the public names of the modules below cli.
LAYERS = (
    "errors",
    "mechanisms",
    "discretization",
    "spectral",
    "accountant",
    "error_bounds",
    "cli",
    "__init__",
)


def layering_violations(path: Path) -> list[str]:
    """Each import of a sibling module at or above path's own layer, and
    each one made inside a function or class rather than at the top."""
    tree = ast.parse(path.read_text(), filename=str(path))
    top = set(map(id, tree.body))
    rank = LAYERS.index(path.stem)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module != "dpconv" and not module.startswith("dpconv."):
                    continue
                module = module.removeprefix("dpconv").lstrip(".")
            names = [module] if module else [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name.removeprefix("dpconv.") for alias in node.names
                     if alias.name.startswith("dpconv.")]
        else:
            continue
        for name in (name.split(".")[0] for name in names):
            if name not in LAYERS:
                continue
            if LAYERS.index(name) >= rank:
                found.append(f"{path.stem} imports {name}")
            if id(node) not in top:
                found.append(f"{path.stem} imports {name} inside a function or class")
    return found


def test_every_module_imports_only_modules_below_it_at_its_top():
    assert sorted(LAYERS) == sorted(source.stem for source in SOURCES)
    found = {path.name: layering_violations(path) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_layering_check_sees_upward_and_nested_imports(tmp_path):
    probe = tmp_path / "accountant.py"
    probe.write_text(
        "from . import error_bounds, spectral\n"
        "import dpconv.cli\n"
        "def late():\n"
        "    from .errors import DomainError\n"
    )
    assert layering_violations(probe) == [
        "accountant imports error_bounds",
        "accountant imports cli",
        "accountant imports errors inside a function or class",
    ]


def test_the_package_imports_and_runs_without_mpmath():
    # mpmath is a test dependency only (pyproject.toml): with it blocked,
    # every module of the package imports and a small query runs.
    script = """
import importlib, pkgutil, sys
sys.modules["mpmath"] = None
import dpconv
for module in pkgutil.iter_modules(dpconv.__path__):
    importlib.import_module("dpconv." + module.name)
from dpconv.cli import main
sys.exit(main(sys.argv[1:]))
"""
    argv = ["delta", "--sigma", "1.5", "--q", "0.01", "--k", "10", "--eps", "1", "--L", "12",
            "--n", "1024"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert child.returncode == 0, child.stderr
    assert '"kind": "delta"' in child.stdout
