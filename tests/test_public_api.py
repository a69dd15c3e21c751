"""The top-level package: README's library example and CLI section,
psbp.__all__ and the config schema docstring."""

import argparse
import ast
import re
from pathlib import Path

import psbp
from psbp import config
from psbp.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_section(heading):
    text = README.read_text(encoding="utf-8")
    return text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]


def library_use_block():
    section = readme_section("Library use")
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs():
    namespace = {}
    exec(compile(library_use_block(), str(README), "exec"), namespace)
    assert namespace["grad"].mask.any()
    assert 0.0 <= namespace["mse_normalized"] < 1e-2


def test_every_exported_name_resolves():
    assert len(set(psbp.__all__)) == len(psbp.__all__)
    missing = [name for name in psbp.__all__ if not hasattr(psbp, name)]
    assert missing == []


# The top-level surface: the names of README's library example, the other
# methods' solvers and the *-ppn methods' conversion, the types they
# return, and the errors.
PUBLIC_NAMES = {
    "CameraIntrinsics", "LightSource", "Material", "SceneSpec", "make_sphere_depth",
    "render_scene", "blinn_phong_pps_solve", "poisson_integrate", "exp_depth", "align_depth",
    "input_mask",
    "lambertian_pps_closed_form", "woodham_normals", "blinn_phong_ortho_solve",
    "normals_to_perspective_gradient",
    "GradientField", "DepthMap", "Image", "NormalField", "AlbedoMap",
    "ConfigError", "NumericalError",
}


def test_exported_names_are_the_documented_library():
    assert set(psbp.__all__) == PUBLIC_NAMES
    section = readme_section("Library use")
    undocumented = sorted(name for name in PUBLIC_NAMES
                          if not re.search(rf"\b{name}\b", section))
    assert undocumented == []


# Top-level public names that stay without a caller in src/, with the reason.
UNREFERENCED_ALLOWED = {
    "finite_difference_jacobian": "the tests' reference for every analytic Jacobian",
    # bound to None on psbp.pipeline
    "render_blinn_phong_perspective": "kept for perfbench's tracer until ROADMAP item 1",
    "render_lambertian_perspective": "kept for perfbench's tracer until ROADMAP item 1",
}


def package_definitions():
    """The top-level functions, classes and constants of the modules in
    src/psbp/ (name -> file), and every name loaded anywhere in the package,
    the strings in psbp.__all__ included."""
    package = Path(psbp.__file__).resolve().parent
    defined = {}
    loaded = set(psbp.__all__)
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
        if path.name == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update((t.id, path.name) for t in targets if isinstance(t, ast.Name))
    return defined, loaded


def test_every_public_definition_has_a_caller():
    """A top-level public function or class in src/psbp/ is exported in
    psbp.__all__ or referred to from some other place in the package."""
    defined, loaded = package_definitions()
    dead = sorted(f"{file}:{name}" for name, file in defined.items()
                  if not name.isupper() and not name.startswith("_")
                  and name not in loaded and name not in UNREFERENCED_ALLOWED)
    assert dead == []


def test_every_private_definition_and_constant_is_loaded():
    """A top-level private function or class, and every module constant, of
    src/psbp/ is loaded somewhere in the package: a helper a refactor leaves
    behind fails here."""
    defined, loaded = package_definitions()
    dead = sorted(f"{file}:{name}" for name, file in defined.items()
                  if (name.isupper() or name.startswith("_")) and name not in loaded)
    assert dead == []


def module_imports_never_loaded(path):
    """The names a module-level import of path binds (from __future__
    imports left out) that the module never loads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - loaded


def test_every_import_is_used():
    """A module-level import in src/psbp/ or tests/ is loaded by its module;
    __init__.py, whose imports are the package's re-exports, is exempt."""
    package = Path(psbp.__file__).resolve().parent
    paths = [*package.glob("*.py"), *Path(__file__).resolve().parent.glob("*.py")]
    unused = sorted(f"{path.name}:{name}" for path in paths if path.name != "__init__.py"
                    for name in module_imports_never_loaded(path))
    assert unused == []


def test_readme_cli_options_match_the_parser():
    """The long options README's CLI section names are the subcommands'
    options, -h/--help left out on both sides."""
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    parsed = {option for sub in subparsers.choices.values()
              for action in sub._actions for option in action.option_strings
              if option.startswith("--")}
    documented = set(re.findall(r"--[a-z][a-z-]*", readme_section("CLI usage")))
    assert documented - {"--help"} == parsed - {"--help"}


def test_config_docstring_names_every_top_level_key():
    missing = sorted(k for k in config._TOP_LEVEL_KEYS if f'"{k}"' not in config.__doc__)
    assert missing == []
