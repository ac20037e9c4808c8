"""Package-level guards on what ``src/cransim`` contains."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cransim"
CONFIGS = TESTS.parent / "configs"


def _module_level_names(tree):
    """Names bound by a module's top-level ``def``, ``class`` and assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _loaded_names(tree):
    """Names read as a variable or as an attribute; imports do not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_src_defines_only_what_src_uses():
    # code that only tests call belongs in tests/ (see tests/oracles.py);
    # an export from __init__ is not a use
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    loaded = {name for tree in trees.values() for name in _loaded_names(tree)}
    unused = [f"{module}:{name}" for module, tree in trees.items()
              for name in _module_level_names(tree) if name not in loaded]
    assert not unused, f"defined in src/cransim but never used there: {unused}"


def _imported_names(tree):
    """Names bound by a module's imports; ``from __future__`` binds none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree):
    """Names read as a variable, or named as a parameter (how a test asks
    for a pytest fixture)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.arg):
            yield node.arg


def test_every_import_is_used():
    # __init__ imports only to export
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    unused = []
    for path in paths + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = set(_used_names(tree))
        unused += [f"{path.parent.name}/{path.name}:{name}"
                   for name in _imported_names(tree) if name not in used]
    assert not unused, f"imported but never used: {unused}"


# validate every shipped config, then run a short cell and network sweep on
# one worker, in a fresh interpreter; print the modules it then holds
RUN_PATH_CHILD = """
import json, sys
from pathlib import Path
import cransim.cli

configs, out = Path(sys.argv[1]), Path(sys.argv[2])
for path in sorted(configs.glob("*.json")):
    assert cransim.cli.main(["validate", "--config", str(path)]) == 0, path
for name, section, key, length in (("cell_outage", "cell", "n_trials", 20),
                                   ("net_budget_sweep", "network", "n_subframes", 5)):
    cfg = json.loads((configs / f"{name}.json").read_text())
    cfg[section][key] = length
    cfg["output_dir"] = str(out / name)
    (out / f"{name}.json").write_text(json.dumps(cfg))
    assert cransim.cli.main(["run", "--workers", "1", "--config", str(out / f"{name}.json")]) == 0
print(json.dumps(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def run_path_modules(tmp_path_factory):
    out = tmp_path_factory.mktemp("run_path")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", RUN_PATH_CHILD, str(CONFIGS), str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (out / "net_budget_sweep" / "results.json").is_file()
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def test_run_path_imports_no_scipy(run_path_modules):
    # scipy is a test dependency: nothing that validates or runs may need it
    assert not {m for m in run_path_modules if m.split(".")[0] == "scipy"}


def test_one_worker_run_imports_no_process_pool(run_path_modules):
    # only a run on more than one worker needs concurrent.futures; every
    # other process (and every set-up timing) is spared its import
    assert "concurrent.futures" not in run_path_modules
