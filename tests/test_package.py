import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import typing
from pathlib import Path

import dpcdenoise

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    namespace = {}
    exec("from dpcdenoise import *", namespace)
    missing = [name for name in dpcdenoise.__all__ if name not in namespace]
    assert not missing
    assert len(set(dpcdenoise.__all__)) == len(dpcdenoise.__all__)


def test_every_annotation_resolves():
    # Annotations are strings under ``from __future__ import annotations``; a
    # name a module forgot to import fails only when they are resolved.
    for info in pkgutil.iter_modules(dpcdenoise.__path__):
        module = importlib.import_module(f"dpcdenoise.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                typing.get_type_hints(obj)
                for member in vars(obj).values():
                    if inspect.isfunction(member):
                        typing.get_type_hints(member)
            elif inspect.isfunction(obj):
                typing.get_type_hints(obj)


def test_readme_library_example_uses_only_exports():
    text = README.read_text()
    snippet = re.search(r"## Library\s+```python\n(.*?)```", text, re.S).group(1)
    assert "import dpcdenoise as d\n" in snippet
    # ``d`` is the package alias; a word boundary keeps ``denoised.frames`` out.
    used = set(re.findall(r"\bd\.(\w+)", snippet))
    assert used
    assert sorted(used - set(dpcdenoise.__all__)) == []


def test_imports_load_no_scipy():
    # Importing scipy.sparse took about 0.2 s of every process start; the
    # package needs numpy alone, in every module. Each import runs in a fresh
    # interpreter.
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    modules = ["dpcdenoise"] + [f"dpcdenoise.{info.name}"
                                for info in pkgutil.iter_modules(dpcdenoise.__path__)]
    for module in modules:
        code = (f"import sys, {module}; "
                "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy')))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
        assert done.stdout.strip() == "[]", module


def test_synth_and_denoise_load_no_numpy_ma_or_scipy(tmp_path):
    # np.median and np.unique import numpy.ma on first use, about 11-15 ms
    # of a process; a run through the command line loads neither it nor
    # scipy. The modules are read after the run in a fresh interpreter.
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    code = (
        "import glob, sys\n"
        "from dpcdenoise.cli import cli_main\n"
        "assert cli_main(['synth', '--kind', 'sinusoid-sheet', '--points', '200',\n"
        "                 '--frames', '2', '--out-dir', 'clean']) == 0\n"
        "frames = sorted(glob.glob('clean/*.ply'))\n"
        "assert cli_main(['denoise', *frames, '--out-dir', 'out']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')\n"
        "             or m.split('.')[0].startswith('scipy')))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines()[-1] == "[]"
    assert len(list((tmp_path / "out").glob("*.ply"))) == 2


# Public names that only tests reach today, each kept for a stated reason.
TEST_ONLY = {
    "optimize.learn_metric":
        "criterion 5's metric learning, kept until the pipeline runs a learned graph or it goes",
    "optimize.metric_objective": "the objective criterion 5 checks learn_metric's descent on",
    "optimize.metric_gradient": "the gradient criterion 5 checks against finite differences",
    "io.save_config": "writes the file format load_config reads, for library users",
    "io.RunManifest.load": "reads back the manifest.json a run writes, for library users",
}


def _loads(node) -> set:
    """The names and attribute names ``node`` reads in code, not in a docstring."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def test_every_public_name_is_exported_or_used_by_the_package():
    # Code that only tests reach does not stay in the package. A public
    # top-level name of a module is in __all__, the command's entry point,
    # in TEST_ONLY, or read in code (a Name or an Attribute, not a docstring)
    # by a top-level statement of some module other than its own definition.
    # A public method of a class of the package is in TEST_ONLY, overrides a
    # method of a base class, or is read by another top-level statement or
    # by another member of its class.
    entry = set(re.findall(r'"dpcdenoise\.\w+:(\w+)"', (ROOT / "pyproject.toml").read_text()))
    assert entry == {"main"}
    defined, reads = {}, {}
    for path in sorted((ROOT / "src" / "dpcdenoise").glob("*.py")):
        module = importlib.import_module(f"dpcdenoise.{path.stem}")
        for index, stmt in enumerate(ast.parse(path.read_text()).body):
            where = (path.stem, index)
            reads[where] = _loads(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined.update({(path.stem, name): (where, set()) for name in names
                            if not name.startswith("_")})
            if not isinstance(stmt, ast.ClassDef):
                continue
            bases = inspect.getmro(getattr(module, stmt.name))[1:]
            for member in stmt.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not member.name.startswith("_")
                        and not any(hasattr(base, member.name) for base in bases)):
                    siblings = set().union(*(_loads(other) for other in stmt.body
                                             if other is not member))
                    defined[(path.stem, f"{stmt.name}.{member.name}")] = (where, siblings)
    unread = set()
    for (stem, name), (where, siblings) in defined.items():
        short = name.rsplit(".", 1)[-1]
        if not (short in set(dpcdenoise.__all__) | entry | siblings
                or any(short in read for other, read in reads.items() if other != where)):
            unread.add(f"{stem}.{name}")
    # Each TEST_ONLY name exists and is still unread: the list cannot go stale.
    assert sorted(unread) == sorted(TEST_ONLY)
