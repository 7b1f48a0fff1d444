import os
import re
import subprocess
import sys
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


def test_readme_library_example_uses_only_exports():
    text = README.read_text()
    snippet = re.search(r"## Library\s+```python\n(.*?)```", text, re.S).group(1)
    assert "import dpcdenoise as d\n" in snippet
    # ``d`` is the package alias; a word boundary keeps ``denoised.frames`` out.
    used = set(re.findall(r"\bd\.(\w+)", snippet))
    assert used
    assert sorted(used - set(dpcdenoise.__all__)) == []


def test_cli_import_loads_no_scipy_spatial():
    # scipy.spatial adds about 0.2 s and 16 MB to every process start;
    # the program needs only scipy.sparse.
    code = ("import sys, dpcdenoise.cli; "
            "print('scipy.sparse' in sys.modules, "
            "sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'spatial']))")
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    assert done.stdout.strip() == "True []"
