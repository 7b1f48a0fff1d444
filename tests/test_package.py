import re
from pathlib import Path

import dpcdenoise

README = Path(__file__).resolve().parent.parent / "README.md"


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
