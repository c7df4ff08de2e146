"""The README's "Library use" example runs as written."""

import re
from pathlib import Path

import numpy as np

from lightfuse.tensor_core import encode_ppm

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block():
    text = README.read_text()
    section = text.split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)\n```", section, re.DOTALL).group(1)


def test_library_use_block_runs(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    for name in ("under.ppm", "over.ppm"):
        (tmp_path / name).write_bytes(encode_ppm(rng.integers(0, 256, size=(32, 40, 3), dtype=np.uint8)))
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_block(), str(README), "exec"), {})
    assert (tmp_path / "out.ppm").is_file()
