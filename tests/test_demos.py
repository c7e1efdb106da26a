"""The six demos, pinned byte for byte.

``golden/demos.json`` holds, for each ``demos/*.py``, the sha256 of its
stdout and of each file it writes under its working directory (demo 06
writes its SVG scenes to ``./out/``).  Each demo runs as a fresh process
in its own temporary directory, against the package this suite imports.
The demos print format-spec numbers only, so a digit that moves shows up
here.  ``python tests/test_demos.py`` prints the file's content for the
code as it stands.
"""
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import inconic

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
GOLDEN_PATH = Path(__file__).parent / "golden" / "demos.json"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_demo(demo: Path) -> dict:
    """The sha256 of the demo's stdout and of each file it writes."""
    src = str(Path(inconic.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                              capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        files = {path.relative_to(cwd).as_posix(): _digest(path.read_bytes())
                 for path in sorted(Path(cwd).rglob("*")) if path.is_file()}
    return {"stdout": _digest(proc.stdout), "files": files}


def test_every_demo_is_pinned():
    assert [demo.name for demo in DEMOS] == sorted(json.loads(GOLDEN_PATH.read_text()))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_output_is_byte_identical(demo):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _run_demo(demo) == golden[demo.name]


if __name__ == "__main__":
    print(json.dumps({demo.name: _run_demo(demo) for demo in DEMOS}, indent=2, sort_keys=True))
