"""README's command-line examples at the origin, pinned byte for byte.

``golden/readme_cli.json`` holds the stdout of README's seven JSON
commands verbatim, and sha256 digests of ``sample --n 1000`` and of the
``render --maxarea`` and ``render --n 20`` scenes.  Any change to the
package's arithmetic that moves a printed digit shows up here.
``python tests/test_readme_cli.py`` prints the file's content for the code
as it stands.
"""
import hashlib
import json
from pathlib import Path

import pytest

from inconic.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "readme_cli.json")
                    .read_text(encoding="utf-8"))


def _name(case):
    """inscribe_u_0.5 for ["inscribe", "--vertices", "...", "--u", "0.5"]."""
    argv = case["argv"]
    return "_".join(a.lstrip("-") for a in [argv[0], *argv[3:]])


def _run(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


@pytest.mark.parametrize("case", GOLDEN["stdout"], ids=_name)
def test_stdout_is_byte_identical(capsys, case):
    assert _run(capsys, case["argv"]) == case["stdout"]


@pytest.mark.parametrize("case", GOLDEN["sha256"], ids=_name)
def test_digest_is_unchanged(capsys, tmp_path, case):
    if case["of"] == "svg":
        path = tmp_path / "scene.svg"
        assert _run(capsys, [*case["argv"], "--out", str(path)]) == ""
        data = path.read_bytes()
    else:
        data = _run(capsys, case["argv"]).encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == case["sha256"]


def _record():
    """The golden file's content for the code as it stands."""
    import contextlib
    import io
    import tempfile

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0
        return out.getvalue()

    stdout = [{"argv": case["argv"], "stdout": run(case["argv"])} for case in GOLDEN["stdout"]]
    digests = []
    for case in GOLDEN["sha256"]:
        if case["of"] == "svg":
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "scene.svg"
                run([*case["argv"], "--out", str(path)])
                data = path.read_bytes()
        else:
            data = run(case["argv"]).encode("utf-8")
        digests.append({**case, "sha256": hashlib.sha256(data).hexdigest()})
    return {"stdout": stdout, "sha256": digests}


if __name__ == "__main__":
    print(json.dumps(_record(), indent=1))
