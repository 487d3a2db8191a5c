"""The README's examples run as written: its library sketch and its CLI commands."""

import re
import shlex
from pathlib import Path

import numpy as np

from stftpr import cli

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCK = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _blocks(language):
    return [body for lang, body in _BLOCK.findall(README.read_text()) if lang == language]


def _cli_commands():
    """Each ``stftpr ...`` command of the README's CLI block, split into arguments."""
    commands = []
    for body in _blocks("sh"):
        for line in body.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["stftpr"]:
                commands.append(words[1:])
    return commands


def test_library_sketch_recovers_the_signal(capsys):
    (sketch,) = _blocks("python")
    scope = {}
    exec(compile(sketch, str(README), "exec"), scope)
    x, estimate = scope["x"], scope["result"].estimate
    distance = scope["sp"].phase_distance(estimate, x).distance
    assert distance <= 1e-8 * np.linalg.norm(x)
    assert float(capsys.readouterr().out) == distance


def test_cli_commands_exit_zero(tmp_path, monkeypatch, capsys):
    commands = _cli_commands()
    assert [c[0] for c in commands] == ["simulate", "analyze", "recover", "bounds", "verify"]
    monkeypatch.chdir(tmp_path)  # the commands write run/ and report.json
    for argv in commands:
        assert cli.main(argv) == cli.EXIT_OK, (argv, capsys.readouterr().err)
    assert (tmp_path / "report.json").exists()
