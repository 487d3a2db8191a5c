"""Run a fixed corpus of stftpr CLI commands and print hashes of what they produce.

The corpus covers every subcommand, exact and noisy grids, full and
``--compressed`` recovery, and every exit code 0-4.  Commands run in process,
through ``stftpr.cli.main``, in a fresh temporary directory with relative
paths, against whichever ``stftpr`` is first on ``sys.path``.  For each step
the tool prints the command, its exit code and the SHA-256 of its stderr,
then one ``sha256  file`` line for every file the step created or changed
(``<stdout>`` for what it wrote to standard output).

Two checkouts write the same bytes when the outputs of this tool, run once
against each, are identical::

    PYTHONPATH=src python tools/cli_corpus.py > change.txt
    PYTHONPATH=../parent/src python tools/cli_corpus.py > parent.txt
    diff parent.txt change.txt

Float output can differ between machines, so the comparison is only
meaningful on one machine, and the tool is not part of the test suite.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

_EXACT = "--n 8 --hop 2 --num-windows 3 --windows chain:2 --signal random --seed 42"
_RECOVER = "recover --grid run/grid.csv --windows run/windows.json --signal run/signal.json"
_NOISY = "recover --grid run/grid_noisy.csv --windows run/windows.json --signal run/signal.json"

# a step is a CLI command line, or a ("set-meta", file, fields) edit of grid metadata
CORPUS = [
    # exit 0: every subcommand, exact and noisy data, full and compressed recovery
    f"simulate {_EXACT} --noise 1e-4 --out run",
    f"{_RECOVER} --out run/recover.json",
    f"{_RECOVER} --compressed --out run/recover_compressed.json",
    f"{_NOISY} --out run/recover_noisy.json",
    f"{_NOISY} --compressed --min-magnitude 0.5 --out run/recover_noisy_compressed.json",
    "simulate --n 96 --hop 4 --num-windows 6 --windows chain:4 --seed 7 --out roundtrip",
    "recover --grid roundtrip/grid.csv --windows roundtrip/windows.json"
    " --signal roundtrip/signal.json --out roundtrip/recover.json",
    "simulate --n 64 --hop 1 --num-windows 1 --windows chain:1 --seed 3 --noise 1e-9 --out deep",
    "recover --grid deep/grid_noisy.csv --windows deep/windows.json"
    " --signal deep/signal.json --out deep/recover.json",
    "recover --grid deep/grid_noisy.csv --windows deep/windows.json"
    " --min-magnitude 0.5 --compressed --out deep/recover_compressed.json",
    "simulate --n 8 --hop 8 --num-windows 8 --windows masks --seed 5 --out masks",
    "analyze --n 40 --hop 4 --num-windows 16 --windows chain:4 --seed 1 --out certificate.json",
    "analyze --n 8 --hop 1 --num-windows 1 --windows random-support:4"
    " --signal antipodal-pair --seed 7",
    "analyze --n 8 --hop 2 --windows run/windows.json --signal run/signal.json",
    "analyze --n 16 --hop 4 --num-windows 4 --windows rectangular:3 --signal ones",
    "bounds --n 8 --hop 1 --num-windows 1 --windows random-support:4 --seed 7"
    " --noise 1e-4 --min-magnitude 0.5",
    "bounds --n 8 --hop 2 --windows run/windows.json --signal run/signal.json"
    " --noise 1e-4 --out bounds.json",
    f"verify {_EXACT.replace('42', '13')}",
    f"verify {_EXACT} --out verify.jsonl",
    # exit 1: usage and input errors
    "recover --windows run/windows.json",
    "simulate --n 8 --hop 1 --num-windows 1 --windows random-support:3 --out noseed",
    "simulate --n 8 --hop 2 --num-windows 2 --windows rectangular:2 --signal ones"
    " --noise 1e-3 --out noisy-noseed",
    "analyze --n 8 --hop 2 --num-windows 3 --windows sawtooth --seed 1",
    "analyze --n 8 --hop 2 --num-windows 3 --windows chain:0 --seed 1",
    "simulate --n 8 --hop 2 --num-windows 3 --windows chain:0 --seed 1 --out chain0",
    f"{_RECOVER} --windows missing.json",
    f"{_RECOVER} --zero-tol nan",
    f"simulate {_EXACT} --out meta",
    ("set-meta", "meta/grid.meta.json", {"hop": 4}),
    "recover --grid meta/grid.csv --windows meta/windows.json",
    ("set-meta", "meta/grid.meta.json", {"hop": 2, "num_windows": 10**6, "num_hops": 10**6}),
    "recover --grid meta/grid.csv --windows meta/windows.json",
    # exit 2: disconnected endpoint graph on the detected support
    "simulate --n 8 --hop 1 --num-windows 2 --windows chain:1 --signal antipodal-pair"
    " --seed 9 --out antipodal",
    "recover --grid antipodal/grid.csv --windows antipodal/windows.json",
    # exit 3: two identical windows fail the rank gate
    "simulate --n 8 --hop 2 --num-windows 2 --windows rectangular:3 --signal ones --out dup",
    "recover --grid dup/grid.csv --windows dup/windows.json",
    "bounds --n 8 --hop 2 --num-windows 2 --windows rectangular:3 --min-magnitude 1",
    # exit 4: an evidence floor above every correlation
    f"{_RECOVER} --degenerate-tol 1e6",
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _snapshot(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): _sha256(p.read_bytes())
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _set_meta(root: Path, name: str, fields: dict) -> None:
    path = root / name
    meta = json.loads(path.read_text())
    meta.update(fields)
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _run(argv: list[str]) -> tuple[str, str, str]:
    """Exit code (or the name of an escaping exception), stdout and stderr of one command."""
    from stftpr import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except SystemExit as exc:  # argparse usage errors
            code = str(exc.code)
        except Exception as exc:  # a traceback the CLI failed to turn into an exit code
            code = f"traceback {type(exc).__name__}"
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    cwd = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        os.chdir(root)
        try:
            seen = _snapshot(root)
            for step in CORPUS:
                if isinstance(step, tuple):
                    _, name, fields = step
                    print(f"# set-meta {name} {json.dumps(fields, sort_keys=True)}")
                    _set_meta(root, name, fields)
                else:
                    print(f"$ stftpr {step}")
                    code, out, err = _run(shlex.split(step))
                    print(f"exit {code}  stderr {_sha256(err.encode())}")
                    if out:
                        print(f"{_sha256(out.encode())}  <stdout>")
                now = _snapshot(root)
                for name, digest in now.items():
                    if seen.get(name) != digest:
                        print(f"{digest}  {name}")
                seen = now
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
