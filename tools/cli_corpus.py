"""Run a fixed corpus of stftpr CLI commands and print hashes of what they produce.

The corpus covers every subcommand, every signal spec, exact and noisy
grids, and every exit code 0-4.  Commands run in process,
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

import numpy as np

from stftpr.generators import certified_instance, chain_family

_EXACT = "--n 8 --hop 2 --num-windows 3 --windows chain:2 --signal random --seed 42"
_RECOVER = "recover --grid run/grid.csv --windows run/windows.json --signal run/signal.json"
_NOISY = "recover --grid run/grid_noisy.csv --windows run/windows.json --signal run/signal.json"

# a near-singular pair the rank gate certifies (relative sigma_min about 5e-9):
# w1 is w0 with tap 1 moved by 1e-8
_W0 = [[1.0, 0.0], [0.7, 0.0], [0.4, 0.0]] + [[0.0, 0.0]] * 5
_NEAR = [_W0, [_W0[0], [0.70000001, 0.0]] + _W0[2:]]


def _scaled_chain(scale: float) -> list:
    """``chain_family(8, 2, 3, default_rng(1))`` times ``scale``, as a window file holds it."""
    fam = scale * chain_family(8, 2, 3, np.random.default_rng(1))
    return [[[v.real, v.imag] for v in w] for w in fam.tolist()]


# certified_instance(8, 2, 3, default_rng(1))'s signal at 1e-160, as a signal
# file holds it; "chain:2 --seed 1" draws that instance's family
_TINY = 1e-160 * certified_instance(8, 2, 3, np.random.default_rng(1))[0]
_TINY_SIGNAL = [[v.real, v.imag] for v in _TINY.tolist()]

# a step is a CLI command line, a ("set-meta", file, fields) edit of grid
# metadata, or a ("write-json", file, payload) that writes a JSON input file
CORPUS = [
    # exit 0: every subcommand, exact and noisy data
    f"simulate {_EXACT} --noise 1e-4 --out run",
    f"{_RECOVER} --out run/recover.json",
    f"{_NOISY} --out run/recover_noisy.json",
    "simulate --n 96 --hop 4 --num-windows 6 --windows chain:4 --seed 7 --out roundtrip",
    "recover --grid roundtrip/grid.csv --windows roundtrip/windows.json"
    " --signal roundtrip/signal.json --out roundtrip/recover.json",
    "simulate --n 64 --hop 1 --num-windows 1 --windows chain:1 --seed 3 --noise 1e-9 --out deep",
    "recover --grid deep/grid_noisy.csv --windows deep/windows.json"
    " --signal deep/signal.json --out deep/recover.json",
    "simulate --n 8 --hop 8 --num-windows 8 --windows masks --seed 5 --out masks",
    # a one-vertex support: a spanning tree without edges
    "simulate --n 8 --hop 2 --num-windows 3 --windows chain:2 --signal delta --seed 42"
    " --out delta",
    "recover --grid delta/grid.csv --windows delta/windows.json --signal delta/signal.json"
    " --out delta/recover.json",
    "analyze --n 40 --hop 4 --num-windows 16 --windows chain:4 --seed 1 --out certificate.json",
    "analyze --n 8 --hop 1 --num-windows 1 --windows random-support:4"
    " --signal antipodal-pair --seed 7",
    "analyze --n 8 --hop 2 --windows run/windows.json --signal run/signal.json",
    "analyze --n 16 --hop 4 --num-windows 4 --windows rectangular:3 --signal ones",
    "bounds --n 8 --hop 1 --num-windows 1 --windows random-support:4 --seed 7"
    " --noise 1e-4 --min-magnitude 0.5",
    "bounds --n 8 --hop 2 --windows run/windows.json --signal run/signal.json"
    " --noise 1e-4 --out bounds.json",
    # two rank certificates whose singular_value_min depends on how the gate factors
    "analyze --n 40 --hop 4 --num-windows 16 --windows chain:4 --seed 0",
    "simulate --n 96 --hop 4 --num-windows 6 --windows chain:4 --seed 1 --out gate",
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
    # exit 2: disconnected covisibility graph on the detected support
    "simulate --n 8 --hop 1 --num-windows 2 --windows chain:1 --signal antipodal-pair"
    " --seed 9 --out antipodal",
    "recover --grid antipodal/grid.csv --windows antipodal/windows.json",
    # exit 3: two identical windows fail the rank gate
    "simulate --n 8 --hop 2 --num-windows 2 --windows rectangular:3 --signal ones --out dup",
    "recover --grid dup/grid.csv --windows dup/windows.json",
    "bounds --n 8 --hop 2 --num-windows 2 --windows rectangular:3 --min-magnitude 1",
    # exit 4: an evidence floor above every correlation
    f"{_RECOVER} --degenerate-tol 1e6",
    # exit 1: a noise level whose draw range overflows, a negative noise level,
    # and a prior whose square underflows in the error budget
    "simulate --n 8 --hop 2 --num-windows 3 --windows chain:2 --seed 1 --noise 1e308"
    " --out huge-noise",
    "simulate --n 8 --hop 2 --num-windows 3 --windows chain:2 --seed 1 --noise -1"
    " --out negative-noise",
    "bounds --n 8 --hop 2 --num-windows 3 --windows chain:2 --seed 1 --min-magnitude 1e-300",
    # exit 1: a relative tolerance whose threshold overflows leaves every window
    # without support, with no numpy overflow warning on the way
    "analyze --n 8 --hop 2 --num-windows 3 --windows chain:2 --seed 1"
    " --zero-tol 1.7976931348623157e308",
    # exit 1: a tolerance that leaves a window without support, caught before
    # simulate writes any file
    "simulate --n 8 --hop 2 --num-windows 3 --windows chain:2 --seed 1 --zero-tol 1"
    " --out zero-tol",
    # exit 0: a certificate at n = 256, and one whose covisibility graph has
    # two components, so that its forest is empty
    "analyze --n 256 --hop 4 --num-windows 6 --windows chain:4 --seed 1",
    "analyze --n 40 --hop 4 --num-windows 16 --windows chain:4 --signal antipodal-pair --seed 1",
    # exit 1: bounds checks --zero-tol before it computes anything
    "bounds --n 8 --hop 2 --num-windows 3 --windows chain:2 --seed 1 --min-magnitude 0.5"
    " --zero-tol -1",
    "bounds --n 8 --hop 2 --num-windows 3 --windows chain:2 --seed 1 --min-magnitude 0.5"
    " --zero-tol nan",
    # exit 1: an empty signal spec and a generator argument that is not an
    # integer are named as specs
    "analyze --n 8 --hop 2 --num-windows 3 --windows chain:2 --seed 1 --signal ''",
    "analyze --n 8 --hop 2 --num-windows 3 --windows chain:x --seed 1",
    # exit 1: masks takes no argument, and a grid's noise_level must be a JSON number
    "analyze --n 8 --hop 8 --num-windows 8 --windows masks:abc --seed 1 --signal ones",
    ("set-meta", "meta/grid.meta.json",
     {"hop": 2, "num_windows": 3, "num_hops": 4, "noise_level": "1e-3"}),
    "recover --grid meta/grid.csv --windows meta/windows.json --min-magnitude 0.5",
    # exit 0: an indeterminate verdict (two identical windows fail the rank gate)
    "analyze --n 8 --hop 2 --num-windows 2 --windows rectangular:3 --signal ones",
    # exit 1: verify's cap on direct DFT terms, bounds without a prior, and a
    # window file that is not a list of [re, im] pair lists
    "verify --n 64 --hop 1 --num-windows 16 --windows chain:1 --seed 1",
    "bounds --n 8 --hop 2 --num-windows 3 --windows chain:2 --seed 1",
    "recover --grid run/grid.csv --windows run/signal.json",
    # exit 3: a window longer than half the signal on a connected support
    "simulate --n 7 --hop 1 --num-windows 1 --windows rectangular:5 --signal ones --out long",
    "recover --grid long/grid.csv --windows long/windows.json",
    # exit 0: the same long window on a one-vertex support, which needs no edge phase
    "simulate --n 8 --hop 1 --num-windows 1 --windows rectangular:5 --signal delta --out lw",
    "recover --grid lw/grid.csv --windows lw/windows.json --signal lw/signal.json",
    # exit 1: a negative seed
    "simulate --n 8 --hop 2 --num-windows 3 --windows chain:2 --seed -1 --out negative-seed",
    # exit 3: a length-5 window on n = 12 splits the endpoint graph into 4
    # components, but the covisibility graph is connected, so nothing is proved
    "simulate --n 12 --hop 1 --num-windows 1 --windows rectangular:5 --seed 1 --out r5",
    "recover --grid r5/grid.csv --windows r5/windows.json",
    # exit 0: windows of length 6 on n = 8 and a one-index support, which needs
    # no edge phase: analyze proves it retrievable, and recover returns it
    "analyze --n 8 --hop 1 --num-windows 2 --windows random-support:6 --signal delta --seed 1",
    "simulate --n 8 --hop 1 --num-windows 2 --windows random-support:6 --signal delta --seed 1"
    " --out one",
    "recover --grid one/grid.csv --windows one/windows.json --signal one/signal.json",
    # exit 0: stability constants of the near-singular pair, and of a mask
    # family whose A_norm1 needs the pseudo-inverses' accuracy
    ("write-json", "near.json", _NEAR),
    "bounds --n 8 --hop 2 --windows near.json --min-magnitude 0.5 --noise 1e-12",
    "bounds --n 16 --hop 16 --num-windows 16 --windows masks --seed 7 --min-magnitude 0.5",
    # exit 1: windows, then a signal, past the float range end in a typed
    # error, with no numpy overflow warning on the way and no file written
    ("write-json", "big-windows.json", _scaled_chain(1e160)),
    "simulate --n 8 --hop 2 --windows big-windows.json --seed 1 --out big",
    "analyze --n 8 --hop 2 --windows big-windows.json --seed 1",
    "bounds --n 8 --hop 2 --windows big-windows.json --min-magnitude 0.5",
    ("write-json", "big-signal.json", [[1e160, 0.0]] * 8),
    "simulate --n 8 --hop 2 --num-windows 3 --windows chain:2 --seed 1"
    " --signal big-signal.json --out big-signal",
    # exit 0: A_norm1 past the float range, with a finite magnitude bound
    ("write-json", "tiny-windows.json", _scaled_chain(1e-80)),
    "bounds --n 8 --hop 2 --windows tiny-windows.json --min-magnitude 0.5 --noise 1e-12",
    # exit 0: the largest window's squared mass is 9e307, so the family's
    # total is past the float range; W_norm2 is finite, with no overflow warning
    ("write-json", "huge-windows.json", _scaled_chain(5.364e153)),
    "bounds --n 8 --hop 2 --windows huge-windows.json --min-magnitude 0.5 --noise 1e-300",
    # exit 0: A_norm1 below the float range, so the gain is the scaled form,
    # finite and nonzero, and the budget is defined
    ("write-json", "large-windows.json", _scaled_chain(1e100)),
    "bounds --n 8 --hop 2 --windows large-windows.json --min-magnitude 0.5 --noise 1e-12",
    # exit 4: every correlation of that signal is below the smallest normal
    # float, so no edge has evidence even at --degenerate-tol 0
    ("write-json", "tiny-signal.json", _TINY_SIGNAL),
    "simulate --n 8 --hop 2 --num-windows 3 --windows chain:2 --seed 1"
    " --signal tiny-signal.json --out tiny-signal",
    "recover --grid tiny-signal/grid.csv --windows tiny-signal/windows.json --degenerate-tol 0",
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
                if isinstance(step, tuple) and step[0] == "write-json":
                    _, name, payload = step
                    print(f"# write-json {name}")
                    (root / name).write_text(json.dumps(payload) + "\n")
                elif isinstance(step, tuple):
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
