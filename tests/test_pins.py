"""Output pins: every stage circuit of `pipeline_mlco`, gate for gate; the
circuits of the executable DETO baseline; and the text the CLI prints.

A pass that is meant to change no output, such as a speed-up, must leave
every pin in ``pipeline_digests.json``, ``deto_digests.json`` and
``cli_transcript.txt`` as it is.  After a change that is meant to alter
outputs, re-pin with ``PYTHONPATH=src python tests/test_pins.py`` and say in
the change which pins moved.
"""

import contextlib
import hashlib
import io
import json
import tempfile
import time
from pathlib import Path

from mlco.build import PdeParams, WingStyle
from mlco.cli import main
from mlco.ir import census, write_circuit
from mlco.passes import pipeline_deto, pipeline_mlco

DIGESTS = Path(__file__).with_name("pipeline_digests.json")
DETO_DIGESTS = Path(__file__).with_name("deto_digests.json")
CLI_TRANSCRIPT = Path(__file__).with_name("cli_transcript.txt")


def _digest(circuit) -> str:
    return hashlib.sha256(write_circuit(circuit)).hexdigest()


def stage_digests() -> dict[str, list[str]]:
    """Per input, "<SHA-256 of the written circuit> <stage name>" for every stage."""
    pins = {}
    for style in ("stair", "spray"):
        for n in (4, 6, 8):
            for k in (1, 2, 3):
                final, stages = pipeline_mlco(PdeParams(n=n), k, WingStyle(style))
                assert final is stages[-1].circuit
                pins[f"{style} n={n} k={k}"] = [f"{_digest(s.circuit)} {s.name}"
                                                for s in stages]
    return pins


def deto_digests() -> dict[str, str]:
    """Per input, "<SHA-256 of the written circuit> CX=<count>" of the
    executable DETO baseline."""
    pins = {}
    for style in ("stair", "spray"):
        for n in (4, 6, 8):
            for k in (1, 2):
                circuit, _ = pipeline_deto(PdeParams(n=n), k, WingStyle(style))
                pins[f"{style} n={n} k={k}"] = f"{_digest(circuit)} CX={census(circuit)['CX']}"
    return pins


#: (wing, qubits, steps) of the sources the transcript builds.
CLI_SOURCES = (("stair", 6, 2), ("spray", 8, 1), ("stair", 7, 3))


def cli_transcript() -> str:
    """stdout and exit code of a fixed command flow through `mlco.cli.main`.

    Every `optimize` runs with --no-verify: the verification line prints a
    deviation that depends on rounding.  File arguments are shown by name.
    """
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        def mlco(*argv: str) -> None:
            real = [str(Path(tmp, a)) if a.endswith(".mlco") else a for a in argv]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(real)
            out.write(f"$ mlco {' '.join(argv)}\n{buf.getvalue()}[exit {code}]\n")

        for wing, n, k in CLI_SOURCES:
            src = f"{wing}{n}.mlco"
            mlco("build", "--wing", wing, "-n", str(n), "-k", str(k), "--out", src)
            mlco("optimize", "--in", src, "--out", "logs.mlco", "--no-verify")
            mlco("optimize", "--to", "migs", "--in", src, "--out", "migs.mlco",
                 "--no-verify")
            mlco("optimize", "--strategy", "deto", "--in", src, "--out", "deto.mlco",
                 "--no-verify")
            for name in ("logs.mlco", "migs.mlco", "deto.mlco"):
                mlco("count", "--in", name)
        mlco("table1")
        mlco("sweep", "--sizes", "4,6", "--executable")
        mlco("sweep", "--wing", "spray", "--sizes", "4,5,8", "--steps", "3")
    return out.getvalue()


def test_every_pipeline_stage_is_pinned():
    start = time.perf_counter()
    got = stage_digests()
    elapsed = time.perf_counter() - start
    assert got == json.loads(DIGESTS.read_text())
    assert elapsed < 2.0


def test_every_executable_deto_circuit_is_pinned():
    assert deto_digests() == json.loads(DETO_DIGESTS.read_text())


def test_cli_transcript_is_pinned():
    assert cli_transcript() == CLI_TRANSCRIPT.read_text()


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(stage_digests(), indent=1) + "\n")
    DETO_DIGESTS.write_text(json.dumps(deto_digests(), indent=1) + "\n")
    CLI_TRANSCRIPT.write_text(cli_transcript())
