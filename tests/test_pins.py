"""Output pins: every stage circuit of `pipeline_mlco`, gate for gate.

A pass that is meant to change no output, such as a speed-up, must leave
every digest in ``pipeline_digests.json`` as it is.  After a change that is
meant to alter outputs, re-pin with ``PYTHONPATH=src python tests/test_pins.py``
and say in the change which stages moved.
"""

import hashlib
import json
import time
from pathlib import Path

from mlco.build import PdeParams, WingStyle
from mlco.ir import write_circuit
from mlco.passes import pipeline_mlco

DIGESTS = Path(__file__).with_name("pipeline_digests.json")


def stage_digests() -> dict[str, list[str]]:
    """Per input, "<SHA-256 of the written circuit> <stage name>" for every stage."""
    pins = {}
    for style in ("stair", "spray"):
        for n in (4, 6, 8):
            for k in (1, 2, 3):
                final, stages = pipeline_mlco(PdeParams(n=n), k, WingStyle(style))
                assert final is stages[-1].circuit
                pins[f"{style} n={n} k={k}"] = [
                    f"{hashlib.sha256(write_circuit(s.circuit)).hexdigest()} {s.name}"
                    for s in stages]
    return pins


def test_every_pipeline_stage_is_pinned():
    start = time.perf_counter()
    got = stage_digests()
    elapsed = time.perf_counter() - start
    assert got == json.loads(DIGESTS.read_text())
    assert elapsed < 2.0


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(stage_digests(), indent=1) + "\n")
