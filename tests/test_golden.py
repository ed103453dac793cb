"""Golden detections: sha256 of ``write_detections`` output on the evaluation scenarios.

The bank is the benchmark's frozen one (the ``frozen_bank`` fixture), so a
digest moves only when the detector's output does.  A change that alters
detections on purpose updates the digests here and says why in CHANGES.md.
"""

import hashlib
import io

import pytest

from groupact.grad import PipelineConfig, run_pipeline, write_detections
from groupact.simgen import generate

from scenarios import EVAL_SCENARIOS

FRAMES = range(1, 41)
SEED = 200  # scenario i of the sorted names runs at SEED + i

CONFIGS = {
    "default": {},
    "variant2": dict(variant=2),
    "variant2-p-mv-smooth": dict(variant=2, gr="p", baseline="mv", smoothing=True),
    "gr-v": dict(gr="v"),
}

_DEFAULT = {
    "approach": "cefa674363502a29bc80fdbd202b6d8c9963209164b6f845428443ddf19a3f26",
    "chase": "3863e20cfb2f929ac5eff1991d1ca7d67822ed2fbe99929f4611790f08d73d34",
    "fight": "be189ed6ffaee7f714d525493e70043cec7ae3350494bdc0baffe8c77716f23f",
    "run_together": "9b96ef22aff1b2859a0ac0becef7f2b5be1358ba781c790929edecc87564501f",
    "split": "cfe15609cb724bdd139f53c0c65ce109cad34f5850527b5573c2c1b67a4d5fbc",
    "walk_together": "c41ddbfefebe75ee4d80a539f5f0097ca3a4b7deeba87fe76c5502e4b775f2df",
}

GOLDEN = {
    "default": _DEFAULT,
    # the GR relation scores and the variant-2 prior; only split's labels differ
    "variant2": {
        **_DEFAULT,
        "split": "448c8dacc0f863dbd759d1930fa513450a33eeee693c64043e557d01db549518",
    },
    "variant2-p-mv-smooth": {
        "approach": "420b3ee90e080297bf784270838be1e24d58b8fd24e878064f4d0a2f062f1a7a",
        "chase": "a67cb845b85c72a574913a137c17067f9e440fa42d9673585cae0e493edc6c6c",
        "fight": "670e8b411573c3d0526369b59001b3eff761c0a15c91a7a2511b00d2a80e1432",
        "run_together": "0b8d4feaf4215b0152e8c8f634bc0c1a2a7d89bfda95f7e11493d15843cd6cd6",
        "split": "0ab67fddf20dbb0b2579ba3d126108cf0efcdf99d4c31e3ef573f84d351f5ae8",
        "walk_together": "64dc05407445d5b008adfcef898a0e88d36c7af4acc1cb7b5b82ef2675517f02",
    },
    # the whole-group representative labels these frames as the default does
    "gr-v": _DEFAULT,
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_detections_match_golden_digests(frozen_bank, config):
    got = {}
    for i, name in enumerate(sorted(EVAL_SCENARIOS)):
        tracks, _ = generate(EVAL_SCENARIOS[name](seed=SEED + i))
        cfg = PipelineConfig.from_bank(frozen_bank, **CONFIGS[config])
        buf = io.StringIO()
        write_detections(run_pipeline(frozen_bank, tracks, cfg, frames=FRAMES), buf)
        got[name] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert got == GOLDEN[config]
