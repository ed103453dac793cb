import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from groupact.seqmodel import TrainConfig, train_bank
from groupact.trackio import load_model

from scenarios import DT, WINDOW, merge_for_training, training_specs


def _train(fix_advance=None):
    tracks, annotations = merge_for_training(training_specs())
    config = TrainConfig(
        seed=0, max_iters=20, max_segments=48, chunk=WINDOW, fix_advance=fix_advance
    )
    return train_bank(tracks, annotations, config, window=WINDOW, dt=DT)


@pytest.fixture(scope="session")
def bank():
    """Activity model bank trained on the seed-shifted scenario suite."""
    return _train()


@pytest.fixture(scope="session")
def hmm_bank():
    """Same corpus trained with advance probabilities pinned at one."""
    return _train(fix_advance=1.0)


@pytest.fixture(scope="session")
def frozen_bank():
    """The benchmark's committed bank, trained once on the tiled nine-scene corpus."""
    with open(Path(__file__).resolve().parents[1] / "perfbench" / "data" / "bank.json",
              encoding="utf-8") as fp:
        return load_model(fp)
