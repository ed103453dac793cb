"""Command-line tests on a reduced fixture: exit codes, routing, determinism."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from groupact.cli import main
from groupact.simgen import ScenarioSpec

from scenarios import approach, fight, merge_for_training, split, chase, walk_together, run_together, fig1_hierarchy
from groupact.trackio import write_annotations, write_tracks

SHORT = 90  # frames: enough for every activity to be learnable at window 8


def shorten(spec: ScenarioSpec) -> ScenarioSpec:
    events = tuple(
        replace(e, frames=(min(e.frames[0], SHORT - 1), min(e.frames[1], SHORT - 1)))
        for e in spec.events
    )
    return replace(spec, duration=SHORT, events=events)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A tiny training corpus plus one evaluation scenario on disk."""
    root = tmp_path_factory.mktemp("cli")
    specs = [shorten(b(seed=900 + i)) for i, b in enumerate(
        (walk_together, fight, run_together, approach, split, chase, fig1_hierarchy)
    )]
    tracks, annotations = merge_for_training(specs)
    with open(root / "train.tracks.csv", "w") as fp:
        write_tracks(tracks, fp)
    with open(root / "train.annotations.jsonl", "w") as fp:
        write_annotations(annotations, fp)

    eval_spec = shorten(fight(seed=950))
    with open(root / "scenario.json", "w") as fp:
        json.dump(eval_spec.to_payload(), fp)
    return root


TRAIN_FLAGS = ["--window", "8", "--dt", "3", "--max-iters", "6", "--max-segments", "24"]


def run(args):
    return main([str(a) for a in args])


def test_simulate_train_detect_evaluate_chain(workdir, capsys):
    assert run(["simulate", "--spec", workdir / "scenario.json",
                "--out-prefix", workdir / "eval"]) == 0
    assert (workdir / "eval.tracks.csv").exists()
    assert (workdir / "eval.annotations.jsonl").exists()

    assert run(["train", "--tracks", workdir / "train.tracks.csv",
                "--annotations", workdir / "train.annotations.jsonl",
                "--out", workdir / "model.json", "--seed", "3", *TRAIN_FLAGS]) == 0
    out = capsys.readouterr().out
    assert "model written" in out
    assert "trained WalkTogether" in out

    assert run(["detect", "--tracks", workdir / "eval.tracks.csv",
                "--model", workdir / "model.json",
                "--out", workdir / "dets.jsonl"]) == 0
    assert (workdir / "dets.jsonl").exists()

    assert run(["evaluate", "--detections", workdir / "dets.jsonl",
                "--truth", workdir / "eval.annotations.jsonl",
                "--csv", workdir / "per_activity.csv"]) == 0
    out = capsys.readouterr().out
    assert "gcer" in out and "eder" in out
    assert (workdir / "per_activity.csv").exists()


def test_chain_is_byte_identical(workdir, tmp_path):
    for d in ("a", "b"):
        sub = tmp_path / d
        sub.mkdir()
        assert run(["simulate", "--spec", workdir / "scenario.json",
                    "--out-prefix", sub / "s"]) == 0
        assert run(["train", "--tracks", workdir / "train.tracks.csv",
                    "--annotations", workdir / "train.annotations.jsonl",
                    "--out", sub / "model.json", "--seed", "3", *TRAIN_FLAGS]) == 0
        assert run(["detect", "--tracks", sub / "s.tracks.csv",
                    "--model", sub / "model.json", "--out", sub / "dets.jsonl"]) == 0
    for name in ("s.tracks.csv", "s.annotations.jsonl", "model.json", "dets.jsonl"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_gr_flags_route_to_different_configs(workdir):
    for gr in ("p", "v", "sv"):
        assert run(["detect", "--tracks", workdir / "eval.tracks.csv",
                    "--model", workdir / "model.json",
                    "--out", workdir / f"dets_{gr}.jsonl", "--gr", gr]) == 0
    assert run(["detect", "--tracks", workdir / "eval.tracks.csv",
                "--model", workdir / "model.json",
                "--out", workdir / "dets_mv.jsonl", "--baseline", "mv",
                "--variant", "2"]) == 0


def test_train_missing_activity_names_it(workdir, tmp_path, capsys):
    # drop every Chase record from the annotations
    lines = (workdir / "train.annotations.jsonl").read_text().splitlines()
    kept = [l for l in lines if '"Chase"' not in l]
    p = tmp_path / "nochase.jsonl"
    p.write_text("\n".join(kept) + "\n")
    code = run(["train", "--tracks", workdir / "train.tracks.csv",
                "--annotations", p, "--out", tmp_path / "m.json", *TRAIN_FLAGS])
    assert code == 2
    assert "Chase" in capsys.readouterr().err


def test_detect_bad_model_version(workdir, tmp_path, capsys):
    doc = json.loads((workdir / "model.json").read_text())
    doc["format_version"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = run(["detect", "--tracks", workdir / "eval.tracks.csv",
                "--model", bad, "--out", tmp_path / "x.jsonl"])
    assert code == 3
    assert "99" in capsys.readouterr().err


def test_evaluate_disjoint_ranges(workdir, tmp_path, capsys):
    dets = tmp_path / "late.jsonl"
    dets.write_text('{"frame": 5000, "groups": [{"id": 0, "members": [1], "label": "single", "seed": []}], "pairs": []}\n')
    code = run(["evaluate", "--detections", dets,
                "--truth", workdir / "eval.annotations.jsonl"])
    assert code == 2
    assert "5000" in capsys.readouterr().err


def test_malformed_tracks_exit_data_error(workdir, tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("0,1,1,2,3,4\nnot a line\n")
    code = run(["detect", "--tracks", p, "--model", workdir / "model.json",
                "--out", tmp_path / "x.jsonl"])
    assert code == 2
    # lenient mode skips the bad line instead
    code = run(["detect", "--tracks", p, "--model", workdir / "model.json",
                "--out", tmp_path / "x.jsonl", "--lenient"])
    assert code == 0


def test_usage_error_exit_code(capsys):
    assert run(["detect"]) == 1
    assert run(["frobnicate"]) == 1


def test_simulate_invalid_spec(tmp_path, capsys):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({
        "seed": 1, "duration": 10,
        "agents": [{"agent": 1, "start": [0, 0]}],
        "events": [{"label": "Fight", "frames": [0, 5], "members": [9], "group_id": "g"}],
    }))
    code = run(["simulate", "--spec", p, "--out-prefix", tmp_path / "out"])
    assert code == 2
    assert not (tmp_path / "out.tracks.csv").exists()


@pytest.mark.parametrize("flags", [
    ["--window", "0"], ["--window", "1"], ["--dt", "-1"], ["--dt", "50"],
])
@pytest.mark.parametrize("command", ["train", "detect"])
def test_bad_window_or_dt_is_usage_error(workdir, tmp_path, capsys, command, flags):
    out = tmp_path / "out"
    if command == "train":
        args = ["train", "--tracks", workdir / "train.tracks.csv",
                "--annotations", workdir / "train.annotations.jsonl",
                "--out", out, "--window", "12", "--max-iters", "1", *flags]
    else:
        # the model path is the only input read before the check
        args = ["detect", "--tracks", tmp_path / "missing.csv",
                "--model", workdir / "model.json", "--out", out, *flags]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert f"groupact {command}: error:" in err and "Traceback" not in err
    assert "window" in err
    assert not out.exists()


def test_atomic_write_removes_temp_file_when_writer_raises(tmp_path):
    from groupact.cli import _atomic_write

    target = tmp_path / "dets.jsonl"

    def writer(fp):
        fp.write("partial")
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        _atomic_write(target, writer)
    assert list(tmp_path.iterdir()) == []
