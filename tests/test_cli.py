"""Command-line tests on a reduced fixture: exit codes, routing, determinism."""

import json
import logging
import re
from dataclasses import replace
from pathlib import Path

import pytest

from groupact import cli
from groupact.cli import CliError, main
from groupact.grad import PipelineConfig
from groupact.seqmodel import TrainConfig
from groupact.simgen import ScenarioSpec, generate

from scenarios import approach, fight, merge_for_training, split, chase, walk_together, run_together, fig1_hierarchy
from groupact.trackio import ModelFormatError, load_model, write_annotations, write_tracks

FROZEN_BANK = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "bank.json"
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


def test_unset_flags_keep_the_library_defaults(workdir, tmp_path, monkeypatch):
    seen = {}

    def stop(name):
        def record(*args, **kwargs):
            seen[name] = (args[2], kwargs)
            raise CliError(9)
        return record

    monkeypatch.setattr(cli, "train_bank", stop("train"))
    monkeypatch.setattr(cli.grad, "run_pipeline", stop("detect"))
    assert run(["train", "--tracks", workdir / "train.tracks.csv", "--annotations",
                workdir / "train.annotations.jsonl", "--out", tmp_path / "m.json"]) == 9
    assert seen["train"] == (TrainConfig(), {"window": 25, "dt": 5})
    assert run(["detect", "--tracks", workdir / "train.tracks.csv", "--model", FROZEN_BANK,
                "--out", tmp_path / "d.jsonl"]) == 9
    with open(FROZEN_BANK, encoding="utf-8") as fp:
        bank = load_model(fp)
    assert seen["detect"] == (PipelineConfig.from_bank(bank), {"frames": None})


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


def _fight_asymmetric(bank):
    bank["taxonomy"]["levels"]["Fight"] = "asymmetric"


def _extra_model(bank):
    bank["models"]["Dance"] = bank["models"]["Fight"]


def _missing_model(bank):
    del bank["models"]["Split"]


def _group_model_under_approach(bank):
    bank["group_models"]["Approach"] = bank["group_models"]["Fight"]


def _fight_model_says_chase(bank):
    bank["models"]["Fight"].update(label="Chase", kind="asymmetric")


@pytest.mark.parametrize("corrupt", [
    _fight_asymmetric, _extra_model, _missing_model, _group_model_under_approach,
    _fight_model_says_chase,
], ids=["non-stock-taxonomy", "extra-model", "missing-model", "group-model-under-approach",
        "model-label-not-its-key"])
def test_bank_outside_the_taxonomy_is_model_error(tmp_path, capsys, corrupt):
    doc = json.loads(FROZEN_BANK.read_text(encoding="utf-8"))
    corrupt(doc["bank"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with open(bad, encoding="utf-8") as fp, pytest.raises(ModelFormatError):
        load_model(fp)
    # no tracks file exists: the bank is checked before any track is read
    out = tmp_path / "x.jsonl"
    assert run(["detect", "--tracks", tmp_path / "missing.csv", "--model", bad, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "model error" in err and "Traceback" not in err
    assert not out.exists()


def _fight(bank):
    return bank["models"]["Fight"]


@pytest.mark.parametrize("corrupt, field", [
    (lambda bank: bank["config"].update(window=12.7), "window"),
    (lambda bank: bank["config"].update(dt=True), "dt"),
    (lambda bank: bank["config"].update(tc="0.1"), "tc"),
    (lambda bank: _fight(bank).update(entry=[str(v) for v in _fight(bank)["entry"]]), "entry"),
    (lambda bank: _fight(bank)["trans"][1].__setitem__(0, None), "trans"),
    (lambda bank: _fight(bank).update(mixture_fallback="no"), "mixture_fallback"),
    (lambda bank: _fight(bank).update(entry=[float("nan")] * 2), "entry"),
    (lambda bank: _fight(bank).update(entry=[[v] for v in _fight(bank)["entry"]]), "entry (2, 1)"),
    (lambda bank: bank["models"]["Chase"]["advance"].__setitem__(0, float("nan")), "advance"),
    (lambda bank: _fight(bank)["marginal"][0].update(weights=[str(w) for w in _fight(bank)["marginal"][0]["weights"]]),
     "weights"),
    (lambda bank: _fight(bank)["marginal"][1]["variances"][0].__setitem__(0, True), "variances"),
    (lambda bank: _fight(bank)["joint"][1]["means"][0].__setitem__(2, "0"), "means"),
], ids=["fractional-window", "bool-dt", "string-tc", "string-entry", "null-trans",
        "string-fallback", "nan-entry", "nested-entry", "nan-advance", "string-weights", "bool-variance", "string-mean"])
def test_model_numbers_of_the_wrong_json_type_are_model_errors(tmp_path, capsys, corrupt, field):
    """A model value of the wrong JSON type or shape, or a NaN probability, is named, not coerced or accepted."""
    doc = json.loads(FROZEN_BANK.read_text(encoding="utf-8"))
    corrupt(doc["bank"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with open(bad, encoding="utf-8") as fp, pytest.raises(ModelFormatError, match=re.escape(field)):
        load_model(fp)
    out = tmp_path / "x.jsonl"
    assert run(["detect", "--tracks", tmp_path / "missing.csv", "--model", bad, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "model error" in err and field in err and "Traceback" not in err
    assert not out.exists()


def test_far_frame_sample_leaves_a_frame_range_run_unchanged(tmp_path):
    tracks, _ = generate(shorten(fight(seed=950)))
    near = tmp_path / "near.csv"
    with open(near, "w") as fp:
        write_tracks(tracks, fp)
    far = tmp_path / "far.csv"
    far.write_text(near.read_text() + "999999999,1,10.0,20.0,4.0,9.0\n")
    outs = []
    for src in (near, far):
        out = tmp_path / f"{src.stem}.jsonl"
        assert run(["detect", "--tracks", src, "--model", FROZEN_BANK, "--out", out,
                    "--frames", "20:40"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 21 and b'"groups": [{' in outs[0]


def test_evaluate_disjoint_ranges(workdir, tmp_path, capsys):
    dets = tmp_path / "late.jsonl"
    dets.write_text('{"frame": 5000, "groups": [{"id": 0, "members": [1], "label": "single", "seed": []}], "pairs": []}\n')
    code = run(["evaluate", "--detections", dets,
                "--truth", workdir / "eval.annotations.jsonl"])
    assert code == 2
    assert "5000" in capsys.readouterr().err


def _group(gid, members):
    return {"id": gid, "members": members, "label": "InGroup", "seed": members}


@pytest.mark.parametrize("record", [
    {"groups": [], "pairs": []},  # no frame
    [1, 2],  # not a record
    {"frame": 5, "groups": [_group(0, [1, 2])], "pairs": [{"a": 0, "b": 3, "label": "Approach"}]},
    {"frame": "x", "groups": [], "pairs": []},
    {"frame": 5, "groups": [_group(0, [1, 2]), _group(1, [2, 3])], "pairs": []},
    {"frame": 5, "groups": [{**_group(0, [1, 2]), "label": ["InGroup"]}], "pairs": []},
    {"frame": 5, "groups": [_group(0, [1, 2])], "pairs": [{"a": 0, "b": 0, "label": "Approach"}]},
    {"frame": 4, "groups": [_group(0, [1, 2])], "pairs": []},  # same frame as the first record
    {"frame": 5.7, "groups": [_group(0, [1, 2])], "pairs": []},
    {"frame": 5, "groups": [_group(0, [1.5, 2])], "pairs": []},
    {"frame": 5, "groups": [{**_group(0, [1, 2]), "seed": [True]}], "pairs": []},
    {"frame": 5, "groups": [_group(0, [1]), {**_group(1, [2]), "label": "single"}],
     "pairs": [{"a": "0", "b": 1, "label": "Approach"}]},
    {"frame": 5, "groups": [_group(0, [1, 2, 1])], "pairs": []},
    {"frame": 5, "groups": [{**_group(0, [1, 2]), "seed": [2, 2]}], "pairs": []},
], ids=["no-frame", "list", "pair-index", "frame-not-int", "shared-member", "label-not-str",
        "pair-one-group", "repeated-frame", "frame-float", "member-float", "seed-bool",
        "pair-index-string", "repeated-member", "repeated-seed-member"])
def test_malformed_detections_exit_data_error(tmp_path, capsys, record):
    assert _evaluate_second_record(tmp_path, record) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: line 2: ") and "Traceback" not in err


def _evaluate_second_record(tmp_path, record):
    """Exit code of ``evaluate`` on a good record and then ``record``, against a one-group truth."""
    truth = tmp_path / "truth.jsonl"
    truth.write_text(json.dumps({"kind": "sym", "label": "InGroup", "frames": [0, 10],
                                 "members": [1, 2], "group_id": "g1"}) + "\n")
    dets = tmp_path / "dets.jsonl"
    good = {"frame": 4, "groups": [_group(0, [1, 2])], "pairs": []}
    dets.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
    return run(["evaluate", "--detections", dets, "--truth", truth])


@pytest.mark.parametrize("record", [
    {"frame": 5, "groups": [{**_group(0, [1, 2]), "label": "Bogus"}], "pairs": []},
    {"frame": 5, "groups": [_group(0, [1]), {**_group(1, [2]), "label": "single"}],
     "pairs": [{"a": 0, "b": 1, "label": "Bogus"}]},
    {"frame": 5, "skipped": 3},
], ids=["group-label", "pair-label", "skip-reason"])
def test_labels_outside_the_truth_exit_data_error(tmp_path, capsys, record):
    assert _evaluate_second_record(tmp_path, record) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "frame 5" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["detect", "train"])
def test_undecodable_byte_past_the_first_read_is_data_error(workdir, tmp_path, capsys, command):
    """Tracks are parsed as they are read, so the decode error comes partway through the parse."""
    bad = tmp_path / "bad.csv"
    bad.write_bytes((workdir / "train.tracks.csv").read_bytes() + b"0,1,1,2,3,4\xff\n")
    out = tmp_path / "out"
    args = {"detect": ["--model", FROZEN_BANK], "train": ["--annotations", workdir / "train.annotations.jsonl"]}
    assert run([command, "--tracks", bad, *args[command], "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {bad}: ") and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == [bad]


def test_evaluate_reads_the_null_pair_labels_of_detect(tmp_path, capsys):
    """Saturated profiles leave every relation candidate at -inf, so ``detect``
    writes a null pair label; ``evaluate`` scores that output."""
    p = tmp_path / "tracks.csv"
    jumper = [(0.0, -1e9, 1.0, 1e9), (5e8, -5e8, 1.0, 1e9), (0.0, -1e9, 1.0, 1e-8)]
    p.write_text("".join(f"{t},1,1e9,0,1,1\n{t},2,{x!r},{y!r},{w!r},{h!r}\n"
                         for t, (x, y, w, h) in enumerate(jumper)))
    dets = tmp_path / "dets.jsonl"
    assert run(["detect", "--tracks", p, "--model", FROZEN_BANK, "--out", dets]) == 0
    assert any(pair["label"] is None for line in dets.read_text().splitlines()
               for pair in json.loads(line).get("pairs", ()))
    truth = tmp_path / "truth.jsonl"
    truth.write_text("".join(json.dumps({"kind": "sym", "label": "single", "frames": [0, 2], "members": [m]}) + "\n"
                             for m in (1, 2)))
    capsys.readouterr()
    assert run(["evaluate", "--detections", dets, "--truth", truth]) == 0
    assert "frames 2" in capsys.readouterr().out


@pytest.mark.parametrize("command, flag", [
    ("simulate", "--spec"), ("train", "--tracks"), ("train", "--annotations"),
    ("detect", "--tracks"), ("evaluate", "--detections"), ("evaluate", "--truth"),
])
def test_undecodable_input_is_data_error(workdir, tmp_path, capsys, command, flag):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    args = {
        "simulate": ["--spec", workdir / "scenario.json", "--out-prefix", tmp_path / "sim"],
        "train": ["--tracks", workdir / "train.tracks.csv", "--annotations",
                  workdir / "train.annotations.jsonl", "--out", tmp_path / "model.json"],
        "detect": ["--tracks", workdir / "train.tracks.csv", "--model", FROZEN_BANK,
                   "--out", tmp_path / "dets.jsonl"],
        "evaluate": ["--detections", empty, "--truth", empty, "--csv", tmp_path / "scores.csv"],
    }[command]
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0,1,1,2,3,4\n\xff\xfe\n")
    args[args.index(flag) + 1] = bad
    assert run([command, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {bad}: ") and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == [bad, empty]


def _track_lines(third) -> str:
    """Two people walking side by side for 30 frames, and a third whose
    sample at frame t is ``third(t)``, as (x, y, w, h)."""
    lines = []
    for t in range(30):
        for person, (x, y, w, h) in enumerate([(100.0 + t, 100.0, 10.0, 24.0),
                                               (100.0 + t, 130.0, 10.0, 24.0), third(t)], start=1):
            lines.append(f"{t},{person},{x!r},{y!r},{w!r},{h!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("third, line", [
    (lambda t: (1e200 * (t + 1), 1e200 * (t + 1), 10.0, 24.0), 3),  # moves 1e200 px per frame
    (lambda t: (300.0, 300.0, 1.0 if t % 2 == 0 else 1e-300, 24.0), 6),  # size change 1e300
], ids=["far-coordinates", "tiny-box"])
def test_samples_outside_the_bounds_exit_data_error(tmp_path, capsys, third, line):
    p = tmp_path / "extreme.csv"
    p.write_text(_track_lines(third))
    out = tmp_path / "dets.jsonl"
    assert run(["detect", "--tracks", p, "--model", FROZEN_BANK, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: line {line}: sample ") and "Traceback" not in err
    assert not out.exists()


def test_samples_at_the_bounds_detect_every_frame(tmp_path):
    p = tmp_path / "bounds.csv"
    p.write_text(_track_lines(lambda t: ((-1) ** t * 1e9, 1e9, 1e-9 if t % 2 else 1e9, 1e9)))
    out = tmp_path / "dets.jsonl"
    # a numpy overflow warning would raise here: this suite turns warnings into errors
    assert run(["detect", "--tracks", p, "--model", FROZEN_BANK, "--out", out]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 29 and all("skipped" not in r for r in records)
    assert all(pair["label"] is not None for r in records for pair in r["pairs"])


@pytest.mark.parametrize("agent", [
    {"agent": 1, "start": [float("nan"), 0.0]},
    {"agent": 1, "start": [0.0, 0.0], "velocity": [float("inf"), 0.0]},
], ids=["nan-start", "infinite-velocity"])
def test_simulate_non_finite_spec_is_data_error(tmp_path, capsys, agent):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({"seed": 1, "duration": 10, "agents": [agent]}))
    assert run(["simulate", "--spec", p, "--out-prefix", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: sample ") and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == [p]


@pytest.mark.parametrize("command", ["detect", "train"])
def test_lenient_run_logs_what_it_skipped(workdir, tmp_path, caplog, command):
    good = (workdir / "train.tracks.csv").read_text().splitlines(keepends=True)
    p = tmp_path / "tracks.csv"
    p.write_text("".join([good[0], "not a line\n", *good[1:], "0,99,1,2,-3,4\n"]))
    n = len(good) + 2
    if command == "detect":
        args = ["detect", "--tracks", p, "--model", FROZEN_BANK, "--out", tmp_path / "dets.jsonl",
                "--frames", "20:21"]
    else:
        args = ["train", "--tracks", p, "--annotations", workdir / "train.annotations.jsonl",
                "--out", tmp_path / "model.json", *TRAIN_FLAGS[:4], "--max-iters", "1"]
    caplog.set_level(logging.INFO, logger="groupact")
    assert run(["-v", *args, "--lenient"]) == 0
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warned == ["skipped 2 malformed track lines; first: line 2: expected 6 fields, got 1"]
    infos = [r.getMessage() for r in caplog.records if r.getMessage().startswith("skipped line")]
    assert [m.split(":")[0] for m in infos] == ["skipped line 2", f"skipped line {n}"]


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
    # a frame past the int64 range is a bad line too, not a traceback
    p.write_text("0,1,1,2,3,4\n9223372036854775808,1,1,2,3,4\n")
    code = run(["detect", "--tracks", p, "--model", workdir / "model.json",
                "--out", tmp_path / "x.jsonl"])
    assert code == 2
    err = capsys.readouterr().err
    assert "data error: line 2: frame 9223372036854775808" in err and "Traceback" not in err
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


def _sym(group_id, members):
    return {"kind": "sym", "label": "InGroup", "frames": [0, 10], "members": members, "group_id": group_id}


RELATION = {"kind": "asym", "label": "Approach", "frames": [0, 10], "groups": ["a", "b"]}


# the third record of a truth file whose first two declare the groups "a" and "b"
@pytest.mark.parametrize("record, field", [
    ({**RELATION, "kind": ["asym"]}, "kind ['asym']"),
    ({**RELATION, "label": ["Approach"]}, "label ['Approach']"),
    (_sym(["c"], [5, 6]), "group_id ['c']"),
    ({**RELATION, "groups": [["a"], "b"]}, "groups entry ['a']"),
    ({**RELATION, "groups": "ab"}, "groups 'ab'"),  # not the relation between groups a and b
], ids=["kind", "label", "group-id", "groups-entry", "groups-string"])
@pytest.mark.parametrize("command", ["evaluate", "train"])
def test_annotation_string_fields_are_strings(workdir, tmp_path, capsys, command, record, field):
    truth = tmp_path / "truth.jsonl"
    truth.write_text("".join(json.dumps(r) + "\n" for r in (_sym("a", [1, 2]), _sym("b", [3, 4]), record)))
    out = tmp_path / "out"
    if command == "train":
        args = ["train", "--tracks", workdir / "train.tracks.csv", "--annotations", truth, "--out", out]
    else:
        dets = tmp_path / "dets.jsonl"
        dets.write_text(json.dumps({"frame": 4, "groups": [_group(0, [1, 2])], "pairs": []}) + "\n")
        args = ["evaluate", "--detections", dets, "--truth", truth, "--csv", out]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: line 3: bad record structure: ") and field in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("event, field", [
    ({"label": ["Ignore"], "frames": [0, 5], "groups": ["a", "b"]}, "event label ['Ignore']"),
    ({"label": "InGroup", "frames": [0, 5], "members": [3], "group_id": ["c"]}, "event group_id ['c']"),
    ({"label": "Ignore", "frames": [0, 5], "groups": [["a"], "b"]}, "event groups entry ['a']"),
    ({"label": "Ignore", "frames": [0, 5], "groups": "ab"}, "event groups 'ab'"),
], ids=["label", "group-id", "groups-entry", "groups-string"])
def test_spec_string_fields_are_strings(tmp_path, capsys, event, field):
    p = tmp_path / "spec.json"
    events = [{"label": "InGroup", "frames": [0, 5], "members": [m], "group_id": g} for m, g in ((1, "a"), (2, "b"))]
    p.write_text(json.dumps({
        "seed": 1, "duration": 10,
        "agents": [{"agent": a, "start": [10.0 * a, 0]} for a in (1, 2, 3)],
        "events": [*events, event],
    }))
    assert run(["simulate", "--spec", p, "--out-prefix", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: bad scenario structure: ") and field in err
    assert "Traceback" not in err and not (tmp_path / "out.tracks.csv").exists()


@pytest.mark.parametrize("agent, params, field", [
    ({"agent": 1, "start": [0, 0, 3]}, {}, "agent 1 start [0, 0, 3]"),
    ({"agent": 1, "start": [0, 0]}, {"jitter": "x"}, "event InGroup params jitter 'x'"),
], ids=["three-number-start", "string-jitter"])
def test_spec_numeric_fields_are_numbers(tmp_path, capsys, agent, params, field):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({
        "seed": 1, "duration": 10, "agents": [agent, {"agent": 2, "start": [10.0, 0]}],
        "events": [{"label": "InGroup", "frames": [0, 5], "members": [1, 2], "group_id": "g", "params": params}],
    }))
    assert run(["simulate", "--spec", p, "--out-prefix", tmp_path / "out"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("data error: ") and field in err
    assert "Traceback" not in err and sorted(tmp_path.iterdir()) == [p]


def _event(label, params):
    return {"events": [{"label": label, "frames": [0, 5], "members": [1, 2], "group_id": "g", "params": params}]}


@pytest.mark.parametrize("fields, field", [
    (_event("InGroup", {"jitter": -1.0}), "event InGroup params jitter -1.0 is negative"),
    (_event("InGroup", {"jitter_overrides": {"2": -0.5}}),
     "event InGroup params jitter_overrides 2 -0.5 is negative"),
    (_event("Fight", {"box_jitter": -0.1}), "event Fight params box_jitter -0.1 is negative"),
    (_event("Fight", {"box_jitter_overrides": {"1": -1}}),
     "event Fight params box_jitter_overrides 1 -1 is negative"),
    (_event("WalkTogether", {"gait_period": 0}), "event WalkTogether params gait_period 0 is not positive"),
    (_event("WalkTogether", {"sway_amp": 0.5, "sway_period": -3.0}),
     "event WalkTogether params sway_period -3.0 is not positive"),
    (_event("RunTogether", {"box_amp": 0.1, "box_period": 0.0}),
     "event RunTogether params box_period 0.0 is not positive"),
    (_event("WalkTogether", {"offsets": {"2": 1.7}}), "event WalkTogether params offsets 2 1.7 is not an integer"),
    (_event("WalkTogether", {"offsets": {"2": float("inf")}}),
     "event WalkTogether params offsets 2 inf is not an integer"),
    (_event("RunTogether", {"offsets": {"1": float("nan")}}),
     "event RunTogether params offsets 1 nan is not an integer"),
    (_event("WalkTogether", {"offsets": {"2": True}}), "event WalkTogether params offsets 2 True is not an integer"),
    ({"noise_sigma": "0.5"}, "noise_sigma '0.5' is not a number"),
    ({"noise_sigma": True}, "noise_sigma True is not a number"),
    ({"box_sigma": float("nan")}, "box_sigma nan is negative or not a number"),
    ({"noise_sigma": -1.0}, "noise_sigma -1.0 is negative"),
    ({"duration": 0}, "duration 0 is not positive"),
    ({"duration": -3}, "duration -3 is not positive"),
    ({"seed": -1}, "seed -1 is negative"),
], ids=["jitter", "jitter-override", "box-jitter", "box-jitter-override", "gait-period", "sway-period",
        "box-period", "fractional-offset", "infinite-offset", "nan-offset", "bool-offset", "string-noise",
        "bool-noise", "nan-noise", "negative-noise", "zero-duration", "negative-duration", "negative-seed"])
def test_spec_numbers_out_of_range_are_data_errors(tmp_path, capsys, fields, field):
    """A duration, a noise level, a period generate divides by or a jitter it draws with, out of range;
    an offset that is not a whole number of frames."""
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({
        "seed": 1, "duration": 10, "agents": [{"agent": a, "start": [10.0 * a, 0]} for a in (1, 2)], **fields,
    }))
    assert run(["simulate", "--spec", p, "--out-prefix", tmp_path / "out"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("data error: ") and field in err
    assert "Traceback" not in err and sorted(tmp_path.iterdir()) == [p]


WINDOW_FLAGS = [["--window", "0"], ["--window", "1"], ["--dt", "-1"], ["--dt", "50"]]
THRESHOLD_FLAGS = [["--tc", "2"], ["--to", "-0.1"], ["--tr", "nan"]]


@pytest.mark.parametrize("command, flags", [
    pytest.param(command, flags, id=f"{command}-flags{i}")
    for command, flag_sets in (("detect", WINDOW_FLAGS + THRESHOLD_FLAGS), ("train", WINDOW_FLAGS))
    for i, flags in enumerate(flag_sets)
])
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
    assert flags[0].lstrip("-") in err
    assert not out.exists()


@pytest.mark.parametrize("flags", THRESHOLD_FLAGS)
def test_train_takes_no_thresholds(tmp_path, capsys, flags):
    # thresholds are detection settings; a trained bank carries the defaults
    out = tmp_path / "out"
    args = ["train", "--tracks", tmp_path / "missing.csv",
            "--annotations", tmp_path / "missing.jsonl", "--out", out, *flags]
    assert run(args) == 1
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--max-iters", "0"], ["--max-iters", "-3"], ["--max-segments", "0"], ["--max-segments", "-1"],
    ["--seed", "-1"],
])
def test_bad_training_count_is_usage_error(tmp_path, capsys, flags):
    # no input file exists: the check comes before any input is read
    out = tmp_path / "out"
    args = ["train", "--tracks", tmp_path / "missing.csv",
            "--annotations", tmp_path / "missing.jsonl", "--out", out, *flags]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert "groupact train: error:" in err and "Traceback" not in err
    assert flags[0].lstrip("-").replace("-", "_") in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["detect", "evaluate"])
def test_reversed_frame_range_is_usage_error(workdir, tmp_path, capsys, command):
    out = tmp_path / "out.jsonl"
    if command == "detect":
        args = ["detect", "--tracks", workdir / "eval.tracks.csv",
                "--model", workdir / "model.json", "--out", out]
    else:
        args = ["evaluate", "--detections", workdir / "dets.jsonl",
                "--truth", workdir / "eval.annotations.jsonl", "--csv", out]
    assert run([*args, "--frames", "5:3"]) == 1
    err = capsys.readouterr().err
    assert "5:3" in err and "Traceback" not in err
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
