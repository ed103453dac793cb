"""Parsing, validation, and model persistence tests."""

import io
import json

import numpy as np
import pytest

from groupact.gmm import GaussianMixture
from groupact.seqmodel import ActivityModel, ActivityModelBank
from groupact.taxonomy import ASYMMETRIC, SYMMETRIC, Taxonomy, default_taxonomy
from groupact.trackio import (
    AnnotationRecord,
    AnnotationSet,
    MbbSample,
    ModelFormatError,
    ParseError,
    TrackSet,
    load_model,
    parse_annotations,
    parse_tracks,
    save_model,
    write_annotations,
    write_tracks,
)


def test_parse_single_line():
    ts = parse_tracks("0,1,10.0,20.0,4.0,9.0")
    assert len(ts) == 1
    s = ts.sample(1, 0)
    assert s == MbbSample(0, 1, 10.0, 20.0, 4.0, 9.0)
    assert ts.frame_range == (0, 0)
    assert ts.persons == (1,)


def test_parse_empty_stream():
    ts = parse_tracks("")
    assert len(ts) == 0
    assert ts.frame_range is None
    assert ts.persons == ()


def test_parse_comments_and_crlf():
    ts = parse_tracks("# header\r\n0,1,1,2,3,4\r\n1,1,2,3,4,5\n")
    assert len(ts) == 2


def test_parse_duplicate_reports_identity():
    with pytest.raises(ParseError) as err:
        parse_tracks("0,1,1,2,3,4\n0,1,9,9,9,9\n")
    msg = str(err.value)
    assert "frame 0" in msg and "person 1" in msg and "line 2" in msg


def test_parse_bad_box():
    with pytest.raises(ParseError) as err:
        parse_tracks("0,1,1,2,0.0,4\n")
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError):
        parse_tracks("0,1,1,2,3,-4\n")


def test_parse_malformed_line_number():
    with pytest.raises(ParseError) as err:
        parse_tracks("0,1,1,2,3,4\nnot,a,line\n")
    assert err.value.line == 2


def test_lenient_mode_counts_everything():
    text = "0,1,1,2,3,4\nbad line\n1,1,1,2,3,4\n1,1,9,9,9,9\n2,2,0,0,1,-1\n"
    ts = parse_tracks(text, strict=False)
    data_lines = 5
    assert len(ts) + len(ts.warnings) == data_lines
    assert len(ts.warnings) == 3


def test_track_queries_and_observability():
    ts = parse_tracks("0,1,1,2,3,4\n2,1,2,2,3,4\n3,1,3,2,3,4\n3,2,0,0,1,1\n")
    assert ts.has(1, 0) and not ts.has(1, 1)
    assert ts.persons_at(3) == (1, 2)
    assert ts.observable(1, 3)
    assert not ts.observable(1, 2)  # gap at frame 1
    assert ts.observable_persons(3) == (1,)


def test_write_tracks_round_trip():
    ts = parse_tracks("0,1,1.5,2.25,3.125,4.0625\n1,1,2.5,3.5,3.0,4.0\n")
    buf = io.StringIO()
    write_tracks(ts, buf)
    again = parse_tracks(buf.getvalue())
    assert list(again.iter_samples()) == list(ts.iter_samples())


# --- annotations ----------------------------------------------------------


def ann_line(**kw):
    return json.dumps(kw)


def test_parse_annotation_sym():
    text = ann_line(kind="sym", label="WalkTogether", frames=[0, 100], members=[1, 2], group_id="g1")
    ann = parse_annotations(text)
    assert len(ann) == 1
    r = ann.records[0]
    assert r.kind == "sym" and r.label == "WalkTogether"
    assert r.members == (1, 2) and r.start == 0 and r.end == 100


def test_parse_annotation_unknown_label():
    with pytest.raises(ParseError) as err:
        parse_annotations(ann_line(kind="sym", label="Teleport", frames=[0, 1], members=[1]))
    assert "Teleport" in str(err.value)


def test_parse_annotation_asym_references():
    lines = "\n".join(
        [
            ann_line(kind="sym", label="Fight", frames=[0, 50], members=[1, 2], group_id="g1"),
            ann_line(kind="sym", label="single", frames=[0, 50], members=[3], group_id="g2"),
            ann_line(kind="asym", label="Chase", frames=[0, 50], groups=["g1", "g2"]),
        ]
    )
    ann = parse_annotations(lines)
    assert len(ann.asym_records()) == 1
    assert ann.group_members("g1", 25) == (1, 2)


def test_parse_annotation_undeclared_group():
    with pytest.raises(ParseError) as err:
        parse_annotations(ann_line(kind="asym", label="Chase", frames=[0, 5], groups=["g1", "g2"]))
    assert "g1" in str(err.value)


def test_annotation_round_trip():
    records = [
        AnnotationRecord("sym", "Fight", 0, 10, members=(1, 2, 3), group_id="a"),
        AnnotationRecord("sym", "single", 0, 10, members=(4,), group_id="b"),
        AnnotationRecord("asym", "Approach", 2, 9, groups=("a", "b")),
    ]
    ann = AnnotationSet(records)
    buf = io.StringIO()
    write_annotations(ann, buf)
    again = parse_annotations(buf.getvalue())
    assert again.records == ann.records


# --- model bank persistence -------------------------------------------------


def random_bank(rng, n_act=2, states=2):
    labels = [f"Act{i}" for i in range(n_act)]
    levels = {l: (SYMMETRIC if i % 2 == 0 else ASYMMETRIC) for i, l in enumerate(labels)}
    levels["single"] = SYMMETRIC
    models = {}
    for l in labels:
        entry = rng.random(states) + 0.1
        entry /= entry.sum()
        raw = rng.random((states, states + 1)) + 0.1
        raw /= raw.sum(axis=1, keepdims=True)
        d = 3
        marg = tuple(
            GaussianMixture(
                np.array([0.4, 0.6]), rng.normal(size=(2, d)), rng.random((2, d)) + 0.1
            )
            for _ in range(states)
        )
        joint = tuple(
            GaussianMixture(
                np.array([1.0]), rng.normal(size=(1, 2 * d)), rng.random((1, 2 * d)) + 0.1
            )
            for _ in range(states)
        )
        models[l] = ActivityModel(
            l, levels[l], entry, raw[:, :states], raw[:, states],
            rng.uniform(0.1, 0.9, states), marg, joint,
        )
    tax = Taxonomy(levels=levels, non_grouping=frozenset({"single"}))
    return ActivityModelBank(
        models=models, taxonomy=tax, window=int(rng.integers(2, 40)),
        dt=1, tc=float(rng.random()), to=float(rng.random()), tr=float(rng.random()),
    )


def test_model_round_trip_property():
    rng = np.random.default_rng(123)
    for _ in range(100):
        bank = random_bank(rng)
        buf = io.StringIO()
        save_model(bank, buf)
        buf.seek(0)
        again = load_model(buf)
        assert again.window == bank.window and again.dt == bank.dt
        assert (again.tc, again.to, again.tr) == (bank.tc, bank.to, bank.tr)
        assert again.taxonomy.levels == bank.taxonomy.levels
        for l, m in bank.models.items():
            m2 = again.models[l]
            assert np.array_equal(m2.entry, m.entry)
            assert np.array_equal(m2.trans, m.trans)
            assert np.array_equal(m2.exit, m.exit)
            assert np.array_equal(m2.advance, m.advance)
            for g, g2 in zip(m.marginal + m.joint, m2.marginal + m2.joint):
                assert np.array_equal(g.weights, g2.weights)
                assert np.array_equal(g.means, g2.means)
                assert np.array_equal(g.variances, g2.variances)


def test_model_version_mismatch():
    rng = np.random.default_rng(1)
    bank = random_bank(rng)
    buf = io.StringIO()
    save_model(bank, buf)
    doc = json.loads(buf.getvalue())
    doc["format_version"] = 99
    with pytest.raises(ModelFormatError) as err:
        load_model(io.StringIO(json.dumps(doc)))
    assert "99" in str(err.value)


def test_model_truncated_file():
    rng = np.random.default_rng(2)
    bank = random_bank(rng)
    buf = io.StringIO()
    save_model(bank, buf)
    text = buf.getvalue()[: len(buf.getvalue()) // 2]
    with pytest.raises(ModelFormatError):
        load_model(io.StringIO(text))


def test_model_corrupt_numeric_field():
    rng = np.random.default_rng(3)
    bank = random_bank(rng)
    buf = io.StringIO()
    save_model(bank, buf)
    doc = json.loads(buf.getvalue())
    label = sorted(doc["bank"]["models"])[0]
    doc["bank"]["models"][label]["entry"][0] = 1e999  # becomes inf on load
    with pytest.raises(ModelFormatError):
        load_model(io.StringIO(json.dumps(doc)))


def test_model_threshold_out_of_range():
    rng = np.random.default_rng(4)
    bank = random_bank(rng)
    buf = io.StringIO()
    save_model(bank, buf)
    doc = json.loads(buf.getvalue())
    doc["bank"]["config"]["tc"] = 2.0
    with pytest.raises(ModelFormatError, match="threshold tc"):
        load_model(io.StringIO(json.dumps(doc)))


def test_default_taxonomy_contents():
    tax = default_taxonomy()
    assert tax.is_symmetric("Fight") and tax.is_symmetric("Ignore")
    assert tax.is_asymmetric("Chase")
    assert not tax.is_grouping("Ignore")
    assert not tax.is_grouping("single")
    assert tax.is_grouping("WalkTogether")
    assert tax.intergroup_candidates() == ["Approach", "Chase", "Ignore", "Split"]
    assert "single" not in tax.modelable_labels()
