"""Parsing, validation, and model persistence tests."""

import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupact.gmm import GaussianMixture
from groupact.seqmodel import ActivityModel, ActivityModelBank
from groupact.simgen import AgentSpec, ScenarioSpec, generate
from groupact import taxonomy
from groupact.taxonomy import ASYMMETRIC
from groupact.trackio import (
    COORD_MAX,
    MAX_FRAME,
    SIZE_MAX,
    SIZE_MIN,
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

from oracles import parse_tracks_per_line, sample
from scenarios import ragged_tracks


def test_parse_single_line():
    ts = parse_tracks("0,1,10.0,20.0,4.0,9.0")
    assert len(ts) == 1
    s = sample(ts, 1, 0)
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
    # frames are int64: one past the range is a bad line, not an overflow
    with pytest.raises(ParseError) as err:
        parse_tracks("0,1,1,2,3,4\n9223372036854775808,1,1,2,3,4\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        TrackSet([MbbSample(2**63, 1, 1.0, 2.0, 3.0, 4.0)])
    assert parse_tracks("9223372036854775807,1,1,2,3,4\n").frame_range == (2**63 - 1,) * 2


@pytest.mark.parametrize("person", [2**63, -(2**63) - 1, 2**70])
def test_person_ids_outside_int64_are_parse_errors(person):
    text = f"0,1,1,2,3,4\n0,{person},1,2,3,4\n"
    with pytest.raises(ParseError, match=f"^line 2: person {person} outside the int64 range$"):
        parse_tracks(text)
    assert parse_tracks(text, strict=False).persons == (1,)
    with pytest.raises(ParseError, match=f"^person {person} outside"):
        TrackSet([MbbSample(0, person, 1.0, 2.0, 3.0, 4.0)])
    with pytest.raises(ParseError, match=f"^person {person} outside"):
        generate(ScenarioSpec(seed=0, duration=2, agents=(AgentSpec(person, (0.0, 0.0)),)))
    assert parse_tracks(f"0,{2**63 - 1},1,2,3,4\n0,{-(2**63)},1,2,3,4\n").persons == (-(2**63), 2**63 - 1)


@pytest.mark.parametrize("x, y, w, h", [
    (float("nan"), 0.0, 1.0, 1.0), (0.0, float("inf"), 1.0, 1.0), (0.0, 0.0, float("nan"), 1.0),
    (1e9 * (1 + 1e-15), 0.0, 1.0, 1.0), (0.0, -1.1e9, 1.0, 1.0),
    (0.0, 0.0, 1e-10, 1.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 1.0, 2e9),
])
def test_samples_outside_the_bounds_are_parse_errors(x, y, w, h):
    line = f"0,1,1,2,3,4\n1,1,{x!r},{y!r},{w!r},{h!r}\n"
    with pytest.raises(ParseError) as err:
        parse_tracks(line)
    assert err.value.line == 2
    assert len(parse_tracks(line, strict=False).warnings) == 1
    with pytest.raises(ParseError, match="person 1 at frame 1"):
        TrackSet([MbbSample(0, 1, 1.0, 2.0, 3.0, 4.0), MbbSample(1, 1, x, y, w, h)])


def test_samples_at_the_bounds_parse():
    lines = [f"{f},1,{x!r},{y!r},{w!r},{h!r}" for f, (x, y, w, h) in enumerate([
        (COORD_MAX, -COORD_MAX, SIZE_MIN, SIZE_MAX), (-COORD_MAX, COORD_MAX, SIZE_MAX, SIZE_MIN),
    ])]
    assert len(parse_tracks("\n".join(lines))) == 2


def test_lenient_mode_counts_everything():
    text = "0,1,1,2,3,4\nbad line\n1,1,1,2,3,4\n1,1,9,9,9,9\n2,2,0,0,1,-1\n"
    ts = parse_tracks(text, strict=False)
    data_lines = 5
    assert len(ts) + len(ts.warnings) == data_lines
    assert len(ts.warnings) == 3


def test_track_queries_and_observability():
    ts = parse_tracks("0,1,1,2,3,4\n2,1,2,2,3,4\n3,1,3,2,3,4\n3,2,0,0,1,1\n")
    assert ts.has(1, 0) and not ts.has(1, 1)
    assert [p for p in ts.persons if ts.has(p, 3)] == [1, 2]
    assert ts.observable(1, 3)
    assert not ts.observable(1, 2)  # gap at frame 1
    assert ts.observable_persons(3) == (1,)


def test_write_tracks_round_trip():
    ts = parse_tracks("0,1,1.5,2.25,3.125,4.0625\n1,1,2.5,3.5,3.0,4.0\n")
    buf = io.StringIO()
    write_tracks(ts, buf)
    again = parse_tracks(buf.getvalue())
    assert list(again.iter_samples()) == list(ts.iter_samples())


def test_readme_tracks_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("**Tracks**", 1)[1].split("```\n", 2)[1]
    assert list(parse_tracks(block).iter_samples()) == [MbbSample(0, 1, 10.0, 20.0, 4.0, 9.0)]


@st.composite
def sparse_samples(draw):
    """Samples of up to four people at frames clustered around far-apart anchors in [0, 2**31]."""
    anchors = draw(st.lists(st.integers(0, 2**31), min_size=1, max_size=4))
    keys = draw(st.lists(
        st.tuples(st.sampled_from(anchors), st.integers(0, 3), st.integers(0, 3)),
        min_size=1, max_size=40, unique_by=lambda k: (k[0] + k[1], k[2]),
    ))
    coord = st.floats(-1e6, 1e6)
    size = st.floats(0.01, 1e4)
    return [MbbSample(a + o, p, draw(coord), draw(coord), draw(size), draw(size)) for a, o, p in keys]


@settings(max_examples=60, deadline=None)
@given(sparse_samples())
def test_sparse_far_frames_match_a_dict_reference(samples):
    ref = {(s.person, s.frame): s for s in samples}
    persons = sorted({s.person for s in samples})
    tracemalloc.start()
    try:
        ts = TrackSet(samples)
        arrays = {p: ts.person_arrays(p) for p in persons}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a store dense over the frame span would take gigabytes here
    assert peak <= 4096 + 512 * len(samples)

    assert len(ts) == len(samples) and ts.persons == tuple(persons)
    assert ts.frame_range == (min(f for _, f in ref), max(f for _, f in ref))
    for p, (frames, xywh) in arrays.items():
        mine = [ref[k] for k in sorted(ref) if k[0] == p]
        assert frames.dtype == np.int64 and frames.tolist() == [s.frame for s in mine]
        assert xywh.tolist() == [[getattr(s, c) for s in mine] for c in "xywh"]
    got = list(ts.iter_samples())
    assert got == [ref[k] for k in sorted(ref)]
    for s in got + [sample(ts, s.person, s.frame) for s in got]:  # plain types: writers format with !r
        assert type(s.frame) is int and {type(v) for v in (s.x, s.y, s.w, s.h)} == {float}
    for f in {g for _, f in ref for g in (f - 1, f, f + 1, f + 2)} | {0, 2**31 + 4}:
        for p in persons + [99]:
            assert ts.has(p, f) == ((p, f) in ref)
            assert sample(ts, p, f) == ref.get((p, f))
            assert ts.observable(p, f) == ((p, f) in ref and (p, f - 1) in ref)
        assert ts.observable_persons(f) == tuple(p for p in persons if (p, f) in ref and (p, f - 1) in ref)
    buf = io.StringIO()
    write_tracks(ts, buf)
    assert buf.getvalue() == "".join(
        f"{s.frame},{s.person},{s.x!r},{s.y!r},{s.w!r},{s.h!r}\n"
        for s in sorted(samples, key=lambda s: (s.frame, s.person))
    )


def test_parsing_an_open_file_holds_under_250_bytes_per_sample(tmp_path):
    """A long clip: four people walking for 3000 frames, streamed from the file into columns."""
    agents = tuple(AgentSpec(p, start=(10.0 * p, 0.0), velocity=(0.5, 0.1 * p)) for p in range(1, 5))
    tracks, _ = generate(ScenarioSpec(seed=0, duration=3000, agents=agents))
    path = tmp_path / "long.csv"
    with open(path, "w", encoding="utf-8") as fp:
        write_tracks(tracks, fp)
    with open(path, encoding="utf-8") as fp:
        tracemalloc.start()
        try:
            parsed = parse_tracks(fp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(parsed) == 12000
    assert peak <= 65536 + 250 * len(parsed)
    assert list(parsed.iter_samples()) == list(tracks.iter_samples())


def test_writing_tracks_holds_under_100_bytes_per_sample(tmp_path):
    """The same clip, written from the per-person columns into an open file."""
    agents = tuple(AgentSpec(p, start=(10.0 * p, 0.0), velocity=(0.5, 0.1 * p)) for p in range(1, 5))
    tracks, _ = generate(ScenarioSpec(seed=0, duration=3000, agents=agents))
    path = tmp_path / "long.csv"
    with open(path, "w", encoding="utf-8") as fp:
        tracemalloc.start()
        try:
            write_tracks(tracks, fp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(tracks) == 12000
    assert peak <= 65536 + 100 * len(tracks)
    with open(path, encoding="utf-8") as fp:
        assert list(parse_tracks(fp).iter_samples()) == list(tracks.iter_samples())


@st.composite
def track_text(draw):
    """Track CSV mixing good lines with every kind of bad line, comments, and
    repeats of earlier lines, good or skipped; keys collide often."""
    bad_frame = st.sampled_from([-1, MAX_FRAME + 1, 2**70])
    bad_person = st.sampled_from([-(2**63) - 1, 2**63, 2**70])
    bad_value = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 1.5e9, 2e9])
    coord, size = st.floats(-COORD_MAX, COORD_MAX), st.floats(SIZE_MIN, SIZE_MAX)
    lines: list[str] = []
    for _ in range(draw(st.integers(0, 30))):
        fields = [draw(st.sampled_from([0, 1, 2, MAX_FRAME])), draw(st.sampled_from([0, 1, -(2**63), 2**63 - 1])),
                  draw(coord), draw(coord), draw(size), draw(size)]
        kind = draw(st.sampled_from(["sample"] * 6 + ["repeat", "frame", "person", "box", "fields",
                                                      "non-numeric", "comment"]))
        if kind == "repeat" and lines:
            lines.append(draw(st.sampled_from(lines)))
            continue
        if kind in ("frame", "person", "box"):
            at = {"frame": 0, "person": 1, "box": draw(st.integers(2, 5))}[kind]
            fields[at] = draw({"frame": bad_frame, "person": bad_person, "box": bad_value}[kind])
        fields = [repr(f) for f in fields]
        if kind == "fields":
            fields = fields[:draw(st.sampled_from([1, 5]))] + ["7"] * draw(st.sampled_from([0, 1, 2]))
        elif kind == "non-numeric":
            fields[draw(st.integers(0, 5))] = draw(st.sampled_from(["x", "", "1.5", "nan", "0x1"]))
        elif kind == "comment":
            fields = [draw(st.sampled_from(["# frame", ""]))]
        lines.append(",".join(f.center(len(f) + draw(st.integers(0, 2))) for f in fields))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(track_text(), st.booleans())
def test_parse_tracks_matches_the_per_line_parser(text, from_file):
    def parse(strict):
        return parse_tracks(io.StringIO(text) if from_file else text, strict=strict)

    def by_person(samples):
        return sorted(samples, key=lambda s: (s.person, s.frame))

    samples, warnings = parse_tracks_per_line(text, strict=False)
    lenient = parse(strict=False)
    assert list(lenient.iter_samples()) == by_person(samples)
    assert list(lenient.warnings) == warnings
    try:
        strict_samples, _ = parse_tracks_per_line(text)
    except ParseError as expected:
        with pytest.raises(ParseError) as err:
            parse(strict=True)
        assert (str(err.value), err.value.line) == (str(expected), expected.line)
    else:
        assert list(parse(strict=True).iter_samples()) == by_person(strict_samples)
    again = TrackSet(lenient.iter_samples())
    assert again.persons == lenient.persons
    assert list(again.iter_samples()) == list(lenient.iter_samples())


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


@pytest.mark.parametrize("fields", [
    {"frames": [0.9, 7]}, {"frames": [0, "7"]}, {"frames": [False, 7]},
    {"members": [1.5, 2]}, {"members": [True, 2]}, {"members": ["1"]}, {"members": [1, 2, 1]},
], ids=["frame-float", "frame-string", "frame-bool", "member-float", "member-bool",
        "member-string", "repeated-member"])
def test_annotation_integer_fields_are_integers(fields):
    record = {"kind": "sym", "label": "Fight", "frames": [0, 7], "members": [1, 2], "group_id": "g", **fields}
    text = ann_line(kind="sym", label="single", frames=[0, 7], members=[3]) + "\n" + json.dumps(record)
    with pytest.raises(ParseError, match="^line 2: bad record structure: ") as err:
        parse_annotations(text)
    assert err.value.line == 2


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


def random_bank(rng, states=2):
    models = {}
    for l in taxonomy.MODELABLE_LABELS:
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
            entry, raw[:, :states], raw[:, states], rng.uniform(0.1, 0.9, states), marg, joint,
        )
    return ActivityModelBank(
        models=models, window=int(rng.integers(2, 40)),
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
        assert again.models.keys() == bank.models.keys()
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
    assert taxonomy.is_symmetric("Fight") and taxonomy.is_symmetric("Ignore")
    assert taxonomy.level("Chase") == ASYMMETRIC
    assert not taxonomy.is_grouping("Ignore")
    assert not taxonomy.is_grouping("single")
    assert taxonomy.is_grouping("WalkTogether")
    assert taxonomy.INTERGROUP_CANDIDATES == ("Approach", "Chase", "Ignore", "Split")
    assert "single" not in taxonomy.MODELABLE_LABELS


@settings(max_examples=60, deadline=None)
@given(ragged_tracks())
def test_has_and_observable_agree_with_sample_on_ragged_tracks(tracks):
    lo, hi = tracks.frame_range
    for p in tracks.persons + (99,):
        for f in range(lo - 1, hi + 2):
            found = sample(tracks, p, f) is not None
            assert tracks.has(p, f) is found
            assert tracks.observable(p, f) is (found and sample(tracks, p, f - 1) is not None)
