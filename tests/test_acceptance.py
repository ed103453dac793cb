"""Acceptance criteria: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
pinned here; the planted-scenario criteria evaluate generator ground truth
over the annotated span minus a correlation-window warm-up.
"""

import json
import time
from collections import Counter

import numpy as np
import pytest

from groupact import features as feats
from groupact import grad, grouprep, metrics
from groupact.cli import main as cli_main
from groupact.gmm import GaussianMixture, fit_em
from groupact.seqmodel import (
    ActivityModel,
    CorrelationEngine,
    TrainConfig,
    train_activity_model,
)
from groupact.simgen import generate

from oracles import ahmm_forward, enumerate_ahmm, pair_hmm_loglik, window_log_mass
from scenarios import (
    DT,
    EVAL_SCENARIOS,
    WARMUP,
    WINDOW,
    approach_with_outlier,
    fig1_hierarchy,
    outlier_probe,
    walk_async,
    walk_together,
)
from test_seqmodel import oracle_fns, random_model, sample_episode

EVAL_SPAN = range(WARMUP, 300)

_reports = []


def scored(dets, annotations, frames=EVAL_SPAN):
    rep = metrics.score(dets, annotations, frames=frames)
    _reports.append(rep)
    return rep


def ok(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_01_ahmm_oracle_equivalence():
    rng = np.random.default_rng(20240101)
    t0 = time.monotonic()
    cases = 0
    worst = 0.0
    while cases < 200:
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        model = random_model(rng, n=n, d=d)
        T = int(rng.integers(1, 6))
        S = int(rng.integers(1, T + 1))
        slack = int(rng.integers(0, 3))
        fi = rng.normal(size=(S, d))
        fj = rng.normal(size=(T, d))
        jfn, mfn = oracle_fns(model, fi, fj)
        want = enumerate_ahmm(
            model.entry, model.trans, model.exit, model.advance, jfn, mfn, S, T,
            terminal_slack=slack,
        )
        _, got = ahmm_forward(model, fi, fj, terminal_slack=slack)
        rel = abs(got - want) / max(abs(want), 1e-300)
        worst = max(worst, rel)
        assert rel < 1e-9, f"case {cases}: rel error {rel}"
        cases += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    ok(1, f"{cases} randomized cases, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_hmm_degeneracy():
    rng = np.random.default_rng(20240202)
    worst = 0.0
    for case in range(100):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        model = random_model(rng, n=n, d=d, eps=1.0)
        T = int(rng.integers(1, 7))
        fi = rng.normal(size=(T, d))
        fj = rng.normal(size=(T, d))
        _, got = ahmm_forward(model, fi, fj)
        want = pair_hmm_loglik(model, fi, fj)
        rel = abs(got - want) / max(abs(want), 1e-300)
        worst = max(worst, rel)
        assert rel < 1e-9, f"case {case}: rel error {rel}"
    ok(2, f"100 cases, advance pinned at 1 equals the synchronous pair model, worst {worst:.2e}")


def test_criterion_03_correlation_normalization(bank):
    tracks, _ = generate(walk_together(seed=33))
    engine = CorrelationEngine(bank, tracks)
    config = grad.PipelineConfig.from_bank(bank)
    checked = 0
    worst = 0.0
    # the engine caches one frame's profiles, so read them after every frame
    lo, hi = tracks.frame_range
    for t in range(lo + 1, hi + 1):
        grad.run_pipeline(bank, tracks, config, frames=[t], engine=engine)
        for profile in engine._cache.values():
            if profile is None:
                continue
            total = profile.sum()
            worst = max(worst, abs(total - 1.0))
            assert abs(total - 1.0) <= 1e-9
            checked += 1
    assert checked > 5000  # every pair, frame, and entity the run evaluated
    ok(3, f"{checked} profiles from a full pipeline run sum to 1 (worst dev {worst:.1e})")


def test_criterion_04_em_monotonicity_and_recovery():
    # mixture fitting: recovery of two separated components
    rng = np.random.default_rng(20240404)
    x = np.concatenate([rng.normal(0.0, 1.0, 250), rng.normal(10.0, 1.0, 250)])[:, None]
    gm, hist = fit_em(x, 2, seed=7)
    for a, b in zip(hist, hist[1:]):
        assert b >= a - 1e-9 * max(1.0, abs(a))
    means = sorted(gm.means[:, 0])
    assert abs(means[0] - 0.0) < 0.3 and abs(means[1] - 10.0) < 0.3

    # sequence-model training on sampled fixtures
    checked = 0
    for seed in (1, 2, 3):
        gen_rng = np.random.default_rng(seed)
        gen = random_model(gen_rng, n=2, d=2, eps=0.75)
        segs = []
        while len(segs) < 10:
            ep = sample_episode(gen, 10, gen_rng)
            if ep is not None:
                segs.append(ep)
        cfg = TrainConfig(seed=seed, max_iters=12, max_segments=None)
        _, hist = train_activity_model(segs, cfg)
        for a, b in zip(hist, hist[1:]):
            assert b >= a - 1e-9 * max(1.0, abs(a))
        checked += len(hist)
    ok(4, f"EM log-likelihoods non-decreasing over {checked} recorded iterations; "
          f"mixture means recovered to {max(abs(means[0]), abs(means[1]-10)):.3f}")


def test_criterion_05_planted_scenario_recovery(bank):
    t0 = time.monotonic()
    results = {}
    for i, (name, build) in enumerate(sorted(EVAL_SCENARIOS.items())):
        tracks, annotations = generate(build(seed=i + 1))
        dets = grad.run_pipeline(bank, tracks, grad.PipelineConfig.from_bank(bank))
        rep = scored(dets, annotations)
        results[name] = rep
        assert rep.gcer.value == 0.0, f"{name}: gcer {rep.gcer}"
        assert rep.eder.value <= 0.05, f"{name}: eder {rep.eder}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"scenario suite took {elapsed:.1f}s"
    summary = ", ".join(f"{n}={r.eder.value:.3f}" for n, r in sorted(results.items()))
    ok(5, f"six scenarios, gcer all 0, eder {summary}, {elapsed:.1f}s")


def test_criterion_06_hierarchical_fig1(bank):
    tracks, annotations = generate(fig1_hierarchy(seed=11))
    dets = grad.run_pipeline(bank, tracks, grad.PipelineConfig.from_bank(bank))
    rep = scored(dets, annotations)
    assert rep.eder.value <= 0.10, f"eder {rep.eder}"
    both_levels = 0
    for d in dets:
        if d.partition is None or d.frame not in EVAL_SPAN:
            continue
        labels = {g.members: d.group_labels[i] for i, g in enumerate(d.partition.groups)}
        if labels.get((1, 2, 3)) == "Fight" and any(
            pl.label == "Approach" for pl in d.pair_labels
        ):
            both_levels += 1
    assert both_levels >= 0.9 * len(EVAL_SPAN)
    ok(6, f"fight group and approach relation both detected on {both_levels}/{len(EVAL_SPAN)} "
          f"frames, eder {rep.eder.value:.4f}")


def test_criterion_07_grad_versus_majority_vote(bank):
    tracks, annotations = generate(approach_with_outlier(seed=11))
    eder = {}
    for key, kind, baseline in (
        ("p", "p", None), ("v", "v", None), ("sv", "sv", None), ("mv", "sv", "mv"),
    ):
        cfg = grad.PipelineConfig.from_bank(bank, gr=kind, baseline=baseline)
        rep = scored(grad.run_pipeline(bank, tracks, cfg), annotations)
        eder[key] = rep.eder.value
    assert eder["p"] <= eder["mv"], f"P-GR {eder['p']} vs MV {eder['mv']}"
    assert eder["sv"] <= eder["v"], f"SV-GR {eder['sv']} vs V-GR {eder['v']}"

    # the mechanism: on a hard outlier, selection discards the outlier
    probe_tracks, _ = generate(outlier_probe(seed=11))
    engine = CorrelationEngine(bank, probe_tracks)
    frames = list(range(20, 300, 10))
    p_bad = sv_bad = p0_bad = 0
    for t in frames:
        profs = engine.profiles(
            [((j,), (i,)) for i in (1, 2, 3) for j in (1, 2, 3) if i != j], t
        )
        p0 = {
            i: sum(profs[((j,), (i,))][engine.column["InGroup"]] for j in (1, 2, 3) if j != i)
            for i in (1, 2, 3)
        }
        p0_bad += not (p0[3] < p0[1] and p0[3] < p0[2])
        p_bad += grouprep.p_gr(engine, (1, 2, 3), "InGroup", t).members == (3,)
        sv_bad += 3 in grouprep.sv_gr(engine, (1, 2, 3), "InGroup", t, bank.tr).members
    assert p0_bad == 0, "outlier's peer-correlation prior must be strictly smallest"
    assert p_bad <= 0.1 * len(frames)
    assert sv_bad <= 0.1 * len(frames)
    ok(7, f"eder p={eder['p']:.3f} <= mv={eder['mv']:.3f}, sv={eder['sv']:.3f} <= v={eder['v']:.3f}; "
          f"probe: selection avoided the outlier on {len(frames)-p_bad}/{len(frames)} frames")


def test_criterion_08_ahmm_versus_hmm(bank, hmm_bank):
    gcer = {}
    for offset in (3, 4):
        tracks, annotations = generate(walk_async(seed=4, offset=offset))
        for name, b in (("ahmm", bank), ("hmm", hmm_bank)):
            rep = scored(grad.run_pipeline(b, tracks, grad.PipelineConfig.from_bank(b)), annotations)
            gcer[(name, offset)] = rep.gcer.value
        assert gcer[("ahmm", offset)] <= gcer[("hmm", offset)], f"offset {offset}: {gcer}"

    # alignment capability on a phase-alternating model: the asynchronous
    # metric recovers lagged streams that the synchronous one cannot
    def band(mu, d):
        return GaussianMixture(np.array([1.0]), np.array([[mu] * d]), np.array([[0.02] * d]))

    def gait_model(eps):
        return ActivityModel(
            np.array([0.5, 0.5]),
            np.array([[0.10, 0.85], [0.85, 0.10]]),
            np.array([0.05, 0.05]),
            np.array([eps, eps]),
            (band(1.0, 1), band(-1.0, 1)),
            (band(1.0, 2), band(-1.0, 2)),
        )

    pattern = np.array([1.0 if (u // 3) % 2 == 0 else -1.0 for u in range(60)])
    gaps = {}
    for lag in (3, 4, 5):
        t_end = 40
        fi = pattern[t_end - 16 + 1 : t_end + 1][:, None]
        fj = pattern[t_end - lag - 16 + 1 : t_end - lag + 1][:, None]
        aligned = window_log_mass(gait_model(0.7), fi, fj, dt=5)
        synchronous = window_log_mass(gait_model(1.0), fi, fj, dt=5)
        gaps[lag] = aligned - synchronous
        assert aligned > synchronous + 100.0, f"lag {lag}: no alignment advantage"
    ok(8, f"gcer(ahmm) <= gcer(hmm) at offsets 3-4 ({gcer[('ahmm',3)]:.3f} vs "
          f"{gcer[('hmm',3)]:.3f}); alignment log-mass gaps " +
          ", ".join(f"lag{k}={v:.0f}" for k, v in gaps.items()))


def test_criterion_09_metrics_exactness():
    from groupact.clustering import GroupAssignment, Partition
    from groupact.grad import FrameDetection, PairLabel
    from groupact.trackio import AnnotationRecord, AnnotationSet

    truth = AnnotationSet([
        AnnotationRecord("sym", "Fight", 0, 9, members=(1, 2), group_id="g1"),
        AnnotationRecord("sym", "single", 0, 9, members=(3,), group_id="g3"),
        AnnotationRecord("asym", "Approach", 0, 9, groups=("g1", "g3")),
    ])

    def frame(t, pair_label="Approach", grouped=True):
        if grouped:
            groups = (GroupAssignment((1, 2), (1, 2), "Fight"),
                      GroupAssignment((3,), (3,), "single"))
            labels = ("Fight", "single")
            pairs = (PairLabel(0, 1, pair_label),)
        else:
            groups = tuple(GroupAssignment((p,), (p,), "single") for p in (1, 2, 3))
            labels = ("single",) * 3
            pairs = tuple(PairLabel(a, b, "Ignore") for a in range(3) for b in range(a + 1, 3))
        return FrameDetection(t, Partition(t, (1, 2, 3), groups), labels, pairs)

    dets = [frame(t) for t in range(9)] + [frame(9, pair_label="Chase")]
    rep = metrics.score(dets, truth)
    assert (rep.eder.num, rep.eder.den) == (1, 10)
    assert rep.eder.value == pytest.approx(0.1)
    assert rep.gcer.value == 0.0
    assert (rep.tfer.num, rep.tfer.den) == (1, 10)
    approach_sc = rep.per_activity["Approach"]
    assert (approach_sc.miss.num, approach_sc.miss.den) == (1, 10)
    chase_sc = rep.per_activity["Chase"]
    assert (chase_sc.fa.num, chase_sc.fa.den) == (1, 10)

    dets2 = [frame(t, grouped=(t >= 2)) for t in range(10)]
    rep2 = metrics.score(dets2, truth)
    assert (rep2.gcer.num, rep2.eder.num) == (2, 2)

    assert _reports, "earlier criteria must have produced scored runs"
    for r in _reports + [rep, rep2]:
        assert r.gcer.value <= r.eder.value
    ok(9, f"hand fixtures exact (eder 1/10, gcer 2/10 case); gcer <= eder held on "
          f"{len(_reports) + 2} scored runs")


def test_criterion_10_end_to_end_determinism(tmp_path):
    from dataclasses import replace

    from scenarios import composite_spec, fight

    train_spec = composite_spec(seed=3, duration=90)
    eval_spec = fight(seed=31)
    events = tuple(replace(e, frames=(0, 89)) for e in eval_spec.events)
    eval_spec = replace(eval_spec, duration=90, events=events)
    (tmp_path / "train_spec.json").write_text(json.dumps(train_spec.to_payload()))
    (tmp_path / "eval_spec.json").write_text(json.dumps(eval_spec.to_payload()))

    outputs = {}
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        assert cli_main(["simulate", "--spec", str(tmp_path / "train_spec.json"),
                         "--out-prefix", str(d / "train")]) == 0
        assert cli_main(["simulate", "--spec", str(tmp_path / "eval_spec.json"),
                         "--out-prefix", str(d / "eval")]) == 0
        assert cli_main([
            "train", "--tracks", str(d / "train.tracks.csv"),
            "--annotations", str(d / "train.annotations.jsonl"),
            "--out", str(d / "model.json"), "--seed", "5",
            "--window", "8", "--dt", "3", "--max-iters", "5", "--max-segments", "16",
        ]) == 0
        assert cli_main([
            "detect", "--tracks", str(d / "eval.tracks.csv"),
            "--model", str(d / "model.json"), "--out", str(d / "dets.jsonl"),
        ]) == 0
        assert cli_main([
            "evaluate", "--detections", str(d / "dets.jsonl"),
            "--truth", str(d / "eval.annotations.jsonl"), "--csv", str(d / "report.csv"),
        ]) == 0
        outputs[run] = {
            name: (d / name).read_bytes()
            for name in ("train.tracks.csv", "train.annotations.jsonl",
                         "eval.tracks.csv", "eval.annotations.jsonl",
                         "model.json", "dets.jsonl", "report.csv")
        }
    for name in outputs["a"]:
        assert outputs["a"][name] == outputs["b"][name], f"{name} differs between runs"
    ok(10, "simulate -> train -> detect -> evaluate byte-identical across two runs")
