#!/usr/bin/env python3
"""Benchmark for ``groupact detect`` and ``groupact train``.

Usage, from the repository root::

    python3 perfbench/run.py --workload scenes|crowd|train --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --make-bank    # rewrite data/bank.json from the train workload

An untraced run (``--trace 0``) reports the end-to-end metrics, a traced run
(``--trace 1``) the per-layer ones.  Both check the program's output.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full report, and in traced runs
every span, go to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread: the batches here are small, and a pinned thread count keeps
# runs comparable on a shared machine.  Must precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BANK = HERE / "data" / "bank.json"
BANK_SHA = HERE / "data" / "bank.sha256"

SETUP_REPEATS = 5
# Every time is process CPU time (``time.process_time``), not wall time.  On a
# shared host a process loses the processor for stretches that have nothing
# to do with the program; CPU time leaves those out.  Set-up and the timed work
# are single-threaded (BLAS is pinned to one thread above), so CPU time is the
# time a user on an otherwise idle machine would wait.

# Timed frame ranges.  Each clip starts one correlation window plus one frame
# into the clip, like the acceptance suite's evaluation span.
SCENES_FRAMES = 60  # per scenario
CROWD_FIRST, CROWD_FRAMES = 60, 6
HELD_OUT_FRAMES = 30  # per scenario, scored after training
TRAIN_MIN_FITS = 2  # train_bank calls per train run, at the least
HELD_OUT_PASSES = 2  # detect passes with each freshly trained bank, right after its fit
MEMORY_FRAMES = {"scenes": 10, "crowd": 3, "train": 10}  # per clip, tracemalloc pass

# Output checks on quality, set well outside the spread over seeds at this
# commit.  eder on crowd saturates near 1 (any of ~100 group pairs per frame
# can flip a frame), so it is reported but not checked there.
QUALITY = {
    "scenes": {"gcer": 0.02, "eder": 0.05},
    "crowd": {"gcer": 0.9},
    "train": {"gcer": 0.05, "eder": 0.1},
}

# Metric names and units come from the benchmark definition at the repository root.
_DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _DEFINITION["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DEFINITION["per_layer"]}


def _import_program():
    """Import groupact from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "groupact" / "__init__.py").is_file():
        sys.exit(f"perfbench: no groupact sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import groupact

    if not Path(groupact.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported groupact from {groupact.__file__}, not {SRC}")


_import_program()

import numpy as np  # noqa: E402

from groupact import grad, metrics, seqmodel, simgen, trackio  # noqa: E402
from groupact.grad import FrameDetection  # noqa: E402
from groupact.seqmodel import ActivityModelBank  # noqa: E402
from groupact.trackio import AnnotationSet, TrackSet  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def train_config() -> seqmodel.TrainConfig:
    return seqmodel.TrainConfig(seed=0, max_iters=20, max_segments=48, chunk=wl.WINDOW)


# ---------------------------------------------------------------- inputs


@dataclass
class Clip:
    """One track set with its ground truth and timed frame range."""

    name: str
    tracks: TrackSet
    annotations: AnnotationSet
    frames: range


def simulate_scenes(seed: int, n_frames: int) -> list[tuple[str, str, object, range]]:
    out = []
    for name, spec in wl.scene_specs(seed):
        tracks, anns = simgen.generate(spec)
        out.append((name, wl.tracks_csv(tracks), anns, range(wl.WARMUP, wl.WARMUP + n_frames)))
    return out


def simulate_crowd(seed: int) -> list[tuple[str, str, object, range]]:
    tracks, anns = simgen.generate(wl.crowd_spec(seed))
    tracks = wl.occlude(tracks, seed)
    return [("crowd", wl.tracks_csv(tracks), anns, range(CROWD_FIRST, CROWD_FIRST + CROWD_FRAMES))]


def load_bank():
    """The committed bank and the sha256 of the exact bytes it was loaded from."""
    text = BANK.read_text()
    return trackio.load_model(io.StringIO(text)), sha256(text)


def expected_bank_sha() -> str:
    return BANK_SHA.read_text().split()[0]


@dataclass
class DetectSetup:
    bank: ActivityModelBank
    bank_sha: str
    config: grad.PipelineConfig
    clips: list[Clip]
    seconds: float


def detect_setup(workload: str, seed: int) -> DetectSetup:
    """Simulate, serialise, parse, load the bank, build engines and warm up."""
    start = time.process_time()
    raw = simulate_scenes(seed, SCENES_FRAMES) if workload == "scenes" else simulate_crowd(seed)
    clips = [Clip(name, trackio.parse_tracks(csv), anns, frames) for name, csv, anns, frames in raw]
    bank, bank_sha = load_bank()
    config = grad.PipelineConfig.from_bank(bank)
    for clip in clips:
        engine = seqmodel.CorrelationEngine(bank, clip.tracks, window=config.window, dt=config.dt)
        grad.run_pipeline(bank, clip.tracks, config, frames=[clip.frames[0] - 1], engine=engine)
    return DetectSetup(bank, bank_sha, config, clips, time.process_time() - start)


def bank_checks(setup: DetectSetup) -> tuple[dict, dict]:
    """The bank's digest for the report, and whether it is the committed one."""
    return ({"bank_sha256_matches": setup.bank_sha == expected_bank_sha()},
            {"bank_sha256": setup.bank_sha})


def train_setup(seed: int):
    """Simulate the corpus and read it back as ``groupact train`` would."""
    start = time.process_time()
    tracks, anns = simgen.generate(wl.corpus_spec(seed))
    buf = io.StringIO()
    trackio.write_annotations(anns, buf)
    tracks = trackio.parse_tracks(wl.tracks_csv(tracks))
    anns = trackio.parse_annotations(buf.getvalue())
    return tracks, anns, time.process_time() - start


# ---------------------------------------------------------------- detection


@dataclass
class PassResult:
    frame_s: dict = field(default_factory=dict)  # (clip, frame) -> CPU seconds
    wall_s: float = 0.0  # wall time of the whole pass, for the report only
    dets: dict = field(default_factory=dict)  # clip -> [FrameDetection]
    bad_records: int = 0

    @property
    def seconds(self) -> float:
        return sum(self.frame_s.values())

    @property
    def attempted(self) -> int:
        return len(self.frame_s)

    @property
    def failed(self) -> int:
        skipped = sum(d.partition is None for ds in self.dets.values() for d in ds)
        return skipped + self.bad_records


def detect_pass(bank, config, clips: list[Clip], tracer=None, frames_per_clip=None,
                on_frame=None) -> PassResult:
    """Detect every timed frame, one ``run_pipeline`` call per frame on one engine per clip.

    A frame that raises is recorded as a skipped frame and counted as failed.
    """
    res = PassResult()
    wall = time.perf_counter()
    for clip in clips:
        engine = seqmodel.CorrelationEngine(bank, clip.tracks, window=config.window, dt=config.dt)
        out = res.dets.setdefault(clip.name, [])
        frames = clip.frames if frames_per_clip is None else clip.frames[:frames_per_clip]
        for t in frames:
            if tracer is not None:
                tracer.frame = t
            start = time.process_time()
            try:
                got = grad.run_pipeline(bank, clip.tracks, config, frames=[t], engine=engine)
            except Exception as exc:  # a failing frame is a failed operation
                traceback.print_exc()
                got = [FrameDetection(t, None, skipped=f"raised {type(exc).__name__}: {exc}")]
            res.frame_s[(clip.name, t)] = time.process_time() - start
            if len(got) != 1 or got[0].frame != t:
                res.bad_records += 1
            out.extend(got)
            if on_frame is not None:
                on_frame()
    res.wall_s = time.perf_counter() - wall
    if tracer is not None:
        tracer.frame = None
    return res


def write_and_score(res: PassResult, clips: list[Clip]) -> dict:
    """JSONL digest, write and score CPU times, and error rates summed over clips."""
    t0 = time.process_time()
    text = []
    for clip in clips:
        buf = io.StringIO()
        grad.write_detections(res.dets[clip.name], buf)
        text.append(buf.getvalue())
    t1 = time.process_time()
    sums = {"gcer": [0, 0], "eder": [0, 0]}
    frames = skipped = 0
    for clip in clips:
        rep = metrics.score(res.dets[clip.name], clip.annotations)
        for key in sums:
            ratio = getattr(rep, key)
            sums[key][0] += ratio.num
            sums[key][1] += ratio.den
        frames += rep.frames
        skipped += rep.skipped
    t2 = time.process_time()
    return {
        "digest": sha256("".join(text)),
        "write_s": t1 - t0,
        "score_s": t2 - t1,
        "gcer": sums["gcer"][0] / max(sums["gcer"][1], 1),
        "eder": sums["eder"][0] / max(sums["eder"][1], 1),
        "gcer_base": sums["gcer"][1],
        "skipped_frac": skipped / max(res.attempted, 1),
        "frames": frames,
    }


def frame_stats(passes: list[PassResult]) -> dict:
    """Percentiles over every timed frame of every pass; all passes hold the same frames."""
    samples = sorted(s for p in passes for s in p.frame_s.values())
    n = len(samples)
    out = {
        "frame_ms_p50": 1e3 * statistics.median(samples),
        "frame_samples": n,
        "frames_per_pass": passes[0].attempted,
        "passes": len(passes),
    }
    i90 = int(0.9 * n)
    if n - i90 - 1 >= 10:  # only with ten samples beyond it
        out["frame_ms_p90"] = 1e3 * samples[i90]
    return out


def quality_ok(workload: str, q: dict) -> bool:
    return all(q[key] <= limit for key, limit in QUALITY[workload].items())


def timed_passes(setup: DetectSetup, seconds: float) -> list[PassResult]:
    """Whole passes until the next one would end past ``seconds``; at least one."""
    passes: list[PassResult] = []
    spent = 0.0
    while not passes or spent + statistics.median(p.seconds for p in passes) <= seconds:
        passes.append(detect_pass(setup.bank, setup.config, setup.clips))
        spent += passes[-1].seconds
    return passes


# ---------------------------------------------------------------- runs


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    checks: dict
    details: dict


def run_detect(workload: str, seed: int, seconds: float) -> Outcome:
    setups = [detect_setup(workload, seed) for _ in range(SETUP_REPEATS)]
    setup = setups[-1]
    passes = timed_passes(setup, seconds)
    reports = [write_and_score(p, setup.clips) for p in passes]
    q = reports[0]
    work_s = statistics.median(p.seconds for p in passes)
    stats = frame_stats(passes)
    bank_ok, bank_info = bank_checks(setup)
    checks = {
        **bank_ok,
        "one_record_per_frame": all(p.bad_records == 0 for p in passes),
        "passes_identical": len({r["digest"] for r in reports}) == 1,
        "quality": quality_ok(workload, q),
    }
    values = {
        "setup_s": statistics.median(s.seconds for s in setups),
        "work_s": work_s,
        "frame_ms_p50": stats["frame_ms_p50"],
        "detect_fps": stats["frames_per_pass"] / work_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {**bank_info, **stats, **q, "setup_runs_s": [s.seconds for s in setups],
               "pass_s": [p.seconds for p in passes], "pass_wall_s": [p.wall_s for p in passes]}
    return Outcome(values, sum(p.attempted for p in passes), sum(p.failed for p in passes),
                   checks, details)


def held_out_clips(seed: int) -> list[Clip]:
    return [
        Clip(name, trackio.parse_tracks(csv), anns, frames)
        for name, csv, anns, frames in simulate_scenes(seed, HELD_OUT_FRAMES)
    ]


def bank_text(bank) -> str:
    buf = io.StringIO()
    trackio.save_model(bank, buf)
    return buf.getvalue()


def train_once(tracks, anns):
    start = time.process_time()
    bank = seqmodel.train_bank(tracks, anns, train_config(), window=wl.WINDOW, dt=wl.DT)
    return bank, time.process_time() - start


def run_train(seed: int, seconds: float) -> Outcome:
    setups = [train_setup(seed) for _ in range(SETUP_REPEATS)]
    tracks, anns, _ = setups[-1]
    clips = held_out_clips(seed)
    banks, times, passes = [], [], []
    # Held-out passes follow each fit, so they sample the host at several
    # moments of the run rather than only at its end.
    while len(times) < TRAIN_MIN_FITS or sum(times) + statistics.median(times) <= seconds:
        bank, took = train_once(tracks, anns)
        banks.append(sha256(bank_text(bank)))
        times.append(took)
        config = grad.PipelineConfig.from_bank(bank)
        passes += [detect_pass(bank, config, clips) for _ in range(HELD_OUT_PASSES)]
    reports = [write_and_score(p, clips) for p in passes]
    q = reports[0]
    stats = frame_stats(passes)
    checks = {
        "one_record_per_frame": all(p.bad_records == 0 for p in passes),
        "passes_identical": len({r["digest"] for r in reports}) == 1,
        "training_deterministic": len(set(banks)) == 1,
        "quality": quality_ok("train", q),
    }
    values = {
        "setup_s": statistics.median(s[2] for s in setups),
        "work_s": statistics.median(times),
        "frame_ms_p50": stats["frame_ms_p50"],
        "detect_fps": stats["frames_per_pass"] / statistics.median(p.seconds for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {**stats, **q, "trained_bank_sha256": banks[0], "train_runs_s": times,
               "setup_runs_s": [s[2] for s in setups], "pass_s": [p.seconds for p in passes]}
    return Outcome(values, len(times) + sum(p.attempted for p in passes),
                   sum(p.failed for p in passes), checks, details)


def memory_pass(bank, config, clips: list[Clip], frames: int) -> dict:
    """tracemalloc over the first frames of each clip: peak, and growth per frame.

    Each clip gets a fresh engine, so growth is taken within a clip, from its
    first detected frame to its last, and the median over clips is reported.
    """
    growth = []
    tracemalloc.start()
    try:
        for clip in clips:
            current = []
            detect_pass(bank, config, [clip], frames_per_clip=frames,
                        on_frame=lambda: current.append(tracemalloc.get_traced_memory()[0]))
            growth.append((current[-1] - current[0]) / (len(current) - 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"trace.peak_mb": peak / 2**20,
            "seqmodel.heap_kb_per_frame": statistics.median(growth) / 1024}


def layer_metrics(tracer: tracing.Tracer, overhead: float, memory: dict) -> tuple[dict, dict]:
    by_layer, by_name = tracing.self_times(tracer.spans)
    c = tracer.counts
    requested = c["seqmodel.items_requested"]
    calls = c["seqmodel.profile_calls"]
    pair_windows = sum(1 for s in tracer.spans if s[0] == "features.pair_feature_windows")
    values = {
        "trackio.setup_s": by_layer.get("trackio", 0.0),
        "features.self_s": by_layer.get("features", 0.0),
        "features.windows": c["features.windows"],
        "features.short_window_frac": c["features.short_windows"] / max(pair_windows, 1),
        "seqmodel.self_s": by_layer.get("seqmodel", 0.0),
        "seqmodel.profile_calls": calls,
        "seqmodel.items_requested": requested,
        "seqmodel.items_computed": c["seqmodel.items_computed"],
        "seqmodel.items_per_call": requested / max(calls, 1),
        "seqmodel.cache_hit_ratio": 1.0 - c["seqmodel.items_computed"] / max(requested, 1),
        "seqmodel.heap_kb_per_frame": memory["seqmodel.heap_kb_per_frame"],
        "seqmodel.segments": c["seqmodel.segments"],
        "gmm.self_s": by_layer.get("gmm", 0.0),
        "gmm.calls": sum(1 for s in tracer.spans if s[1] == "gmm"),
        "clustering.self_s": by_layer.get("clustering", 0.0),
        "clustering.seeds": c["clustering.seeds"],
        "clustering.seeds_merged": c["clustering.seeds_merged"],
        "grouprep.self_s": by_layer.get("grouprep", 0.0),
        "grouprep.fallbacks": c["grouprep.fallbacks"],
        "grad.self_s": by_layer.get("grad", 0.0),
        "grad.groups": c["grad.groups"],
        "grad.group_pairs": c["grad.group_pairs"],
        "trace.peak_mb": memory["trace.peak_mb"],
        "trace.overhead_frac": overhead,
    }
    train_names = ("seqmodel.train_bank", "seqmodel.train_activity_model", "seqmodel.train_hmm_model")
    details = {
        "self_s_by_entry_point": by_name,
        "seqmodel.train_self_s": sum(by_name.get(n, 0.0) for n in train_names),
        "seqmodel.assemble_s": by_name.get("seqmodel.assemble_training_data", 0.0),
        "pair_feature_windows": pair_windows,
        "spans": len(tracer.spans),
    }
    return values, details


def run_detect_traced(workload: str, seed: int) -> tuple[Outcome, tracing.Tracer]:
    tracer = tracing.Tracer()
    with tracer:
        setup = detect_setup(workload, seed)
    plain = detect_pass(setup.bank, setup.config, setup.clips)
    with tracer:
        traced = detect_pass(setup.bank, setup.config, setup.clips, tracer=tracer)
    memory = memory_pass(setup.bank, setup.config, setup.clips, MEMORY_FRAMES[workload])
    q_plain = write_and_score(plain, setup.clips)
    q = write_and_score(traced, setup.clips)
    overhead = traced.seconds / plain.seconds - 1.0
    values, details = layer_metrics(tracer, overhead, memory)
    bank_ok, bank_info = bank_checks(setup)
    checks = {
        **bank_ok,
        "one_record_per_frame": traced.bad_records == 0 and plain.bad_records == 0,
        "traced_digest_equals_untraced": q["digest"] == q_plain["digest"],
        "quality": quality_ok(workload, q),
    }
    details.update(bank_info, **q)
    return Outcome(values, traced.attempted, traced.failed, checks, details), tracer


def run_train_traced(seed: int) -> tuple[Outcome, tracing.Tracer]:
    tracer = tracing.Tracer()
    with tracer:
        tracks, anns, _ = train_setup(seed)
        clips = held_out_clips(seed)
    bank, plain_train = train_once(tracks, anns)
    config = grad.PipelineConfig.from_bank(bank)
    plain = detect_pass(bank, config, clips)
    with tracer:
        traced_bank, traced_train = train_once(tracks, anns)
        traced = detect_pass(bank, config, clips, tracer=tracer)
    memory = memory_pass(bank, config, clips, MEMORY_FRAMES["train"])
    q_plain = write_and_score(plain, clips)
    q = write_and_score(traced, clips)
    overhead = (traced_train + traced.seconds) / (plain_train + plain.seconds) - 1.0
    values, details = layer_metrics(tracer, overhead, memory)
    checks = {
        "one_record_per_frame": traced.bad_records == 0 and plain.bad_records == 0,
        "traced_bank_equals_untraced": bank_text(traced_bank) == bank_text(bank),
        "traced_digest_equals_untraced": q["digest"] == q_plain["digest"],
        "quality": quality_ok("train", q),
    }
    details.update(q)
    return Outcome(values, 1 + traced.attempted, traced.failed, checks, details), tracer


# ---------------------------------------------------------------- environment


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def thread_count() -> int:
    with open("/proc/self/status") as fp:
        for line in fp:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 1


def git_commit() -> str | None:
    """HEAD of the repository this checkout is, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return None
    return out[1]


def environment() -> dict:
    sources = sorted((SRC / "groupact").glob("*.py"))
    src_hash = hashlib.sha256()
    for path in sources:
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "threads": thread_count(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------- main


def make_bank() -> int:
    """Train the committed detect bank: the train workload's corpus at seed 0."""
    tracks, anns, _ = train_setup(0)
    bank, took = train_once(tracks, anns)
    text = bank_text(bank)
    BANK.write_text(text)
    BANK_SHA.write_text(f"{sha256(text)}  bank.json\n")
    print(f"wrote {BANK.relative_to(ROOT)} ({took:.1f} s), sha256 {sha256(text)}")
    return 0


def write_trace(path: Path, tracer: tracing.Tracer) -> None:
    with open(path, "w") as fp:
        for span in tracer.spans:
            fp.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("scenes", "crowd", "train"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-bank", action="store_true")
    args = ap.parse_args(argv)
    if args.make_bank:
        return make_bank()
    if args.workload is None:
        ap.error("--workload is required")

    tracer = None
    if args.trace:
        if args.workload == "train":
            outcome, tracer = run_train_traced(args.seed)
        else:
            outcome, tracer = run_detect_traced(args.workload, args.seed)
        units = PER_LAYER
    elif args.workload == "train":
        outcome = run_train(args.seed, args.seconds)
        units = END_TO_END
    else:
        outcome = run_detect(args.workload, args.seed, args.seconds)
        units = END_TO_END

    env = environment()
    checks = {
        "threads_within_nproc": env["threads"] <= env["nproc_available"],
        **outcome.checks,
    }
    correct = all(checks.values())
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": outcome.metrics[k], "unit": u} for k, u in units.items()},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "checks": checks,
        "environment": env, "details": outcome.details, **result,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        write_trace(OUT / f"{stem}.spans.jsonl", tracer)

    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:>14.6g} {m['unit']}")
    for name, ok in checks.items():
        print(f"check {name:26s} {'ok' if ok else 'FAILED'}")
    print(json.dumps({k: v for k, v in report.items() if k != "metrics"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
