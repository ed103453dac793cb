"""Command-line surface: simulate, train, detect, evaluate.

Exit codes: 0 success, 1 usage error, 2 data error, 3 model error.  Outputs
are written to a temporary file and renamed on success so failures never
leave partial artifacts behind.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import grad, metrics, simgen
from .features import ObservationUnavailable
from .seqmodel import DataError, TrainConfig, check_thresholds, check_window, train_bank
from .trackio import (
    ModelFormatError,
    ParseError,
    load_model,
    parse_annotations,
    parse_tracks,
    save_model,
    write_annotations,
    write_tracks,
)

log = logging.getLogger("groupact")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MODEL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise CliError(EXIT_USAGE, f"{self.prog}: error: {message}")


class CliError(Exception):
    """Carries an exit code and message up to main()."""

    def __init__(self, code: int, message: str = ""):
        self.code = code
        self.message = message
        super().__init__(message)


def _atomic_write(path: Path, writer) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fp:
            writer(fp)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _check_flags(command: str, window: int, dt: int, **thresholds: float | None) -> None:
    """Usage error for a window/dt pair the correlation lattice cannot read out,
    or for a threshold flag outside [0, 1]."""
    try:
        check_window(window, dt)
        check_thresholds(**{k: v for k, v in thresholds.items() if v is not None})
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"groupact {command}: error: {exc}") from None


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(EXIT_DATA, f"cannot read {path}: {exc}") from None


def _parse_frames(text: str | None):
    if text is None:
        return None
    try:
        a, b = text.split(":")
        return range(int(a), int(b) + 1)
    except ValueError:
        raise CliError(EXIT_USAGE, f"bad frame range {text!r} (want start:end)") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="groupact", description=__doc__)
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic scenario")
    sim.add_argument("--spec", required=True, help="scenario JSON file")
    sim.add_argument("--out-prefix", required=True, help="writes PREFIX.tracks.csv and PREFIX.annotations.jsonl")

    tr = sub.add_parser("train", help="train a model bank from tracks and annotations")
    tr.add_argument("--tracks", required=True)
    tr.add_argument("--annotations", required=True)
    tr.add_argument("--out", required=True, help="model JSON path")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--window", type=int, default=25)
    tr.add_argument("--dt", type=int, default=5)
    tr.add_argument("--tc", type=float, default=0.1)
    tr.add_argument("--to", type=float, default=0.95)
    tr.add_argument("--tr", type=float, default=0.3)
    tr.add_argument("--max-iters", type=int, default=40)
    tr.add_argument("--max-segments", type=int, default=64)
    tr.add_argument("--hmm-metric", action="store_true",
                    help="pin advance probabilities at 1 (synchronous metric)")
    tr.add_argument("--lenient", action="store_true", help="skip malformed track lines")

    det = sub.add_parser("detect", help="run the detection pipeline")
    det.add_argument("--tracks", required=True)
    det.add_argument("--model", required=True)
    det.add_argument("--out", required=True, help="detections JSONL path")
    det.add_argument("--gr", choices=("p", "v", "sv"), default="sv")
    det.add_argument("--variant", type=int, choices=(1, 2), default=1)
    det.add_argument("--baseline", choices=("mv",), default=None)
    det.add_argument("--window", type=int, default=None)
    det.add_argument("--dt", type=int, default=None)
    det.add_argument("--tc", type=float, default=None)
    det.add_argument("--to", type=float, default=None)
    det.add_argument("--tr", type=float, default=None)
    det.add_argument("--smooth", action="store_true")
    det.add_argument("--frames", default=None, help="start:end inclusive")
    det.add_argument("--lenient", action="store_true")

    ev = sub.add_parser("evaluate", help="score detections against ground truth")
    ev.add_argument("--detections", required=True)
    ev.add_argument("--truth", required=True, help="annotations JSONL")
    ev.add_argument("--frames", default=None, help="start:end inclusive")
    ev.add_argument("--csv", default=None, help="optional per-activity CSV output")
    return parser


def cmd_simulate(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fp:
        spec = simgen.load_spec(fp)
    tracks, annotations = simgen.generate(spec)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(prefix.with_name(prefix.name + ".tracks.csv"), lambda fp: write_tracks(tracks, fp))
    _atomic_write(
        prefix.with_name(prefix.name + ".annotations.jsonl"),
        lambda fp: write_annotations(annotations, fp),
    )
    log.info("simulated %d agents over %d frames", len(spec.agents), spec.duration)
    return EXIT_OK


def cmd_train(args) -> int:
    _check_flags("train", args.window, args.dt, tc=args.tc, to=args.to, tr=args.tr)
    tracks = parse_tracks(_read_text(args.tracks), strict=not args.lenient)
    annotations = parse_annotations(_read_text(args.annotations))
    config = TrainConfig(
        seed=args.seed,
        max_iters=args.max_iters,
        max_segments=args.max_segments,
        fix_advance=1.0 if args.hmm_metric else None,
    )
    bank = train_bank(
        tracks, annotations, config,
        window=args.window, dt=args.dt, tc=args.tc, to=args.to, tr=args.tr,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(out, lambda fp: save_model(bank, fp))
    for label in bank.labels():
        model = bank.models[label]
        fb = " (mixture fallback)" if model.mixture_fallback else ""
        print(f"trained {label}: {model.n_states} states{fb}")
    print(f"model written to {out}")
    return EXIT_OK


def cmd_detect(args) -> int:
    with open(args.model, "r", encoding="utf-8") as fp:
        bank = load_model(fp)
    _check_flags(
        "detect",
        bank.window if args.window is None else args.window,
        bank.dt if args.dt is None else args.dt,
        tc=args.tc, to=args.to, tr=args.tr,
    )
    tracks = parse_tracks(_read_text(args.tracks), strict=not args.lenient)
    config = grad.PipelineConfig.from_bank(
        bank,
        gr=args.gr, variant=args.variant, baseline=args.baseline,
        tc=args.tc, to=args.to, tr=args.tr,
        window=args.window, dt=args.dt,
        smoothing=True if args.smooth else None,
    )
    dets = grad.run_pipeline(bank, tracks, config, frames=_parse_frames(args.frames))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(out, lambda fp: grad.write_detections(dets, fp))
    done = sum(1 for d in dets if d.partition is not None)
    print(f"detected {done} frames ({len(dets) - done} skipped) -> {out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    with open(args.detections, "r", encoding="utf-8") as fp:
        dets = grad.read_detections(fp)
    annotations = parse_annotations(_read_text(args.truth))
    det_frames = [d.frame for d in dets]
    truth_range = annotations.frame_range()
    if det_frames and truth_range is not None:
        lo, hi = min(det_frames), max(det_frames)
        if hi < truth_range[0] or lo > truth_range[1]:
            raise CliError(
                EXIT_DATA,
                f"detections cover frames {lo}..{hi} but truth covers "
                f"{truth_range[0]}..{truth_range[1]}",
            )
    report = metrics.score(dets, annotations, frames=_parse_frames(args.frames))
    print(report.format_text())
    if args.csv:
        _atomic_write(Path(args.csv), lambda fp: fp.write("\n".join(report.csv_rows()) + "\n"))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as exc:
        if exc.message:
            print(exc.message, file=sys.stderr)
        return exc.code
    logging.basicConfig(
        level=logging.DEBUG if args.verbose > 1 else logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    handlers = {
        "simulate": cmd_simulate,
        "train": cmd_train,
        "detect": cmd_detect,
        "evaluate": cmd_evaluate,
    }
    try:
        return handlers[args.command](args)
    except CliError as exc:
        print(exc.message, file=sys.stderr)
        return exc.code
    except (ParseError, simgen.ScenarioError, DataError, ObservationUnavailable) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ModelFormatError, ValueError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
