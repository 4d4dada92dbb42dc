"""Command-line front end: experiment configuration, orchestration, reports.

Subcommands: construct, certify, gap-profile, scan-positivity, limit-set,
deform, pingpong.  A ``cmd_*`` handler only computes a :class:`Run`;
:func:`write_run` writes its reports and ``summary.json`` (creating the
output directory with the first file), then ``main`` prints its lines.  So
a run that fails while computing leaves no output directory behind.

Exit codes: 0 success (Certified / PositivelyProximal / found, as the
command requests), 1 refuted (Refuted / NotPositivelyProximal / audit
failure), 2 inconclusive, 3 usage or configuration error, which includes
every input a command cannot use: argument errors, a flag or config key the
command does not read (:func:`_commands`), non-finite thresholds or
``t_rotation``, negative seeds, construction keys the kind does not read, a
from-file ``log_scale`` beyond the float64 range, a ``deform`` radius below 1
and a ``deform`` sign table above ``BALL_GUARD``.

All randomness flows through the single seed recorded in the summary.  Runs
are single-threaded: ``--threads`` is accepted for compatibility and ignored,
and it is left out of the config echo.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import certify as cert
from .constructions import (
    ComplexRepresentation,
    SchottkyParams,
    direct_sum,
    fuchsian_surface_rep,
    perturb_path,
    realify_rep,
    rotation_about_i,
    schottky_rep,
    sym_power_rep,
)
from .errors import InsufficientRadius, NoProximalElements, ResourceLimit, ToolkitError
from .linalg import EPS_GAP, TRANSVERSALITY_COND, require_gap_index
from .words import BALL_GUARD, Representation, Word, enumerate_ball, parse_word, reduce_word

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

#: Rows formatted per write by :func:`_write_csv`.
CSV_CHUNK_ROWS = 4096


class ConfigError(Exception):
    pass


_FIELD_TYPES = {"int": int, "float": (int, float), "str": str, "dict": dict}


def _has_type(value, annotation: str) -> bool:
    """Whether ``value`` fits a field annotation such as ``list[float] | None``."""
    if " | " in annotation:
        return any(_has_type(value, a) for a in annotation.split(" | "))
    if annotation == "None":
        return value is None
    if annotation.startswith("list["):
        return isinstance(value, list) and all(_has_type(v, annotation[5:-1]) for v in value)
    return not isinstance(value, bool) and isinstance(value, _FIELD_TYPES[annotation])


@dataclass
class ExperimentConfig:
    construction: dict
    k: list[int] = field(default_factory=lambda: [1])
    radius: int = 6
    eps_gap: float = EPS_GAP
    alpha_min: float = cert.DEFAULT_ALPHA_MIN
    ell_min: int = cert.DEFAULT_ELL_MIN
    cond_threshold: float = TRANSVERSALITY_COND
    seed: int = 0
    out: str = "."
    threads: int = 1
    magnitude: float = 0.01
    steps: int = 50
    g_word: str = "a"
    t_word: str | None = None
    t_rotation: float | None = None
    max_n: int = 20
    emit: str | None = None

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, f.type):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
        # ell_min >= 1: a fit from length 0 would run through the identity
        for name, low in (("radius", 0), ("ell_min", 1), ("seed", 0), ("threads", 1), ("max_n", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be {'at least 1' if low else 'nonnegative'}")
        for name in ("eps_gap", "alpha_min", "cond_threshold"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigError(f"{name} must be positive")
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        if self.t_rotation is not None and not math.isfinite(self.t_rotation):
            raise ConfigError("t_rotation must be finite")
        if not self.k or any(kk < 1 for kk in self.k):
            raise ConfigError("k indices must be positive")
        if len(set(self.k)) != len(self.k):
            raise ConfigError("k indices must be distinct")
        if "kind" not in self.construction:
            raise ConfigError("construction descriptor needs a 'kind'")

    def echo(self) -> dict:
        # threads omitted: it is ignored
        return _fields(self, "construction", "k", "radius", "eps_gap", "alpha_min", "ell_min",
                       "cond_threshold", "seed")


#: Annotations of the construction descriptor fields other than strings.
_DESCRIPTOR_TYPES = {
    "base": "dict",
    "summands": "list[dict]",
    "genus": "int",
    "rank": "int",
    "m": "int",
    "dilation": "float | list[float]",
    "angles": "list[float] | None",
    "twists": "list[float] | None",
    "trace_signs": "list[int] | None",
    "path": "str",
}

#: Descriptor keys each construction kind reads besides ``kind``; any other is an error.
_KIND_KEYS = {
    "schottky": {"rank", "dilation", "angles", "field", "trace_signs", "twists"},
    "tau2-schottky": {"rank", "dilation", "angles", "trace_signs", "twists"},
    "sym-power": {"base", "m"},
    "fuchsian-surface": {"genus"},
    "direct-sum": {"summands"},
    "from-file": {"path"},
}


def _schottky_params(desc: dict, force_complex: bool = False) -> SchottkyParams:
    return SchottkyParams(
        rank=desc.get("rank", 2),
        dilation=desc.get("dilation", 3.0),
        angles=desc.get("angles"),
        field="complex" if force_complex else desc.get("field", "real"),
        trace_signs=desc.get("trace_signs"),
        twists=desc.get("twists"),
    )


def build_representation(desc: dict) -> Representation:
    kind = desc.get("kind")
    if not isinstance(kind, str) or kind not in _KIND_KEYS:
        raise ConfigError(f"unknown construction kind {kind!r}")
    unread = sorted(desc.keys() - _KIND_KEYS[kind] - {"kind"})
    if unread:
        raise ConfigError(f"construction kind {kind!r} does not read {', '.join(unread)}")
    for name, annotation in _DESCRIPTOR_TYPES.items():
        if name in desc and not _has_type(desc[name], annotation):
            raise ConfigError(
                f"construction {name} must be of type {annotation}, got {desc[name]!r}"
            )
    if kind == "schottky":
        rep = schottky_rep(_schottky_params(desc))
        if isinstance(rep, ComplexRepresentation):
            raise ConfigError("complex schottky must go through tau2-schottky")
        return rep
    if kind == "tau2-schottky":
        return realify_rep(schottky_rep(_schottky_params(desc, force_complex=True)))
    if kind == "sym-power":
        base = desc.get("base", {"kind": "schottky"})
        return sym_power_rep(build_representation(base), desc.get("m", 5))
    if kind == "fuchsian-surface":
        return fuchsian_surface_rep(desc.get("genus", 2))
    if kind == "direct-sum":
        summands = desc.get("summands")
        if not summands:
            raise ConfigError("direct-sum needs a 'summands' list")
        return direct_sum([build_representation(s) for s in summands])
    path = desc.get("path")  # the one kind left: from-file
    try:
        return Representation.load(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        why = f"{type(exc).__name__}: {exc}"
        raise ConfigError(f"from-file path {path!r} does not hold a representation ({why})")


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], columns: Sequence[Sequence]) -> None:
    """Write equal-length columns (lists or arrays) as CSV rows.

    A field is ``str`` of a plain Python value, so a float is written as its
    ``repr``; no field holds a comma, quote or newline, so none is quoted.
    Rows are formatted and written :data:`CSV_CHUNK_ROWS` at a time, so only
    one chunk's Python values and text are alive at once.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    line = ",".join(["{}"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            chunk = [c[lo : lo + CSV_CHUNK_ROWS] for c in columns]
            chunk = [c.tolist() if isinstance(c, np.ndarray) else c for c in chunk]
            fh.write("".join(itertools.starmap(line.format, zip(*chunk))))


@dataclass
class Run:
    """What a command computed; ``main`` and :func:`write_run` put it out.

    ``summary`` holds the command's own ``summary.json`` fields; ``reports``
    maps a file name under ``--out`` (or an absolute path) to a CSV as
    ``(header, columns)`` or to a JSON payload; ``lines`` go to stdout.
    """

    code: int
    summary: dict
    lines: list[str]
    reports: dict = field(default_factory=dict)


def write_run(out: Path, summary: dict, reports: dict) -> None:
    """Write a run's report files, then its ``summary.json``, creating ``out``."""
    for name, report in reports.items():
        if isinstance(report, dict):
            _write_json(out / name, report)
        else:
            _write_csv(out / name, *report)
    _write_json(out / "summary.json", summary)


def _overall(verdicts: set[str], refuted: str, certified: str, inconclusive: str) -> tuple:
    """(overall verdict, exit code) of the per-k verdicts."""
    if refuted in verdicts:
        return refuted, EXIT_REFUTED
    if verdicts == {certified}:
        return certified, EXIT_OK
    return inconclusive, EXIT_INCONCLUSIVE


def _fields(obj, *names: str) -> dict:
    # literal names only: the type attribute cache keeps every looked-up name
    # alive, so names built at run time would pin heap memory from run to run
    return {name: getattr(obj, name) for name in names}


def cmd_certify(cfg: ExperimentConfig, rep: Representation, profile_only: bool) -> Run:
    profiles = cert.gap_profiles(rep, cfg.k, cfg.radius)
    first = profiles[0]
    reports = {"gap_profile.csv": (
        ["word", "length"] + [f"log_gap_{p.k}" for p in profiles] + ["log_total_ratio"],
        [first.words, first.lengths] + [p.log_gap for p in profiles] + [first.log_total],
    )}
    if profile_only:
        summary = {"profiles": [
            {"k": p.k, "radius": p.radius, "words": len(p.words)} for p in profiles
        ]}
        return Run(EXIT_OK, summary, [f"gap-profile: {len(first.words)} words, k = {cfg.k}"],
                   reports)
    estimates = [
        cert.certify_anosov(p, alpha_min=cfg.alpha_min, ell_min=cfg.ell_min) for p in profiles
    ]
    verdicts = {e.verdict for e in estimates}
    overall, code = _overall(verdicts, "Refuted", "Certified", "Inconclusive")
    lines = [
        f"k={e.k}: {e.verdict} (alpha_hat={e.alpha_hat:.4f}, margin={e.min_margin:.4f}"
        + (f", witness={e.witness})" if e.witness else ")")
        for e in estimates
    ]
    summary = {"verdict": overall, "estimates": [
        {**_fields(e, "k", "radius", "verdict", "alpha_hat", "logC_hat", "min_margin",
                   "witness", "qie_passed"),
         "qie_alpha_hat": e.qie.slope, "qie_logC_hat": e.qie.intercept}
        for e in estimates
    ]}
    return Run(code, summary, lines, reports)


def cmd_scan_positivity(cfg: ExperimentConfig, rep: Representation) -> Run:
    scans = cert.scan_positivities(rep, cfg.k, cfg.radius, eps_gap=cfg.eps_gap)
    verdicts = {r.verdict for r in scans}
    inconclusive = "Inconclusive" if "Inconclusive" in verdicts else "NoProximalFound"
    overall, code = _overall(verdicts, "NotPositivelyProximal", "PositivelyProximal", inconclusive)
    summary = {"verdict": overall, "reports": [
        {**_fields(r, "k", "radius", "dim_scanned", "verdict", "witness", "witness_recheck",
                   "n_proximal", "n_negative"),
         "n_semiproximal_failures": len(r.semiproximal_failures)}
        for r in scans
    ]}
    lines = [
        f"k={r.k} (dim {r.dim_scanned}): {r.verdict}"
        + (f", witness={r.witness}" if r.witness else "")
        for r in scans
    ]
    reports = {
        f"positivity_k{r.k}.csv": (
            ["word", "length", "proximal", "ell1_sign", "semiproximal_positive", "log_gap"],
            [r.words, r.lengths, r.proximal.astype(int), r.ell1_sign,
             r.semiproximal_positive.astype(int), r.log_gap],
        )
        for r in scans
    }
    return Run(code, summary, lines, reports)


def _single_k(cfg: ExperimentConfig, command: str) -> int:
    if len(cfg.k) != 1:
        raise ConfigError(f"{command} takes one k, got {cfg.k}")
    return cfg.k[0]


def cmd_limit_set(cfg: ExperimentConfig, rep: Representation) -> Run:
    k = _single_k(cfg, "limit-set")
    try:
        samples = cert.limit_map_sample(rep, k, cfg.radius, eps_gap=cfg.eps_gap, seed=cfg.seed)
    except NoProximalElements as exc:
        return Run(EXIT_INCONCLUSIVE, {"error": str(exc)}, [f"limit-set: {exc}"])
    audit = cert.audit_limit_samples(samples, cond_threshold=cfg.cond_threshold)
    summary = {"audit": {
        **_fields(audit, "n_samples", "n_boundary_points", "n_pairs_checked", "span_rank",
                  "span_dim", "spanning"),
        "transversality_failures": list(audit.transversality_failures),
    }}
    line = (
        f"limit-set: {audit.n_samples} samples, {audit.n_pairs_checked} pairs, "
        f"{len(audit.transversality_failures)} failures, "
        f"span rank {audit.span_rank}/{audit.span_dim}"
    )
    reports = {"limit_samples.csv": (
        ["word", "inverse_word", "dynamics_preserving", "log_gap"],
        [[s.word for s in samples], [s.inverse_word for s in samples],
         [int(s.dynamics_preserving) for s in samples], [s.log_gap for s in samples]],
    )}
    return Run(EXIT_OK if audit.all_transverse else EXIT_REFUTED, summary, [line], reports)


def cmd_deform(cfg: ExperimentConfig, rep: Representation) -> Run:
    k = _single_k(cfg, "deform")
    require_gap_index(k, rep.dim)
    if cfg.radius < 1:  # the ball would hold no word to track
        raise InsufficientRadius("deform needs radius >= 1")
    # the walk fills one sign per path step and ball word, the identity included
    entries = (cfg.steps + 1) * len(enumerate_ball(rep.presentation, cfg.radius))
    if entries > BALL_GUARD:
        raise ResourceLimit(f"deform sign table of {entries} entries exceeds guard {BALL_GUARD}")
    path = perturb_path(rep, cfg.magnitude, cfg.seed, cfg.steps)
    traces = cert.track_ball_along_path(path, cfg.radius, k, eps_gap=cfg.eps_gap)
    verdicts = [t.verdict for t in traces]
    counts = {v: verdicts.count(v) for v in ("ConstantSign", "SignChange", "Inconclusive")}
    first_bad = next((t for t in traces if t.verdict != "ConstantSign"), None)
    summary = {
        "magnitude": cfg.magnitude, "steps": cfg.steps, "k": k, "counts": counts,
        "first_non_constant": None if first_bad is None else {
            "word": first_bad.word, "verdict": first_bad.verdict, "step": first_bad.failing_step
        },
    }
    reports = {"deform_traces.csv": (
        ["word", "verdict", "failing_step", "signs"],
        [
            [t.word for t in traces],
            verdicts,
            ["" if t.failing_step is None else t.failing_step for t in traces],
            ["".join("+" if s > 0 else ("-" if s < 0 else "0") for s in t.signs) for t in traces],
        ],
    )}
    code = EXIT_REFUTED if counts["SignChange"] else (
        EXIT_INCONCLUSIVE if counts["Inconclusive"] else EXIT_OK)
    return Run(code, summary, [f"deform: {counts}"], reports)


def cmd_pingpong(cfg: ExperimentConfig, rep: Representation) -> Run:
    if cfg.t_rotation is not None and cfg.t_word is not None:
        raise ConfigError("pingpong takes --t or --t-rotation, not both")
    g = reduce_word(parse_word(cfg.g_word), rep.presentation)
    t: Word | np.ndarray
    if cfg.t_rotation is not None:
        if rep.dim != 2:
            raise ConfigError("--t-rotation requires a 2-dimensional representation")
        t = rotation_about_i(cfg.t_rotation)
    elif cfg.t_word is not None:
        t = reduce_word(parse_word(cfg.t_word), rep.presentation)
    else:
        raise ConfigError("pingpong needs --t or --t-rotation")
    result = cert.pingpong_power(
        rep, g, t, max_n=cfg.max_n, eps_gap=cfg.eps_gap, cond_threshold=cfg.cond_threshold
    )
    summary = {
        "g": str(g),
        "t": cfg.t_word if cfg.t_rotation is None else f"rotation({cfg.t_rotation})",
        "max_n": cfg.max_n,
        "found": result is not None,
    }
    if result is None:
        line = f"pingpong: no power up to {cfg.max_n} satisfies the criterion"
        return Run(EXIT_INCONCLUSIVE, summary, [line])
    summary.update(n=result.n, delta=result.delta)
    return Run(EXIT_OK, summary, [f"pingpong: N = {result.n} at delta = {result.delta:.4f}"])


def cmd_construct(cfg: ExperimentConfig, rep: Representation) -> Run:
    target = Path(cfg.emit) if cfg.emit else Path(cfg.out) / "representation.json"
    line = f"construct: {rep.presentation.describe()} in dimension {rep.dim} -> {target}"
    return Run(EXIT_OK, {"emitted": str(target)}, [line],
               {target.absolute(): rep.to_json_dict()})


#: Settings every command takes besides ``--config`` and ``--construction``.
_COMMON = ("seed", "threads", "out")

#: Settings whose flag is not ``--`` and the setting's name with dashes.
_FLAG_NAMES = {"g_word": "--g", "t_word": "--t"}


def _commands() -> dict:
    """Subcommand -> (handler, the config fields it reads besides the common ones).

    The one table of command settings: it gives each subcommand its flags,
    and a config file may set no other field.  Built on each call, so the
    handlers are looked up when the CLI runs.
    """
    return {
        "construct": (cmd_construct, ("emit",)),
        "certify": (functools.partial(cmd_certify, profile_only=False),
                    ("radius", "k", "alpha_min", "ell_min")),
        "gap-profile": (functools.partial(cmd_certify, profile_only=True), ("radius", "k")),
        "scan-positivity": (cmd_scan_positivity, ("radius", "k", "eps_gap")),
        "limit-set": (cmd_limit_set, ("radius", "k", "eps_gap", "cond_threshold")),
        "deform": (cmd_deform, ("radius", "k", "eps_gap", "magnitude", "steps")),
        "pingpong": (cmd_pingpong,
                     ("eps_gap", "cond_threshold", "g_word", "t_word", "t_rotation", "max_n")),
    }


class _Parser(argparse.ArgumentParser):
    """Reports a command-line error as a :class:`ConfigError` (exit 3), not exit 2."""

    def error(self, message: str):
        raise ConfigError(message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="anosov",
        description="Numerical certification experiments for matrix representations "
        "of free and surface groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    types = {"int": int, "float": float, "str": str, "list[int]": int}
    annotations = {f.name: f.type.removesuffix(" | None") for f in fields(ExperimentConfig)}
    for name, (_, settings) in _commands().items():
        # no abbreviations: ``--t`` must not reach ``--threads`` where there is no ``--t``
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--construction", type=str, default=None,
                       help="inline JSON construction descriptor")
        for setting in (*_COMMON, *settings):
            kind = annotations[setting]
            p.add_argument(_FLAG_NAMES.get(setting, "--" + setting.replace("_", "-")), dest=setting,
                           type=types[kind], nargs="+" if kind.startswith("list") else None)
    return parser


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ConfigError(f"config file {args.config!r} does not hold a JSON object")
        except FileNotFoundError:
            raise ConfigError(f"config file {args.config!r} not found")
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            )
    if args.construction:
        try:
            data["construction"] = json.loads(args.construction)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad inline construction JSON: {exc.msg}")
    if "construction" not in data:
        raise ConfigError("no construction given (use --config or --construction)")
    settings = (*_COMMON, *_commands()[args.command][1])
    unread = sorted(data.keys() - {"construction", *settings})
    if unread:
        raise ConfigError(f"command {args.command!r} does not read {', '.join(unread)}")
    cfg = ExperimentConfig(**data)
    for name in settings:  # a flag overrides the config file
        if getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    cfg.validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = load_config(args)
        rep = build_representation(cfg.construction)
        out = Path(cfg.out)
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"cannot write output: {existing} is not a directory")
        handler, _ = _commands()[args.command]
        run = handler(cfg, rep)
        summary = {
            "command": args.command,
            "config": cfg.echo(),
            "seed": cfg.seed,
            "presentation": rep.presentation.describe(),
            "dimension": rep.dim,
            **run.summary,
        }
        try:
            write_run(out, summary, run.reports)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}")
    except (ConfigError, ToolkitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for line in run.lines:
        print(line)
    return run.code


if __name__ == "__main__":
    sys.exit(main())
