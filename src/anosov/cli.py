"""Command-line front end: experiment configuration, orchestration, reports.

Subcommands: construct, certify, gap-profile, scan-positivity, limit-set,
deform, pingpong.  Every run writes a ``summary.json`` (plus per-scan CSVs)
into the output directory and prints a short human summary.

Exit codes: 0 success (Certified / PositivelyProximal / found, as the
command requests), 1 refuted (Refuted / NotPositivelyProximal / audit
failure), 2 inconclusive, 3 usage or configuration error.

All randomness flows through the single seed recorded in the summary.  Runs
are single-threaded: ``--threads`` is accepted for compatibility and ignored,
and it is left out of the config echo.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
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
    schottky_rep,
    sym_power_rep,
)
from .errors import NoProximalElements, ToolkitError
from .linalg import EPS_GAP, TRANSVERSALITY_COND, require_gap_index
from .words import Representation, Word, parse_word, reduce_word

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
    # command-specific knobs
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
        if self.radius < 0:
            raise ConfigError("radius must be nonnegative")
        for name in ("eps_gap", "alpha_min", "cond_threshold"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")
        if not self.k or any(kk < 1 for kk in self.k):
            raise ConfigError("k indices must be positive")
        if len(set(self.k)) != len(self.k):
            raise ConfigError("k indices must be distinct")
        if "kind" not in self.construction:
            raise ConfigError("construction descriptor needs a 'kind'")

    def echo(self) -> dict:
        # threads omitted: it is ignored
        return {
            "construction": self.construction,
            "k": self.k,
            "radius": self.radius,
            "eps_gap": self.eps_gap,
            "alpha_min": self.alpha_min,
            "ell_min": self.ell_min,
            "cond_threshold": self.cond_threshold,
            "seed": self.seed,
        }


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
    for name, annotation in _DESCRIPTOR_TYPES.items():
        if name in desc and not _has_type(desc[name], annotation):
            raise ConfigError(
                f"construction {name} must be of type {annotation}, got {desc[name]!r}"
            )
    kind = desc.get("kind")
    if kind == "schottky":
        rep = schottky_rep(_schottky_params(desc))
        if isinstance(rep, ComplexRepresentation):
            raise ConfigError("complex schottky must go through tau2-schottky")
        return rep
    if kind == "tau2-schottky":
        return realify_rep(schottky_rep(_schottky_params(desc, force_complex=True)))
    if kind == "sym-power":
        base = desc.get("base", {"kind": "schottky"})
        if base.get("kind") != "schottky" or base.get("field", "real") != "real":
            raise ConfigError("sym-power expects a real schottky base")
        return sym_power_rep(build_representation(base), desc.get("m", 5))
    if kind == "fuchsian-surface":
        return fuchsian_surface_rep(desc.get("genus", 2))
    if kind == "direct-sum":
        summands = desc.get("summands")
        if not summands:
            raise ConfigError("direct-sum needs a 'summands' list")
        return direct_sum([build_representation(s) for s in summands])
    if kind == "from-file":
        path = desc.get("path")
        try:
            return Representation.load(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            why = f"{type(exc).__name__}: {exc}"
            raise ConfigError(f"from-file path {path!r} does not hold a representation ({why})")
    raise ConfigError(f"unknown construction kind {kind!r}")


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


def _summary_base(cfg: ExperimentConfig, command: str, rep: Representation) -> dict:
    return {
        "command": command,
        "config": cfg.echo(),
        "seed": cfg.seed,
        "presentation": rep.presentation.describe(),
        "dimension": rep.dim,
    }


def _estimate_dict(est: cert.CertificateEstimate) -> dict:
    return {
        "k": est.k,
        "radius": est.radius,
        "verdict": est.verdict,
        "alpha_hat": est.alpha_hat,
        "logC_hat": est.logC_hat,
        "min_margin": est.min_margin,
        "witness": est.witness,
        "qie_passed": est.qie_passed,
        "qie_alpha_hat": est.qie.slope,
        "qie_logC_hat": est.qie.intercept,
    }


def _gap_csv(out: Path, profiles: list[cert.GapProfile]) -> None:
    first = profiles[0]
    _write_csv(
        out / "gap_profile.csv",
        ["word", "length"] + [f"log_gap_{p.k}" for p in profiles] + ["log_total_ratio"],
        [first.words, first.lengths] + [p.log_gap for p in profiles] + [first.log_total],
    )


def cmd_certify(cfg: ExperimentConfig, rep: Representation, out: Path, profile_only: bool) -> int:
    profiles = cert.gap_profiles(rep, cfg.k, cfg.radius)
    estimates = [] if profile_only else [
        cert.certify_anosov(p, alpha_min=cfg.alpha_min, ell_min=cfg.ell_min) for p in profiles
    ]
    _gap_csv(out, profiles)
    summary = _summary_base(cfg, "gap-profile" if profile_only else "certify", rep)
    if profile_only:
        summary["profiles"] = [
            {"k": p.k, "radius": p.radius, "words": len(p.words)} for p in profiles
        ]
        _write_json(out / "summary.json", summary)
        print(f"gap-profile: {len(profiles[0].words)} words, k = {cfg.k}")
        return EXIT_OK
    verdicts = {e.verdict for e in estimates}
    if "Refuted" in verdicts:
        overall, code = "Refuted", EXIT_REFUTED
    elif verdicts == {"Certified"}:
        overall, code = "Certified", EXIT_OK
    else:
        overall, code = "Inconclusive", EXIT_INCONCLUSIVE
    summary["verdict"] = overall
    summary["estimates"] = [_estimate_dict(e) for e in estimates]
    _write_json(out / "summary.json", summary)
    for est in estimates:
        line = f"k={est.k}: {est.verdict} (alpha_hat={est.alpha_hat:.4f}, margin={est.min_margin:.4f}"
        line += f", witness={est.witness})" if est.witness else ")"
        print(line)
    return code


def cmd_scan_positivity(cfg: ExperimentConfig, rep: Representation, out: Path) -> int:
    reports = cert.scan_positivities(rep, cfg.k, cfg.radius, eps_gap=cfg.eps_gap)
    for r in reports:
        _write_csv(
            out / f"positivity_k{r.k}.csv",
            ["word", "length", "proximal", "ell1_sign", "semiproximal_positive", "log_gap"],
            [r.words, r.lengths, r.proximal.astype(int), r.ell1_sign,
             r.semiproximal_positive.astype(int), r.log_gap],
        )
    verdicts = {r.verdict for r in reports}
    if "NotPositivelyProximal" in verdicts:
        overall, code = "NotPositivelyProximal", EXIT_REFUTED
    elif verdicts == {"PositivelyProximal"}:
        overall, code = "PositivelyProximal", EXIT_OK
    else:
        overall, code = "NoProximalFound", EXIT_INCONCLUSIVE
    summary = _summary_base(cfg, "scan-positivity", rep)
    summary["verdict"] = overall
    summary["reports"] = [
        {
            "k": r.k,
            "radius": r.radius,
            "dim_scanned": r.dim_scanned,
            "verdict": r.verdict,
            "witness": r.witness,
            "witness_recheck": r.witness_recheck,
            "n_proximal": r.n_proximal,
            "n_negative": r.n_negative,
            "n_semiproximal_failures": len(r.semiproximal_failures),
        }
        for r in reports
    ]
    _write_json(out / "summary.json", summary)
    for r in reports:
        extra = f", witness={r.witness}" if r.witness else ""
        print(f"k={r.k} (dim {r.dim_scanned}): {r.verdict}{extra}")
    return code


def _single_k(cfg: ExperimentConfig, command: str) -> int:
    if len(cfg.k) != 1:
        raise ConfigError(f"{command} takes one k, got {cfg.k}")
    return cfg.k[0]


def cmd_limit_set(cfg: ExperimentConfig, rep: Representation, out: Path) -> int:
    k = _single_k(cfg, "limit-set")
    try:
        samples = cert.limit_map_sample(rep, k, cfg.radius, eps_gap=cfg.eps_gap, seed=cfg.seed)
    except NoProximalElements as exc:
        print(f"limit-set: {exc}")
        summary = _summary_base(cfg, "limit-set", rep)
        summary["error"] = str(exc)
        _write_json(out / "summary.json", summary)
        return EXIT_INCONCLUSIVE
    audit = cert.audit_limit_samples(samples, cond_threshold=cfg.cond_threshold)
    _write_csv(
        out / "limit_samples.csv",
        ["word", "inverse_word", "dynamics_preserving", "log_gap"],
        [[s.word for s in samples], [s.inverse_word for s in samples],
         [int(s.dynamics_preserving) for s in samples], [s.log_gap for s in samples]],
    )
    summary = _summary_base(cfg, "limit-set", rep)
    summary["audit"] = {
        "n_samples": audit.n_samples,
        "n_boundary_points": audit.n_boundary_points,
        "n_pairs_checked": audit.n_pairs_checked,
        "transversality_failures": list(audit.transversality_failures),
        "span_rank": audit.span_rank,
        "span_dim": audit.span_dim,
        "spanning": audit.spanning,
    }
    _write_json(out / "summary.json", summary)
    print(
        f"limit-set: {audit.n_samples} samples, {audit.n_pairs_checked} pairs, "
        f"{len(audit.transversality_failures)} failures, "
        f"span rank {audit.span_rank}/{audit.span_dim}"
    )
    return EXIT_OK if audit.all_transverse else EXIT_REFUTED


def cmd_deform(cfg: ExperimentConfig, rep: Representation, out: Path) -> int:
    k = _single_k(cfg, "deform")
    require_gap_index(k, rep.dim)
    path = perturb_path(rep, cfg.magnitude, cfg.seed, cfg.steps)
    traces = cert.track_ball_along_path(path, cfg.radius, k, eps_gap=cfg.eps_gap)
    _write_csv(
        out / "deform_traces.csv",
        ["word", "verdict", "failing_step", "signs"],
        [
            [t.word for t in traces],
            [t.verdict for t in traces],
            ["" if t.failing_step is None else t.failing_step for t in traces],
            ["".join("+" if s > 0 else ("-" if s < 0 else "0") for s in t.signs) for t in traces],
        ],
    )
    counts = {
        "ConstantSign": sum(1 for t in traces if t.verdict == "ConstantSign"),
        "SignChange": sum(1 for t in traces if t.verdict == "SignChange"),
        "Inconclusive": sum(1 for t in traces if t.verdict == "Inconclusive"),
    }
    summary = _summary_base(cfg, "deform", rep)
    summary["magnitude"] = cfg.magnitude
    summary["steps"] = cfg.steps
    summary["k"] = k
    summary["counts"] = counts
    first_bad = next((t for t in traces if t.verdict != "ConstantSign"), None)
    summary["first_non_constant"] = (
        None
        if first_bad is None
        else {"word": first_bad.word, "verdict": first_bad.verdict, "step": first_bad.failing_step}
    )
    _write_json(out / "summary.json", summary)
    print(f"deform: {counts}")
    if counts["SignChange"]:
        return EXIT_REFUTED
    if counts["Inconclusive"]:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_pingpong(cfg: ExperimentConfig, rep: Representation, out: Path) -> int:
    g = reduce_word(parse_word(cfg.g_word), rep.presentation)
    t: Word | np.ndarray
    if cfg.t_rotation is not None:
        from .constructions import rotation_about_i

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
    summary = _summary_base(cfg, "pingpong", rep)
    summary["g"] = str(g)
    summary["t"] = cfg.t_word if cfg.t_rotation is None else f"rotation({cfg.t_rotation})"
    summary["max_n"] = cfg.max_n
    summary["found"] = result is not None
    if result is not None:
        summary["n"] = result.n
        summary["delta"] = result.delta
    _write_json(out / "summary.json", summary)
    if result is None:
        print(f"pingpong: no power up to {cfg.max_n} satisfies the criterion")
        return EXIT_INCONCLUSIVE
    print(f"pingpong: N = {result.n} at delta = {result.delta:.4f}")
    return EXIT_OK


def cmd_construct(cfg: ExperimentConfig, rep: Representation, out: Path) -> int:
    target = Path(cfg.emit) if cfg.emit else out / "representation.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    rep.save(target)
    summary = _summary_base(cfg, "construct", rep)
    summary["emitted"] = str(target)
    _write_json(out / "summary.json", summary)
    print(f"construct: {rep.presentation.describe()} in dimension {rep.dim} -> {target}")
    return EXIT_OK


def _commands() -> dict:
    """Subcommand -> (handler, extra flags as (flag, type, config field)).

    Built on each call, so the handlers are looked up when the CLI runs.
    """
    return {
        "construct": (cmd_construct, [("--emit", str, "emit")]),
        "certify": (functools.partial(cmd_certify, profile_only=False), []),
        "gap-profile": (functools.partial(cmd_certify, profile_only=True), []),
        "scan-positivity": (cmd_scan_positivity, []),
        "limit-set": (cmd_limit_set, []),
        "deform": (cmd_deform, [("--magnitude", float, "magnitude"), ("--steps", int, "steps")]),
        "pingpong": (cmd_pingpong, [
            ("--g", str, "g_word"),
            ("--t", str, "t_word"),
            ("--t-rotation", float, "t_rotation"),
            ("--max-n", int, "max_n"),
        ]),
    }


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anosov",
        description="Numerical certification experiments for matrix representations "
        "of free and surface groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _commands().items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--construction", type=str, default=None,
                       help="inline JSON construction descriptor")
        p.add_argument("--radius", type=int, default=None)
        p.add_argument("--k", type=int, nargs="+", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--eps-gap", type=float, default=None)
        p.add_argument("--alpha-min", type=float, default=None)
        p.add_argument("--ell-min", type=int, default=None)
        p.add_argument("--cond-threshold", type=float, default=None)
        for flag, kind, dest in flags:
            p.add_argument(flag, type=kind, default=None, dest=dest)
    return parser


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
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
    fields = ExperimentConfig.__dataclass_fields__
    for key in data:
        if key not in fields:
            raise ConfigError(f"unknown config field {key!r}")
    cfg = ExperimentConfig(**data)
    for name in fields:
        # args.construction is the raw JSON text, already parsed into data
        val = getattr(args, name, None)
        if name != "construction" and val is not None:
            setattr(cfg, name, val)
    cfg.validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args)
        rep = build_representation(cfg.construction)
        out = Path(cfg.out)
        handler, _ = _commands()[args.command]
        try:  # the handlers read nothing, so an OSError is an unwritable output path
            out.mkdir(parents=True, exist_ok=True)
            return handler(cfg, rep, out)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}")
    except (ConfigError, ToolkitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
