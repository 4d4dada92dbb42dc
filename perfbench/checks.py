"""Output checks: stored references plus oracles that share no code with anosov.

Each experiment's outputs (exit code, ``summary.json``, CSVs) are compared
with ``references.json``, recorded from the code at the commit that added
the benchmark:

* verdicts, witnesses, exit codes and word counts exactly;
* ``alpha_hat`` to 1e-9 (relative, absolute below 1);
* per-length minima of every CSV gap column to 1e-12 absolute;
* limit-set audit counts, deform verdict counts and the ping-pong power.

On top of the references, independent oracles:

* ``mpmath-gaps``: a seeded sample of ball words is multiplied out at 50
  digits from generator matrices built here from the construction's formula,
  and its singular values are compared with the CSV log gaps (see
  ``_gap_tolerance`` for the two tolerances);
* ``cannon``: surface sphere sizes equal the coefficients of Cannon's
  rational growth series;
* ``sym-power-alpha`` and ``scan-witness``: the two experiments that fail
  today (ROADMAP item 1) are checked against what success must look like, the
  day they succeed.  Until then their failure is recorded with its message
  as a known failure, not a mismatch, as long as it is exactly the
  documented one (``is_known_failure``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import mpmath

ALPHA_TOL = 1e-9
MINIMA_TOL = 1e-12
GAP_TARGET_REL = 1e-9
ORACLE_SAMPLE = 64
UNIT_ROUNDOFF = 2.0**-53

# Exit codes of a completed experiment (certified / refuted / inconclusive).
COMPLETED = (0, 1, 2)


@dataclass
class Outcome:
    status: str  # "ok" | "known-failure" | "mismatch"
    units: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _rel_err(got: float, ref: float) -> float:
    return abs(got - ref) / max(abs(ref), 1.0)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _csv_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


# ---------------------------------------------------------------------------
# independent oracles


def cannon_sphere_sizes(genus: int, radius: int) -> list[int]:
    """Sphere sizes of the genus-g surface group in its standard generators.

    Coefficients of Cannon's growth series (Geom. Dedicata 16, 1984)
    (1 + 2z + ... + 2z^(2g-1) + z^(2g)) / (1 - (4g-2)(z + ... + z^(2g-1)) + z^(2g)).
    """
    num = [1] + [2] * (2 * genus - 1) + [1]
    den = [1] + [-(4 * genus - 2)] * (2 * genus - 1) + [1]
    out: list[int] = []
    for n in range(radius + 1):
        a = num[n] if n < len(num) else 0
        a -= sum(den[j] * out[n - j] for j in range(1, min(n, len(den) - 1) + 1))
        out.append(a)
    return out


def _mp_rotation(theta):
    c, s = mpmath.cos(theta / 2), mpmath.sin(theta / 2)
    return mpmath.matrix([[c, s], [-s, c]])


def _mp_generators(desc: dict) -> list:
    """Generator matrices of a Schottky or tau2-Schottky construction at 50 digits.

    Generator i translates along the axis through i at angle i*pi/rank with
    eigenvalues dilation^(+-1), times exp(+-i*twist) for the complex family,
    which is then realified to the real 4x4 block [[Re g, -Im g], [Im g, Re g]].
    """
    rank = int(desc.get("rank", 2))
    lam = mpmath.mpf(desc.get("dilation", 3.0))
    twists = desc.get("twists")
    gens = []
    for i in range(rank):
        r = _mp_rotation(i * mpmath.pi / rank)
        if desc["kind"] == "schottky":
            gens.append(r * mpmath.diag([lam, 1 / lam]) * r.T)
            continue
        phi = mpmath.mpf(twists[i])
        g = r * mpmath.diag([lam * mpmath.expj(phi), mpmath.expj(-phi) / lam]) * r.T
        real = mpmath.matrix(4, 4)
        for a in range(2):
            for b in range(2):
                re, im = mpmath.re(g[a, b]), mpmath.im(g[a, b])
                real[a, b], real[a, b + 2] = re, -im
                real[a + 2, b], real[a + 2, b + 2] = im, re
        gens.append(real)
    return gens


def _mp_log_singular_values(gens: list, inverses: list, word: str) -> list:
    m = mpmath.eye(gens[0].rows)
    for ch in "" if word == "<id>" else word:
        i = ord(ch.lower()) - ord("a")
        m = m * (gens[i] if ch.islower() else inverses[i])
    # eigenvalues of m^T m: at 50 digits squaring costs nothing that matters here,
    # and the symmetric solver converges on the repeated values of tau2 products
    eig = mpmath.eigsy(m.T * m, eigvals_only=True)
    return sorted((mpmath.log(eig[i]) / 2 for i in range(eig.rows)), reverse=True)


def _gap_tolerance(log_sv: list, length: int) -> float:
    """Agreement a backward-stable double-precision computation guarantees.

    A product of ``length`` rounded factors followed by an SVD perturbs the
    true matrix by about ``length * u * sigma_1``, which moves log sigma_d by
    up to ``length * u * kappa`` (Weyl), kappa = sigma_1 / sigma_d.  Anything
    beyond four times that is a wrong number, not rounding; observed errors
    stay below a quarter of it.
    """
    kappa = float(mpmath.exp(log_sv[0] - log_sv[-1]))
    return 4.0 * (length + 1) * UNIT_ROUNDOFF * kappa


def mpmath_gap_oracle(desc: dict, csv_path: Path, n_rows: int, seed: int, out: Outcome) -> None:
    """Compare CSV log gaps of a seeded word sample with 50-digit singular values.

    A gap differing by more than the double-precision guarantee is a
    mismatch.  Gaps that meet the guarantee but miss the 1e-9 relative target
    of ROADMAP item 1 (``singular_values`` promises full relative accuracy
    below condition number 1e12) are counted and reported as that known
    defect.
    """
    mpmath.mp.dps = 50
    gens = _mp_generators(desc)
    inverses = [mpmath.inverse(g) for g in gens]
    rng = random.Random(seed)
    picks = set(rng.sample(range(1, n_rows), min(ORACLE_SAMPLE, n_rows - 1)))
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = [(i, int(name[len("log_gap_"):])) for i, name in enumerate(header)
                if name.startswith("log_gap_")]
        checked, misses, worst = 0, 0, 0.0
        for index, row in enumerate(reader):
            if index not in picks:
                continue
            log_sv = _mp_log_singular_values(gens, inverses, row[0])
            hard = _gap_tolerance(log_sv, int(row[1]))
            for col, k in cols:
                ref = max(float(log_sv[k - 1] - log_sv[k]), 0.0)
                got = float(row[col])
                err = abs(got - ref)
                checked += 1
                worst = max(worst, _rel_err(got, ref))
                if err > GAP_TARGET_REL * max(abs(ref), 1.0):
                    misses += 1
                if err > GAP_TARGET_REL * max(abs(ref), 1.0) + hard:
                    out.problems.append(
                        f"mpmath: {row[0]} log_gap_{k} = {got!r}, 50-digit value {ref!r}"
                    )
    out.notes.append(f"mpmath oracle: {checked} gaps of {len(picks)} sampled words, "
                     f"worst relative error {worst:.3g}")
    if misses:
        out.notes.append(
            f"KNOWN DEFECT (ROADMAP item 1): {misses}/{checked} sampled gaps miss the "
            f"{GAP_TARGET_REL:g} relative target"
        )


def free_ball_words(rank: int, radius: int) -> list[str]:
    """Reduced words over a, A, b, B, ... up to ``radius``, by length."""
    letters = [ch for i in range(rank) for ch in (chr(ord("a") + i), chr(ord("A") + i))]
    out, sphere = [""], [""]
    for _ in range(radius):
        sphere = [w + ch for w in sphere for ch in letters
                  if not w or w[-1] != ch.swapcase()]
        out += sphere
    return out


def free_alpha_hat(desc: dict, radius: int, ell_min: int = 2) -> float:
    """Least-squares slope of per-length minimal log gaps (k = 1), at 50 digits."""
    mpmath.mp.dps = 50
    gens = _mp_generators(desc)
    inverses = [mpmath.inverse(g) for g in gens]
    minima: dict[int, object] = {}
    for w in free_ball_words(len(gens), radius):
        if len(w) < ell_min:
            continue
        log_sv = _mp_log_singular_values(gens, inverses, w)
        gap = log_sv[0] - log_sv[1]
        minima[len(w)] = min(gap, minima.get(len(w), gap))
    xs = sorted(minima)
    x_bar = mpmath.mpf(sum(xs)) / len(xs)
    y_bar = sum(minima[x] for x in xs) / len(xs)
    return float(sum((x - x_bar) * (minima[x] - y_bar) for x in xs)
                 / sum((x - x_bar) ** 2 for x in xs))


# ---------------------------------------------------------------------------
# per-command checks


def _expect(out: Outcome, what: str, got, ref) -> None:
    if got != ref:
        out.problems.append(f"{what}: got {got!r}, expected {ref!r}")


def _expect_close(out: Outcome, what: str, got: float, ref: float, tol: float) -> None:
    if not _rel_err(got, ref) <= tol:
        out.problems.append(f"{what}: got {got!r}, expected {ref!r} (tolerance {tol:g})")


def gap_csv_stats(path: Path) -> dict:
    """Row count, sphere sizes and per-length minima of every gap column."""
    minima: dict[str, dict[int, float]] = {}
    sizes: dict[int, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = [(i, name) for i, name in enumerate(header) if name.startswith("log_gap_")]
        for name in (n for _, n in cols):
            minima[name] = {}
        for row in reader:
            length = int(row[1])
            sizes[length] = sizes.get(length, 0) + 1
            for i, name in cols:
                val = float(row[i])
                col = minima[name]
                if length not in col or val < col[length]:
                    col[length] = val
    return {
        "header": header,
        "words": sum(sizes.values()),
        "sphere_sizes": [sizes[l] for l in sorted(sizes)],
        "minima": {name: [col[l] for l in sorted(col)] for name, col in minima.items()},
    }


def _check_certify(exp, out_dir: Path, ref: dict, seed: int, out: Outcome) -> None:
    desc = exp.construction
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    _expect(out, "verdict", summary["verdict"], ref["verdict"])
    got_est = summary["estimates"]
    _expect(out, "k values", [e["k"] for e in got_est], [e["k"] for e in ref["estimates"]])
    for got, want in zip(got_est, ref["estimates"]):
        _expect(out, f"k={want['k']} verdict", got["verdict"], want["verdict"])
        _expect(out, f"k={want['k']} witness", got["witness"], want["witness"])
        _expect_close(out, f"k={want['k']} alpha_hat", got["alpha_hat"], want["alpha_hat"],
                      ALPHA_TOL)
    stats = gap_csv_stats(out_dir / "gap_profile.csv")
    _expect(out, "csv header", stats["header"], ref["header"])
    _expect(out, "words", stats["words"], ref["words"])
    _expect(out, "sphere sizes", stats["sphere_sizes"], ref["sphere_sizes"])
    for name, want in ref["minima"].items():
        got = stats["minima"].get(name, [])
        if len(got) != len(want) or any(abs(g - w) > MINIMA_TOL for g, w in zip(got, want)):
            out.problems.append(f"{name} per-length minima {got!r} != {want!r}")
    if exp.oracle == "mpmath-gaps":
        mpmath_gap_oracle(desc, out_dir / "gap_profile.csv", stats["words"], seed, out)
    if exp.oracle == "cannon":
        cannon = cannon_sphere_sizes(int(desc["genus"]), len(stats["sphere_sizes"]) - 1)
        _expect(out, "sphere sizes vs Cannon series", stats["sphere_sizes"], cannon)
        out.notes.append(f"Cannon series: spheres {cannon}")
    out.units = stats["words"] * (len(stats["header"]) - 3)


def _check_limit_set(out_dir: Path, ref: dict, out: Outcome) -> None:
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    _expect(out, "audit", summary["audit"], ref["audit"])
    rows = _csv_rows(out_dir / "limit_samples.csv")
    _expect(out, "limit samples", rows, ref["audit"]["n_samples"])
    out.units = rows


def _check_deform(out_dir: Path, ref: dict, out: Outcome) -> None:
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    _expect(out, "counts", summary["counts"], ref["counts"])
    _, rows = _read_csv(out_dir / "deform_traces.csv")
    _expect(out, "traces", len(rows), ref["traces"])
    lengths = {len(r[3]) for r in rows}
    _expect(out, "signs per trace", lengths, {summary["steps"] + 1})
    out.units = sum(len(r[3]) for r in rows)


def _check_pingpong(out_dir: Path, ref: dict, out: Outcome) -> None:
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    _expect(out, "found", summary["found"], True)
    _expect(out, "N", summary.get("n"), ref["n"])
    _expect_close(out, "delta", summary.get("delta", float("nan")), ref["delta"], ALPHA_TOL)
    out.units = 1


def _check_sym_power_success(exp, out_dir: Path, out: Outcome) -> None:
    """Sym^m g has sigma_1/sigma_2 equal to that of g, so alpha_hat is the base's."""
    desc = exp.construction
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    radius = int(exp.args[exp.args.index("--radius") + 1])
    base_alpha = free_alpha_hat(desc["base"], radius)
    _expect_close(out, "alpha_hat vs base Schottky (mpmath)",
                  summary["estimates"][0]["alpha_hat"], base_alpha, ALPHA_TOL)
    rows = _csv_rows(out_dir / "gap_profile.csv")
    _expect(out, "words", rows, len(free_ball_words(int(desc["base"].get("rank", 2)), radius)))
    out.units = rows


def _check_scan_success(out_dir: Path, ref: dict, out: Outcome) -> None:
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    report = summary["reports"][0]
    _expect(out, "witness", report["witness"], ref["witness_on_success"])
    _expect(out, "witness_recheck", report["witness_recheck"], True)
    out.units = sum(_csv_rows(p) for p in sorted(out_dir.glob("positivity_k*.csv")))


def is_known_failure(known: dict | None, record: dict) -> bool:
    """True only for the documented failure: same exit code, same error message.

    The message must match the stored pattern in full (a condition number
    may differ in its digits, never in what it reports), and the experiment
    must not have raised: a traceback is a new failure, whatever its exit.
    """
    return (known is not None and record["exception"] is None
            and record["exit"] == known["exit"]
            and re.fullmatch(known["pattern"], record["stderr"].strip()) is not None)


def check_experiment(exp, record: dict, ref: dict, seed: int) -> Outcome:
    """Classify one run of ``exp`` as ok, known failure or mismatch, and count its units."""
    out = Outcome(status="ok")
    code, out_dir = record["exit"], Path(record["out"])
    if "by_seed" in ref:
        ref = dict(ref, **ref["by_seed"][str(seed % exp.seeds)])
    known = ref.get("known_failure")
    if code not in COMPLETED:
        message = (record["stderr"] or record["exception"] or "").strip()
        if is_known_failure(known, record):
            out.status = "known-failure"
            out.notes.append(f"KNOWN FAILURE (ROADMAP item 1): exit {code}: {message}")
            return out
        out.status = "mismatch"
        out.problems.append(f"failed with exit {code}: {message}")
        if known is not None:
            out.problems.append(f"the documented failure is exit {known['exit']}: "
                                f"{known['message']}")
        return out
    _expect(out, "exit code", code, ref["exit"])
    try:
        if exp.oracle == "sym-power-alpha":
            _check_sym_power_success(exp, out_dir, out)
        elif exp.oracle == "scan-witness":
            _check_scan_success(out_dir, ref, out)
        elif exp.command == "certify":
            _check_certify(exp, out_dir, ref, seed, out)
        elif exp.command == "limit-set":
            _check_limit_set(out_dir, ref, out)
        elif exp.command == "deform":
            _check_deform(out_dir, ref, out)
        elif exp.command == "pingpong":
            _check_pingpong(out_dir, ref, out)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        out.problems.append(f"unreadable output: {exc!r}")
    if out.problems:
        out.status, out.units = "mismatch", 0
    return out


def output_digest(out_dir: str) -> dict[str, str]:
    """sha256 of every file an experiment wrote, for byte-identity comparisons."""
    digests = {}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests
