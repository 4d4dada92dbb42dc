"""Benchmark of the ``anosov`` command line tool.

    python3 perfbench/run.py --workload free-r10 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

Run from the root of a checkout.  Each measurement is a fresh child process
(``child.py``) with BLAS pinned to one thread, which imports the checkout's
``src/anosov`` and runs the workload's experiments through
``anosov.cli.main`` in a closed loop: one experiment after another, in whole
cycles of the workload's experiment list, for about ``--seconds``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``words_per_s`` (every experiment run of the measuring child), ``setup_s``
(median over several fresh children) and ``peak_rss_mb`` of the measuring
child.  Both times are wall times scaled to a reference core speed, measured
by the children's ``SpeedProbe`` (README.md).  ``--trace 1``
runs one untraced and one traced cycle in two fresh children and reports the
per-layer metrics from the traced one; its outputs must be byte-identical to
the untraced ones.

Every output is checked against ``references.json`` and the oracles in
``checks.py``; a mismatch makes the run exit 1.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``README.md`` maps the per-layer metrics to the end-to-end
metric and workload each should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from checks import check_experiment, output_digest
from tracer import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_CHILDREN = 10  # set-up-only children, besides the measuring one
MIN_CYCLES = 2  # so that every experiment is repeated and checked for identical output
CHILD_TIMEOUT_S = 150
MIN_COVERAGE = 0.95  # share of traced wall that spans below cli.main must cover
# SpeedProbe rate of an uncontended core of the host the benchmark was tuned
# on (2-vCPU x86-64 virtual machine, CPython 3.11): wall seconds are scaled to
# seconds at this speed.
REFERENCE_PROBE_HZ = 10_000.0


class BenchError(Exception):
    pass


def run_child(spec: dict, tag: str, run_dir: Path) -> dict:
    spec_path, result_path = run_dir / f"{tag}.spec.json", run_dir / f"{tag}.result.json"
    spec = dict(spec, src=str(SRC), result=str(result_path), blas_env=sorted(BLAS_ENV))
    env = dict(os.environ, PYTHONHASHSEED="0", **BLAS_ENV)
    spec["t0"] = time.monotonic()
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(spec_path)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {tag} exceeded {CHILD_TIMEOUT_S} s")
    finally:  # also on SIGTERM or Ctrl-C: leave no child behind
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"child {tag} exited {proc.returncode}:\n{stdout}{stderr}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def check_records(workload, records: list[dict], refs: dict, seed: int) -> tuple[dict, list]:
    """Check every experiment run; repeats must reproduce the first run byte for byte."""
    experiments = {e.id: e for e in workload.experiments}
    outcomes, first = {}, {}
    for rec in records:
        exp = experiments[rec["id"]]
        fingerprint = (rec["exit"], rec["stdout"], rec["stderr"], output_digest(rec["out"]))
        if exp.id not in first:
            outcome = check_experiment(exp, rec, refs[exp.id], seed)
            first[exp.id] = (fingerprint, outcome)
        elif fingerprint == first[exp.id][0]:
            outcome = first[exp.id][1]
        else:
            outcome = check_experiment(exp, rec, refs[exp.id], seed)
            outcome.problems.append("outputs differ from the first run of this experiment")
            outcome.status, outcome.units = "mismatch", 0
        outcomes[rec["label"]] = outcome
    notes = sorted({f"{eid}: {n}" for eid, (_, o) in first.items() for n in o.notes})
    return outcomes, notes


def reference_s(wall_s: float, probe: dict) -> float:
    """Wall seconds scaled to seconds on a core running at the reference speed.

    On a shared host a core runs up to twice as slow for seconds to minutes
    at a time, under other tenants' load.  The probe, sampled on the same
    core over the same interval, measures by how much (README.md).
    """
    return wall_s * probe["probe_hz"] / REFERENCE_PROBE_HZ


def words_per_s(records: list[dict], outcomes: dict) -> float:
    """Units of every experiment run over their summed reference-speed time.

    Failed experiments count their time and no units.  The estimate is a
    plain ratio of sums, so it does not depend on how many cycles fit in the
    run.
    """
    units = sum(outcomes[rec["label"]].units for rec in records)
    return units / sum(reference_s(rec["wall_s"], rec["probe"]) for rec in records)


def layer_metrics(names: list[str], trace: dict, workload, traced_wall: float,
                  untraced_wall: float, report_bytes: int) -> dict[str, float]:
    """Per-layer metrics from the traced cycle's span edges."""
    calls, self_s, edge_calls, main_s = Counter(), Counter(), Counter(), Counter()
    matmuls, sizes, below_main_s = Counter(), Counter(), 0.0
    commands = {e.id: e.command for e in workload.experiments}
    for label, exp in trace.items():
        for parent, name, n, total, child in exp["edges"]:
            calls[name] += n
            self_s[name] += total - child
            edge_calls[(parent, name)] += n
            if parent == "cli.main":
                below_main_s += total
            if parent == "" and name == "cli.main":
                main_s[commands[label.split("-", 1)[1]]] += total
        matmuls.update(exp["matmuls"])
        sizes.update(exp["sizes"])
    layer_self = Counter()
    for name, s in self_s.items():
        layer_self[name.split(".")[0]] += s
    ball_words = sizes["words.enumerate_ball"]
    reductions = edge_calls[("words.enumerate_ball", "words.reduce_word")]
    derived = {
        "words.ball_words": ball_words,
        "words.accept_ratio": ball_words / reductions if reductions else 0.0,
        "linalg.matmul.calls": sum(matmuls.values()),
        "words.matmuls_per_word": (matmuls["words.evaluate"] / calls["words.evaluate"]
                                   if calls["words.evaluate"] else 0.0),
        "certify.audit_pairs": edge_calls[("certify.audit_limit_samples", "linalg.is_transverse")],
        "cli.report_bytes": report_bytes,
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.coverage": below_main_s / traced_wall,
    }
    out = {}
    for name in names:
        head, _, tail = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif name.startswith("cli.main.") and tail == "s":
            out[name] = main_s[name[len("cli.main."):-len(".s")]]
        elif tail == "self_s" and head in LAYERS:
            out[name] = layer_self[head]
        elif tail == "self_s":
            out[name] = self_s[head]
        elif tail == "calls":
            out[name] = calls[head]
        else:
            raise BenchError(f"no rule computes per-layer metric {name}")
    return out


def environment(seed: int, child_env: dict) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        sha = proc.stdout.strip() or None
    return dict(child_env, nproc=os.cpu_count(), git_sha=sha, seed=seed)


def bench_workload(name: str, seed: int, seconds: int, trace: bool, bench: dict,
                   refs: dict) -> dict:
    workload = WORKLOADS[name]
    run_dir = RUNS / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    base = {
        "constructions": list(workload.constructions),
        "experiments": [{"id": e.id, "argv": e.argv(seed)} for e in workload.experiments],
    }
    problems = []
    try:
        if trace:
            plain = run_child(dict(base, seconds=0, min_cycles=1, trace=False, probe=False,
                                   out_root=str(run_dir / "plain")), "plain", run_dir)
            traced = run_child(dict(base, seconds=0, min_cycles=1, trace=True, probe=False,
                                    out_root=str(run_dir / "traced")), "traced", run_dir)
            for rec in traced["experiments"]:  # a repeat: must match the untraced bytes
                rec["label"] = "traced-" + rec["label"]
            records = plain["experiments"] + traced["experiments"]
            outcomes, notes = check_records(workload, records, refs, seed)
            report_bytes = sum(os.path.getsize(os.path.join(r["out"], f))
                               for r in traced["experiments"] if os.path.isdir(r["out"])
                               for f in os.listdir(r["out"]))
            metrics = layer_metrics(
                [m["name"] for m in bench["per_layer"]], traced["trace"], workload,
                traced["cycles_s"][0], plain["cycles_s"][0], report_bytes)
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            samples = {name: 1 for name in metrics}
            cycles_s = plain["cycles_s"] + traced["cycles_s"]
            env = traced["env"]
            if metrics["trace.coverage"] < MIN_COVERAGE:
                problems.append(f"layer spans cover {metrics['trace.coverage']:.3f} of "
                                f"traced wall, below {MIN_COVERAGE}")
            (RUNS / f"trace-{name}-seed{seed}.json").write_text(
                json.dumps(traced["trace"], indent=1), encoding="utf-8")
        else:
            setup_only = dict(base, experiments=[], seconds=0, min_cycles=0, trace=False,
                              probe=True, out_root=str(run_dir))
            children = [run_child(setup_only, f"setup{i}", run_dir)
                        for i in range(SETUP_CHILDREN)]
            main = run_child(dict(base, seconds=seconds, min_cycles=MIN_CYCLES, trace=False,
                                  probe=True, out_root=str(run_dir / "main")), "main", run_dir)
            children.append(main)
            setups = [reference_s(c["setup_s"], c["setup_probe"]) for c in children]
            records = main["experiments"]
            outcomes, notes = check_records(workload, records, refs, seed)
            metrics = {
                "words_per_s": words_per_s(records, outcomes),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": main["peak_rss_mb"],
            }
            wall_s = sum(rec["wall_s"] for rec in records)
            speed = sum(reference_s(r["wall_s"], r["probe"]) for r in records) / wall_s
            notes.append(f"{len(main['cycles_s'])} cycles in {wall_s:.2f} wall s at "
                         f"{speed:.3f} of the reference core speed; unscaled setup_s "
                         f"median {statistics.median(c['setup_s'] for c in children):.4f} s")
            cycles_s = main["cycles_s"]
            samples = {"words_per_s": len(cycles_s), "setup_s": len(setups), "peak_rss_mb": 1}
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
            env = main["env"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems += [f"{label}: {p}" for label, o in outcomes.items() for p in o.problems]
    failed = sum(1 for o in outcomes.values() if o.status != "ok")
    return {
        "workload": name,
        "env": environment(seed, env),
        "attempted": len(records),
        "failed": failed,
        "statuses": {label: o.status for label, o in outcomes.items()},
        "problems": problems,
        "notes": notes,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        "samples": samples,
        "cycles_s": cycles_s,
    }


def report(result: dict) -> None:
    print(f"== {result['workload']}: {result['attempted']} experiments, "
          f"{result['failed']} failed, error_rate {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.4f}")
    print("env: " + json.dumps(result["env"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']!r:>24} {m['unit']:8s} "
              f"(n={result['samples'][name]})")
    for note in result["notes"]:
        print(f"  note: {note}")
    for problem in result["problems"]:
        print(f"  MISMATCH: {problem}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "anosov" / "__init__.py").is_file():
        print(f"error: no anosov sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    RUNS.mkdir(exist_ok=True)
    results = []
    try:
        for name in names:
            result = bench_workload(name, args.seed, seconds, bool(args.trace), bench, refs)
            report(result)
            (RUNS / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(result, indent=1), encoding="utf-8")
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()}
    correct = not any(r["problems"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
