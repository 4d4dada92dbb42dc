"""Benchmark child process: set up anosov, run experiments in a closed loop, report.

Started by ``run.py`` as ``python3 perfbench/child.py SPEC.json``, one fresh
process per measurement, with BLAS pinned to one thread through the
environment.  Set-up time runs from the parent's clock reading just before
the process was started to the moment every construction of the workload is
built.  Experiments call ``anosov.cli.main(argv)`` in-process, one after the
other, in whole cycles, stopping at the cycle boundary closest to the
requested seconds.  Unless tracing, a ``SpeedProbe`` samples how fast this
core runs while set-up and each experiment run (``run.py`` scales wall times
by it).  The result, including peak resident memory and the environment, is
written as JSON to the path named in the spec.
"""

from __future__ import annotations

import ctypes
import glob
import io
import json
import os
import platform
import resource
import signal
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

PROBE_INTERVAL_S = 0.01
PROBE_LOOPS = 1500
PROBE_MATMULS = 30


class SpeedProbe:
    """Times a fixed piece of work every 10 ms of wall time, on this core.

    The work is the two kinds the program does: a pure-Python loop and
    small numpy calls (2x2 products).  On a contended core the program slows
    more than the loop alone and less than the numpy calls alone; with the
    two the probe slows as the program does (README.md).  The work runs in a
    SIGALRM handler, so it interrupts the program between two bytecodes, at
    evenly spaced moments, on the core the program runs on, and reads no
    state of the program.  ``take`` returns the mean probe rate (probes per
    second) since the last ``take``; the mean of rates over evenly spaced
    moments is the time average of the core's speed.
    """

    def __init__(self) -> None:
        import numpy

        self._rates: list[float] = []
        self._clock = time.perf_counter_ns
        self._factor = numpy.array([[1.0, 0.5], [0.25, 1.0]])

    def _probe(self, signum=None, frame=None) -> None:
        start = self._clock()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i * i
        m = self._factor
        for _ in range(PROBE_MATMULS):
            m = m @ self._factor
        self._rates.append(1e9 / (self._clock() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def take(self) -> dict:
        if not self._rates:  # an interval shorter than the probe period
            self._probe()
        rates, self._rates = self._rates, []
        return {"probe_hz": sum(rates) / len(rates), "probes": len(rates)}


def _blas_info(numpy) -> dict:
    """OpenBLAS version and the thread count it actually runs with."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    probe = SpeedProbe() if spec["probe"] else None
    if probe is not None:  # before anosov is imported: set-up time is probed too
        probe.start()
    try:
        result = run(spec, probe)
    finally:  # a SIGALRM after Python restores default handlers would kill the process
        if probe is not None:
            probe.stop()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def run(spec: dict, probe: SpeedProbe | None) -> dict:
    sys.path.insert(0, spec["src"])
    import anosov
    from anosov import cli

    if not os.path.abspath(anosov.__file__).startswith(spec["src"] + os.sep):
        raise SystemExit(f"anosov imported from {anosov.__file__}, not from {spec['src']}")
    for desc in spec["constructions"]:
        cli.build_representation(desc)
    setup_s = time.monotonic() - spec["t0"]
    setup_probe = probe.take() if probe is not None else None

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(anosov)

    records, cycles = [], []
    start = time.perf_counter()
    while spec["experiments"]:
        cycle = len(cycles)
        cycle_start = time.perf_counter()
        for exp in spec["experiments"]:
            label = f"c{cycle}-{exp['id']}"
            out = os.path.join(spec["out_root"], label)
            if tracer is not None:
                tracer.begin(label)
            stdout, stderr = io.StringIO(), io.StringIO()
            error = None
            t = time.perf_counter()
            try:
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    code = cli.main(exp["argv"] + ["--out", out])
            except Exception:  # a crash is a failed experiment, not a failed benchmark
                code, error = None, traceback.format_exc()
            wall = time.perf_counter() - t
            records.append({
                "id": exp["id"], "label": label, "cycle": cycle, "out": out, "exit": code,
                "wall_s": wall, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                "exception": error, "probe": probe.take() if probe is not None else None,
            })
        cycles.append(time.perf_counter() - cycle_start)
        # stop at the cycle boundary closest to the requested seconds
        elapsed = time.perf_counter() - start
        if len(cycles) >= spec["min_cycles"] and elapsed + cycles[-1] / 2 >= spec["seconds"]:
            break

    import numpy
    import scipy

    return {
        "setup_s": setup_s,
        "setup_probe": setup_probe,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cycles_s": cycles,
        "experiments": records,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_info(numpy),
            "blas_env": {k: os.environ.get(k) for k in spec["blas_env"]},
        },
        "trace": tracer.export() if tracer is not None else None,
    }


if __name__ == "__main__":
    main(sys.argv[1])
