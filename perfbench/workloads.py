"""Workload definitions: the CLI experiments each benchmark workload runs.

Shared by the parent (``run.py``) and the child (``child.py``); imports
nothing from ``anosov`` so that the parent's checks stay independent of the
code under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

SCHOTTKY = {"kind": "schottky", "rank": 2, "dilation": 3.0}
TAU2 = {"kind": "tau2-schottky", "rank": 2, "dilation": 3.0, "twists": [0.3, 0.7]}
SYM5 = {"kind": "sym-power", "m": 5, "base": SCHOTTKY}
SURFACE = {"kind": "fuchsian-surface", "genus": 2}

# Distinct --seed values of the seeded experiments; deform's verdict counts
# depend on the seed and are stored for each.
SEEDS = 16


@dataclass(frozen=True)
class Experiment:
    """One ``anosov`` CLI invocation, checked against ``references.json[id]``.

    An experiment with ``seeds`` > 0 receives ``--seed`` (benchmark seed mod
    ``seeds``), so that references can be stored for every seed it sees.
    ``oracle`` names an independent check in ``checks.py`` run on top of the
    stored references.
    """

    id: str
    command: str
    construction: dict
    args: tuple[str, ...]
    seeds: int = 0
    oracle: str | None = None

    def argv(self, seed: int) -> list[str]:
        argv = [self.command, "--construction", json.dumps(self.construction), *self.args]
        if self.seeds:
            argv += ["--seed", str(seed % self.seeds)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: tuple[Experiment, ...]
    constructions: tuple[dict, ...]  # built during set-up


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="free-r10",
            experiments=(
                Experiment("free-r10", "certify", SCHOTTKY, ("--k", "1", "--radius", "10"),
                           oracle="mpmath-gaps"),
            ),
            constructions=(SCHOTTKY,),
        ),
        Workload(
            name="surface-r6",
            experiments=(
                Experiment("surface-r6", "certify", SURFACE, ("--k", "1", "--radius", "6"),
                           oracle="cannon"),
            ),
            constructions=(SURFACE,),
        ),
        Workload(
            name="spectral-mix",
            experiments=(
                Experiment("tau2-k12-r8", "certify", TAU2,
                           ("--k", "1", "2", "--radius", "8"), oracle="mpmath-gaps"),
                Experiment("sym5-certify-r4", "certify", SYM5, ("--k", "1", "--radius", "4"),
                           oracle="sym-power-alpha"),
                Experiment("sym5-scan-k3-r6", "scan-positivity", SYM5,
                           ("--k", "3", "--radius", "6"), oracle="scan-witness"),
                Experiment("limit-set-r7", "limit-set", SCHOTTKY, ("--k", "1", "--radius", "7"),
                           seeds=SEEDS),
                Experiment("deform-sym5-k2-r4", "deform", SYM5,
                           ("--k", "2", "--radius", "4", "--steps", "50", "--magnitude", "0.01"),
                           seeds=SEEDS),
                Experiment("pingpong-a", "pingpong", SCHOTTKY,
                           ("--g", "a", "--t-rotation", "1.5707963")),
            ),
            constructions=(TAU2, SYM5, SCHOTTKY),
        ),
    )
}
