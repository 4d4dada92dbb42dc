import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from anosov import (
    Presentation,
    Representation,
    ScaledBatch,
    ScaledMatrix,
    SchottkyParams,
    fuchsian_surface_rep,
    schottky_rep,
)
from anosov.cli import main
from anosov.words import ball_image_chunks


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


@pytest.fixture(scope="session")
def schottky2():
    """Standard rank-2 Schottky representation, dilation 3."""
    return schottky_rep(SchottkyParams(rank=2, dilation=3.0))


@pytest.fixture(scope="session")
def fuchsian2():
    return fuchsian_surface_rep(2)


@pytest.fixture
def diag_rep():
    """Rank-1 diagonal representation a -> diag(3, 1/3)."""
    return Representation.from_generators(
        Presentation.free(1), [ScaledMatrix.from_array(np.diag([3.0, 1 / 3.0]))]
    )


def ball_images(rep, ball):
    """Images of every word of a ball, in ball order: the chunks of
    :func:`anosov.words.ball_image_chunks` joined into one batch."""
    chunks = [chunk for _, chunk in ball_image_chunks(rep, ball)]
    return ScaledBatch(np.concatenate([c.entries for c in chunks]),
                       np.concatenate([c.log_scale for c in chunks]))


def random_invertible(rng, d, spread=1.0):
    """Generic invertible matrix with a mild spectrum."""
    while True:
        a = spread * rng.standard_normal((d, d))
        if abs(np.linalg.det(a)) > 1e-6:
            return a


def _seedless_outputs(argv, seed, out):
    """Exit code, stdout, stderr and the written files of one CLI run at
    ``--seed seed``, with the seed's two echoes taken out of summary.json."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([*argv, "--seed", str(seed), "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    if "summary.json" in files:
        summary = json.loads(files["summary.json"])
        assert summary.pop("seed") == summary["config"].pop("seed") == seed
        files["summary.json"] = json.dumps(summary)
    return code, stdout.getvalue(), stderr.getvalue(), files


@pytest.fixture(scope="session")
def seedless_outputs():
    return _seedless_outputs
