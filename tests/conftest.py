import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from anosov import (
    DegreeMismatch,
    DimensionMismatch,
    ExteriorVector,
    Presentation,
    Representation,
    ScaledBatch,
    ScaledMatrix,
    SchottkyParams,
    fuchsian_surface_rep,
    schottky_rep,
)
from anosov.cli import main
from anosov.linalg import _subset_positions, merge_sign, multi_index_basis
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


def wedge(a: ExteriorVector, b: ExteriorVector) -> ExteriorVector:
    """Wedge product, by direct expansion over basis subsets: the brute-force
    oracle of :func:`anosov.exterior.compound_matrix` and the top pairing."""
    if a.d != b.d:
        raise DimensionMismatch(f"ambient dimensions {a.d} != {b.d}")
    k, l = a.degree, b.degree
    if k + l > a.d:
        raise DegreeMismatch(f"degree {k}+{l} exceeds dimension {a.d}")
    out = np.zeros(math.comb(a.d, k + l))
    pos = _subset_positions(a.d, k + l)
    for i, ia in enumerate(multi_index_basis(a.d, k).subsets):
        for j, jb in enumerate(multi_index_basis(a.d, l).subsets):
            if not set(ia) & set(jb):
                out[pos[tuple(sorted(ia + jb))]] += merge_sign(ia, jb) * a.coeffs[i] * b.coeffs[j]
    return ExteriorVector.from_coeffs(a.d, k + l, out)


def subspace_angle(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Sine of the largest principal angle between two equal-dimension planes
    with orthonormal columns; two stacks of planes give one sine per pair."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"plane shapes {a.shape} != {b.shape}")
    resid = a - b @ (np.swapaxes(b, -1, -2) @ a)
    sines = np.linalg.norm(resid, 2, axis=(-2, -1))
    return float(sines) if sines.ndim == 0 else sines


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
