"""Byte-level digests of the FDM field solver's Maxwell matrices.

Each case hashes the bytes of ``maxwell_matrix_per_length()``, so any
change to the rasterisation, the assembly, the factorisation or the charge
sums that moves a single ulp fails here. The coarse cases use an
off-pitch grid step, so TSV edges fall at varied sub-node offsets; they
cover three array shapes, every supersampling factor from 1 to 3 and three
probability vectors (no depletion bias, full bias, seeded random). One
case runs the solver with every default at the ``design`` benchmark's
pitch and radius.
"""

import hashlib
import sys
import threading

import numpy as np
import pytest

from repro.tsv import fdm
from repro.tsv.fdm import FDMFieldSolver
from repro.tsv.geometry import TSVArrayGeometry

COARSE = 0.37e-6  # grid step [m]; not a divisor of the pitch

GOLDEN = {
    "1x2-ss1-zeros": "a75d46e50d596df02b82bdb208c6af081c2e3f699818f7b113cca2170f2e62b9",
    "1x2-ss1-ones": "ecb7d09fc1b909ad68e5fe867fbec626c70ecfb50be258369e1c82683d8354b6",
    "1x2-ss1-random": "ab0733f3df75f56374e633b68bd3256c6e372a4b0ac0ff036ee5445281743b24",
    "1x2-ss2-zeros": "936a425db489a2ca6b8e3bd99d742c9ed131d5384709cadc0796f690fdf113eb",
    "1x2-ss2-ones": "c7daecf7de180663540be29bfedf01ed58354fa6123669137dcc1dc096fec7cd",
    "1x2-ss2-random": "99e139d16f5c4d9115a0e354d55cd2a0458b01c41ac3efcf19437577816c92e5",
    "1x2-ss3-zeros": "0b28a956c2b2db13a3649bc05de5eca7be403881e28eaf4678bb16ecb9c9c3d3",
    "1x2-ss3-ones": "79938afa819bd8ba28028f40797182a4694e9d49339ed850b66abdc70e1c28f1",
    "1x2-ss3-random": "6f7eef83c0f6a79d66b9e199380f40ce5695533a99453f4b9ddc9da165880a91",
    "2x3-ss1-zeros": "fc08f261d119770a5d41ee87e34de15e272eea2cfed5b52c38c4403d7459d301",
    "2x3-ss1-ones": "74466da4cd2d567d4345b91386854f64f227db6321b0c86597cc03ae75e476ca",
    "2x3-ss1-random": "fa5c78fb1695519d950c25a282a5578b607afc1842ab92b0b1bd23e64fb6d9b8",
    "2x3-ss2-zeros": "78c324f6c0fc8b664e668fed4a883d94ab80d74202d20ae7d05f4cd66313b232",
    "2x3-ss2-ones": "8a6d39ad427dedf18e9c415360ba74e1a327175e026f6d61f1a3b3863dbec808",
    "2x3-ss2-random": "0a0df2e3b39651d2df4a7d798120ef40f0621b45355f25ec51049ed983f9425a",
    "2x3-ss3-zeros": "deada129f02dd8d673be1447ced55b61847dd340f5aec431108a6550092e163e",
    "2x3-ss3-ones": "7a64359529c57842984d46e50ec9ab4c507280ecd987f6a6dc640c4059f786e8",
    "2x3-ss3-random": "48cf08919c602d80fd097b15bc50942188f6c6f46153b1cb1e31bea5380f33ee",
    "3x3-ss1-zeros": "3e3a664217b304f43692b3b397e82c4544e82de12d7dd18b046ae4789e11fc7c",
    "3x3-ss1-ones": "4c2a040517821f7766fca125bf5ef5062b3e5884148dbef9ebf760d555f8c0ef",
    "3x3-ss1-random": "e601dd09295d8ca6afc7caf5cc78937d164608ad5269c6ec7330a1233117504e",
    "3x3-ss2-zeros": "e940dd6ada20eefec72ed3dd0590d1b668f9a79cfc6c2bc7cd30fb8acb573574",
    "3x3-ss2-ones": "02d882abec223e85798bb01e8f15acc535d040e1f9e005f4053fdf4386b48672",
    "3x3-ss2-random": "cdb9444ba49c995958025345d4a8e810a589205c66af9051e6bd95a4962159ee",
    "3x3-ss3-zeros": "539044097eb319105196fb768fecab6a94d3a70e2e939743e702e0be2d605da1",
    "3x3-ss3-ones": "7139dc26908996f0217032f61b9424d82d4bc9b3e776e3a352fcaface83d1c7e",
    "3x3-ss3-random": "f7f04c85727d8413d3115a9f660b252bf8b8506ddad76425a1272c4e25cd09c5",
    "1x2-default": "c528f95a3f190c8eafcc0470de36d36dd499dba62456df1f264bbdc623209825",
}


def probabilities(name, n):
    if name == "zeros":
        return np.zeros(n)
    if name == "ones":
        return np.ones(n)
    return np.random.default_rng(2018).random(n)


def matrix_digest(solver):
    return hashlib.sha256(solver.maxwell_matrix_per_length().tobytes()).hexdigest()


@pytest.mark.parametrize("probs", ["zeros", "ones", "random"])
@pytest.mark.parametrize("supersample", [1, 2, 3])
@pytest.mark.parametrize("shape", [(1, 2), (2, 3), (3, 3)])
def test_coarse_matrix_bytes(shape, supersample, probs):
    rows, cols = shape
    geom = TSVArrayGeometry(rows=rows, cols=cols, pitch=8e-6, radius=2e-6)
    solver = FDMFieldSolver(
        geom,
        probabilities=probabilities(probs, geom.n_tsvs),
        resolution=COARSE,
        supersample=supersample,
    )
    assert matrix_digest(solver) == GOLDEN[f"{rows}x{cols}-ss{supersample}-{probs}"]


def test_default_resolution_matrix_bytes():
    geom = TSVArrayGeometry(rows=1, cols=2, pitch=4e-6, radius=1e-6)
    assert matrix_digest(FDMFieldSolver(geom)) == GOLDEN["1x2-default"]


def test_worker_count_does_not_move_a_bit(monkeypatch):
    # The columns solve on a pool sized to the usable cores; each column
    # is solved and summed alone, so one worker and many give one matrix.
    # More workers than columns, switching threads as often as possible.
    geom = TSVArrayGeometry(rows=2, cols=3, pitch=8e-6, radius=2e-6)
    solver = FDMFieldSolver(
        geom, probabilities=probabilities("random", 6), resolution=COARSE
    )
    threads = set()
    factorise = fdm.splu

    class RecordingLU:
        def __init__(self, a_matrix):
            self.lu = factorise(a_matrix)

        def solve(self, rhs):
            threads.add(threading.current_thread().name)
            return self.lu.solve(rhs)

    monkeypatch.setattr(fdm, "splu", RecordingLU)
    digests = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 8):
            monkeypatch.setattr(fdm, "usable_cores", lambda n=workers: n)
            threads.clear()
            digests[workers] = matrix_digest(solver)
            assert 1 <= len(threads) <= min(workers, geom.n_tsvs)
            assert all(name.startswith("repro-fdm") for name in threads)
    finally:
        sys.setswitchinterval(interval)
    assert digests[1] == digests[8] == GOLDEN["2x3-ss2-random"]
