"""The array Gram-Schmidt of eddcam_ea against the object-based reference.

tests/reference_dual_eig.py keeps the Gram-Schmidt that ran every projection
on the immutable vector objects. The array version uses the same kernels in
the same order, so eddcam_ea must return bit-identical eigenvalues,
eigenvectors and e_lambda whichever of the two it runs.
"""

import numpy as np
import pytest

from dqeig import dual_eig
from dqeig.bench import build_laplacian, pentagon_fixture, random_graph, synth_known_spectrum
from dqeig.errors import NotAnEigenvector
from dqeig.matrices import DualQuaternionVector
from dqeig.scalars import DualNumber
from tests import reference_dual_eig as ref

SPARSITIES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)


def planted_pairs(n, rng):
    """n eigenvalues whose standard parts repeat in pairs, with distinct dual parts."""
    st = 3.0 - np.cumsum(rng.uniform(0.02, 0.06, (n + 1) // 2))
    du = rng.uniform(-2.0, 2.0, 2 * len(st))
    return [DualNumber(float(s), float(d)) for s, d in zip(np.repeat(st, 2), du)][:n]


def problems():
    for s in SPARSITIES:
        for g in range(3):
            yield f"laplacian-{s}#{g}", build_laplacian(random_graph(10, s, [7, int(1000 * s), g]))
    yield "pentagon", pentagon_fixture()
    rng = np.random.default_rng(12)
    yield "planted-pairs", synth_known_spectrum(12, planted_pairs(12, rng), rng)[0]


PROBLEMS = list(problems())


def bits(v):
    return b"".join(a.tobytes() for a in (v.v1, v.v2, v.v3, v.v4))


def flat(result):
    lams = [(lam.st, lam.du) for lam in result.eigenvalues()]
    return lams, [bits(v) for v in result.eigenvectors()]


@pytest.mark.parametrize("name,q", PROBLEMS, ids=[name for name, _ in PROBLEMS])
def test_eddcam_is_bit_identical_to_the_object_gram_schmidt(name, q, monkeypatch):
    got = dual_eig.eddcam_ea(q)
    monkeypatch.setattr(dual_eig, "orthogonalize_eigenvectors", ref.orthogonalize_eigenvectors)
    want = dual_eig.eddcam_ea(q)
    assert flat(got) == flat(want)
    assert got.residual == ref.e_lambda(q, want.pairs)


def test_problems_include_disconnected_graphs():
    # a zero eigenvalue of multiplicity > 1 gives Gram-Schmidt a large group
    groups = [
        len(vecs) for name, q in PROBLEMS if name.startswith("laplacian")
        for lam, vecs in dual_eig.eddcam_ea(q).pairs if abs(lam.st) < 1e-9
    ]
    assert max(groups) > 1


def test_redundant_candidates_are_dropped_alike():
    q = pentagon_fixture()
    lam, (v,) = dual_eig.eddcam_ea(q).pairs[0]
    rotated = v.scale_right(DualNumber(-1.0, 0.5))
    vs = [v, rotated, v]
    got = dual_eig.orthogonalize_eigenvectors(vs, q, lam)
    want = ref.orthogonalize_eigenvectors(vs, q, lam)
    assert len(got) == len(want) == 1
    assert bits(got[0]) == bits(want[0])


def test_a_non_eigenvector_raises_alike():
    q = pentagon_fixture()
    lam, (v,) = dual_eig.eddcam_ea(q).pairs[0]
    junk = DualQuaternionVector.basis(5, 2)
    for gs in (dual_eig.orthogonalize_eigenvectors, ref.orthogonalize_eigenvectors):
        with pytest.raises(NotAnEigenvector):
            gs([v, junk], q, lam)
    assert dual_eig.orthogonalize_eigenvectors([], q, lam) == []
