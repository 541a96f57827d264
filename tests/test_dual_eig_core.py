"""Stacked EDDCAM-EA against the one-group-at-a-time reference.

tests/reference_dual_eig.py keeps eig_dual_complex_hermitian with one eigh
per cluster block and T built cluster pair by cluster pair, and eddcam_ea
with one F^-1 per column, the object Gram-Schmidt and object residuals.

The stacked version takes V = I and a Rayleigh-quotient mu for every cluster
of 2, returns the first column of each group of 2 normalised, and runs
Gram-Schmidt on the adjoint side, batched over all other groups of one size,
so it picks other vectors than the reference in the last bits, or by a unit
quaternion phase. So it must give the reference's group sizes, its sigma and
eigenvalues to 1e-14 * max(1, |Q|_F), and each group's eigenspace projector,
standard and dual part, to 1e-14 * max(1, |Q|_F); its groups must be
orthonormal to 1e-13, and e_lambda must agree to 1e-15 * max(1, |Q|_F).
The adjoint-side Gram-Schmidt spans the eigenspace of the 4-part array
kernel the reference keeps, whose first kept vector it reproduces bit for
bit, and a batch gives every group bit for bit what the group gives alone.
"""

import tracemalloc

import numpy as np
import pytest

from dqeig import dual_eig
from dqeig.adjoint import adjoint, vec_map_f, vec_map_f_inverse
from dqeig.bench import build_laplacian, pentagon_fixture, random_graph, synth_known_spectrum
from dqeig.errors import DQEigError, NotAnEigenvector
from dqeig.matrices import (
    DualQuaternionMatrix, DualQuaternionVector, _dq_mul, _eig_residual, _unit,
)
from dqeig.scalars import DualNumber, DualQuaternion, Quaternion
from tests import reference_dual_eig as ref
from tests.dq import basis, norm_2r, scale_right
from tests.test_dual_eig import graph_laplacian, orthogonalize

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
    for s in (0.02, 0.05):
        yield f"laplacian-n60-{s}", build_laplacian(random_graph(60, s, [7, int(1000 * s), 0]))
    # above numpy's 128-element pairwise-sum block, where a reduction along
    # the wrong axis changes the last bits
    yield "laplacian-n150-0.1", build_laplacian(random_graph(150, 0.1, [7, 100, 0]))
    rng = np.random.default_rng(150)
    yield "planted-pairs-150", synth_known_spectrum(150, planted_pairs(150, rng), rng)[0]


PROBLEMS = list(problems())


def bits(v):
    return b"".join(a.tobytes() for a in (v.v1, v.v2, v.v3, v.v4))


def stacked(vecs):
    return tuple(np.stack(part, axis=1) for part in zip(*(v._parts for v in vecs)))


def conj_t(x):
    return (x[0].conj().T, -x[1].T, x[2].conj().T, -x[3].T)


def max_abs(parts):
    return max(float(np.abs(a).max()) for a in parts)


def projector(vecs):
    v = stacked(vecs)
    return _dq_mul(v, conj_t(v))


@pytest.mark.parametrize("name,q", PROBLEMS, ids=[name for name, _ in PROBLEMS])
def test_eddcam_matches_the_reference_eigenspaces(name, q):
    tol = 1e-14 * max(1.0, norm_2r(q))
    got_dec = dual_eig.eig_dual_complex_hermitian(adjoint(q))
    want_dec = ref.eig_dual_complex_hermitian(adjoint(q))
    for part in ("lam", "mu"):
        assert np.abs(getattr(got_dec, part) - getattr(want_dec, part)).max() <= tol

    got, want = dual_eig.eddcam_ea(q), ref.eddcam_ea(q)
    assert [len(vecs) for _, vecs in got.pairs] == [len(vecs) for _, vecs in want.pairs]
    for (lam, vecs), (ref_lam, ref_vecs) in zip(got.pairs, want.pairs):
        assert max(abs(lam.st - ref_lam.st), abs(lam.du - ref_lam.du)) <= tol
        assert max_abs([a - b for a, b in zip(projector(vecs), projector(ref_vecs))]) <= tol
        v = stacked(vecs)
        gram = _dq_mul(conj_t(v), v)
        assert max_abs([gram[0] - np.eye(len(vecs)), *gram[1:]]) <= 1e-13
    assert abs(got.residual - want.residual) <= 1e-15 * max(1.0, norm_2r(q))


# the formation graphs of perfbench at seed 7 and the n = 60 graphs of PROBLEMS
# at 1e-14 * max(1, |Q|_F), and the Laplacians of perfbench's direct set at
# seed 7 at 1e-13 * max(1, |Q|_F): up to 1.3e-14 * |Q|_F was seen at s = 0.02, where
# the smallest eigenvalue gap of L0 is 1.6e-3
ORACLE_GRAPHS = [(f"formation-{s}#{g}", random_graph(10, s, [7, int(1000 * s), g]), 1e-14)
                 for s in SPARSITIES for g in range(3)]
ORACLE_GRAPHS += [(f"n60-{s}", random_graph(60, s, [7, int(1000 * s), 0]), 1e-14)
                  for s in (0.02, 0.05)]
ORACLE_GRAPHS += [(f"n200-{s}", random_graph(200, s, [7, round(1e5 * s)]), 1e-13)
                  for s in (0.005, 0.02, 0.1)]


@pytest.mark.parametrize("name,graph,tol", ORACLE_GRAPHS,
                         ids=[name for name, _, _ in ORACLE_GRAPHS])
def test_eddcam_eigenspaces_are_the_closed_form_of_the_laplacian(name, graph, tol):
    # build_laplacian is the congruence D* L0 D of the real graph Laplacian L0
    # by D = diag(poses), unit dual quaternions, so an eigenvalue of L0 whose
    # eigenvectors are the orthonormal columns of W has the projector D* W W^T D
    q = build_laplacian(graph)
    values, w = np.linalg.eigh(graph_laplacian(graph))
    values, w = values[::-1], w[:, ::-1]
    cut = np.flatnonzero(values[:-1] - values[1:] > 1e-9 * max(1.0, values[0])) + 1
    spaces = np.split(np.arange(graph.n), cut)
    poses = np.array([[p.st.w + 1j * p.st.x, p.st.y + 1j * p.st.z,
                       p.du.w + 1j * p.du.x, p.du.y + 1j * p.du.z] for p in graph.poses]).T
    # D* and D as a column and a row of entries that scale rows and columns
    left = (poses[0].conj()[:, None], -poses[1][:, None], poses[2].conj()[:, None],
            -poses[3][:, None])
    right = tuple(a[None, :] for a in poses)
    got = dual_eig.eddcam_ea(q)
    assert [len(vecs) for _, vecs in got.pairs] == [len(k) for k in spaces]
    for (_, vecs), k in zip(got.pairs, spaces):
        ww = np.zeros((4, graph.n, graph.n), dtype=complex)
        ww[0] = w[:, k] @ w[:, k].T
        want = _dq_mul(_dq_mul(left, ww, np.multiply), right, np.multiply)
        assert max_abs([a - b for a, b in zip(projector(vecs), want)]) <= tol * max(
            1.0, norm_2r(q))


def test_problems_include_disconnected_graphs():
    # a zero eigenvalue of multiplicity > 1 gives Gram-Schmidt a large group
    groups = {
        name: max(len(vecs) for lam, vecs in dual_eig.eddcam_ea(q).pairs if abs(lam.st) < 1e-9)
        for name, q in PROBLEMS if name.startswith("laplacian")
    }
    assert max(groups.values()) > 1
    assert min(groups["laplacian-n60-0.02"], groups["laplacian-n60-0.05"]) > 1


def test_problems_include_connected_and_paired_spectra_at_n150():
    # every group has adjoint multiplicity 2, so every vector is a group's first column
    for name in ("laplacian-n150-0.1", "planted-pairs-150"):
        q = dict(PROBLEMS)[name]
        assert {len(vecs) for _, vecs in dual_eig.eddcam_ea(q).pairs} == {1}


@pytest.mark.parametrize("name", ["pentagon", "laplacian-0.1#0", "laplacian-n60-0.02"])
def test_candidates_are_the_per_column_f_inverse(name, monkeypatch):
    # eddcam_ea maps back only the first columns of the groups of 2, with one
    # vec_map_f_inverse of those columns, which must give each column's F^-1
    # byte for byte; they are the decomposition's columns up to rounding
    q = dict(PROBLEMS)[name]
    seen = []

    def spy(u):
        seen.append((u, vec_map_f_inverse(u)))
        return seen[-1][1]

    monkeypatch.setattr(dual_eig, "vec_map_f_inverse", spy)
    dual_eig.eddcam_ea(q)
    ((u, cand),) = seen
    dec = dual_eig.eig_dual_complex_hermitian(adjoint(q))
    firsts = [a for a, b in ref.groups(dec.sigma) if b - a == 2]
    assert u[0].shape == u[1].shape == (2 * q.rows, len(firsts)) and firsts
    tol = 1e-14 * max(1.0, norm_2r(q))
    for k, j in enumerate(firsts):
        column = vec_map_f_inverse((u[0][:, k], u[1][:, k]))
        assert [a[:, k].tobytes() for a in cand] == [a.tobytes() for a in column]
        assert max_abs([u[0][:, k] - dec.u_st[:, j], u[1][:, k] - dec.u_du[:, j]]) <= tol


@pytest.mark.parametrize("name", ["pentagon", "laplacian-0.1#0", "laplacian-n60-0.02",
                                  "planted-pairs"])
def test_one_residual_product_checks_the_returned_vectors(name, monkeypatch):
    # the only residual of a solve is that of its n returned vectors, on the
    # adjoint, and e_lambda is its mean
    q = dict(PROBLEMS)[name]
    seen = []

    def spy(a, x, st, du, axis=None):
        seen.append((x[0].shape, _eig_residual(a, x, st, du, axis)))
        return seen[-1][1]

    monkeypatch.setattr(dual_eig, "_eig_residual", spy)
    got = dual_eig.eddcam_ea(q)
    ((shape, res),) = seen
    assert shape == (2 * q.rows, q.rows)
    assert got.residual == float(np.mean(res))


@pytest.mark.parametrize("name", ["pentagon", "laplacian-0.1#0", "laplacian-n60-0.02"])
def test_returned_vectors_are_read_only(name):
    for v in dual_eig.eddcam_ea(dict(PROBLEMS)[name]).eigenvectors():
        for a in v._parts:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0


def test_canonical_phase_matches_the_object_phase():
    # rows of a stack, each phased as its own DualQuaternionVector
    rng = np.random.default_rng(3)
    for n in (1, 5, 150):
        rows = rng.standard_normal((7, 4, n)) + 1j * rng.standard_normal((7, 4, n))
        x = np.stack([_unit(row) for row in rows], axis=1)
        got = dual_eig._canonical_phase(x)
        for k in range(7):
            want = ref._canonical_phase(DualQuaternionVector(*(a[k] for a in x)))
            assert b"".join(a[k].tobytes() for a in got) == bits(want)


def test_canonical_phase_anchors_the_first_of_entries_that_tie_to_an_ulp():
    # entries 1 and 3 have standard parts 0.6 + 0.3i and 0.3 + 0.6i, whose
    # squared moduli are equal; 2^-27 j added to entry 3 raises its squared
    # modulus 0.45 by 2^-54, one ulp. A plain argmax would anchor entry 3 and
    # move the phase with that ulp; the tie rule anchors entry 1 either way.
    def row(t):
        v1 = np.array([0.1, 0.6 + 0.3j, 0.2j, 0.3 + 0.6j, 0.1 - 0.1j])
        v2 = np.array([0.1j, 0.0, 0.1, t, 0.05])
        return np.stack([v1, v2, 0.3 * v1[::-1], 0.2 * v2[::-1]])[:, None, :]

    def mags(x):
        v1, v2 = x[0, 0], x[1, 0]
        return (v1.real**2 + v1.imag**2 + v2.real**2 + v2.imag**2).tolist()

    tied, above = row(0.0), row(2.0**-27)
    assert mags(tied)[1] == mags(tied)[3] == max(mags(tied))
    assert mags(above)[3] == np.nextafter(mags(above)[1], 1.0) == max(mags(above))
    for x in (tied, above):
        got = dual_eig._canonical_phase(x)
        e = got[:, 0, 1]
        # the anchor is entry 1, now a positive dual number
        assert e[0].real > 0.0 and max(abs(e[0].imag), abs(e[1]), abs(e[3])) <= 1e-15
        assert abs(e[2].imag) <= 1e-15
        assert abs(got[0, 0, 3].imag) > 0.1
        want = ref._canonical_phase(DualQuaternionVector(*x[:, 0]))
        assert got[:, 0].tobytes() == bits(want)


def test_redundant_candidates_are_dropped_alike():
    q = pentagon_fixture()
    lam, (v,) = dual_eig.eddcam_ea(q).pairs[0]
    rotated = scale_right(v, DualNumber(-1.0, 0.5))
    vs = [v, rotated, v]
    got = orthogonalize(vs, q, lam)
    want = ref.orthogonalize_eigenvectors(vs, q, lam)
    assert len(got) == len(want) == 1
    assert bits(got[0]) == bits(want[0])


def test_a_group_of_two_drops_its_second_column_only_on_the_line_of_the_first():
    # a batch of two groups of 2 columns (F(x_i), F(y_i)): the second column of
    # a group is dropped exactly where the reference partner check says so
    q = pentagon_fixture()
    (_, (v,)), (_, (w,)) = dual_eig.eddcam_ea(q).pairs[:2]
    j = DualQuaternion(Quaternion(0.0, 0.0, 1.0, 0.0), Quaternion())
    x, y = stacked([v, v]), stacked([scale_right(v, j), w])
    groups = tuple(np.stack([a, b], axis=-1).transpose(1, 0, 2)
                   for a, b in zip(vec_map_f(x), vec_map_f(y)))
    _, counts = dual_eig._gram_schmidt(groups, dual_eig.TOL_RANK)
    assert (counts == 1).tolist() == ref.redundant_second(x, y).tolist() == [True, False]


def large_groups():
    """(name, adjoint (st, du) columns) of every group of more than 2 columns."""
    named = [("laplacian-n200-0.005", build_laplacian(random_graph(200, 0.005, [7, 5, 0])))]
    named += [(name, q) for name, q in PROBLEMS if name.startswith("laplacian-n60")]
    for name, q in named:
        dec = dual_eig.eig_dual_complex_hermitian(adjoint(q))
        for a, b in ref.groups(dec.sigma):
            if b - a > 2:
                yield f"{name}-columns-{a}-{b}", (dec.u_st[:, a:b], dec.u_du[:, a:b])


LARGE_GROUPS = list(large_groups())


def test_large_groups_include_the_zero_group_of_a_sparse_n200_laplacian():
    assert max(len(x[0][0]) for name, x in LARGE_GROUPS if "n200" in name) == 202
    assert sum(name.startswith("laplacian-n60") for name, _ in LARGE_GROUPS) >= 2


@pytest.mark.parametrize("name,x", LARGE_GROUPS, ids=[name for name, _ in LARGE_GROUPS])
def test_adjoint_gram_schmidt_spans_the_dual_quaternion_reference(name, x):
    rows, (count,) = dual_eig._gram_schmidt((x[0][None], x[1][None]), 1e-8)
    got_rows = rows[:, :, 0, :count].reshape(4, count, -1)
    want_rows = ref.gram_schmidt(vec_map_f_inverse(x))
    # the first kept vector is normalised as _unit normalises it
    assert [a[0].tobytes() for a in got_rows] == [a[0].tobytes() for a in want_rows]
    got, want = tuple(a.T for a in got_rows), tuple(a.T for a in want_rows)
    assert got[0].shape == want[0].shape
    projector = _dq_mul(got, conj_t(got))
    ref_projector = _dq_mul(want, conj_t(want))
    assert max_abs([a - b for a, b in zip(projector, ref_projector)]) <= 1e-13
    gram = _dq_mul(conj_t(got), got)
    eye = np.eye(len(got[0][0]))
    assert max_abs([gram[0] - eye, *gram[1:]]) <= 1e-13


def test_the_laplacian_n60_has_groups_of_several_sizes():
    dec = dual_eig.eig_dual_complex_hermitian(adjoint(dict(PROBLEMS)["laplacian-n60-0.02"]))
    sizes = {b - a for a, b in ref.groups(dec.sigma)}
    assert {2, 4} < sizes and max(sizes) > 20


@pytest.mark.parametrize("k", [2, 4, 14, 52])
def test_a_batch_of_groups_gives_each_group_what_it_gives_alone(k):
    dec = dual_eig.eig_dual_complex_hermitian(adjoint(dict(PROBLEMS)["laplacian-n60-0.02"]))
    groups = np.array([range(a, b) for a, b in ref.groups(dec.sigma) if b - a == k])
    # and the first group again with its first column repeated in place of its
    # last: it drops the repeat, so for k > 2 it has kept fewer vectors than
    # the first group at the next step and projects onto rows left zero
    groups = np.vstack([groups, np.insert(groups[0, :-1], 0, groups[0, 0])])
    x = tuple(a[:, groups].transpose(1, 0, 2) for a in (dec.u_st, dec.u_du))
    rows, counts = dual_eig._gram_schmidt(x, dual_eig.TOL_RANK)
    assert counts.tolist() == [k // 2] * len(groups)
    for i in range(len(groups)):
        alone, (count,) = dual_eig._gram_schmidt((x[0][i : i + 1], x[1][i : i + 1]),
                                                 dual_eig.TOL_RANK)
        assert count == counts[i]
        assert rows[:, :, i, :count].tobytes() == alone[:, :, 0, :count].tobytes()


@pytest.mark.parametrize("n", [1, 10, 150])
def test_gram_schmidt_normalises_a_kept_column_as_unit_does_bit_for_bit(n):
    # every group's first column is kept, as F^-1 of it normalised by _unit
    rng = np.random.default_rng(n)
    x = tuple(rng.standard_normal((6, 2 * n, 1)) + 1j * rng.standard_normal((6, 2 * n, 1))
              for _ in range(2))
    rows, counts = dual_eig._gram_schmidt(x, dual_eig.TOL_RANK)
    assert counts.tolist() == [1] * 6
    for i in range(6):
        want = _unit(vec_map_f_inverse((x[0][i, :, 0], x[1][i, :, 0])))
        assert rows[:, :, i, 0].tobytes() == want.tobytes()


def outcome(solve, q, **kwargs):
    try:
        return len(solve(q, **kwargs).eigenvectors())
    except DQEigError as exc:
        return type(exc).__name__


def test_a_split_double_eigenvalue_fails_as_in_the_reference(monkeypatch):
    # At tol_group 1e-15 rounding splits the four adjoint copies of the double
    # eigenvalue -1.6 + 0.70 eps into two groups of 2 that are not H-partners.
    # The reference keeps 10 vectors for n = 8 and raises ClusterInstability;
    # keeping each group's first candidate unchecked would return 8 vectors,
    # two of them 0.14 from orthogonal.
    rng = np.random.default_rng(22)
    st = np.repeat(np.round(rng.uniform(-2, 2, 4), 1), 2)
    du = np.repeat(rng.uniform(-1, 1, 4), 2) * (rng.uniform(size=8) < 0.5)
    q, _ = synth_known_spectrum(8, [DualNumber(float(a), float(b)) for a, b in zip(st, du)], 22)
    q = (q + q.conj_transpose()) * 0.5
    want = outcome(ref.eddcam_ea, q, tol_group=1e-15)
    monkeypatch.setattr(dual_eig, "TOL_GROUP", 1e-15)
    assert outcome(dual_eig.eddcam_ea, q) == want


def diagonal_decomposition(order, split):
    """eig_dual_complex_hermitian of Q = diag(3 + eps, 3 + eps, 1) with the
    columns F(e0), F(e1), F(e0 j), F(e1 j) of its double eigenvalue in the
    given order and the dual parts of the last two raised by split."""
    n = 3
    cols = [np.eye(2 * n)[:, i] * sign for i, sign in ((0, 1), (1, 1), (3, -1), (4, -1))]
    u_st = np.stack([cols[i] for i in order] + [np.eye(2 * n)[:, 2], -np.eye(2 * n)[:, 5]], axis=1)
    lam = np.array([3.0] * 4 + [1.0] * 2)
    mu = np.array([1.0, 1.0, 1.0 + split, 1.0 + split, 0.0, 0.0])
    return dual_eig.DualEigenDecomposition(lam, mu, u_st.astype(complex), np.zeros((2 * n, 2 * n),
                                                                                 complex))


def decompose_as(dec, monkeypatch):
    """Have eddcam_ea run on the decomposition dec: _frame gives its lam and
    mu and the stack X* [I | 0] of its standard part X, and _dual_part its
    dual part at the columns asked for."""
    w = np.concatenate((dec.u_st.conj().T, np.zeros_like(dec.u_st)), axis=1)
    monkeypatch.setattr(dual_eig, "_frame", lambda st, du: (dec.lam, dec.mu, w))
    monkeypatch.setattr(dual_eig, "_dual_part", lambda lam, w, cols: dec.u_du[:, cols])


DIAGONAL = DualQuaternionMatrix(np.diag([3.0, 3.0, 1.0]), np.zeros((3, 3)),
                                np.diag([1.0, 1.0, 0.0]))


@pytest.mark.parametrize("order,want", [((0, 2, 1, 3), 3), ((0, 1, 2, 3), "ClusterInstability")],
                         ids=["partners", "not-partners"])
def test_a_pair_off_the_line_of_its_first_column_raises(order, want, monkeypatch):
    # splitting the double eigenvalue into two groups of 2 by 2e-8 in mu: a
    # pair (F(e0), F(e0 j)) spans one quaternion line and returns one vector,
    # a pair (F(e0), F(e1)) has its second column off that line, so its group
    # of 2 holds two vectors, and the solve ends in ClusterInstability
    decompose_as(diagonal_decomposition(order, 2e-8), monkeypatch)
    assert outcome(dual_eig.eddcam_ea, DIAGONAL) == want


@pytest.mark.parametrize("column,want", [(0, "NotAnEigenvector"), (1, 3)],
                         ids=["kept", "dropped"])
def test_only_the_returned_columns_are_checked(column, want, monkeypatch):
    # the groups (F(e0), F(e0 j)) and (F(e1), F(e1 j)) of the partners split:
    # a dual part moved by 1e-3 in the kept first column of a pair gives a
    # returned vector that is no eigenvector, in the dropped second column,
    # which still lies on the line of the first, it changes nothing
    dec = diagonal_decomposition((0, 2, 1, 3), 2e-8)
    u_du = dec.u_du.copy()
    u_du[2, column] = 1e-3
    decompose_as(dual_eig.DualEigenDecomposition(dec.lam, dec.mu, dec.u_st, u_du), monkeypatch)
    assert outcome(dual_eig.eddcam_ea, DIAGONAL) == want


@pytest.mark.parametrize("s", [0.005, 0.02, 0.1])
def test_eddcam_traced_peak_stays_within_eleven_adjoint_arrays(s):
    # the traced allocation peak of one solve at n = 200, in 2n x 2n complex
    # arrays: 9.1 to 9.5 with Gram-Schmidt on every group and 7.5 to 9.0
    # without; holding the candidates, the pair temporaries and the
    # decomposition to the end of the solve reads 12.1 to 12.9
    q = build_laplacian(random_graph(200, s, [7, round(1e5 * s)]))
    tracemalloc.start()
    try:
        dual_eig.eddcam_ea(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * (2 * q.rows) ** 2 * 16


def test_a_non_eigenvector_raises_alike():
    q = pentagon_fixture()
    lam, (v,) = dual_eig.eddcam_ea(q).pairs[0]
    junk = basis(5, 2)
    for gs in (orthogonalize, ref.orthogonalize_eigenvectors):
        with pytest.raises(NotAnEigenvector):
            gs([v, junk], q, lam)
    assert orthogonalize([], q, lam) == []
