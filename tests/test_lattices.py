import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from locnash.errors import (
    DegenerateGenerators,
    NonIntegerTransition,
    NotASublattice,
    SingularMatrix,
)
from locnash.lattices import (
    DiscreteSubgroup,
    Lattice1,
    as_vector,
    common_real_sublattice,
    contains,
    coset_representatives,
    gauss_reduced_basis,
    index,
    integer_coefficients,
    is_real,
    is_sublattice,
    real_rank1_form,
    subgroup,
    transform,
)

SQ = subgroup([1, 1j])          # <1, i>
DBL = subgroup([2, 2j])         # <2, 2i>
RECT = subgroup([1, 2j])        # <1, 2i>


# -- construction / rank -------------------------------------------------------

def test_rank_trivial():
    assert DiscreteSubgroup(1, ()).rank == 0


def test_rank_exp_pair_lattice():
    G = subgroup([(2j * math.pi, 0), (0, 2j * math.pi)])
    assert G.rank == 2 and G.dim == 2


def test_rank_square():
    assert SQ.rank == 2


def test_degenerate_triple_rejected():
    with pytest.raises(DegenerateGenerators):
        subgroup([1, 1j, (1 + 1j) / 2])


def test_zero_generator_rejected():
    with pytest.raises(DegenerateGenerators):
        subgroup([0j])


def test_dependent_pair_rejected():
    with pytest.raises(DegenerateGenerators):
        subgroup([1 + 1j, 2 + 2j])


# -- contains -------------------------------------------------------------------

def test_contains_integer_combination():
    assert contains(SQ, 3 - 2j)


def test_contains_rejects_half_integer():
    assert not contains(SQ, 0.5)


def test_contains_rejects_half_coefficients():
    # least-squares coefficients for 1+i over <2, 2i> are exactly (0.5, 0.5)
    assert not contains(DBL, 1 + 1j)


def test_contains_generators_and_halves():
    for G in (SQ, DBL, RECT):
        for (g,) in G.generators:
            assert contains(G, g)
            assert not contains(G, g / 2)


def test_contains_agrees_with_bruteforce(rng):
    G = subgroup([1.5 - 0.5j, 0.25 + 1j])
    for _ in range(25):
        x = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if rng.uniform() < 0.5:
            m, n = rng.integers(-8, 9, 2)
            x = m * 1.5 - m * 0.5j + n * (0.25 + 1j)
        assert contains(G, x) == helpers.brute_contains(G, x, box=40)


# -- is_real ----------------------------------------------------------------------

def test_is_real_square():
    assert is_real(SQ)


def test_is_real_rank1_counterexample():
    G = subgroup([1 + 1j])
    # oracle: brute-force search over |m| <= 50 cannot express the conjugate
    assert not helpers.brute_contains(G, 1 - 1j)
    assert not is_real(G)


def test_is_real_swapped_conjugates():
    assert is_real(subgroup([1 + 1j, 1 - 1j]))


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 1))
@settings(max_examples=30, deadline=None)
def test_is_real_invariant_under_unimodular_change(s1, s2, swap):
    # recombine the basis by an integer shear (and optional swap): same group
    U = np.array([[1, s1], [0, 1]], dtype=np.int64) @ np.array(
        [[1, 0], [s2, 1]], dtype=np.int64
    )
    if swap:
        U = U[::-1]
    for gens, expected in (([1, 1j], True), ([1 + 1j, 1 - 1j], True), ([1, 0.3 + 1j], False)):
        g = np.array(gens, dtype=complex)
        new = U @ g
        assert is_real(subgroup(list(new))) == expected


# -- sublattices / index / cosets -------------------------------------------------

def test_is_sublattice_examples():
    assert is_sublattice(DBL, SQ)
    assert not is_sublattice(SQ, DBL)
    assert is_sublattice(SQ, SQ)


def test_index_examples():
    assert index(DBL, SQ) == 4
    assert index(SQ, SQ) == 1
    assert index(RECT, SQ) == 2


def test_index_requires_sublattice():
    with pytest.raises(NotASublattice):
        index(SQ, DBL)


@pytest.mark.parametrize(
    "G1, G2",
    [(SQ, DBL), (subgroup([1.5, 1.5j]), SQ)],
    ids=["square-in-double", "stretched-in-square"],
)
@pytest.mark.parametrize("op", [index, coset_representatives])
def test_not_a_sublattice_from_integer_gate(op, G1, G2):
    with pytest.raises(NotASublattice):
        op(G1, G2)


def test_index_chain_multiplicative():
    quad = subgroup([4, 4j])
    assert index(quad, DBL) == 4
    assert index(DBL, SQ) == 4
    assert index(quad, SQ) == 16


def test_mutual_sublattices_have_index_one():
    skew = subgroup([1 + 1j, 1j])  # same group as <1, i> in another basis
    assert is_sublattice(skew, SQ) and is_sublattice(SQ, skew)
    assert index(skew, SQ) == 1 and index(SQ, skew) == 1


def test_coset_representatives_doubling():
    reps = coset_representatives(DBL, SQ)
    assert len(reps) == 4
    expected = [0j, 1 + 0j, 1j, 1 + 1j]
    for e in expected:
        assert any(contains(DBL, (r[0] - e,)) for r in reps)


def test_coset_representatives_identity():
    assert coset_representatives(SQ, SQ) == [(0j,)]


def test_coset_representatives_rect():
    reps = coset_representatives(RECT, SQ)
    assert len(reps) == 2
    assert any(contains(RECT, (r[0] - 1j,)) for r in reps)


def test_coset_representatives_pairwise_non_congruent():
    for g1, g2 in ((DBL, SQ), (RECT, SQ), (subgroup([3, 1j]), SQ)):
        reps = coset_representatives(g1, g2)
        assert len(reps) == index(g1, g2)
        for i, a in enumerate(reps):
            assert contains(g2, a)
            for b in reps[i + 1 :]:
                assert not contains(g1, (a[0] - b[0],))


def _groups_from_rows(P: np.ndarray, dim: int) -> DiscreteSubgroup:
    """Subgroup of C^dim generated by the rows of P, read as (Re, Im) pairs."""
    return subgroup([tuple(r[0::2] + 1j * r[1::2]) for r in P], dim)


def _assert_coset_system(G1, G2, T, reps):
    """Each representative lies in G2, one per coset of G1 = rows(T) over G2.

    Over G2's generators a point x of G2 lies in G1 iff x = T^t y for an
    integer y, i.e. adj(T^t) x = 0 mod det T, which labels each coset."""
    det = round(np.linalg.det(T))
    adj = np.round(det * np.linalg.inv(T.T)).astype(np.int64)
    labels = set()
    for r in reps:
        x, ok = integer_coefficients(G2, r)
        assert ok, f"representative {r} is not in G2"
        labels.add(tuple(int(v) % abs(det) for v in adj @ x))
    assert len(labels) == len(reps) == abs(det)


@st.composite
def _unimodular(draw, k: int) -> np.ndarray:
    """Product of a few integer row shears and an optional sign flip."""
    U = np.eye(k, dtype=np.int64)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.permutations(range(k)))[:2]
        U[i] += draw(st.integers(-2, 2)) * U[j]
    if draw(st.booleans()):
        U[0] = -U[0]
    return U


@st.composite
def _sublattice_pairs(draw):
    """(G1, G2, T) with G1 spanned by the rows of T over G2's generators,
    1 <= |det T| <= 81, both groups written in unimodularly mixed bases."""
    dim = draw(st.sampled_from([1, 2]))
    k = 2 * dim
    # I + E with |E|_F <= 0.8: a well-conditioned real basis of R^k
    E = draw(st.lists(st.floats(-0.8 / k, 0.8 / k), min_size=k * k, max_size=k * k))
    base = draw(_unimodular(k)) @ (np.eye(k) + np.reshape(E, (k, k)))
    diag, room = [], 81
    for _ in range(k):
        d = draw(st.integers(1, room))
        diag.append(d)
        room //= d
    tri = np.diag(diag).astype(np.int64)
    for i in range(k):
        for j in range(i + 1, k):
            tri[i, j] = draw(st.integers(-4, 4))
    T = draw(_unimodular(k)) @ tri @ draw(_unimodular(k))
    return _groups_from_rows(T @ base, dim), _groups_from_rows(base, dim), T


@given(_sublattice_pairs())
@settings(max_examples=60, deadline=None)
def test_index_and_cosets_from_integer_transition(pair):
    G1, G2, T = pair
    n = abs(round(np.linalg.det(T)))
    assert index(G1, G2) == n
    _assert_coset_system(G1, G2, T, coset_representatives(G1, G2))


def _lstsq_coefficients(G, x):
    """integer_coefficients with its coefficients from np.linalg.lstsq."""
    target = np.array(as_vector(x, G.dim), dtype=complex).view(float)
    mat = G.basis_matrix
    coeff, *_ = np.linalg.lstsq(mat, target, rcond=None)
    ints = np.round(coeff)
    coeff_ok = np.all(np.abs(coeff - ints) <= G.tol * (1.0 + np.abs(ints)))
    resid = float(np.linalg.norm(mat @ ints - target))
    ok = bool(coeff_ok) and resid <= G.tol * (1.0 + float(np.linalg.norm(target)))
    return ints.astype(np.int64), ok


@st.composite
def _membership_cases(draw):
    """A group of C^dim of rank 1..2 dim in a well-conditioned basis, an integer
    combination of its generators, and a point at least 1e-6 off the group:
    a fractional step along a generator or a step out of the real span."""
    dim = draw(st.sampled_from([1, 2]))
    k = 2 * dim
    rank = draw(st.integers(1, k))
    E = draw(st.lists(st.floats(-0.8 / k, 0.8 / k), min_size=k * k, max_size=k * k))
    basis = draw(st.sampled_from([0.5, 1.0, 1e3])) * (np.eye(k) + np.reshape(E, (k, k)))
    m = np.array(draw(st.lists(st.integers(-10, 10), min_size=rank, max_size=rank)))
    member = m @ basis[:rank]
    step = draw(st.floats(1e-6, 0.45)) * draw(st.sampled_from([-1.0, 1.0]))
    off = member + step * basis[draw(st.integers(0, k - 1))]
    point = lambda r: tuple(r[0::2] + 1j * r[1::2])  # noqa: E731
    return _groups_from_rows(basis[:rank], dim), m, point(member), point(off)


@given(_membership_cases())
@settings(max_examples=150, deadline=None)
def test_membership_from_pseudo_inverse(case):
    G, m, member, off = case
    ints, ok = integer_coefficients(G, member)
    assert ok and ints.tolist() == m.tolist()
    assert not contains(G, off)
    for x in (member, off):
        got, want = integer_coefficients(G, x), _lstsq_coefficients(G, x)
        assert got[0].tolist() == want[0].tolist() and got[1] == want[1]


def test_pseudo_inverse_only_on_membership():
    """A group that tests no membership builds no pseudo-inverse, and the
    one it builds is not a field: equality and hashing ignore it."""
    G = subgroup([1, 1j])
    assert "_solver" not in vars(G)
    assert contains(G, 2 - 3j)
    assert "_solver" in vars(G)
    assert G == SQ and hash(G) == hash(SQ) and repr(G) == repr(SQ)


def test_cosets_c2_index_81():
    # 3 * <(1,0), (i,0), (0,1), (0,2i)> in a sheared basis: 81 cosets in C^2
    base = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]], dtype=float)
    T = 3 * np.array([[1, 0, 0, 0], [1, 1, 0, 0], [0, -2, 1, 0], [0, 0, 1, 1]])
    G1, G2 = _groups_from_rows(T @ base, 2), _groups_from_rows(base, 2)
    assert index(G1, G2) == 81
    _assert_coset_system(G1, G2, T, coset_representatives(G1, G2))


# -- transform ---------------------------------------------------------------------

def test_transform_identity():
    G = subgroup([(2j * math.pi, 0), (0, 2j * math.pi)])
    H = transform(G, np.eye(2))
    assert H.generators == G.generators


def test_transform_scaling():
    H = transform(SQ, [[0.5]])
    assert contains(H, 0.5) and contains(H, 0.5j) and not contains(H, 0.25)


def test_transform_preserves_rank(rng):
    for G in (SQ, subgroup([(1, 0.5j), (1j, 2)]), subgroup([2.5])):
        for _ in range(10):
            n = G.dim
            A = helpers.random_real_invertible(rng, n) + 1j * rng.uniform(-1, 1, (n, n))
            if abs(np.linalg.det(A)) < 0.2:
                continue
            assert transform(G, A).rank == G.rank


def test_transform_rejects_singular():
    with pytest.raises(SingularMatrix):
        transform(SQ, [[0.0]])


def test_non_integer_transition():
    # <1.5, 1.5i> contains <1,i>? no; but a stretched pair passes the sublattice
    # test only with integer coefficients, so force the failure path directly
    G1 = subgroup([2, 2j])
    G2 = subgroup([1, 1j])
    assert index(G1, G2) == 4
    with pytest.raises((NotASublattice, NonIntegerTransition)):
        index(subgroup([1.5, 1.5j]), G2)


# -- common real sublattice ----------------------------------------------------------

def test_common_real_sublattice_identical():
    got = common_real_sublattice(SQ, SQ)
    assert got is not None
    G, a = got
    assert a == 1 and G.generators == SQ.generators


def test_common_real_sublattice_contained():
    got = common_real_sublattice(RECT, SQ)
    assert got is not None
    assert got[1] == 1


def test_common_real_sublattice_needs_multiplier():
    # 3*<1/3, i> lands in <1, i>
    got = common_real_sublattice(subgroup([1 / 3, 1j]), SQ)
    assert got is not None
    assert got[1] == 3


def test_common_real_sublattice_combines_denominators():
    # 1/3 and 5/7 need the multiplier lcm(3, 7) = 21
    got = common_real_sublattice(subgroup([1 / 3, 5j / 7]), SQ)
    assert got is not None
    assert got[1] == 21


def test_common_real_sublattice_multiplier_above_a_max():
    G = subgroup([1 / 97, 1j / 89])
    assert common_real_sublattice(G, SQ, a_max=1000) is None
    assert common_real_sublattice(G, SQ)[1] == 97 * 89


def test_common_real_sublattice_not_found_for_pi():
    assert common_real_sublattice(subgroup([1, math.pi * 1j]), SQ) is None


# -- rank-1 axis classification --------------------------------------------------------

def test_real_rank1_forms():
    assert real_rank1_form(subgroup([2 * math.pi])).kind == "real"
    assert real_rank1_form(subgroup([2 * math.pi])).value == pytest.approx(2 * math.pi)
    got = real_rank1_form(subgroup([2j * math.pi]))
    assert got.kind == "imag" and got.value == pytest.approx(2 * math.pi)
    assert real_rank1_form(subgroup([1 + 1j])).kind == "none"


# -- Gauss reduction ---------------------------------------------------------------------

def test_gauss_reduction_shortens_and_tracks_unimodular():
    w1, w2 = 7 + 1j, 5 + 1j  # long skew basis of a small lattice
    r1, r2, U = gauss_reduced_basis(w1, w2)
    assert abs(r1) <= abs(r2) <= max(abs(w1), abs(w2))
    assert abs(round(np.linalg.det(U))) == 1
    assert r1 == pytest.approx(U[0, 0] * w1 + U[0, 1] * w2)
    assert r2 == pytest.approx(U[1, 0] * w1 + U[1, 1] * w2)
    # same group
    assert index(subgroup([r1, r2]), subgroup([w1, w2])) == 1


def test_gauss_reduction_is_reduced(rng):
    # definitional criterion: |r1| <= |r2| <= |r2 +- r1| (implies r1 is a
    # shortest lattice vector)
    checked = 0
    while checked < 30:
        w1 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        w2 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs((w1.conjugate() * w2).imag) < 0.2 * abs(w1) * abs(w2):
            continue
        r1, r2, _ = gauss_reduced_basis(w1, w2)
        assert abs(r1) <= abs(r2) + 1e-12
        assert abs(r2) <= min(abs(r2 + r1), abs(r2 - r1)) + 1e-12
        checked += 1


def test_lattice1_orientation():
    L = Lattice1(1.0, -1j)
    assert (L.omega1.conjugate() * L.omega2).imag > 0
    with pytest.raises(DegenerateGenerators):
        Lattice1(1.0, 2.0)
