"""The class tower (Q^V, A), invariant distributions, and the obstruction
rank."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import rng

from test_algebra import _drawn_diagrams
from test_step import (_prefix_draws, _prefixed, _random_diagram, coboundary,
                       evaluate, path_range)

import adic
from adic.cli import main
from adic.cohomology import (birkhoff_cochain, distributions,
                             evaluation_level, limit_rank, vertex_functionals)
from adic.catalog import builtin_diagram
from adic.diagrams import LazyPath, TAIL_MIN, enumerate_paths, path_table
from adic.errors import AdicError, ObstructedError, PreconditionError
from adic.martingale import (compose_phi, constant_function, from_vector,
                             lift, nu_mean, rand_function)
from adic.measures import renorm_data
from adic.scalars import identity, mat_mul, mat_vec
from adic.solenoid import build_complex, class_graph
from adic.solver import solve


def _tower(d):
    return limit_rank(d, renorm_data(d))


def _h1_dim(cx):
    """edges - classes + components of the class graph of a complex, or of
    a `solenoid.class_graph`, the components counted by breadth-first
    search: the reference for the `solenoid.first_betti_number` that
    `adic cohomology` prints."""
    adj = [[] for _ in cx.classes]
    for a, b in zip(cx.start_class, cx.end_class):
        adj[a].append(b)
        adj[b].append(a)
    seen, components = set(), 0
    for root in range(len(cx.classes)):
        if root in seen:
            continue
        components += 1
        seen.add(root)
        queue = [root]
        while queue:
            c = queue.pop(0)
            for nb in adj[c]:
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
    return len(cx.start_class) - len(cx.classes) + components


def _cli_dims(capsys, tmp_path, d):
    """The per-level dimensions `adic cohomology` prints for levels 0..8,
    checked against `_h1_dim` of each complex, or, where its tower heights
    refuse the complex, of its class graph: the gluing alone.
    Returns (dims, the number of levels whose complex is refused)."""
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(d.to_json_dict()))
    assert main(["cohomology", "--diagram", str(path)]) == 0
    dims = json.loads(capsys.readouterr().out)["per_level_dims"]
    rd, refused = renorm_data(d), 0
    assert len(dims) == 9
    for k, dim in enumerate(dims):
        try:
            cx = build_complex(d, rd, k)
        except PreconditionError:
            refused += 1
            cx = class_graph(d, k)
        assert dim == _h1_dim(cx)
    return dims, refused


def test_h1_dimensions(capsys, tmp_path, odo2, fib, pisot31):
    for d, dim in ((odo2, 1), (fib, 2), (pisot31, 2)):
        assert _cli_dims(capsys, tmp_path, d) == ([dim] * 9, 0)


def test_cohomology_needs_no_roof(capsys, tmp_path):
    # the dimensions read the gluing alone: on the builtins, 30 drawn
    # diagrams and 240 `_prefix_draws`, `adic cohomology` exits 0 on every
    # diagram with Perron data, also on the 184 with a complex below the
    # repeating levels that is refused, because its tower heights are not
    # fixed or are negative, and every complex that builds has the
    # dimension of its class graph
    r = random.Random(5)
    ds = [builtin_diagram(name)
          for name in ("odo2", "odo3", "fib", "pisot31")]
    ds += [_random_diagram(r, 1 + i % 3, 6) for i in range(30)]
    for seed in (11, 41, 7, 99):
        ds += _prefix_draws(seed, 60)
    accepted = refused = 0
    for d in ds:
        try:
            renorm_data(d)
        except AdicError:
            continue
        accepted += 1
        refused += _cli_dims(capsys, tmp_path, d)[1] > 0
    assert (accepted, refused) == (233, 184)


def test_induced_maps_hand_values(odo2, fib):
    # odometer: the single loop wraps twice; fib: the substitution matrix
    assert _tower(odo2).map == ((2,),)
    assert _tower(fib).map == ((1, 1), (1, 0))


def test_tower_builds_no_complex(monkeypatch, odo2, odo3, fib, pisot31):
    # the tower, the distributions and the solver, its certificate search
    # included, read the repeating matrix and block sums only, never an
    # approximant complex
    def refuse(*args):
        raise AssertionError("build_complex called")

    for name in ("solenoid", "solver", "cli"):
        monkeypatch.setattr(getattr(adic, name), "build_complex", refuse)
    r = rng(307)
    for d in (odo2, odo3, fib, pisot31):
        tower = _tower(d)
        g0 = rand_function(r, d, 2)
        h = coboundary(d, g0)
        assert all(dv.exact_zero for dv in distributions(h, tower))
        assert solve(h, tower).residual == 0


def test_limit_rank_values(odo2, fib):
    t2 = _tower(odo2)
    assert t2.d == 1 and t2.ranks[-1] == t2.ranks[-2] and t2.k_prime <= 5
    tf = _tower(fib)
    assert tf.d == 2 and tf.ranks[-1] == tf.ranks[-2] and tf.k_prime <= 5


def test_birkhoff_cochain_matches_direct_sums(odo2, fib, pisot31):
    # the block sums are stepped up from the level of h; on the prefixed
    # diagrams the steps cross the non-repeating first level
    r = rng(301)
    draws = [_random_diagram(random.Random(7), n, 6)
             for n in (2, 2, 2, 3, 3, 2, 3)]
    three = next(d for d in draws if d.num_vertices(0) == 3)
    for d in (odo2, fib, _prefixed(pisot31), _prefixed(three)):
        for m in range(3):
            h = rand_function(r, d, m)
            for k in range(m, m + 4):
                co = birkhoff_cochain(d, h, k)
                # lift-and-sum reference: h lifted to level k, summed over
                # the block of each vertex of V_k
                hv = lift(d, h, k).values
                assert co == tuple(sum(hv[a:b], Fraction(0)) for a, b in
                                   path_table(d, k).blocks())
                # direct oracle: sum h over E_v in tower order for each v
                every = enumerate_paths(d, k)
                for v in range(d.num_vertices(k)):
                    assert co[v] == sum(
                        (evaluate(d, h, LazyPath(p, TAIL_MIN)) for p in every
                         if path_range(d, p) == v), Fraction(0))


def test_single_distribution_is_the_mean_functional(odo2):
    # rank one: the only distribution is a fixed positive multiple of the
    # nu-mean, at every level, and vanishes exactly when the mean does
    r = rng(302)
    tower = _tower(odo2)
    ratio = None
    for _ in range(20):
        h = rand_function(r, odo2, r.randint(0, 4))
        (dv,) = distributions(h, tower)
        mean = nu_mean(odo2, h)
        assert dv.exact_zero == (mean == 0)
        if mean != 0:
            got = dv.value / float(mean)
            assert got > 0
            if ratio is None:
                ratio = got
            assert abs(got - ratio) < 1e-9 * abs(ratio)


def test_distribution_values_are_linear(fib):
    # the numerators are exact linear functionals
    r = rng(303)
    tower = _tower(fib)
    for _ in range(10):
        h1 = rand_function(r, fib, 2)
        h2 = rand_function(r, fib, 2)
        d1 = distributions(h1, tower)
        d2 = distributions(h2, tower)
        ds = distributions(from_vector(fib, 2, [
            a + b for a, b in zip(h1.values, h2.values, strict=True)]), tower)
        for a, b, s in zip(d1, d2, ds):
            assert a.numerator + b.numerator == s.numerator


def test_constant_has_only_a_measure_component(fib):
    # the Gram step orthogonalizes the higher distributions against the
    # measure direction, so the constant function pairs to exactly zero
    # beyond the first entry
    tower = _tower(fib)
    one = constant_function(fib, Fraction(1), 0)
    dvs = distributions(one, tower)
    assert dvs[0].value > 0 and not dvs[0].exact_zero
    assert all(dv.exact_zero for dv in dvs[1:])


def test_nonzero_mean_obstructs(fib):
    # unique ergodicity: a coboundary has zero mean, so a nonzero mean must
    # show up in at least one distribution
    r = rng(304)
    tower = _tower(fib)
    seen = 0
    for _ in range(20):
        h = rand_function(r, fib, 2)
        if nu_mean(fib, h) == 0:
            continue
        seen += 1
        dvs = distributions(h, tower)
        assert not all(dv.exact_zero for dv in dvs)
    assert seen >= 10


def test_fib_distributions_are_independent(fib):
    # the two distributions restricted to level-1 indicators have rank 2
    import numpy as np
    tower = _tower(fib)
    cols = []
    for e in range(3):
        vals = [Fraction(1 if i == e else 0) for i in range(3)]
        dvs = distributions(from_vector(fib, 1, vals), tower)
        assert len(dvs) == 2
        cols.append([dv.value for dv in dvs])
    assert np.linalg.matrix_rank(np.array(cols).T) == 2


def test_coboundary_round_trip_class(odo2, fib):
    r = rng(303)
    for d in (odo2, fib):
        tower = _tower(d)
        for _ in range(10):
            g0 = rand_function(r, d, 2)
            f = coboundary(d, g0)
            assert all(dv.exact_zero for dv in distributions(f, tower))
            assert solve(f, tower).level >= f.level


def test_constant_obstructed(odo2):
    tower = _tower(odo2)
    one = constant_function(odo2, Fraction(1), 0)
    dvals = distributions(one, tower)
    assert not dvals[0].exact_zero
    assert dvals[0].value == 1.0
    with pytest.raises(ObstructedError):
        solve(one, tower)


def test_rank_sequence_decreasing(fib, pisot31):
    for d in (fib, pisot31):
        t = _tower(d)
        rs = list(t.ranks)
        assert all(rs[i] >= rs[i + 1] for i in range(len(rs) - 1))
        assert rs[-1] == t.d


def test_step_is_the_drazin_inverse():
    # the step X of the functionals satisfies the three equations that fix
    # the Drazin inverse of A, of index k': X A X = X, A X = X A and
    # A^(k'+1) X = A^k', exactly, on 60 `_random_diagram` and 60
    # `_prefix_draws` draws, 19 of them with a singular A (2 of index 2);
    # and the projection it gives, X A, is idempotent
    r = rng(52)
    ds = [_random_diagram(r, 1 + i % 3, 6) for i in range(60)]
    singular = []
    for d in ds + _prefix_draws(52, 60):
        try:
            tower = _tower(d)
        except AdicError:  # Perron root 1: a finite path space
            continue
        a, x, k = tower.map, tower.functionals.step, tower.k_prime
        assert mat_mul(mat_mul(x, a), x) == x
        assert mat_mul(a, x) == mat_mul(x, a)
        power = identity(len(a))  # A^k'
        for _ in range(k):
            power = mat_mul(a, power)
        assert mat_mul(mat_mul(a, power), x) == power
        p = mat_mul(x, a)
        assert mat_mul(p, p) == p
        singular.append(k)
    assert sorted(k for k in singular if k) == [1] * 17 + [2] * 2


def _dump(dvs):
    return repr([(dv.index, dv.value, dv.numerator, dv.exact_zero)
                 for dv in dvs])


def test_cached_functionals_match_a_fresh_tower(odo2, odo3, fib, pisot31):
    # the functionals kept on a tower give the same values and numerators,
    # to the repr, as a tower that builds them for this call; D_i(h o phi - h)
    # is an exact zero for every i and every lift
    r = rng(305)
    ds = [odo2, odo3, fib, pisot31] + [_random_diagram(r, 2, m)
                                       for m in (4, 5, 6)]
    for d in ds:
        rd = renorm_data(d)
        assert mat_vec(d.matrix(1), rd.roof) == \
            [rd.lambda_mu * x for x in rd.roof]
        warm = limit_rank(d, rd)
        for level in range(4):
            h = rand_function(r, d, level)
            f = coboundary(d, h)
            for k in range(max(warm.k_prime, level), 6):
                fresh = limit_rank(d, rd)
                assert _dump(distributions(lift(d, h, k), fresh)) == \
                    _dump(distributions(lift(d, h, k), warm))
                if k >= f.level:
                    assert all(dv.exact_zero for dv in
                               distributions(lift(d, f, k), warm))
        # one row list per tower, from its base level to the highest read
        fn = warm.functionals
        assert len(fn.rows) == 6 - fn.base
    # reading higher levels extends the list, and lower ones leave it
    tower = _tower(odo2)
    one = constant_function(odo2, Fraction(1), 0)
    for k in (12, 3, 0):
        assert distributions(lift(odo2, one, k), tower)[0].value == 1.0
        assert len(tower.functionals.rows) == 13


def _dump_diagrams():
    """The 4 builtins, the 7 draws `_random_diagram(random.Random(7), n, 6)`
    and the `_prefixed` forms of both."""
    base = [builtin_diagram(name)
            for name in ("odo2", "odo3", "fib", "pisot31")]
    r = random.Random(7)
    base += [_random_diagram(r, n, 6) for n in (2, 2, 2, 3, 3, 2, 3)]
    return base + [_prefixed(d) for d in base]


def test_distributions_are_compatible_across_levels():
    # a trace on the dimension group is compatible across levels, so h and
    # every lift of h read the same d = rank K_0 distributions: numerator by
    # numerator, to the repr.  The count holds also on the singular
    # `_prefixed` draw, whose measure direction lies outside W at level 1,
    # and on the roof of `_prefixed(pisot31)`, which has a zero entry
    r = rng(308)
    for d in _dump_diagrams():
        tower = limit_rank(d, renorm_data(d))
        for m in range(4):
            h = rand_function(r, d, m)
            ref = distributions(h, tower)
            for k in range(m, 9):
                got = distributions(lift(d, h, k), tower)
                assert len(got) == tower.d
                assert [repr(dv.numerator) for dv in got] == \
                    [repr(dv.numerator) for dv in ref]


def test_vertex_functionals_are_a_trace_on_the_dimension_group():
    # tau on K_0 = lim (Z^V, A) is compatible across levels: the vertex
    # rows of level m + 1 times A are those of level m, exactly, also on
    # `_prefixed(pisot31)`, whose exact roof has a zero entry.  Each level
    # keeps its rows once, as integer rows R_m over den_m, so
    # R_(m+1) A den_m = R_m den_(m+1) on the integers
    r = random.Random(7)
    ds = [builtin_diagram(name)
          for name in ("odo2", "odo3", "fib", "pisot31")]
    ds += [_random_diagram(r, 2, 6), _random_diagram(r, 2, 6),
           _prefixed(builtin_diagram("fib")),
           _prefixed(builtin_diagram("pisot31"))]
    for d in ds:
        tower = _tower(d)
        a = [list(row) for row in tower.map]
        base = tower.functionals.base
        for m in range(base, base + 4):
            den_up, up = vertex_functionals(tower, m + 1)
            den, here = vertex_functionals(tower, m)
            assert len(here) == tower.d
            assert all(isinstance(x, int) for row in up + here for x in row)
            assert [[x * den for x in row] for row in mat_mul(up, a)] == \
                [[x * den_up for x in row] for row in here]
        assert len(tower.functionals.rows) == 5


@pytest.mark.parametrize("seed", [6, 29, 37, 39, 42, 49])
def test_distributions_on_non_positive_tower_lengths(seed):
    # on these `_prefixed` draws the level-1 tower lengths are not all
    # positive; the Gram weights are path counts, which are, so
    # g o phi - g reads exact zeros and solves, and h and its
    # lift read the same rational numerators
    d = _prefixed(_random_diagram(random.Random(seed), 3, 6))
    tower = _tower(d)
    r = rng(309)
    g = rand_function(r, d, 2)
    f = coboundary(d, g)
    assert all(dv.exact_zero for dv in distributions(f, tower))
    assert solve(f, tower).residual == 0
    h = rand_function(r, d, 2)
    nums = [dv.numerator for dv in distributions(h, tower)]
    assert [dv.numerator for dv in distributions(lift(d, h, 3), tower)] \
        == nums
    assert all(isinstance(x, Fraction) for x in nums)


def test_tower_of_a_diagram_with_a_non_repeating_first_level(capsys,
                                                             tmp_path):
    # behind the extra first level of `_prefixed`, the level-0 complex has
    # a smaller first Betti number than those of the repeating levels, and
    # the tower is the repeating matrix.  On 3 vertices that first level
    # has rank 2, so the level-0 tower heights are not fixed: the level-0
    # complex is refused on all three draws, and the repeating levels
    # build.  `cohomology` reads the gluing alone, so it prints the same
    # dimensions on all three
    r = random.Random(7)
    draws = [_random_diagram(r, n, 6) for n in (2, 2, 2, 3, 3, 2, 3)]
    for d in (_prefixed(d) for d in draws if d.num_vertices(0) == 3):
        tower = _tower(d)
        assert len(tower.map) == 3 and tower.d == 3
        with pytest.raises(PreconditionError, match="level-0 tower heights"):
            renorm_data(d).roof
        assert _cli_dims(capsys, tmp_path, d) == ([2] + [3] * 8, 1)
    r = rng(306)
    for name in ("fib", "odo2", "odo3"):
        d = _prefixed(builtin_diagram(name))
        tower = _tower(d)
        for level in (1, 2) * 5:
            g = rand_function(r, d, level)
            f = coboundary(d, g)
            assert all(dv.exact_zero for dv in distributions(f, tower))


@example(_prefixed(builtin_diagram("pisot31")), 1, 0, 0)
@example(_random_diagram(random.Random(0), 1, 6), -1, 1, 0)
@given(_drawn_diagrams(), st.sampled_from((1, 2, 3, -1, -2, -3)),
       st.integers(0, 2), st.integers(0, 2 ** 16))
def test_distributions_are_invariant_under_phi(d, power, level, seed):
    # D_i(h o phi^k) = D_i(h) on the exact numerators, for positive and
    # negative powers.  The one-edge loop has Perron root 1: refused
    if d.matrix(len(d.levels)) == [[1]]:
        with pytest.raises(PreconditionError):
            renorm_data(d)
        return
    tower = _tower(d)
    r = random.Random(seed)
    h = from_vector(d, level, [Fraction(r.randint(-8, 8), 4) for _ in
                               range(path_table(d, level).offsets[-1])])
    hk = compose_phi(d, h, power)
    assert [dv.numerator for dv in distributions(hk, tower)] == \
        [dv.numerator for dv in distributions(h, tower)]


@example(_prefixed(builtin_diagram("pisot31")), "field", 2, 0)
@example(builtin_diagram("fib"), "field", 1, 0)
@given(_drawn_diagrams(), st.sampled_from(("rational", "field", "float")),
       st.integers(0, 3), st.integers(0, 2 ** 16))
def test_distributions_match_rows_times_cochain(d, kind, level, seed):
    # the integer rows over one denominator, applied to the integer block
    # sums, give the numerators of the Fraction rows (the kept integer rows
    # over their denominator) times the Fraction block sums: to the repr, with the same floats and exact zeros, for
    # rational, Q(lambda) and float values of h, of h o phi - h and of
    # their lifts.  The one-edge loop has Perron root 1
    if d.matrix(len(d.levels)) == [[1]]:
        return
    tower = _tower(d)
    lam = renorm_data(d).lambda_mu
    r = random.Random(seed)
    value = {"rational": lambda: Fraction(r.randint(-8, 8), 4),
             "field": lambda: lam * Fraction(r.randint(-8, 8), 4)
             + Fraction(r.randint(-8, 8), 3),
             "float": lambda: r.uniform(-2, 2)}[kind]
    h = from_vector(d, level, [value() for _ in
                               range(path_table(d, level).offsets[-1])])
    cob = coboundary(d, h)
    norms = tower.functionals.norms
    for f in (h, lift(d, h, level + 1), cob, lift(d, cob, cob.level + 1)):
        k = evaluation_level(tower, f)
        den, rows = vertex_functionals(tower, k)
        want = mat_vec([[Fraction(x, den) for x in row] for row in rows],
                       birkhoff_cochain(d, f, k))
        got = distributions(f, tower)
        assert [repr(dv.numerator) for dv in got] == list(map(repr, want))
        assert [dv.value for dv in got] == [
            float(x) / math.sqrt(float(n)) for x, n in zip(want, norms)]
        assert [dv.exact_zero for dv in got] == [x == 0 for x in want]
    if kind != "float":
        # float differences are rounded: only an exact h o phi - h is a
        # coboundary
        assert all(dv.exact_zero for f in (cob, lift(d, cob, cob.level + 1))
                   for dv in distributions(f, tower))
