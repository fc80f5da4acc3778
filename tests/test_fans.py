"""Fan validation, Picard ranks, projectivity, and the toric Lyubeznik table."""

import json
import random
import warnings
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from invar import (
    Fan3,
    InputError,
    InputWarning,
    QMatrix,
    SearchLimitError,
    class_rank,
    euler_sum,
    is_projective,
    picard_data,
    picard_rank,
    toric_lyubeznik,
    validate_fan,
    validate_lambda,
)
from invar import fans
from invar.cli import main
from invar.fans import (
    PicardData, Wall, _cone_facets, _cramer, _dot, _eliminate, _ray_values, fm_feasible,
)
from invar.fileio import parse_fan
from invar.qlinalg import _content_free, _nullspace_int, _scaled_to_int, parse_rational
from conftest import (
    bench_workloads,
    cube_fan,
    double_cover_fan,
    nonprojective_fan,
    octant_fan,
    p3_fan,
    primitive,
    prism_fan,
    subdivided_cube,
)


def unimodular_matrix(rng: random.Random):
    """Random product of integer shears and signed permutations (det +-1)."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(rng.randint(3, 8)):
        i, j = rng.sample(range(3), 2)
        c = rng.randint(-2, 2)
        for col in range(3):
            m[i][col] += c * m[j][col]
        if rng.random() < 0.3:
            k = rng.randrange(3)
            for col in range(3):
                m[k][col] = -m[k][col]
    return m


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def apply_matrix(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(3)) for i in range(3))


def transform_fan(fan: Fan3, m) -> Fan3:
    return Fan3([apply_matrix(m, r) for r in fan.rays], fan.max_cones)


def star_subdivide(fan: Fan3, cone_index: int, weights) -> Fan3:
    """Split a simplicial cone at an interior ray (weights all positive)."""
    cone = fan.max_cones[cone_index]
    assert len(cone) == 3
    new_ray = primitive(tuple(
        sum(w * fan.rays[i][t] for w, i in zip(weights, cone)) for t in range(3)
    ))
    rays = list(fan.rays) + [new_ray]
    new_index = len(rays) - 1
    cones = [c for k, c in enumerate(fan.max_cones) if k != cone_index]
    for drop in range(3):
        kept = [cone[t] for t in range(3) if t != drop]
        cones.append(kept + [new_index])
    return Fan3(rays, cones)


class TestCramer:
    def test_identity_on_random_vectors(self, rng):
        def vec():
            return tuple(rng.randint(-50, 50) for _ in range(3))

        coplanar = 0
        for trial in range(2000):
            a, b, v = vec(), vec(), vec()
            if trial % 4 == 0:  # c in the plane of a and b
                x, y = rng.randint(-3, 3), rng.randint(-3, 3)
                c = tuple(x * ai + y * bi for ai, bi in zip(a, b))
            else:
                c = vec()
            det, ca, cb, cc = _cramer(a, b, c, v)
            assert det == _dot(a, _cross(b, c))
            assert all(det * vi == ca * ai + cb * bi + cc * ci
                       for vi, ai, bi, ci in zip(v, a, b, c)), (a, b, c, v)
            coplanar += det == 0
        assert coplanar >= 500


class TestPrimitive:
    """`Fan3` divides each ray by its content and refuses any other ray."""

    @pytest.mark.parametrize("v, expected", [
        ((2, 4, 6), (1, 2, 3)),
        ([2, 4, 6], (1, 2, 3)),
        ((0, -6, 9), (0, -2, 3)),
        ((-5, 0, 0), (-1, 0, 0)),
        ((1, 1, 1), (1, 1, 1)),
    ], ids=["tuple", "list", "negative", "axis", "primitive"])
    def test_divides_by_the_content(self, v, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InputWarning)
            assert Fan3([v], []).rays == (expected,)

    @pytest.mark.parametrize("v, message", [
        ((2, 4, 6, 8), "ray 0 must be a list of three integers"),
        ((2, 4), "ray 0 must be a list of three integers"),
        ((1.0, 2, 3), "ray 0 must be a list of three integers"),
        ((True, 0, 0), "ray 0 must be a list of three integers"),
        (("1", 0, 0), "ray 0 must be a list of three integers"),
        (5, "ray 0 must be a list of three integers"),
        ((0, 0, 0), "ray 0 is the zero vector"),
    ], ids=["four entries", "two entries", "float", "bool", "str", "int", "zero"])
    def test_refuses_anything_but_a_nonzero_integer_3_vector(self, v, message):
        with pytest.raises(InputError) as err:
            Fan3([v], [])
        assert str(err.value) == message


class TestFourierMotzkin:
    def test_simple_feasible_witness(self):
        # x >= 1, y >= 1, x + y <= 5  (as -x - y >= -5)
        witness = fm_feasible([((1, 0), 1), ((0, 1), 1), ((-1, -1), -5)], 2)
        assert witness is not None
        x, y = witness
        assert x >= 1 and y >= 1 and x + y <= 5

    def test_infeasible(self):
        assert fm_feasible([((1,), 1), ((-1,), 0)], 1) is None

    def test_witness_is_exact(self):
        witness = fm_feasible([((3,), 1), ((-3,), -1)], 1)
        assert witness == [Fraction(1, 3)]

    def test_fraction_coefficients_exact_witness(self):
        # x/2 >= 1/3, -2x/3 >= -1, y - x/4 >= 1/5.  x goes first (a tie at
        # cost -1), leaving y >= 1/5 + (2/3)/4 = 11/30 with no upper bound;
        # y = 11/30 then caps x at 2/3, its lower bound
        system = [
            ((Fraction(1, 2), 0), Fraction(1, 3)),
            ((Fraction(-2, 3), 0), -1),
            ((Fraction(-1, 4), 1), Fraction(1, 5)),
        ]
        assert fm_feasible(system, 2) == [Fraction(2, 3), Fraction(11, 30)]
        assert fm_feasible(system + [((Fraction(3, 7), 0), 1)], 2) is None

    @pytest.mark.parametrize("system", [
        [((0.5,), 1)], [((1,), 0.5)], [((True,), 1)], [((1,), False)],
    ], ids=["float-coefficient", "float-constant", "bool-coefficient", "bool-constant"])
    def test_floats_and_bools_rejected(self, system):
        with pytest.raises(InputError, match="not a rational literal"):
            fm_feasible(system, 1)


def reference_fm_feasible(inequalities, nvars):
    """Fourier-Motzkin with the witness back-substituted in Fractions: the
    elimination of `fm_feasible`, then each variable set, last eliminated
    first, to the largest lower bound, the smallest upper bound, their
    midpoint, or 0."""
    system = []
    for coeffs, const in inequalities:
        row = [parse_rational(x) for x in (*coeffs, const)]
        if len(row) != nvars + 1:
            raise InputError("inequality arity does not match the variable count")
        system.append(_content_free(_scaled_to_int(row)))
    system = list(dict.fromkeys(system))
    remaining = list(range(nvars))
    stages = []
    while remaining:
        if any(r[-1] > 0 for r in system if not any(r[j] for j in remaining)):
            return None
        system = [r for r in system if any(r[j] for j in remaining)]
        best, best_cost = None, None
        for j in remaining:
            pos = sum(1 for r in system if r[j] > 0)
            neg = sum(1 for r in system if r[j] < 0)
            cost = pos * neg - pos - neg
            if best_cost is None or cost < best_cost:
                best, best_cost = j, cost
        j = best
        stages.append((j, system))
        pos = [r for r in system if r[j] > 0]
        neg = [r for r in system if r[j] < 0]
        new = [r for r in system if r[j] == 0]
        for rp, rn in product(pos, neg):
            s, t = rp[j], -rn[j]
            new.append(_content_free([t * a + s * b for a, b in zip(rp, rn)]))
        system = list(dict.fromkeys(new))
        remaining.remove(j)
    if any(r[-1] > 0 for r in system):
        return None
    witness = [Fraction(0)] * nvars
    for j, stage_system in reversed(stages):
        lo = hi = None
        for r in stage_system:
            cj = r[j]
            if cj == 0:
                continue
            rest = sum(r[k] * witness[k] for k in range(nvars) if k != j)
            bound = Fraction(r[-1] - rest) / cj
            if cj > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is None and hi is None:
            witness[j] = Fraction(0)
        elif lo is None:
            witness[j] = hi
        elif hi is None:
            witness[j] = lo
        else:
            witness[j] = (lo + hi) / 2
    return witness


def random_system(rng, rational):
    """1-4 variables, 1-6 inequalities with small int or Fraction entries.
    Fourier-Motzkin can square the row count with each variable it
    eliminates, so the draws stay small."""
    nvars = rng.randint(1, 4)

    def entry(bound):
        x = rng.randint(-bound, bound)
        return Fraction(x, rng.randint(1, 4)) if rational else x

    rows = [(tuple(entry(3) for _ in range(nvars)), entry(4)) for _ in range(rng.randint(1, 6))]
    return rows, nvars


def _assert_witness_matches_reference(system, nvars):
    witness = fm_feasible(system, nvars)
    assert witness == reference_fm_feasible(system, nvars), system
    if witness is not None:
        assert all(type(x) is Fraction for x in witness)
        for coeffs, const in system:
            assert sum(c * x for c, x in zip(coeffs, witness)) >= const, (system, witness)
    return witness is not None


class TestWitnessAgainstReference:
    def test_random_systems(self, rng):
        verdicts = Counter()
        for trial in range(1200):
            system, nvars = random_system(rng, rational=trial % 2 == 1)
            verdicts[_assert_witness_matches_reference(system, nvars), trial % 2] += 1
        # feasible and infeasible, with int and with Fraction entries
        assert verdicts[True, 0] + verdicts[True, 1] >= 300
        assert verdicts[False, 0] + verdicts[False, 1] >= 100
        assert min(verdicts.values()) >= 50 and len(verdicts) == 4

    def test_eliminate_decides_as_fm_feasible(self, rng):
        verdicts = Counter()
        for trial in range(1200):
            system, nvars = random_system(rng, rational=trial % 2 == 1)
            rows = [_content_free(_scaled_to_int([parse_rational(x) for x in (*coeffs, const)]))
                    for coeffs, const in system]
            infeasible = _eliminate(rows, nvars) is None
            assert infeasible == (fm_feasible(system, nvars) is None), system
            verdicts[infeasible] += 1
        assert verdicts[False] >= 300 and verdicts[True] >= 100

    def test_projectivity_systems(self, rng, monkeypatch):
        eliminate = fans._eliminate
        systems = []

        def capturing(rows, nvars):
            systems.append(([(r[:-1], r[-1]) for r in rows], nvars))
            return eliminate(rows, nvars)

        monkeypatch.setattr(fans, "_eliminate", capturing)
        for build in DIFFERENTIAL_BASES.values():
            fan = build(rng)
            picard_data(fan)
            picard_data(transform_fan(fan, unimodular_matrix(rng)))
        monkeypatch.undo()
        assert len(systems) == 2 * len(DIFFERENTIAL_BASES)
        verdicts = Counter(_assert_witness_matches_reference(*call) for call in systems)
        # the twisted prism, its stars and the Picard-rank-0 fan, each twice
        assert verdicts == {True: 2 * len(DIFFERENTIAL_BASES) - 6, False: 6}


class TestEarlyStop:
    """`_eliminate` stops once no row has a variable left; the variables it
    never reaches get no stage, and `fm_feasible` gives them 0."""

    def test_benchmark_star_stops_after_five_of_nine_variables(self, monkeypatch):
        job = next(job for job in bench_workloads().fan_jobs(0) if job["id"] == "star00-picard")
        fan = Fan3(job["doc"]["rays"], job["doc"]["max_cones"])
        data, seen = _stage_sizes(monkeypatch, lambda: picard_data(fan))
        assert data == PicardData(picard_rank=6, class_rank=6, projective=True)
        [(nvars, nrows, stages)] = seen
        # a full elimination had stage sizes [14, 12, 9, 7, 2, 0, 0, 0, 0]
        assert (nvars, nrows) == (9, 21)
        assert [size for _, size in stages] == [14, 12, 9, 7, 2]

    def test_unconstrained_variables_get_no_stage(self):
        # x >= 1, x + y >= 0: x has no upper bound, so its elimination drops
        # both rows, and y, like z, which is in no row, is never reached
        rows = [(1, 0, 0, 1), (1, 1, 0, 0)]
        assert [(j, len(system)) for j, system in _eliminate(rows, 3)] == [(0, 2)]
        assert _eliminate([], 4) == []
        assert _eliminate([(0, 0, 1)], 2) is None
        system = [((1, 0, 0), 1), ((1, 1, 0), 0)]
        assert fm_feasible(system, 3) == reference_fm_feasible(system, 3) == [1, 0, 0]

    def test_random_systems_that_empty_early(self, rng):
        early = Counter()
        for trial in range(1500):
            system, nvars = random_system(rng, rational=trial % 2 == 1)
            rows = [_content_free(_scaled_to_int([parse_rational(x) for x in (*coeffs, const)]))
                    for coeffs, const in system]
            stages = _eliminate(rows, nvars)
            if stages is not None and len(stages) < nvars:
                assert _assert_witness_matches_reference(system, nvars)
                early[trial % 2] += 1
        assert min(early[0], early[1]) >= 50


class TestValidation:
    def test_p3_valid_complete(self):
        report = validate_fan(p3_fan())
        assert report.valid and report.complete
        assert len(report.walls) == 6

    def test_cube_valid_complete_non_simplicial(self):
        report = validate_fan(cube_fan())
        assert report.valid and report.complete
        assert len(report.walls) == 12

    def test_octants_valid(self):
        report = validate_fan(octant_fan())
        assert report.valid and report.complete
        assert len(report.walls) == 12

    def test_octant_deleted_incomplete(self):
        fan = octant_fan()
        broken = Fan3(fan.rays, fan.max_cones[:-1])
        report = validate_fan(broken)
        assert not report.valid
        assert any("shared by one cone" in v for v in report.violations)

    def test_non_primitive_ray(self):
        fan = p3_fan()
        rays = [(2, 0, 0)] + [r for r in fan.rays[1:]]
        with pytest.warns(InputWarning) as caught:
            scaled = Fan3(rays, fan.max_cones)
        assert [str(w.message) for w in caught] == [
            "ray 0 = [2, 0, 0] rescaled to primitive [1, 0, 0]"]
        assert scaled == fan
        assert validate_fan(scaled).valid

    def test_zero_ray(self):
        with pytest.raises(InputError) as err:
            Fan3([(1, 0, 0), (0, 0, 0)], [(0, 1)])
        assert str(err.value) == "ray 1 is the zero vector"

    @pytest.mark.parametrize("rays, cones, message", [
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 3)],
         "maximal cone 0 has a ray index out of range: 3"),
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2), (-1, 0, 1)],
         "maximal cone 1 has a ray index out of range: -1"),
        ([(1, 0, 0), 5], [(0, 1)], "ray 1 must be a list of three integers"),
        ([(1, 0, 0), (0, 1, 0, 0)], [(0, 1)], "ray 1 must be a list of three integers"),
    ], ids=["index past the end", "negative index", "int ray", "4-vector"])
    def test_refused_at_construction(self, rays, cones, message):
        with pytest.raises(InputError) as err:
            Fan3(rays, cones)
        assert str(err.value) == message

    def test_cone_with_line(self):
        fan = Fan3([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2, 3)])
        report = validate_fan(fan)
        assert not report.valid
        assert report.violations == ("maximal cone 0 contains a line",)

    def test_wedge_with_opposite_pair(self):
        # z is free, so the line is reported before the non-extremal (1,1,0)
        rays = [(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, -1)]
        report = validate_fan(Fan3(rays, [(0, 1, 2, 3, 4)]))
        assert report.violations == ("maximal cone 0 contains a line",)

    def test_two_dimensional_cone(self):
        fan = Fan3([(1, 0, 0), (0, 1, 0), (1, 1, 0)], [(0, 1, 2)])
        report = validate_fan(fan)
        assert not report.valid
        assert report.violations == ("maximal cone 0 is not 3-dimensional",)

    def test_non_extremal_generator(self):
        # (1,0,0) is interior to the cone over the square of (1,+-1,+-1)
        rays = [(1, 1, 1), (1, -1, 1), (1, 1, -1), (1, -1, -1), (1, 0, 0)]
        fan = Fan3(rays, [(0, 1, 2, 3, 4)])
        report = validate_fan(fan)
        assert not report.valid
        assert report.violations == (
            "maximal cone 0 lists non-extremal generators (rays 4)",
        )

    def test_generator_inside_a_facet(self):
        # (1,0,1) lies between (1,1,1) and (1,-1,1) on the square pyramid
        rays = [(1, 1, 1), (1, 0, 1), (1, -1, 1), (1, 1, -1), (1, -1, -1)]
        report = validate_fan(Fan3(rays, [(0, 1, 2, 3, 4)]))
        assert report.violations == (
            "maximal cone 0 lists non-extremal generators (rays 1)",
        )

    def test_overlapping_cones(self):
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
        fan = Fan3(rays, [(0, 1, 2), (0, 1, 3)])  # second cone sits inside the first
        report = validate_fan(fan)
        assert not report.valid
        assert any("common face" in v for v in report.violations)

    @pytest.mark.parametrize("rays, cones", [
        ([(1.7, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], None),
        ([(True, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], None),
        ([("1", 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], None),
        (None, [(0.9, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
        (None, [(False, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
    ], ids=["float coordinate", "bool coordinate", "str coordinate",
            "float index", "bool index"])
    def test_non_integer_input_refused(self, rays, cones):
        fan = p3_fan()
        message = ("ray 0 must be a list of three integers" if rays
                   else "maximal cone 0 has a ray index out of range: ")
        with pytest.raises(InputError) as err:
            Fan3(rays or fan.rays, cones or fan.max_cones)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("rays, cones, echo", [
        ([(1.5, 0, 0)], [[0]], "ray 0 must be a list of three integers"),
        ([("x" * 5000, 0, 0)], [[0]], "ray 0 must be a list of three integers"),
        ([(1, 0, 0)], [[0.5]], "maximal cone 0 has a ray index out of range: 0.5"),
        ([(1, 0, 0)], [["x" * 5000]],
         "maximal cone 0 has a ray index out of range: '" + "x" * 59 + "…"),
    ], ids=["short ray", "5000-char ray", "short cone", "5000-char cone"])
    def test_ill_typed_value_is_echoed_up_to_60_characters(self, rays, cones, echo):
        with pytest.raises(InputError) as err:
            Fan3(rays, cones)
        assert str(err.value) == echo

    def test_unused_ray(self):
        fan = p3_fan()
        report = validate_fan(Fan3(list(fan.rays) + [(1, 1, 0)], fan.max_cones))
        assert not report.valid
        assert any("not used" in v for v in report.violations)


class TestPicard:
    def test_p3(self):
        # support functions of dimension 4, less the 3 global linear ones
        assert picard_rank(p3_fan()) == 1

    def test_cube(self):
        assert picard_rank(cube_fan()) == 1

    def test_octants(self):
        assert picard_rank(octant_fan()) == 3

    def test_class_rank(self):
        assert class_rank(p3_fan()) == 1
        assert class_rank(cube_fan()) == 5
        assert class_rank(octant_fan()) == 3

    def test_picard_at_most_class_rank(self):
        for fan in (p3_fan(), cube_fan(), octant_fan()):
            data = picard_data(fan)
            assert 1 <= data.picard_rank <= data.class_rank

    def test_invalid_fan_refused(self):
        fan = octant_fan()
        broken = Fan3(fan.rays, fan.max_cones[:-1])
        with pytest.raises(InputError):
            picard_rank(broken)

    def test_unimodular_invariance(self, rng):
        for fan in (p3_fan(), cube_fan(), octant_fan()):
            expected = picard_rank(fan)
            for _ in range(4):
                moved = transform_fan(fan, unimodular_matrix(rng))
                assert validate_fan(moved).valid
                assert picard_rank(moved) == expected

    def test_simplicial_rank_formula(self, rng):
        # for simplicial complete fans the rank is #rays - 3
        fan = octant_fan()
        for _ in range(3):
            k = rng.randrange(len(fan.max_cones))
            weights = [rng.randint(1, 3) for _ in range(3)]
            fan = star_subdivide(fan, k, weights)
            assert validate_fan(fan).valid
            assert picard_rank(fan) == len(fan.rays) - 3


class TestProjectivity:
    def test_reference_fans_projective(self):
        assert is_projective(p3_fan())
        assert is_projective(cube_fan())
        assert is_projective(octant_fan())

    def test_subdivisions_remain_projective(self, rng):
        fan = star_subdivide(octant_fan(), 0, [1, 1, 1])
        assert is_projective(fan)

    def test_prisms(self, rng):
        for twisted in (True, False):
            for fan in (prism_fan(twisted), transform_fan(prism_fan(twisted),
                                                         unimodular_matrix(rng))):
                report = validate_fan(fan)
                assert report.valid and report.complete
                assert picard_rank(fan) == 3
                assert is_projective(fan) is not twisted

    def test_twisted_prism_has_no_lyubeznik_table(self):
        with pytest.raises(InputError, match="not projective"):
            toric_lyubeznik(prism_fan(True))


def bundle_over_p1(a: int, b: int) -> Fan3:
    """P(O + O(a) + O(b)) over P^1: Picard rank 2."""
    rays = [(1, 0, 0), (-1, a, b), (0, 1, 0), (0, 0, 1), (0, -1, -1)]
    return Fan3(rays, [(u, *pair) for u in (0, 1) for pair in combinations((2, 3, 4), 2)])


def bundle_over_p2(a: int) -> Fan3:
    """P(O + O(a)) over P^2, P^2 x P^1 for a = 0: Picard rank 2."""
    rays = [(1, 0, 0), (0, 1, 0), (-1, -1, a), (0, 0, 1), (0, 0, -1)]
    return Fan3(rays, [(*pair, f) for pair in combinations((0, 1, 2), 2) for f in (3, 4)])


def bundle_over_hirzebruch(b: int, c: int, d: int) -> Fan3:
    """A P^1-bundle over the Hirzebruch surface F_b, its base rays (1, 0),
    (0, 1), (-1, b), (0, -1) lifted with heights 0, 0, c, d: Picard rank 3."""
    rays = [(1, 0, 0), (0, 1, 0), (-1, b, c), (0, -1, d), (0, 0, 1), (0, 0, -1)]
    return Fan3(rays, [(k, (k + 1) % 4, f) for k in range(4) for f in (4, 5)])


class TestKleinschmidtSturmfels:
    """P. Kleinschmidt and B. Sturmfels, "Smooth toric varieties with small
    Picard number are projective" (Topology 30, 1991): a smooth complete
    fan of Picard rank at most 3 is projective, whatever the solver says."""

    SMOOTH = {
        "P3": (p3_fan, 1),
        "P2 x P1": (lambda: bundle_over_p2(0), 2),
        "P1 x P1 x P1": (octant_fan, 3),
        "P3 blown up at a point": (lambda: star_subdivide(p3_fan(), 0, [1, 1, 1]), 2),
        **{f"P(O + O({a}) + O({b})) over P1": (lambda a=a, b=b: bundle_over_p1(a, b), 2)
           for a, b in ((1, 0), (1, 1), (2, -1), (3, 2))},
        **{f"P(O + O({a})) over P2": (lambda a=a: bundle_over_p2(a), 2) for a in (1, -2, 3)},
        **{f"P1-bundle over F{b} with heights {c}, {d}":
           (lambda b=b, c=c, d=d: bundle_over_hirzebruch(b, c, d), 3)
           for b, c, d in ((0, 0, 0), (1, 0, 0), (2, 1, -1), (1, 3, 2))},
    }

    @staticmethod
    def determinants(fan):
        """|det| of each maximal cone's three rays."""
        assert validate_fan(fan).valid
        return {abs(_dot(a, _cross(b, c)))
                for a, b, c in ([fan.rays[i] for i in cone] for cone in fan.max_cones)}

    @pytest.mark.parametrize("name", SMOOTH)
    def test_smooth_fans_of_small_picard_rank_are_projective(self, name, rng):
        build, rank = self.SMOOTH[name]
        fan = build()
        for moved in [fan] + [transform_fan(fan, unimodular_matrix(rng)) for _ in range(3)]:
            assert all(len(cone) == 3 for cone in moved.max_cones)
            assert self.determinants(moved) == {1}
            assert picard_data(moved) == PicardData(
                picard_rank=rank, class_rank=len(fan.rays) - 3, projective=True)

    def test_the_twisted_prism_is_not_smooth(self):
        # Picard rank 3 and not projective, so some cone is not unimodular
        fan = prism_fan(True)
        assert picard_data(fan) == PicardData(picard_rank=3, class_rank=3, projective=False)
        assert self.determinants(fan) == {2, 3}


class TestToricLyubeznik:
    def test_cube_table(self):
        table = toric_lyubeznik(cube_fan())
        assert table.d == 4
        assert table.entry(4, 4) == 1
        assert sum(table.entry(p, q) for p, q in table.cells()) == 1

    def test_octants_table(self):
        table = toric_lyubeznik(octant_fan())
        assert table.entry(0, 3) == 2
        assert table.entry(2, 4) == 2
        assert table.entry(4, 4) == 1
        assert sum(table.entry(p, q) for p, q in table.cells()) == 5

    def test_p3_table(self):
        table = toric_lyubeznik(p3_fan())
        assert table.entry(4, 4) == 1
        assert sum(table.entry(p, q) for p, q in table.cells()) == 1

    def test_tables_pass_lambda_validation(self):
        for fan in (p3_fan(), cube_fan(), octant_fan()):
            table = toric_lyubeznik(fan)
            assert validate_lambda(table) == []
            assert euler_sum(table) == 1

    def test_incomplete_fan_refused(self):
        fan = octant_fan()
        broken = Fan3(fan.rays, fan.max_cones[:-1])
        with pytest.raises(InputError):
            toric_lyubeznik(broken)


# ---------------------------------------------------------------------------
# Reference oracles: cone facets from a Fourier-Motzkin transversal plane and
# a convex hull of Fraction points, the pairwise common-face check and the
# gluing system with one linear form per cone, which the integer sign tests
# and the local wall and ray-value checks replace.


def reference_cone_facets(fan: Fan3, cone_index: int):
    """(facet_ray_pairs, inward_normals, violations) of one maximal cone, in
    hull order.  A transversal plane <w, x> = 1 with w strictly positive on
    the generators exists by strong convexity; the hull of the projected
    generators gives the facet structure even for non-simplicial cones."""
    cone = fan.max_cones[cone_index]
    gens = [fan.rays[i] for i in cone]
    w = fm_feasible([(g, 1) for g in gens], 3)
    if w is None:
        return None, None, [f"maximal cone {cone_index} contains a line"]
    axis = min(range(3), key=lambda i: abs(w[i]))
    e = tuple(1 if i == axis else 0 for i in range(3))
    u = _cross(e, tuple(w))
    v = _cross(tuple(w), u)
    points = []
    for g in gens:
        h = _dot(w, g)
        points.append((Fraction(_dot(u, g), 1) / h, Fraction(_dot(v, g), 1) / h))
    hull = _hull_indices(points)
    if len(hull) != len(gens):
        extra = sorted(set(range(len(gens))) - set(hull))
        names = ", ".join(str(cone[i]) for i in extra)
        return None, None, [
            f"maximal cone {cone_index} lists non-extremal generators (rays {names})"
        ]
    pairs = []
    normals = []
    for a in range(len(hull)):
        i, j = hull[a], hull[(a + 1) % len(hull)]
        n = _cross(gens[i], gens[j])
        if any(_dot(n, g) < 0 for g in gens):
            n = tuple(-x for x in n)
        if any(_dot(n, g) < 0 for g in gens):
            return None, None, [f"maximal cone {cone_index} is not convex"]
        pairs.append(tuple(sorted((cone[i], cone[j]))))
        normals.append(primitive(n))
    return pairs, tuple(normals), []


def _hull_indices(points) -> list[int]:
    """Indices of the convex hull vertices of 2-d points, counterclockwise."""
    order = sorted(range(len(points)), key=lambda i: points[i])

    def turn(o, a, b):
        (ox, oy), (ax, ay), (bx, by) = points[o], points[a], points[b]
        return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)

    lower: list[int] = []
    for i in order:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], i) <= 0:
            lower.pop()
        lower.append(i)
    upper: list[int] = []
    for i in reversed(order):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], i) <= 0:
            upper.pop()
        upper.append(i)
    return lower[:-1] + upper[:-1]


def _intersection_rays(normals_a, normals_b):
    """Extremal rays of the cone cut out by both inward-normal systems."""
    stacked = list(normals_a) + list(normals_b)
    found = {}
    for na, nb in combinations(stacked, 2):
        r = _cross(na, nb)
        if r == (0, 0, 0):
            continue
        for cand in (r, tuple(-x for x in r)):
            if all(_dot(n, cand) >= 0 for n in stacked):
                found[primitive(cand)] = None
    return list(found)


def _meet_in_common_face(fan, ci, cj, facet_normals) -> bool:
    inter = _intersection_rays(facet_normals[ci], facet_normals[cj])
    for this, other in ((ci, cj), (cj, ci)):
        zero_set = [n for n in facet_normals[this] if all(_dot(n, r) == 0 for r in inter)]
        gens = [fan.rays[i] for i in fan.max_cones[this]]
        for g in gens:
            if all(_dot(n, g) == 0 for n in zero_set) and any(
                _dot(n, g) < 0 for n in facet_normals[other]
            ):
                return False
    return True


def reference_validation(fan):
    """(valid, walls, facet_normals): every pair of cones meets in a common
    face and every facet lies in exactly two cones."""
    cones = fan.max_cones
    if len(set(cones)) != len(cones) or any(
        QMatrix([fan.rays[i] for i in cone]).rank() != 3 for cone in cones
    ):
        return False, None, None
    facets = [reference_cone_facets(fan, k) for k in range(len(cones))]
    if any(errs for _, _, errs in facets):
        return False, None, None
    normals = tuple(n for _, n, _ in facets)
    for ci, cj in combinations(range(len(cones)), 2):
        if not _meet_in_common_face(fan, ci, cj, normals):
            return False, None, normals
    incidence = {}
    for k, (pairs, _, _) in enumerate(facets):
        for pair in pairs:
            incidence.setdefault(pair, []).append(k)
    if any(len(ks) != 2 for ks in incidence.values()):
        return False, None, normals
    return True, tuple(Wall(tuple(incidence[p]), p) for p in sorted(incidence)), normals


def reference_gluing(fan, walls):
    """(support function space dimension, projective) from one linear form
    per cone, glued on each wall's rays; strict convexity asked across every
    wall in both directions at every off-wall ray."""
    ncols = 3 * len(fan.max_cones)
    rows = []
    for wall in walls:
        a, b = wall.cones
        for i in wall.rays:
            row = [0] * ncols
            for t in range(3):
                row[3 * a + t] = fan.rays[i][t]
                row[3 * b + t] = -fan.rays[i][t]
            rows.append(row)
    basis = _nullspace_int(rows, ncols)
    inequalities = []
    for wall in walls:
        for near, far in (wall.cones, wall.cones[::-1]):
            for i in fan.max_cones[far]:
                if i not in wall.rays:
                    v = fan.rays[i]
                    inequalities.append((tuple(
                        sum(v[t] * (vec[3 * near + t] - vec[3 * far + t]) for t in range(3))
                        for vec in basis
                    ), 1))
    return len(basis), fm_feasible(inequalities, len(basis)) is not None


def _stars(fan, rng, steps):
    for _ in range(steps):
        k = rng.choice([k for k, c in enumerate(fan.max_cones) if len(c) == 3])
        fan = star_subdivide(fan, k, [rng.randint(1, 3) for _ in range(3)])
    return fan


DIFFERENTIAL_BASES = {
    "p3": lambda rng: p3_fan(),
    "cube": lambda rng: cube_fan(),
    "octants": lambda rng: octant_fan(),
    "prism": lambda rng: prism_fan(False),
    "twisted prism": lambda rng: prism_fan(True),
    "subdivided cube k=1": lambda rng: subdivided_cube(1),
    "subdivided cube k=2": lambda rng: subdivided_cube(2),
    "stars on octants": lambda rng: _stars(octant_fan(), rng, 4),
    "stars on twisted prism": lambda rng: _stars(prism_fan(True), rng, 3),
    "picard rank 0": lambda rng: nonprojective_fan(),
}


def _assert_matches_reference(fan):
    report = validate_fan(fan)
    valid, walls, normals = reference_validation(fan)
    assert report.valid is valid
    if valid:
        assert report.walls == walls
        # hull order started at the Fourier-Motzkin witness; compare as sets
        assert [set(ns) for ns in report.facet_normals] == [set(ns) for ns in normals]
        dim, projective = reference_gluing(fan, walls)
        assert picard_rank(fan) == dim - 3
        assert is_projective(fan) is projective
    return valid


class TestAgainstPairwiseReference:
    @pytest.mark.parametrize("name", DIFFERENTIAL_BASES)
    def test_valid_fans(self, name, rng):
        fan = DIFFERENTIAL_BASES[name](rng)
        assert _assert_matches_reference(fan)
        assert _assert_matches_reference(transform_fan(fan, unimodular_matrix(rng)))

    @pytest.mark.parametrize("name", DIFFERENTIAL_BASES)
    def test_broken_fans(self, name, rng):
        fan = DIFFERENTIAL_BASES[name](rng)
        cones = list(fan.max_cones)
        assert not _assert_matches_reference(Fan3(fan.rays, cones[:-1]))
        assert not _assert_matches_reference(Fan3(fan.rays, cones + [cones[0]]))
        extra = rng.sample(range(len(fan.rays)), 3)
        assert not _assert_matches_reference(Fan3(fan.rays, cones + [extra]))

    def test_overlapping_pair_and_double_cover(self):
        overlap = Fan3([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], [(0, 1, 2), (0, 1, 3)])
        for fan in (overlap, double_cover_fan()):
            assert not _assert_matches_reference(fan)


# ---------------------------------------------------------------------------
# Reference oracles: the dense basis of support functions and the wall rows
# zipped from it, which the sparse values on the free rays replace.


def reference_support_functions(fan: Fan3) -> list[tuple[int, ...]]:
    """Integer basis of the support functions, as their values on the rays.

    One Cramer equation per ray of a cone beyond its first three, with the
    rays in lexicographic order as columns; one primitive nullspace vector
    per free column."""
    n = len(fan.rays)
    col = {i: c for c, i in enumerate(sorted(range(n), key=fan.rays.__getitem__))}
    rows = []
    for cone in fan.max_cones:
        basis = cone[:3]
        for v in cone[3:]:
            det, *coeffs = _cramer(*(fan.rays[i] for i in basis), fan.rays[v])
            row = [0] * n
            row[col[v]] = det
            for i, c in zip(basis, coeffs):
                row[col[i]] = -c
            rows.append(row)
    return [tuple(vec[col[i]] for i in range(n)) for vec in _nullspace_int(rows, n)]


def reference_strictly_convex(fan: Fan3, report, basis) -> bool:
    """Whether some combination of `basis` is a strictly convex support
    function: per wall, the far cone's first off-wall ray v, found by a scan,
    must lie strictly below the near cone's form, with every basis vector's
    value on the four rays zipped into the row.

    The global linear functions stay in `basis`: they add 0 to every row, so
    the feasible set is a cylinder along them, and its projections stay
    small.  Pinning three ray values to 0 instead drops three variables but
    cuts the cylinder to a slice; on the star subdivisions of the octant fan
    in `scripts/fan_scale.py`, that made the elimination thousands of times
    slower."""
    rays = fan.rays
    values = list(zip(*basis))
    rows = []
    for wall in report.walls:
        near, far = (fan.max_cones[k] for k in wall.cones)
        i, j = wall.rays
        w = next(r for r in near if r != i and r != j)
        v = next(r for r in far if r != i and r != j)
        det, ca, cb, cc = _cramer(rays[i], rays[j], rays[w], rays[v])
        if det < 0:
            det, ca, cb, cc = -det, -ca, -cb, -cc
        rows.append((*_content_free([
            ca * x + cb * y + cc * z - det * t
            for x, y, z, t in zip(values[i], values[j], values[w], values[v])
        ]), 1))
    return fans._eliminate(rows, len(basis)) is not None


def _stage_sizes(monkeypatch, call):
    """call()'s result and, per `_eliminate` it makes, its variable count,
    row count and (variable, rows) sizes of its stages, or None."""
    eliminate = fans._eliminate
    seen = []

    def capturing(rows, nvars):
        rows = list(rows)
        stages = eliminate(rows, nvars)
        seen.append((nvars, len(rows),
                     None if stages is None else [(j, len(system)) for j, system in stages]))
        return stages

    with monkeypatch.context() as m:
        m.setattr(fans, "_eliminate", capturing)
        result = call()
    return result, seen


def _assert_free_rays_match_dense_basis(fan, monkeypatch):
    report = validate_fan(fan)
    basis = reference_support_functions(fan)
    nfree, values = _ray_values(fan)
    # unknown k is basis vector k times a positive factor
    assert nfree == len(basis)
    for k, vec in enumerate(basis):
        dense = [dict(pairs).get(k, 0) for pairs in values]
        g = gcd(*dense)
        assert g > 0 and tuple(x // g for x in dense) == vec
    data, free_stages = _stage_sizes(monkeypatch, lambda: picard_data(fan))
    projective, dense_stages = _stage_sizes(
        monkeypatch, lambda: reference_strictly_convex(fan, report, basis))
    assert data.picard_rank == len(basis) - 3 == picard_rank(fan)
    assert data.projective is projective is is_projective(fan)
    assert free_stages == dense_stages and len(free_stages) == 1
    return data


def _workload_fans(seeds):
    """The fan of every fans job of the benchmark, in its job's coordinates."""
    workloads = bench_workloads()
    return [Fan3(job["doc"]["rays"], job["doc"]["max_cones"])
            for seed in seeds for job in workloads.fan_jobs(seed)]


class TestFreeRaysAgainstDenseBasis:
    """`_ray_values` and `_strictly_convex` against the dense basis and the
    zipped wall rows: the same Picard rank, projectivity verdict and
    elimination stage sizes."""

    CONFTEST_FANS = {
        "p3": p3_fan, "cube": cube_fan, "octants": octant_fan,
        "prism": lambda: prism_fan(False), "twisted prism": lambda: prism_fan(True),
        "subdivided cube k=1": lambda: subdivided_cube(1),
        "subdivided cube k=2": lambda: subdivided_cube(2),
        "picard rank 0": nonprojective_fan,
    }

    @pytest.mark.parametrize("name", CONFTEST_FANS)
    def test_conftest_fans_and_their_moves(self, name, rng, monkeypatch):
        fan = self.CONFTEST_FANS[name]()
        expected = _assert_free_rays_match_dense_basis(fan, monkeypatch)
        for _ in range(3):
            moved = transform_fan(fan, unimodular_matrix(rng))
            assert _assert_free_rays_match_dense_basis(moved, monkeypatch) == expected

    def test_benchmark_fans(self, monkeypatch):
        corpus = _workload_fans((0, 1, 2))
        verdicts = Counter(_assert_free_rays_match_dense_basis(fan, monkeypatch).projective
                           for fan in corpus)
        # every benchmark fan is projective
        assert len(corpus) == 3 * 61 and verdicts == {True: 3 * 61}

    def test_star_subdivisions(self, rng, monkeypatch):
        for steps in (1, 3, 6, 10):
            for base in (octant_fan(), p3_fan(), prism_fan(True)):
                fan = _stars(base, rng, steps)
                _assert_free_rays_match_dense_basis(fan, monkeypatch)
                _assert_free_rays_match_dense_basis(
                    transform_fan(fan, unimodular_matrix(rng)), monkeypatch)


def _box_ray(rng, half_space=None):
    """A random primitive ray with coordinates up to 5, optionally strictly
    inside the half-space <half_space, x> > 0."""
    while True:
        v = tuple(rng.randint(-5, 5) for _ in range(3))
        if v != (0, 0, 0) and (half_space is None or _dot(half_space, v) > 0):
            return primitive(v)


def random_cone(rng, kind):
    """3 to 8 distinct primitive generators of a cone, 3-dimensional unless
    the kind is "flat".  Coordinates are up to 5 except for "flat": "box"
    anywhere, "pointed" in an open half-space, "non-extremal" a pointed cone
    plus positive sums of two or three of its generators (on a facet or
    inside), "opposite" with a pair of opposite generators, "flat" in the
    plane spanned by two box rays, with an opposite (collinear) pair forced
    in about half the draws."""
    while True:
        m = rng.randint(3, 8)
        if kind == "flat":
            u, v = _box_ray(rng), _box_ray(rng)
            if _cross(u, v) == (0, 0, 0):
                continue
            gens = []
            while len(gens) < m:
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                if a or b:
                    gens.append(primitive(tuple(a * x + b * y for x, y in zip(u, v))))
            if rng.random() < 0.5:
                gens[-1] = tuple(-x for x in gens[0])
        elif kind == "box":
            gens = [_box_ray(rng) for _ in range(m)]
        elif kind == "opposite":
            g = _box_ray(rng)
            gens = [g, tuple(-x for x in g)] + [_box_ray(rng) for _ in range(m - 2)]
        else:
            d = _box_ray(rng)
            gens = [_box_ray(rng, d) for _ in range(m)]
            if kind == "non-extremal":
                for _ in range(rng.randint(1, 2)):
                    extra = primitive(tuple(map(sum, zip(*rng.sample(gens, rng.randint(2, 3))))))
                    if max(map(abs, extra)) <= 5:
                        gens.insert(rng.randint(0, len(gens)), extra)
        if len(set(gens)) == len(gens) and (QMatrix(gens).rank() == 3) != (kind == "flat"):
            return gens


def _verdict(fan, errs):
    """Classify a cone: "facets", "line", or where its non-extremal generators lie."""
    if not errs:
        return "facets"
    if errs[0].endswith("contains a line"):
        return "line"
    listed = {int(i) for i in errs[0].split("(rays ")[1].rstrip(")").split(", ")}
    hull = Fan3(fan.rays, [[i for i in fan.max_cones[0] if i not in listed]])
    _, normals, _ = reference_cone_facets(hull, 0)
    on_facet = any(_dot(n, fan.rays[i]) == 0 for n in normals for i in listed)
    return "non-extremal on a facet" if on_facet else "non-extremal inside"


class TestConeFacetsAgainstHull:
    def test_random_cones(self, rng):
        verdicts = Counter()
        for trial in range(2000):
            kind = ("box", "pointed", "non-extremal", "opposite")[trial % 4]
            gens = random_cone(rng, kind)
            fan = Fan3(gens, [range(len(gens))])
            pairs, normals, errs = _cone_facets(fan, 0)
            ref_pairs, ref_normals, ref_errs = reference_cone_facets(fan, 0)
            assert errs == ref_errs, gens
            if not errs:
                assert pairs == sorted(pairs), gens
                assert dict(zip(pairs, normals)) == dict(zip(ref_pairs, ref_normals)), gens
            verdicts[_verdict(fan, errs)] += 1
            verdicts["three generators"] += len(gens) == 3
        # three generators take the determinant path, more the sign tests
        assert verdicts.pop("three generators") >= 200
        assert min(verdicts.values()) >= 100 and len(verdicts) == 4

    def test_flat_cones(self, rng):
        expected = ("maximal cone 0 is not 3-dimensional",)
        opposite = three = 0
        for _ in range(300):
            gens = random_cone(rng, "flat")
            fan = Fan3(gens, [range(len(gens))])
            assert validate_fan(fan).violations == expected, gens
            assert _cone_facets(fan, 0) == (None, None, list(expected)), gens
            assert reference_validation(fan)[0] is False
            opposite += any(tuple(-x for x in g) in gens for g in gens)
            three += len(gens) == 3
        assert opposite >= 100 and 300 - opposite >= 50
        assert three >= 30

    def test_negative_determinant(self):
        # (a x b) . c = (-2, -2, 8) . (1, 1, -3) = -28: every normal is the
        # negated cross product, made primitive
        fan = Fan3([(3, 1, 1), (1, 3, 1), (1, 1, -3)], [(0, 1, 2)])
        expected = ([(0, 1), (0, 2), (1, 2)], ((1, 1, -4), (-2, 5, 1), (5, -2, 1)), [])
        assert _cone_facets(fan, 0) == expected
        ref_pairs, ref_normals, _ = reference_cone_facets(fan, 0)
        assert dict(zip(ref_pairs, ref_normals)) == dict(zip(*expected[:2]))


OVERLAP_VIOLATIONS = (
    "maximal cones 0 and 1 do not intersect in a common face: both lie on one side "
    "of the wall spanned by rays 0 and 1",
    "wall spanned by rays 0 and 2 is shared by one cone only",
    "wall spanned by rays 0 and 3 is shared by one cone only",
    "wall spanned by rays 1 and 2 is shared by one cone only",
    "wall spanned by rays 1 and 3 is shared by one cone only",
)
DOUBLE_COVER_VIOLATIONS = (
    "maximal cones 0, 8 do not intersect in common faces: "
    "each contains the direction (1, 1, 1)",
)


class TestDiagnostics:
    def test_overlapping_pair_found_at_a_wall(self):
        fan = Fan3([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], [(0, 1, 2), (0, 1, 3)])
        report = validate_fan(fan)
        assert report.violations == OVERLAP_VIOLATIONS
        assert report.walls == ()
        assert not report.complete

    def test_double_cover_found_by_degree(self):
        fan = double_cover_fan()
        report = validate_fan(fan)
        assert report.violations == DOUBLE_COVER_VIOLATIONS
        assert report.walls == ()
        assert not report.complete
        # every facet lies in two cones, on opposite sides of its plane
        incidence = {}
        for k in range(len(fan.max_cones)):
            pairs, normals, _ = _cone_facets(fan, k)
            for pair, n in zip(pairs, normals):
                incidence.setdefault(pair, []).append(n)
        assert len(incidence) == 15
        assert all(len(ns) == 2 and ns[0] == tuple(-x for x in ns[1])
                   for ns in incidence.values())


def _fan_file(tmp_path, fan):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"rays": [list(r) for r in fan.rays],
                                "max_cones": [list(c) for c in fan.max_cones]}))
    return str(path)


CONFTEST_FANS = {
    "p3": p3_fan, "cube": cube_fan, "nonprojective": nonprojective_fan, "octants": octant_fan,
    "prism": lambda: prism_fan(False), "twisted prism": lambda: prism_fan(True),
    "subdivided cube": lambda: subdivided_cube(1), "double cover": double_cover_fan,
}


def _outcome(call, fan):
    """call(fan), or the text of the InputError it raises."""
    try:
        return call(fan)
    except InputError as exc:
        return str(exc)


def _warned(make):
    """make()'s value and the texts of the InputWarnings it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = make()
    return value, [str(w.message) for w in caught if w.category is InputWarning]


class TestRescaledRays:
    """`Fan3` makes its rays primitive, so the library and the file reader
    give one fan, one warning per rescaled ray and one answer."""

    def test_warns_in_ray_order_with_the_vector_before_and_after(self):
        fan, texts = _warned(lambda: Fan3([(0, 0, 3), (1, 0, 0), (-4, 6, 8)], [(0, 1, 2)]))
        assert fan.rays == ((0, 0, 1), (1, 0, 0), (-2, 3, 4))
        assert texts == ["ray 0 = [0, 0, 3] rescaled to primitive [0, 0, 1]",
                         "ray 2 = [-4, 6, 8] rescaled to primitive [-2, 3, 4]"]

    def test_a_refusal_comes_before_any_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="out of range"):
                Fan3([(2, 0, 0), (0, 1, 0)], [(0, 2)])

    @pytest.mark.parametrize("name", sorted(CONFTEST_FANS))
    def test_both_doors_agree_on_scaled_rays(self, name):
        fan = CONFTEST_FANS[name]()
        rng = random.Random(name)
        factors = [rng.randint(1, 4) for _ in fan.rays]
        if all(f == 1 for f in factors):
            factors[0] = 2
        scaled = [[f * x for x in ray] for f, ray in zip(factors, fan.rays)]
        doc = {"rays": scaled, "max_cones": [list(c) for c in fan.max_cones]}
        built, warned = _warned(lambda: Fan3(scaled, fan.max_cones))
        read, read_warned = _warned(lambda: parse_fan(doc))
        assert built == read == fan
        assert warned == read_warned
        assert len(warned) == sum(f > 1 for f in factors)
        assert validate_fan(built) == validate_fan(fan)
        assert _outcome(picard_data, built) == _outcome(picard_data, fan)


class TestOneValidationPerCall:
    @pytest.mark.parametrize("call", [
        lambda fan, path: picard_data(fan),
        lambda fan, path: toric_lyubeznik(fan),
        lambda fan, path: is_projective(fan),
        lambda fan, path: main(["fan", "picard", "--input", path]),
        lambda fan, path: main(["fan", "projective", "--input", path]),
        lambda fan, path: main(["fan", "lyubeznik", "--input", path]),
    ], ids=["picard_data", "toric_lyubeznik", "is_projective",
            "cli picard", "cli projective", "cli lyubeznik"])
    def test_analyze_runs_once(self, call, tmp_path, monkeypatch, capsys):
        fan = octant_fan()
        path = _fan_file(tmp_path, fan)
        calls = []
        validate = fans.validate_fan

        def counting(f):
            calls.append(f)
            return validate(f)

        monkeypatch.setattr(fans, "validate_fan", counting)
        call(fan, path)
        assert capsys.readouterr().err == ""
        assert calls == [fan]


class TestFourierMotzkinCalls:
    @pytest.mark.parametrize("call, expected", [
        (validate_fan, 0), (picard_data, 1), (is_projective, 1),
    ], ids=["validate_fan", "picard_data", "is_projective"])
    def test_only_projectivity_eliminates(self, call, expected, monkeypatch):
        eliminate = fans._eliminate
        for fan in (p3_fan(), cube_fan(), prism_fan(True), subdivided_cube(2)):
            calls = []

            def counting(rows, nvars):
                calls.append(nvars)
                return eliminate(rows, nvars)

            monkeypatch.setattr(fans, "_eliminate", counting)
            call(fan)
            assert len(calls) == expected


class TestEliminationLimit:
    """The k=2 subdivided cube's largest elimination stage combines 8 pairs
    of rows."""

    LIMIT_MESSAGE = ("Fourier-Motzkin elimination would combine 8 pairs of rows in one "
                     "stage, over the limit of 5")

    def test_library_raises_over_the_limit(self, monkeypatch):
        fan = subdivided_cube(2)
        monkeypatch.setattr(fans, "_FM_PAIR_LIMIT", 8)
        assert picard_data(fan).projective
        monkeypatch.setattr(fans, "_FM_PAIR_LIMIT", 5)
        for call in (picard_data, is_projective, toric_lyubeznik):
            with pytest.raises(SearchLimitError) as caught:
                call(fan)
            assert str(caught.value) == self.LIMIT_MESSAGE
        assert validate_fan(fan).valid

    @pytest.mark.parametrize("command", ["picard", "projective", "lyubeznik"])
    def test_cli_exits_4(self, command, tmp_path, monkeypatch, capsys):
        path = _fan_file(tmp_path, subdivided_cube(2))
        monkeypatch.setattr(fans, "_FM_PAIR_LIMIT", 5)
        assert main(["fan", command, "--input", path]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {self.LIMIT_MESSAGE}\n"


class TestPicardRankZero:
    """Fulton's fan: complete, yet every support function is linear."""

    def test_valid_with_twelve_walls(self):
        report = validate_fan(nonprojective_fan())
        assert report.valid and report.complete
        assert len(report.walls) == 12

    def test_picard_data(self):
        fan = nonprojective_fan()
        assert picard_data(fan) == PicardData(picard_rank=0, class_rank=5, projective=False)
        assert picard_rank(fan) == 0
        assert not is_projective(fan)

    def test_cli_lyubeznik_exits_2(self, tmp_path, capsys):
        path = _fan_file(tmp_path, nonprojective_fan())
        assert main(["fan", "lyubeznik", "--input", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: fan is not projective: no strictly convex support function "
                       "exists, so no Lyubeznik table is emitted\n")
