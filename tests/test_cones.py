import warnings
from pathlib import Path

import numpy as np
import pytest

from lmpkit import cones
from lmpkit.cones import (
    PolyCone,
    approx_separate,
    intersection_nonempty,
    random_family,
)
from lmpkit.errors import InputError, NumericalError
from lmpkit.io import load_cone_family
from lmpkit.lp import solve_standard_form
from oracles import intersection_by_sampling, margin_by_box_lp


FAMILY_449 = Path(__file__).parent / "data" / "cone_family_449.json"


def halfspace(direction, open=True, x0=None):
    return PolyCone(generators=np.array([direction], dtype=float), open=open, x0=x0)


class TestSimplexCore:
    def test_basic_lp(self):
        # min -x1 - x2 s.t. x1 + x2 + s = 1
        res = solve_standard_form(
            np.array([-1.0, -1.0, 0.0]),
            np.array([[1.0, 1.0, 1.0]]),
            np.array([1.0]),
            [2],
        )
        assert res.objective == pytest.approx(-1.0, abs=1e-12)

    def test_infeasible(self):
        # no column can start row 0, and there is no phase 1 to find one
        with pytest.raises(NumericalError, match="not unit columns"):
            solve_standard_form(np.array([1.0]), np.array([[0.0]]), np.array([1.0]), [0])

    def test_unbounded(self):
        # min -x1 with a vacuous equality row
        with pytest.raises(NumericalError, match="unbounded"):
            solve_standard_form(
                np.array([-1.0, 0.0]),
                np.array([[0.0, 1.0]]),
                np.array([0.0]),
                [1],
            )


class TestIntersection:
    def test_disjoint_halfspaces(self):
        closed = halfspace([1.0, 0.0], open=False)
        open_cone = halfspace([-1.0, 0.0], x0=np.array([-1.0, 0.0]))
        result = intersection_nonempty([closed, open_cone])
        assert not result.nonempty
        assert result.margin <= 0.0

    def test_same_halfspace(self):
        closed = halfspace([1.0, 0.0], open=False)
        open_cone = halfspace([1.0, 0.0], x0=np.array([1.0, 0.0]))
        result = intersection_nonempty([closed, open_cone])
        assert result.nonempty
        assert result.witness is not None
        assert float(result.witness @ np.array([1.0, 0.0])) > 0.0

    def test_degenerate_input(self):
        """A cone without generators is refused when it is made, so that
        neither test ever meets one."""
        for generators, x0 in [(np.zeros((0, 2)), None), ([], None), (np.zeros((0, 2)), [1.0, 0.0])]:
            with pytest.raises(InputError, match="^degenerate input: a cone has no generators$"):
                PolyCone(generators=generators, open=True, x0=x0)

    def test_at_most_one_closed(self):
        with pytest.raises(InputError):
            intersection_nonempty(
                [halfspace([1.0, 0.0], open=False), halfspace([0.0, 1.0], open=False)]
            )

    def test_against_sampling_oracle(self):
        agree = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            family = random_family(rng, dim=4)
            result = intersection_nonempty(family)
            sampled = intersection_by_sampling(family, nsamples=1_000_000, seed=seed)
            if result.nonempty == sampled:
                agree += 1
            else:
                # the sampler resolves only reasonably fat intersections
                assert abs(result.margin) <= 5e-2
        assert agree >= 45


def test_family_449_reaches_the_true_margin(monkeypatch):
    """Family 449 of the benchmark's seed-0 batch: a simplex that reads x
    off its running tableau, not a fresh solve of the basis, stops there at
    margin 0.060280, slightly infeasible.  The reference value is HiGHS's
    optimum of the primal margin LP; the margin here comes from its dual."""
    family = load_cone_family(str(FAMILY_449))
    solved = []

    def spy(c, A, b, basis):
        result = solve_standard_form(c, A, b, basis)
        solved.append((A, b, result))
        return result

    monkeypatch.setattr(cones, "solve_standard_form", spy)
    result = intersection_nonempty(family)
    assert abs(result.margin - 0.06106540398710622) <= 1e-9
    pairings = np.concatenate([c.generators @ result.witness for c in family if c.open])
    assert pairings.min() >= result.margin - 1e-12
    (A, b, lp_result), = solved
    assert np.max(np.abs(A @ lp_result.x - b)) <= 1e-12


def assert_witness_feasible(family, result):
    """<g, x> >= margin on open generators, >= 0 on closed ones, and
    |x|_inf <= 1, each within 1e-12."""
    x = result.witness
    for c in family:
        assert (c.generators @ x).min() >= (result.margin if c.open else 0.0) - 1e-12
    assert np.abs(x).max() <= 1.0 + 1e-12


@pytest.mark.parametrize("seed", range(0, 200, 25))
def test_dual_margin_matches_the_primal_box_lp(seed):
    """The margin, read as the optimum of LP(w), against the primal margin
    LP in the unit box; the witness, read from LP(w)'s multipliers, is
    feasible there; and a separating family's objective is |sum h_i|_1."""
    families = [random_family(np.random.default_rng(s)) for s in range(seed, seed + 25)]
    if seed == 0:
        families.append(load_cone_family(str(FAMILY_449)))
    for family in families:
        result = intersection_nonempty(family)
        margin, _ = margin_by_box_lp(family)
        assert abs(result.margin - margin) <= 1e-12
        if result.nonempty:
            assert_witness_feasible(family, result)
        sep = approx_separate(family, eps=1e-6)
        if sep.separated:
            assert abs(sep.objective - np.abs(np.sum(sep.h, axis=0)).sum()) <= 1e-12


class TestSeparation:
    def test_opposite_rays_cancel(self):
        closed = halfspace([1.0, 0.0], open=False)
        open_cone = halfspace([-1.0, 0.0], x0=np.array([-1.0, 0.0]))
        result = approx_separate([closed, open_cone], eps=1e-6)
        assert result.separated
        assert result.objective <= 1e-12
        h0, h1 = result.h
        assert float(np.linalg.norm(h0 + h1, ord=1)) <= 1e-9
        assert float(np.array([-1.0, 0.0]) @ h1) == pytest.approx(1.0, abs=1e-9)

    def test_identical_rays_cannot_separate(self):
        closed = halfspace([1.0, 0.0], open=False)
        open_cone = halfspace([1.0, 0.0], x0=np.array([1.0, 0.0]))
        result = approx_separate([closed, open_cone], eps=1e-6)
        assert not result.separated
        assert result.objective >= 1.0 - 1e-9

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -1e-6])
    def test_eps_that_is_not_positive_and_finite_is_refused(self, eps):
        closed = halfspace([1.0, 0.0], open=False)
        open_cone = halfspace([-1.0, 0.0], x0=np.array([-1.0, 0.0]))
        with pytest.raises(InputError, match="eps must be positive and finite"):
            approx_separate([closed, open_cone], eps=eps)

    def test_missing_interior_point(self):
        closed = halfspace([1.0, 0.0], open=False)
        nameless = PolyCone(generators=np.array([[0.0, 1.0]]), open=True)
        with pytest.raises(InputError):
            approx_separate([closed, nameless], eps=1e-6)

    def test_two_cone_specialisation_matches_general_path(self):
        # with one open cone the family LP reduces to the two-cone statement
        rng = np.random.default_rng(2)
        for _ in range(20):
            x0 = rng.normal(size=3)
            x0 /= np.linalg.norm(x0)
            gens = []
            while len(gens) < 3:
                g = rng.normal(size=3)
                if g @ x0 > 0.1 * np.linalg.norm(g):
                    gens.append(g)
            open_cone = PolyCone(generators=np.array(gens), open=True, x0=x0)
            closed = PolyCone(generators=rng.normal(size=(3, 3)), open=False)
            family = [closed, open_cone]
            inter = intersection_nonempty(family)
            sep = approx_separate(family, eps=1e-6)
            if abs(inter.margin) > 1e-9:
                assert sep.separated == (not inter.nonempty)

    def test_homogeneity_of_verdicts(self):
        rng = np.random.default_rng(4)
        for seed in range(10):
            family = random_family(np.random.default_rng(seed))
            scale = float(rng.uniform(0.1, 10.0))
            scaled = [
                PolyCone(generators=scale * np.asarray(c.generators), open=c.open, x0=c.x0)
                for c in family
            ]
            a = intersection_nonempty(family)
            b = intersection_nonempty(scaled)
            assert a.nonempty == b.nonempty
            sa = approx_separate(family, eps=1e-6)
            sb = approx_separate(scaled, eps=1e-6)
            assert sa.separated == sb.separated

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6, 1e9])
    def test_verdict_does_not_depend_on_the_scale_of_x0(self, scale):
        # the cones meet with margin 0.1 at every scale, so no scale of x0
        # may separate them
        open_cone = halfspace([1.0, 0.1], x0=scale * np.array([1.0, 0.1]))
        closed = halfspace([-1.0, 0.0], open=False)
        assert intersection_nonempty([closed, open_cone]).nonempty
        result = approx_separate([closed, open_cone], eps=1e-6)
        assert not result.separated
        assert result.objective == pytest.approx(0.1 / np.hypot(1.0, 0.1), rel=1e-12)

    def test_generators_whose_pairing_overflows(self):
        # <g, x0> = 4.5e308 overflows; with the rows scaled to a largest entry
        # of 1 the optimum is |(0, 1, 1)|_1 / sqrt(3), at h_0 = (-1, 0, 0) / sqrt(3)
        open_cone = halfspace([1.5e308] * 3, x0=np.ones(3))
        closed = halfspace([-1.0, 0.0, 0.0], open=False)
        with np.errstate(over="ignore"):  # the margin, 3e308, overflows to inf
            assert intersection_nonempty([closed, open_cone]).nonempty
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = approx_separate([closed, open_cone], eps=1e-6)
        assert not result.separated
        assert result.objective == pytest.approx(2.0 / np.sqrt(3.0), rel=1e-12)

    def test_coefficients_are_those_of_the_generators_as_given(self):
        # LP(w) runs on rows scaled to a largest entry of 1
        closed = halfspace([-2.0, 0.0], open=False)
        open_cone = halfspace([1.0e300, 0.0], x0=np.array([1.0, 0.0]))
        result = approx_separate([closed, open_cone], eps=1e-6)
        assert result.separated
        (c0,), (c1,) = result.coefficients
        assert c1 == pytest.approx(1e-300, rel=1e-12)
        assert c0 == pytest.approx(0.5, rel=1e-12)
        np.testing.assert_allclose(result.h, [[-1.0, 0.0], [1.0, 0.0]], rtol=1e-12)


class TestConstructionInvariants:
    def test_x0_strict_interiority_enforced(self):
        with pytest.raises(InputError):
            PolyCone(
                generators=np.array([[1.0, 0.0], [0.0, 1.0]]),
                open=True,
                x0=np.array([1.0, 0.0]),
            )

    def test_zero_generator_rejected(self):
        with pytest.raises(InputError):
            PolyCone(generators=np.array([[0.0, 0.0]]), open=True)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_generator_rejected(self, value):
        # a NaN generator used to reach the simplex, which then failed its
        # fresh check after refreshes
        with pytest.raises(InputError, match="generators must be finite"):
            PolyCone(generators=np.array([[1.0, 0.0], [value, 1.0]]), open=True)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_x0_rejected(self, value):
        # a NaN x0 used to pass the interior test, so the family read as
        # nonempty and approx_separate raised NumericalError
        with pytest.raises(InputError, match="x0 must be finite"):
            PolyCone(generators=np.array([[1.0, 0.0]]), open=True, x0=np.array([1.0, value]))

    def test_pairing_that_overflows_is_not_taken_as_interior(self):
        # the products 1e308 * 1e308 overflow; the exact pairing is 0, so x0
        # lies on the boundary of the induced cone
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="not strictly interior"):
                PolyCone(generators=[[1e308, -1e308]], open=True, x0=[1e308, 1e308])
            cone = PolyCone(generators=[[1e308, -1e307]], open=True, x0=[1e308, 1e307])
        assert cone.ngens == 1


def test_separation_iff_empty_intersection():
    # the two LPs are exact complements away from the degenerate band, which
    # holds the instances whose margin is positive but within simplex noise
    degenerate = 0
    for seed in range(40):
        rng = np.random.default_rng(100 + seed)
        family = random_family(rng)
        inter = intersection_nonempty(family)
        if 0.0 < inter.margin <= 1e-9:
            degenerate += 1
            continue
        sep = approx_separate(family, eps=1e-6)
        assert sep.separated == (not inter.nonempty), f"seed {seed}"
    assert degenerate <= 3
