import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    build_program_by_cells,
    encode_certificate_by_cells,
    layout_by_cells,
    scaled,
    start_weights,
)

from lmpkit import expr, geometry, io
from lmpkit.cli import main
from lmpkit.errors import EvalError, NumericalError
from lmpkit.lmp import MultiplierSet
from lmpkit.problem import ProblemDef, TimeGrid, Trajectory, builtin_example
from lmpkit.recovery import (
    build_program,
    cross_validate,
    recover,
    solve,
)
from lmpkit.samples import Samples


@pytest.fixture(scope="module")
def ex1_small():
    return builtin_example("ex1", t0=0.0, t1=1.0, ncells=40)


def _inactive_constraint_case():
    problem = ProblemDef.from_strings(
        n=1, m=1, t0=0.0, t1=1.0, f=["u1"], G="0*x1 + 0*u1 - 1", J="x1_1"
    )
    grid = TimeGrid.uniform(0.0, 1.0, 10)
    trajectory = Trajectory(
        grid=grid,
        x=np.zeros((11, 1)),
        u_left=np.zeros((10, 1)),
        u_right=np.zeros((10, 1)),
    )
    return problem, trajectory


def _control_jump_case():
    # every point is a phase point, with G_x = 1 + u: node 4 is a two-sided
    # jump from u = 0 to u = 1 and has the two generators 1 and 2
    problem = ProblemDef.from_strings(
        n=1, m=1, t0=0.0, t1=1.0, f=["0"],
        G="(x1 - 1)*(1 + u1) - u1^2*(u1 - 1)^2", J="x1_1",
    )
    u = np.repeat([0.0, 1.0], 4)[:, None]
    trajectory = Trajectory(
        grid=TimeGrid.uniform(0.0, 1.0, 8), x=np.ones((9, 1)), u_left=u, u_right=u, jumps=(4,)
    )
    return problem, trajectory


def _perturbed_ex1():
    problem, trajectory, _ = builtin_example("ex1", t0=0.0, t1=1.0, ncells=40)
    shifted = Trajectory(
        grid=trajectory.grid,
        x=trajectory.x + 0.1,
        u_left=trajectory.u_left,
        u_right=trajectory.u_right,
    )
    return problem, shifted


def _layout(program) -> list[tuple[str, int | None]]:
    return (
        [("alpha0", None)]
        + [("lambda", k) for k in program.lam_cells.tolist()]
        + [("atom", k) for k in program.atom_nodes.tolist()]
    )


def _relative(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want), initial=0.0)) / max(
        1.0, float(np.max(np.abs(want), initial=0.0))
    )


class TestBuildOverArrays:
    """The build over whole arrays against the cell-by-cell assembly."""

    @pytest.mark.parametrize("case", [
        ("ex1", 20), ("ex1", 101), ("ex2", 20), ("ex2", 50), ("ex2", 150),
        "inactive", "perturbed", "jump",
    ], ids=str)
    def test_matches_the_cell_by_cell_build(self, case):
        if case == "inactive":
            problem, trajectory = _inactive_constraint_case()
        elif case == "jump":
            problem, trajectory = _control_jump_case()
        elif case == "perturbed":
            problem, trajectory = _perturbed_ex1()
        else:
            problem, trajectory, _ = builtin_example(case[0], ncells=case[1])
        program = build_program(Samples(problem, trajectory))
        oracle = build_program_by_cells(problem, trajectory)
        assert program.nvars == oracle.nvars
        assert _layout(program) == layout_by_cells(oracle)
        none = np.empty((0, problem.n))
        assert np.array_equal(program.atom_gens, np.concatenate([none, *oracle.atom_gens.values()]))
        slots = [slot for cols in oracle.idx_atom.values() for slot in range(len(cols))]
        assert program.atom_slots.tolist() == slots
        assert program.M.shape == oracle.M.shape
        assert program.A_L.shape == oracle.A_L.shape
        assert _relative(program.M, oracle.M) <= 1e-12
        assert _relative(program.A_L, oracle.A_L) <= 1e-12
        if case == "jump":
            assert program.atom_gens[program.atom_nodes == 4].tolist() == [[1.0], [2.0]]

    @pytest.mark.parametrize("singular, named", [((2,), 2), ((0, 2), 2)])
    def test_singular_recursion_names_the_highest_cell(self, tmp_path, capsys, singular, named):
        # h = 0.5 and f_x = 2 x1 = 4 at the left end make I - h/2 f_x = 0
        problem = ProblemDef.from_strings(
            n=1, m=1, t0=0.0, t1=2.0, f=["x1*x1 + u1"], G="x1 + u1 - 10", J="x1_1"
        )
        x = np.ones((5, 1))
        x[list(singular)] = 2.0
        trajectory = Trajectory(
            grid=TimeGrid.uniform(0.0, 2.0, 4),
            x=x,
            u_left=np.zeros((4, 1)),
            u_right=np.zeros((4, 1)),
        )
        with pytest.raises(NumericalError, match=rf"singular on cell {named}$"):
            build_program(Samples(problem, trajectory))
        io.save_problem(problem, str(tmp_path / "problem.json"))
        io.save_trajectory(trajectory, str(tmp_path / "trajectory.json"))
        code = main(["recover", str(tmp_path / "problem.json"), str(tmp_path / "trajectory.json")])
        assert code == 2
        assert f"singular on cell {named}" in capsys.readouterr().err

    def test_peak_memory_is_the_program_itself(self):
        # the build needs little beyond M and A_L (1.02x on ex2); per-node
        # dense atom maps took 1.23x, and a temporary the size of A_L more.
        # The solve on ex1 adds little (1.04x with the build); a scaled copy
        # of M took 1.78x.  ex2's solve reads its start corral in place and
        # adds the corral's Gram and a factor of it (about 1.27x); a gathered
        # copy of the corral and its explicit inverse took 2.07x.
        for name, bound in (("ex2", 1.4), ("ex1", 1.1)):
            problem, trajectory, _ = builtin_example(name, ncells=400)
            tracemalloc.start()
            try:
                program = build_program(Samples(problem, trajectory))
                built = tracemalloc.get_traced_memory()[1]
                solve(program)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            size = program.M.nbytes + program.A_L.nbytes
            assert built < 1.1 * size, name
            assert peak < bound * size, name


def objective(program, theta: np.ndarray) -> float:
    """The program's objective |M theta|^2 at the masses theta."""
    r = program.M @ theta
    return float(r @ r)


def encode(problem, trajectory, ms) -> np.ndarray:
    """A certificate as masses of the program's columns, by the cell-by-cell
    oracle, whose column layout ``build_program`` shares (see
    ``test_matches_the_cell_by_cell_build``)."""
    return encode_certificate_by_cells(build_program_by_cells(problem, trajectory), ms)


class TestEncodeCertificate:
    @pytest.mark.parametrize("name, ncells", [("ex1", 100), ("ex2", 52), ("ex2", 100)])
    def test_closed_forms_encode_to_zero_objective(self, name, ncells):
        problem, trajectory, ms = builtin_example(name, ncells=ncells)
        program = build_program(Samples(problem, trajectory))
        assert objective(program, encode(problem, trajectory, scaled(ms, 1.0 / ms.nu()))) <= 1e-20

    def test_recovered_certificate_encodes_to_its_theta(self):
        problem, trajectory, _ = builtin_example("ex1", ncells=40)
        program = build_program(Samples(problem, trajectory))
        result = solve(program)
        theta = encode(problem, trajectory, result.multipliers)
        assert np.allclose(theta, result.theta, rtol=1e-12, atol=1e-15)


class TestBuildProgram:
    def test_atom_fixture_dimensions(self, ex1):
        problem, trajectory, _ = ex1
        program = build_program(Samples(problem, trajectory))
        assert program.dims["eta_atoms"] == 101  # every node is in contact
        assert program.dims["lambda_cells"] == 100  # G == 0 on every cell
        assert program.dims["unknowns"] == 1 + 100 + 101  # no unknown besides lambda per cell

    def test_inactive_constraint_strips_unknowns(self):
        problem, trajectory = _inactive_constraint_case()
        samples = Samples(problem, trajectory)
        program = build_program(samples)
        assert program.dims["eta_atoms"] == 0
        assert program.dims["lambda_cells"] == 0
        assert program.dims["unknowns"] == 1  # only the cost weight survives
        result = solve(program)
        # normalisation forces alpha0 = 1, and nothing can cancel the
        # stationarity defect: recovery reports failure through the checker
        assert result.objective > 1e-3
        report = cross_validate(samples, result.multipliers)
        assert not report.overall_pass

    def test_arc_fixture_active_everywhere(self, ex2):
        problem, trajectory, _ = ex2
        program = build_program(Samples(problem, trajectory))
        assert program.dims["lambda_cells"] == 400


class TestSolve:
    def test_atom_fixture_proportions(self, ex1_small):
        problem, trajectory, _ = ex1_small
        program = build_program(Samples(problem, trajectory))
        result = solve(program)
        assert result.objective <= 1e-12
        assert result.kkt_residual <= 1e-9
        r = result.multipliers
        N = trajectory.grid.ncells
        assert r.alpha0 == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert r.eta.atoms[0, 0] == pytest.approx(r.alpha0, abs=1e-6)
        assert r.eta.atoms[N, 0] == pytest.approx(r.alpha0, abs=1e-6)
        assert float(np.max(np.abs(r.lam))) <= 1e-8
        assert r.nu() == pytest.approx(1.0, abs=1e-9)

    def test_warm_start_is_a_fixed_point(self, ex1_small):
        problem, trajectory, ms = ex1_small
        program = build_program(Samples(problem, trajectory))
        theta = encode(problem, trajectory, scaled(ms, 1.0 / ms.nu()))
        assert objective(program, theta) <= 1e-20
        result = solve(program)
        assert result.objective <= 1e-20
        assert result.status == "optimal"

    def test_perturbed_trajectory_not_certified(self):
        problem, shifted = _perturbed_ex1()
        samples = Samples(problem, shifted)
        program = build_program(samples)
        result = solve(program)
        assert result.objective > 1e-3
        report = cross_validate(samples, result.multipliers)
        assert not report.overall_pass

    def test_recover_writes_identical_certificates(self, tmp_path):
        d = tmp_path / "ex2"
        assert main(["example", "ex2", "--N", "100", "--out-dir", str(d)]) == 0
        written = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main([
                "recover", str(d / "problem.json"), str(d / "trajectory.json"),
                "--out-certificate", str(out),
            ])
            assert code == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_objective_does_not_grow_under_refinement(self):
        values = {}
        for ncells in (10, 20):
            problem, trajectory, _ = builtin_example("ex1", ncells=ncells)
            program = build_program(Samples(problem, trajectory))
            values[ncells] = solve(program).objective
        h = 1.0 / 10
        assert values[20] <= values[10] + 10.0 * h * h


class TestCrossValidate:
    def test_atom_fixture_end_to_end(self, ex1_small):
        problem, trajectory, _ = ex1_small
        outcome = recover(Samples(problem, trajectory))
        assert outcome.certified
        assert outcome.report.overall_pass

    def test_recovered_costate_matches_closed_form(self, ex1_small):
        problem, trajectory, _ = ex1_small
        outcome = recover(Samples(problem, trajectory))
        r = outcome.result.multipliers
        scale = 1.0 / r.alpha0
        assert scale * r.p.exterior_left[0] == pytest.approx(-1.0, abs=1e-6)
        assert scale * r.p.exterior_right[0] == pytest.approx(1.0, abs=1e-6)
        interior = r.p.values[1:-1, 0]
        assert float(np.max(np.abs(interior))) <= 1e-8


class TestArcFixtureRecovery:
    @pytest.mark.parametrize("ncells", [400, 800])
    def test_certifies_on_grids_that_fit_the_arc(self, ncells):
        problem, trajectory, _ = builtin_example("ex2", ncells=ncells)
        outcome = recover(Samples(problem, trajectory))
        assert outcome.result.status == "optimal"
        assert outcome.result.objective <= 1e-20
        assert outcome.certified

    def test_arc_ends_inside_cells_fail_only_transversality(self):
        # at N=50 the arc ends +-0.5 fall inside cells; the terminal-anchored
        # costate recursion then cannot meet transversality at 1e-7 even
        # though the solve is exact
        problem, trajectory, _ = builtin_example("ex2", ncells=50)
        outcome = recover(Samples(problem, trajectory))
        assert outcome.result.status == "optimal"
        failing = [e.name for e in outcome.report.entries if not e.passed]
        assert failing == ["transversality"]


def _arc_closed_form_deviation(ms: MultiplierSet, nodes: np.ndarray) -> float:
    """How far a certificate of ex2 (T=1, m=0.5) is from its closed form:
    lambda = alpha0 / 2 on the arcs outside [-1/2, 1/2], lambda + eta
    density = alpha0 inside, normalised to nu = 1."""
    left, right = nodes[:-1], nodes[1:]
    arcs = (right <= -0.5 + 1e-12) | (left >= 0.5 - 1e-12)
    inner = (left >= -0.5 - 1e-12) & (right <= 0.5 + 1e-12)
    total = ms.lam + ms.eta.density[:, 0]
    return max(
        abs(ms.nu() - 1.0),
        float(np.max(np.abs(ms.lam[arcs] / ms.alpha0 - 0.5))),
        float(np.max(np.abs(total[inner] / ms.alpha0 - 1.0))),
    )


class TestStartCorral:
    """The solve starts from alpha0 and lambda when some lambda cell lies
    off the contact set."""

    @pytest.mark.parametrize("ncells", [100, 200, 1600])
    def test_arc_fixture_certifies_from_the_start(self, ncells, caplog):
        problem, trajectory, _ = builtin_example("ex2", ncells=ncells)
        with caplog.at_level(logging.DEBUG, logger="lmpkit.recovery"):
            outcome = recover(Samples(problem, trajectory))
        assert f"start corral of {ncells + 1} columns (alpha0, lambda): taken" in caplog.text
        assert outcome.result.status == "optimal"
        assert outcome.certified
        ms = outcome.result.multipliers
        assert _arc_closed_form_deviation(ms, trajectory.grid.nodes) <= 1e-6

    @pytest.mark.parametrize("ncells", [20, 100, 200])
    def test_start_weights_match_a_dense_inverse(self, ncells):
        # alpha0 and lambda are the leading columns, and the start is taken
        # with no major iteration, so its weights are the answer
        problem, trajectory, _ = builtin_example("ex2", ncells=ncells)
        program = build_program(Samples(problem, trajectory))
        start = 1 + program.lam_cells.size
        res = geometry.min_norm_point(program.M, start)
        assert (res.start, res.iterations) == (start, 0)
        assert np.max(np.abs(res.w[:start] - start_weights(program.M, start))) <= 1e-12
        assert not np.any(res.w[start:])

    @pytest.mark.parametrize("ncells", [20, 101, 400])
    def test_atom_fixture_never_forms_the_corral(self, ncells, monkeypatch):
        problem, trajectory, _ = builtin_example("ex1", ncells=ncells)
        program = build_program(Samples(problem, trajectory))
        assert program.lam_cells.size > 0 and not program.lam_off_contact
        exact = geometry.min_norm_point
        offered = []

        def spy(P, start=0):
            offered.append(start)
            return exact(P, start)

        monkeypatch.setattr(geometry, "min_norm_point", spy)
        assert solve(program).status == "optimal"
        assert offered == [0]


class TestOneUnknownPerContactCell:
    """A contact cell's mass stays on lambda: recovery emits no eta density,
    so rounding cannot move mass between lambda and the density."""

    @pytest.mark.parametrize("name, ncells", [
        ("ex1", 20), ("ex1", 101), ("ex1", 400), ("ex2", 52), ("ex2", 100), ("ex2", 400),
    ])
    def test_lambda_carries_the_closed_form_sum(self, name, ncells):
        """Scaled to alpha0 = 1, the recovered multipliers are the paper's
        within 1e-9 on every cell and node: lambda (on ex2 the closed-form
        lambda plus eta density), the values and jumps of p, and the atoms
        of eta (ex1's at both ends, none on ex2)."""
        problem, trajectory, closed = builtin_example(name, ncells=ncells)
        samples = Samples(problem, trajectory)
        ms = recover(samples).result.multipliers
        assert ms.s_cells.index.size == 0 and not ms.eta.density.any()
        assert geometry.contact_set(samples).cell_flags.any()
        assert closed.alpha0 == 1.0
        for got, want in [
            (ms.lam, closed.lam + closed.eta.density[:, 0]),
            (ms.p.values, closed.p.values),
            (ms.p.atoms, closed.p.atoms),
            (ms.eta.atoms, closed.eta.atoms),
        ]:
            assert np.max(np.abs(got / ms.alpha0 - want)) <= 1e-9


def test_endpoint_gradient_error_is_the_bare_reason():
    # x == 1 on ex1, so both gradients of J divide by x0_1 - 1 = 0
    problem, trajectory, _ = builtin_example("ex1", ncells=20)
    problem = replace(problem, J=expr.parse("x1_1/(x0_1 - 1)"))
    with pytest.raises(EvalError) as info:
        recover(Samples(problem, trajectory))
    assert str(info.value) == "division by zero"
