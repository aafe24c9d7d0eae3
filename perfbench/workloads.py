"""The benchmark's three workloads.

Each workload writes its inputs under a work directory, then hands out
rounds of ops.  An op is a call into lmpkit's public entry points
(``lmpkit.cli.main`` or ``lmpkit.cones``), timed by the caller, plus a
check of its output that the caller runs outside the timed region.  Checks
use computations of the benchmark's own, never stored copies of earlier
output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import lmpkit.cli
import lmpkit.cones
import lmpkit.io

# Closed forms of the recovered certificates agree within this tolerance.
CLOSED_FORM_TOL = 1e-6
NU_RTOL = 1e-9
SEPARATION_EPS = 1e-6  # the eps of `lmpkit cones`
MARGIN_TOL = 1e-9  # lmpkit.cones: margins in (0, 1e-9] are degenerate


@dataclass
class Op:
    """``call`` is timed; ``verify`` gets its result and returns
    (failed, errors): a failed op is one the program could not complete,
    an error is a wrong output of an op that completed."""

    label: str
    call: Callable[[], object]
    verify: Callable[[object], tuple[bool, list[str]]]


def _cli(args: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return lmpkit.cli.main(args)


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _widths(trajectory_path: str) -> np.ndarray:
    return np.diff(np.asarray(_load(trajectory_path)["grid"], dtype=float))


def certificate_nu(cert: dict, widths: np.ndarray) -> float:
    """alpha0 + sum |lambda_k| h_k + eta mass, from a certificate document."""
    eta = cert["eta"]
    density = eta.get("density", [0.0] * len(widths))
    return math.fsum(
        [cert["alpha0"]]
        + [abs(v) * h for v, h in zip(cert["lambda"], widths)]
        + [a["weight"] for a in eta.get("atoms", [])]
        + [v * h for v, h in zip(density, widths)]
    )


class CheckLarge:
    """`lmpkit check` on the closed-form certificates of ex1 and of ex2 with
    both contact splits, at one grid size."""

    name = "check-large"
    N = 2000
    FIXTURES = (("ex1", None), ("ex2", "0.5,0.5"), ("ex2", "0,1"))
    min_rounds = 14  # 42 ops

    def setup(self, workdir: str, seed: int) -> None:
        self.inputs = []
        for name, split in self.FIXTURES:
            label = name if split is None else f"{name}-split{split}"
            out = os.path.join(workdir, label)
            args = ["example", name, "--N", str(self.N), "--out-dir", out]
            if split is not None:
                args += ["--split", split]
            if _cli(args) != 0:
                raise RuntimeError(f"lmpkit example failed for {label}")
            self.inputs.append((label, out))
        self.workdir = workdir
        self.negated = self.inputs[np.random.default_rng(seed).integers(len(self.inputs))]
        self._nu: dict[str, float] = {}

    def _check_args(self, d: str, cert: str, report: str) -> list[str]:
        return [
            "check",
            os.path.join(d, "problem.json"),
            os.path.join(d, "trajectory.json"),
            cert,
            "--format",
            "json",
            "--out",
            report,
        ]

    def _op(self, label: str, d: str) -> Op:
        report = os.path.join(d, "report.json")
        args = self._check_args(d, os.path.join(d, "certificate.json"), report)

        def verify(rc) -> tuple[bool, list[str]]:
            if rc == 2:
                return True, []
            doc = _load(report)
            errors = []
            if rc != 0 or doc["overall"] != "pass":
                failing = [e["name"] for e in doc["entries"] if e["verdict"] != "pass"]
                errors.append(f"{label}: report fails {failing}")
            if label not in self._nu:
                cert = _load(os.path.join(d, "certificate.json"))
                self._nu[label] = certificate_nu(
                    cert, _widths(os.path.join(d, "trajectory.json"))
                )
            nu = doc["diagnostics"]["nu"]
            if abs(nu - self._nu[label]) > NU_RTOL * max(1.0, abs(nu)):
                errors.append(f"{label}: report nu {nu!r}, certificate gives {self._nu[label]!r}")
            return False, errors

        return Op(label, lambda: _cli(args), verify)

    def warm_up(self) -> None:
        label, d = self.inputs[0]
        self._op(label, d).call()

    def round(self, rng: np.random.Generator) -> list[Op]:
        order = rng.permutation(len(self.inputs))
        return [self._op(*self.inputs[i]) for i in order]

    def final_checks(self) -> list[str]:
        """A certificate with alpha0 negated fails exactly alpha0_sign and
        transversality."""
        label, d = self.negated
        cert = _load(os.path.join(d, "certificate.json"))
        cert["alpha0"] = -cert["alpha0"]
        path = os.path.join(self.workdir, "negated.json")
        with open(path, "w") as fh:
            json.dump(cert, fh)
        report = os.path.join(self.workdir, "negated-report.json")
        rc = _cli(self._check_args(d, path, report))
        failing = sorted(e["name"] for e in _load(report)["entries"] if e["verdict"] != "pass")
        if rc != 1 or failing != ["alpha0_sign", "transversality"]:
            return [f"{label} with alpha0 negated: exit {rc}, failing {failing}"]
        return []


class RecoverSmall:
    """`lmpkit recover` on ex1 and ex2 over a fixed list of small grids.

    ex2 at N=50 puts the contact-arc ends inside cells; its recovery is not
    certified and exits 1 on every run, so it counts as the one failed op
    of each round."""

    name = "recover-small"
    # Eleven grids of distinct cost: with whole rounds, the median and the
    # tail percentile fall inside the samples of one grid each (ex1 N=100
    # and ex2 N=100 today), not between two grids of very different cost.
    GRIDS = (
        ("ex1", 20), ("ex1", 40), ("ex1", 60), ("ex1", 100),
        ("ex2", 20), ("ex2", 40), ("ex2", 50), ("ex2", 60), ("ex2", 80), ("ex2", 100),
        ("ex2", 200),
    )
    min_rounds = 4  # 44 ops
    B = 0.5  # ex2 contact region [-B, B] at the default T=1, m=0.5

    def setup(self, workdir: str, seed: int) -> None:
        self.inputs = []
        for name, N in self.GRIDS:
            out = os.path.join(workdir, f"{name}-N{N}")
            if _cli(["example", name, "--N", str(N), "--out-dir", out]) != 0:
                raise RuntimeError(f"lmpkit example failed for {name} N={N}")
            self.inputs.append((name, N, out))

    def _op(self, name: str, N: int, d: str) -> Op:
        cert_path = os.path.join(d, "recovered.json")
        args = [
            "recover",
            os.path.join(d, "problem.json"),
            os.path.join(d, "trajectory.json"),
            "--out-certificate",
            cert_path,
            "--format",
            "json",
            "--out",
            os.path.join(d, "report.json"),
        ]
        label = f"{name}-N{N}"

        def verify(rc) -> tuple[bool, list[str]]:
            if rc != 0:
                return True, []
            cert = _load(cert_path)
            nodes = np.asarray(_load(os.path.join(d, "trajectory.json"))["grid"])
            return False, [f"{label}: {e}" for e in self._closed_form(name, cert, nodes)]

        return Op(label, lambda: _cli(args), verify)

    def _closed_form(self, name: str, cert: dict, nodes: np.ndarray) -> list[str]:
        widths = np.diff(nodes)
        nu = certificate_nu(cert, widths)
        errors = []
        if abs(nu - 1.0) > NU_RTOL:
            errors.append(f"normalisation sums to {nu!r}")
        a0 = cert["alpha0"]
        if name == "ex1":
            atoms = {a["node"]: a["weight"] for a in cert["eta"]["atoms"]}
            last = len(widths)
            for what, value in (
                ("alpha0", a0),
                ("atom at t0", atoms.get(0, 0.0)),
                ("atom at t1", atoms.get(last, 0.0)),
            ):
                if abs(value / nu - 1.0 / 3.0) > CLOSED_FORM_TOL:
                    errors.append(f"normalised {what} is {value / nu!r}, not 1/3")
            return errors
        lam = np.asarray(cert["lambda"])
        density = np.asarray(cert["eta"]["density"])
        left, right = nodes[:-1], nodes[1:]
        arcs = (right <= -self.B + 1e-12) | (left >= self.B - 1e-12)
        inner = (left >= -self.B - 1e-12) & (right <= self.B + 1e-12)
        arc_dev = float(np.max(np.abs(lam[arcs] / a0 - 0.5)))
        inner_dev = float(np.max(np.abs((lam[inner] + density[inner]) / a0 - 1.0)))
        if arc_dev > CLOSED_FORM_TOL:
            errors.append(f"lambda/alpha0 deviates from 0.5 on the arcs by {arc_dev:.3e}")
        if inner_dev > CLOSED_FORM_TOL:
            errors.append(
                f"(lambda + eta density)/alpha0 deviates from 1 on the contact "
                f"interior by {inner_dev:.3e}"
            )
        return errors

    def warm_up(self) -> None:
        self._op(*self.inputs[0]).call()

    def round(self, rng: np.random.Generator) -> list[Op]:
        order = rng.permutation(len(self.inputs))
        return [self._op(*self.inputs[i]) for i in order]

    def final_checks(self) -> list[str]:
        return []


def cone_family_doc(rng: np.random.Generator, i: int) -> dict:
    """Family i of a seeded batch: one closed cone and 1-3 open cones with
    interior points, in dimension 2-6, each cone with 1-5 generators.  The
    shape cycles with i (period 375) so that every batch of a multiple of
    375 families has the same mix of LP sizes; the directions are Gaussian.
    """
    d = 2 + i % 5
    n_open = 1 + (i // 5) % 3
    cones = [{"generators": rng.normal(size=(1 + (i // 15) % 5, d)).tolist(), "open": False}]
    for j in range(n_open):
        x0 = rng.normal(size=d)
        x0 /= np.linalg.norm(x0)
        gens = []
        while len(gens) < 1 + (i // 75 + j) % 5:
            g = rng.normal(size=d)
            if g @ x0 > 0.1 * np.linalg.norm(g):
                gens.append(g.tolist())
        cones.append({"generators": gens, "open": True, "x0": x0.tolist()})
    return {"format_version": lmpkit.io.FORMAT_VERSION, "dim": d, "cones": cones}


def reference_margin(family) -> float:
    """The margin LP of ``cones.intersection_nonempty`` solved by HiGHS:
    max t  s.t.  <g, x> >= 0 (closed cone), <g, x> >= t (open cones),
    |x|_inf <= 1."""
    # imported only after the timed phase, so that scipy stays out of the
    # set-up time and the peak RSS
    from scipy.optimize import linprog

    d = family[0].dim
    rows = []
    for cone in family:
        for g in cone.generators:
            rows.append(np.concatenate([-g, [1.0 if cone.open else 0.0]]))
    cost = np.zeros(d + 1)
    cost[d] = -1.0
    res = linprog(
        cost,
        A_ub=np.array(rows),
        b_ub=np.zeros(len(rows)),
        bounds=[(-1.0, 1.0)] * d + [(None, None)],
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"reference margin LP ended with status {res.status}")
    return float(res.x[d])


class ConesBatch:
    """Seeded random polyhedral cone families; one op per family:
    ``cones.intersection_nonempty``, then ``cones.approx_separate``."""

    name = "cones-batch"
    FAMILIES = 750
    min_rounds = 1

    def setup(self, workdir: str, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.families = []
        for i in range(self.FAMILIES):
            path = os.path.join(workdir, f"family-{i:04d}.json")
            with open(path, "w") as fh:
                json.dump(cone_family_doc(rng, i), fh)
            self.families.append(lmpkit.io.load_cone_family(path))
        self.margins: list[tuple[int, float]] = []

    def _op(self, i: int) -> Op:
        family = self.families[i]

        def call():
            inter = lmpkit.cones.intersection_nonempty(family)
            return inter, lmpkit.cones.approx_separate(family, SEPARATION_EPS)

        def verify(out) -> tuple[bool, list[str]]:
            inter, sep = out
            self.margins.append((i, inter.margin))
            if 0.0 < inter.margin <= MARGIN_TOL or inter.nonempty != sep.separated:
                return False, []
            return False, [
                f"family {i}: intersect={inter.nonempty} separated={sep.separated} "
                f"(margin {inter.margin!r})"
            ]

        return Op(f"family-{i}", call, verify)

    def warm_up(self) -> None:
        self._op(0).call()

    def round(self, rng: np.random.Generator) -> list[Op]:
        return [self._op(i) for i in range(len(self.families))]

    def final_checks(self) -> list[str]:
        """The sign of every margin agrees with the same LP solved by HiGHS."""
        errors = []
        reference: dict[int, float] = {}
        for i, margin in self.margins:
            if i not in reference:
                reference[i] = reference_margin(self.families[i])
            if (margin > MARGIN_TOL) != (reference[i] > MARGIN_TOL):
                errors.append(f"family {i}: margin {margin!r}, HiGHS {reference[i]!r}")
        return errors


WORKLOADS = {w.name: w for w in (CheckLarge, RecoverSmall, ConesBatch)}
