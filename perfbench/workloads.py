"""The three benchmark workloads and their correctness checks.

A workload is built once (its set-up: inputs loaded, samples drawn) and
then hands out passes.  A pass is a list of operations; each operation has
a ``run`` callable, which is the timed call into the library, and a
``check`` callable, run untimed on the result, that returns ``None`` or a
description of what is wrong.  Library functions are always reached
through their module at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import zigzag
import zigzag.cli
import zigzag.geometry
import zigzag.io
import zigzag.scmap
import zigzag.weierstrass

cli = sys.modules["zigzag.cli"]
geometry = sys.modules["zigzag.geometry"]
zio = sys.modules["zigzag.io"]
scmap = sys.modules["zigzag.scmap"]
weierstrass = sys.modules["zigzag.weierstrass"]

DATA = Path(__file__).resolve().parent / "data"


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    limit_s: float | None = None  # latency limit; a slower operation fails


def source_digest(root: Path) -> str:
    """sha256 over the library sources, naming one version of the code."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _manifest() -> dict:
    return json.loads((DATA / "MANIFEST.json").read_text())


def _load_input(name: str, manifest: dict) -> bytes:
    raw = (DATA / name).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != manifest["files"][name]["sha256"]:
        raise ValueError(f"{name}: sha256 {digest} does not match the manifest")
    return raw


def _cli(argv: list[str]):
    """zigzag.cli.main in-process, with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue().strip()


class Context:
    """Where a run reads its inputs and writes its files."""

    def __init__(self, root: Path, seed: int, workdir: Path, state: Path):
        self.seed, self.workdir, self.state = seed, workdir, state
        self.source = source_digest(root)


class Ladder:
    """``zigzag solve --genus 5 --k 2`` through cli.main; the input is
    fixed, so the seed is unused."""

    name = "ladder"
    genus = 5
    calibration_genus = 3  # short ladder used to measure tracing overhead
    declines_allowed = False
    traced_passes = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        manifest = _manifest()
        self.reference = {
            g: json.loads(_load_input(f"p{g}_k2.json", manifest))
            for g in (self.genus, self.calibration_genus)
        }

    def _solve(self, genus: int) -> Op:
        out = self.ctx.workdir / f"ladder_p{genus}.json"
        argv = ["solve", "--genus", str(genus), "--k", "2", "--out", str(out)]
        return Op(f"solve --genus {genus}", lambda: _cli(argv),
                  lambda res: self._check(genus, out, res))

    def pass_ops(self, i: int) -> list[Op]:
        return [self._solve(self.genus)]

    def overhead_ops(self) -> list[Op]:
        return [self._solve(self.calibration_genus)]

    def _check(self, genus: int, out: Path, res) -> str | None:
        rc, err = res
        if rc != 0:
            return f"exit code {rc}: {err}"
        raw = out.read_bytes()
        sf = zio.SolutionFile(json.loads(raw))
        d = sf.data
        if d["converged"] is not True:
            return "solution not converged"
        if not d["height"] < 1e-10:
            return f"height {d['height']:.3e} >= 1e-10"
        try:
            report = weierstrass.verify_periods(zio.weierstrass_from_solution(sf))
        except zigzag.PeriodMismatch as exc:
            return f"period check failed: {exc}"
        if not report.max_error() <= 1e-8:
            return f"period error {report.max_error():.3e} > 1e-8"
        ref = np.asarray(self.reference[genus]["side_lengths"])
        drift = float(np.max(np.abs(np.asarray(d["side_lengths"]) - ref)))
        if not drift <= 1e-9:
            return f"side lengths differ from the reference by {drift:.3e}"
        # bytes must repeat between passes of one version of the code,
        # across runs too: the first pass of a version stores its file
        kept = self.ctx.state / f"ladder_p{genus}_{self.ctx.source[:16]}.json"
        if not kept.exists():
            tmp = kept.with_suffix(".tmp")
            tmp.write_bytes(raw)
            tmp.replace(kept)
        elif kept.read_bytes() != raw:
            return "solution file bytes differ from an earlier pass of this code"
        return None


STRATA = tuple((p, k, orient) for p in range(2, 7) for k in (2, 3) for orient in ("NE", "SW"))


class Roundtrip:
    """Seeded cold-start parameter solves, one per stratum in turn, each
    certified by re-integrating its side lengths."""

    name = "roundtrip"
    declines_allowed = True  # a raised solver error is a failed solve, not a wrong one
    traced_passes = 2 * len(STRATA)
    # Failing solves usually give up after 0.5-9 s, but a rare one runs for
    # over a minute; past this limit it fails.
    limit_s = 20.0

    def __init__(self, ctx: Context):
        self.rng = np.random.default_rng(ctx.seed)
        self.samples: list[tuple[int, int, str, np.ndarray]] = []
        self._draw_cycle()

    def _draw_cycle(self) -> None:
        for p, k, orient in STRATA:
            sides = np.exp(self.rng.uniform(math.log(1e-4), 0.0, size=p))
            self.samples.append((p, k, orient, sides / np.sum(sides)))

    def pass_ops(self, i: int) -> list[Op]:
        while len(self.samples) <= i:
            self._draw_cycle()
        p, k, orient, sides = self.samples[i]
        z = geometry.ZigzagParams(p, k, tuple(sides))
        pattern = scmap.ExponentPattern(orient, p, k)
        target = np.asarray(geometry.canonicalize(z).side_lengths)

        def run():
            prev = scmap.solve_parameter_problem(z, pattern)
            return [scmap.side_length(prev, pattern, j) for j in range(p)]

        def check(lengths):
            got = np.asarray(lengths) / math.fsum(lengths)
            err = float(np.max(np.abs(got - target) / target))
            return None if err <= 1e-8 else f"side lengths off by {err:.3e} relative"

        return [Op(f"solve p={p} k={k} {orient} #{i}", run, check, self.limit_s)]


SURFACE_FILES = ("p3_k2.json", "p5_k2.json", "p2_k3.json")
FIT_DELTAS = np.geomspace(1e-6, 1e-4, 9)


class Surface:
    """verify, mesh and the extremal-length sweep through cli.main on the
    committed solutions, plus the NE and SW coalescence fits as library
    calls; the inputs are fixed, so the seed is unused."""

    name = "surface"
    declines_allowed = False
    traced_passes = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        manifest = _manifest()
        self.expected = {}
        self.families = []
        for name in SURFACE_FILES:
            sf = zio.SolutionFile(json.loads(_load_input(name, manifest)))
            self.expected[name] = manifest["files"][name]
            record = zio.solution_to_record(sf)
            p = record.zigzag.genus
            if p >= 3:
                j = p - 2
                members = scmap.make_coalescing_family(record.prev_ne, j, FIT_DELTAS)
                self.families.append((name, p, j, members))
        self.c1_ne: dict[tuple[int, str], float] = {}

    def pass_ops(self, i: int) -> list[Op]:
        ops = []
        for name in SURFACE_FILES:
            path = str(DATA / name)
            obj = self.ctx.workdir / (name[:-5] + ".obj")
            ops.append(Op(f"verify {name}", lambda a=["verify", path]: _cli(a), _exit_ok))
            argv = ["mesh", path, "--resolution", "24", "--out", str(obj)]
            ops.append(Op(f"mesh {name}", lambda a=argv: _cli(a),
                          lambda res, o=obj, n=name: self._check_mesh(res, o, n)))
        csv = self.ctx.workdir / "extlength.csv"
        argv = ["sweep", "--kind", "extlength", "--out", str(csv)]
        ops.append(Op("sweep extlength", lambda: _cli(argv),
                      lambda res: _check_csv(res, csv, 12)))
        for name, p, j, members in self.families:
            for orient in ("NE", "SW"):
                pattern = scmap.ExponentPattern(orient, p, 2)
                ops.append(Op(
                    f"coalescence_log_fit {name} {orient}",
                    lambda m=members, pat=pattern, jj=j:
                        scmap.coalescence_log_fit(FIT_DELTAS, m, pat, jj),
                    lambda res, key=(i, name), o=orient: self._check_fit(res, key, o),
                ))
        return ops

    def _check_mesh(self, res, obj: Path, name: str) -> str | None:
        problem = _exit_ok(res)
        if problem:
            return problem
        verts = tris = 0
        coords = []
        with open(obj) as fh:
            for line in fh:
                if line.startswith("v "):
                    verts += 1
                    coords.append(line.split()[1:])
                elif line.startswith("f "):
                    tris += 1
        want = self.expected[name]
        if (verts, tris) != (want["mesh_vertices"], want["mesh_triangles"]):
            return (f"mesh has {verts} vertices and {tris} triangles, expected "
                    f"{want['mesh_vertices']} and {want['mesh_triangles']}")
        if not np.all(np.isfinite(np.asarray(coords, dtype=float))):
            return "mesh has non-finite coordinates"
        return None

    def _check_fit(self, res, key, orient: str) -> str | None:
        _, c1, residual = res
        c1 = complex(c1).real
        if not residual < 1e-3:
            return f"fit residual {residual:.3e} >= 1e-3"
        if not abs(abs(c1) - 1.0) <= 0.05:
            return f"|c1| = {abs(c1):.4f} is not 1 +- 0.05"
        if orient == "NE":
            self.c1_ne[key] = c1
        elif key in self.c1_ne and not c1 * self.c1_ne[key] < 0.0:
            return "NE and SW c1 have the same sign"
        return None


def _exit_ok(res) -> str | None:
    rc, err = res
    return None if rc == 0 else f"exit code {rc}: {err}"


def _check_csv(res, path: Path, rows: int) -> str | None:
    problem = _exit_ok(res)
    if problem:
        return problem
    lines = path.read_text().splitlines()[1:]
    if len(lines) != rows:
        return f"{len(lines)} rows, expected {rows}"
    values = np.asarray([line.split(",") for line in lines], dtype=float)
    return None if np.all(np.isfinite(values)) else "non-finite sweep values"


WORKLOADS = {cls.name: cls for cls in (Ladder, Roundtrip, Surface)}
