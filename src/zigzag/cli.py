"""Command-line front end: solve, verify, mesh, sweep."""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .errors import PeriodMismatch, ZigzagError
from .height import continuation_solve
from . import io as zio
from .weierstrass import build_weierstrass, curvature_summary, generate_mesh, verify_periods

USAGE_EXIT = 1
SOLVE_EXIT = 2
VERIFY_EXIT = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves
    it unchanged, so every call of main shares it."""
    parser = argparse.ArgumentParser(
        prog="zigzag",
        description="Reflexive symmetric zigzags and their minimal surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve and certify the reflexive zigzag of a "
                                           "genus; exit 2 and write nothing if it fails")
    p_solve.add_argument("--genus", type=int, required=True)
    p_solve.add_argument("--k", type=int, default=2, help="turn order (default 2)")
    p_solve.add_argument("--out", default=None,
                         help="solution file path (default zigzag_p<genus>_k<k>.json); "
                              "its trace_summary holds max|F| at every Newton point")

    p_verify = sub.add_parser("verify", help="re-verify a stored solution file")
    p_verify.add_argument("path")

    p_mesh = sub.add_parser("mesh", help="triangulate the surface of a solution")
    p_mesh.add_argument("path")
    p_mesh.add_argument("--radius", type=float, default=None,
                        help="half-disk radius (default 1.5x the largest prevertex)")
    p_mesh.add_argument("--resolution", type=int, default=24)
    p_mesh.add_argument("--out", default=None, help="OBJ output path")

    p_sweep = sub.add_parser(
        "sweep",
        help="CSV sweeps: coalescence log fits or extremal-length asymptotics",
    )
    p_sweep.add_argument("--kind", choices=["coalescence", "extlength"],
                         default="coalescence")
    p_sweep.add_argument("--genus", type=int, default=3,
                         help="genus of the base solution (coalescence)")
    p_sweep.add_argument("--j", type=int, default=None,
                         help="period index to fit (default p-2)")
    p_sweep.add_argument("--deltas", default="1e-6,1e-4,9",
                         help="min,max,count of collapsing gaps (log spaced); "
                              "columns: delta,abs_a,abs_b,c1_ne,c1_sw")
    p_sweep.add_argument("--lambdas", default="1e-8,1e-3,12",
                         help="min,max,count of |lambda| (log spaced); "
                              "columns: lambda,ext,ext_times_log")
    p_sweep.add_argument("--out", default="sweep.csv")
    return parser


def cmd_solve(args) -> int:
    if args.genus < 0 or args.k < 2:
        print("error: need --genus >= 0 and --k >= 2", file=sys.stderr)
        return USAGE_EXIT
    out = args.out or f"zigzag_p{args.genus}_k{args.k}.json"
    record = _solve(args.genus, args.k)
    if record is None:
        return SOLVE_EXIT
    zio.save_solution(out, record)
    print(f"genus {args.genus} (k={args.k}) solved: height {record.height:.3e}, "
          f"written to {out}")
    return 0


def _solve(p, k):
    """The certified solution record, or None after reporting why the
    solve failed."""
    try:
        return continuation_solve(p, k)
    except ZigzagError as exc:
        print(f"solve failed at genus {p}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None


def _load(path):
    """(record, stored Weierstrass data or None) of a solution file, or
    None after reporting why the file cannot be loaded."""
    try:
        sf = zio.load_solution(path)
        record = zio.solution_to_record(sf)
        wd = zio.weierstrass_from_solution(sf) if "weierstrass" in sf.data else None
    except (OSError, ValueError, LookupError, TypeError, AttributeError, ZigzagError) as exc:
        print(f"error: cannot load {path}: {exc}", file=sys.stderr)
        return None
    return record, wd


def cmd_verify(args) -> int:
    loaded = _load(args.path)
    if loaded is None:
        return USAGE_EXIT
    record, wd = loaded
    try:
        wd = wd or build_weierstrass(record)
        report = verify_periods(wd)
    except PeriodMismatch as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return VERIFY_EXIT
    except ZigzagError as exc:
        print(f"FAIL {type(exc).__name__}: {exc}", file=sys.stderr)
        return VERIFY_EXIT
    deg_g, total, winding = curvature_summary(wd)
    print(f"{'check':<22}{'value':>14}")
    print(f"{'alpha periods':<22}{report.worst_alpha:>14.3e}")
    print(f"{'conjugate periods':<22}{report.worst_conjugacy:>14.3e}")
    print(f"{'dh periods':<22}{report.worst_dh:>14.3e}")
    print(f"{'deg g':<22}{deg_g:>14d}")
    print(f"{'total curvature':<22}{total / math.pi:>11.0f} pi")
    print(f"{'winding order':<22}{winding:>14d}")
    print("all checks passed")
    return 0


def cmd_mesh(args) -> int:
    loaded = _load(args.path)
    if loaded is None:
        return USAGE_EXIT
    record, wd = loaded
    try:
        wd = wd or build_weierstrass(record)
        radius = args.radius
        if radius is None:
            top = max(abs(v) for v in wd.prevertices.values)
            radius = 1.5 * top if top > 0 else 2.0
        mesh = generate_mesh(wd, radius, args.resolution)
    except (ZigzagError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    out = args.out or (args.path.rsplit(".", 1)[0] + ".obj")
    zio.write_obj(out, mesh)
    print(f"mesh with {len(mesh.triangles)} triangles written to {out}")
    return 0


def _parse_grid(grid: str):
    parts = grid.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected min,max,count: {grid}")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n <= 0 or lo <= 0 or hi <= lo:
        raise ValueError(f"bad grid {grid}")
    return np.geomspace(lo, hi, n)


def cmd_sweep(args) -> int:
    from .elliptic import extremal_length_quad
    from .scmap import (_coalescence_periods, _log_fit, coalescence_deltas,
                        make_coalescing_family, ne_pattern, sw_pattern)

    try:
        if args.kind == "extlength":
            lams = _parse_grid(args.lambdas)
            rows = []
            for lam in lams:
                ext = extremal_length_quad(-lam)
                rows.append((-lam, ext, ext * math.log(1.0 / lam)))
            zio.write_csv(args.out, ["lambda", "ext", "ext_times_log"], rows)
            print(f"extremal-length sweep ({len(rows)} rows) written to {args.out}")
            return 0

        deltas = coalescence_deltas(_parse_grid(args.deltas))
        if args.genus < 3:
            print("error: coalescence sweep needs --genus >= 3", file=sys.stderr)
            return USAGE_EXIT
        j = args.j if args.j is not None else args.genus - 2
        if not 0 <= j <= args.genus - 2:
            print(f"error: need 0 <= --j <= {args.genus - 2}", file=sys.stderr)
            return USAGE_EXIT
        record = _solve(args.genus, 2)
        if record is None:
            return SOLVE_EXIT
        members = make_coalescing_family(record.prev_ne, j, deltas)
        both = np.stack((ne_pattern(args.genus).exponents, sw_pattern(args.genus).exponents))
        (a_ne, b_ne), (a_sw, b_sw) = _coalescence_periods(members, both, j)  # one kernel call
        _, c1_ne, res_ne = _log_fit(deltas, a_ne, b_ne)
        _, c1_sw, res_sw = _log_fit(deltas, a_sw, b_sw)
        rows = [(float(d), a, b, c1_ne.real, c1_sw.real) for d, a, b in zip(deltas, a_ne, a_sw)]
        zio.write_csv(args.out, ["delta", "abs_a", "abs_b", "c1_ne", "c1_sw"], rows)
        print(f"coalescence sweep written to {args.out}: "
              f"c1_ne={c1_ne.real:+.4f} (residual {res_ne:.2e}), "
              f"c1_sw={c1_sw.real:+.4f} (residual {res_sw:.2e})")
        return 0
    except (ValueError, ZigzagError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


def main(argv=None) -> int:
    """Run one command; exit 1 on bad usage, unreadable input or an output
    path that cannot be written, 2 on a failed solve, 3 on a failed check.

    An ``--out`` whose directory does not exist is refused before the
    command does any work.  Other write errors, such as a directory without
    write permission, surface only when the file is opened, after the work.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    out_dir = os.path.dirname(getattr(args, "out", None) or "")
    if out_dir and not os.path.isdir(out_dir):
        print(f"error: cannot write {args.out}: no directory {out_dir}", file=sys.stderr)
        return USAGE_EXIT
    handlers = {
        "solve": cmd_solve,
        "verify": cmd_verify,
        "mesh": cmd_mesh,
        "sweep": cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except OSError as exc:  # every file a command writes
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
