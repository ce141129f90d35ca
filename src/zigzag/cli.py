"""Command-line front end: solve, verify, mesh, sweep."""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .errors import LadderFailure, PeriodMismatch, ZigzagError
from .height import SolveOptions, continuation_solve
from . import io as zio
from .weierstrass import build_weierstrass, curvature_summary, generate_mesh, verify_periods

USAGE_EXIT = 1
LADDER_EXIT = 2
VERIFY_EXIT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zigzag",
        description="Reflexive symmetric zigzags and their minimal surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the continuation ladder to a genus")
    p_solve.add_argument("--genus", type=int, required=True)
    p_solve.add_argument("--k", type=int, default=2, help="turn order (default 2)")
    p_solve.add_argument("--tol", type=float, default=1e-10,
                         help="height convergence tolerance (default 1e-10)")
    p_solve.add_argument("--eps", type=float, default=0.05,
                         help="handle insertion length (default 0.05)")
    p_solve.add_argument("--out", default=None,
                         help="solution file path (default zigzag_p<genus>_k<k>.json)")
    p_solve.add_argument("--trace", default=None,
                         help="optional CSV path for the solve trace of the top "
                              "genus (columns: step,height,grad_norm,stratum_distance); "
                              "each row is one residual evaluation of the damped "
                              "Newton shared-prevertex solve with the running best "
                              "||F||^2, the last row holds the certified height D "
                              "and max|F|")

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
    if not (0.0 < args.tol < math.inf and 0.0 < args.eps < math.inf):
        print("error: --tol and --eps must be finite and positive", file=sys.stderr)
        return USAGE_EXIT
    out = args.out or f"zigzag_p{args.genus}_k{args.k}.json"
    opts = SolveOptions(tol=args.tol, eps=args.eps)
    try:
        record = continuation_solve(args.genus, args.k, opts)
    except LadderFailure as exc:
        print(f"ladder failed at genus {exc.failed_genus}: {exc}", file=sys.stderr)
        if exc.records:
            top = max(exc.records)
            zio.save_solution(out + ".partial", exc.records[top])
            print(f"partial ladder (genus {top}) written to {out}.partial",
                  file=sys.stderr)
        return LADDER_EXIT
    zio.save_solution(out, record)
    if args.trace:
        zio.write_csv(args.trace,
                      ["step", "height", "grad_norm", "stratum_distance"],
                      [tuple(row) for row in record.trace])
    print(f"genus {args.genus} (k={args.k}) solved: height {record.height:.3e}, "
          f"written to {out}")
    return 0


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
    if args.resolution < 8:
        print("error: --resolution must be >= 8", file=sys.stderr)
        return USAGE_EXIT
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
    from .scmap import (coalescence_log_fit, make_coalescing_family, ne_pattern,
                        side_length, sw_pattern)

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

        deltas = _parse_grid(args.deltas)
        if args.genus < 3:
            print("error: coalescence sweep needs --genus >= 3", file=sys.stderr)
            return USAGE_EXIT
        record = continuation_solve(args.genus, 2)
        prev = record.prev_ne
        j = args.j if args.j is not None else args.genus - 2
        members = make_coalescing_family(prev, j, deltas)
        pat_ne, pat_sw = ne_pattern(args.genus), sw_pattern(args.genus)
        _, c1_ne, res_ne = coalescence_log_fit(deltas, members, pat_ne, j)
        _, c1_sw, res_sw = coalescence_log_fit(deltas, members, pat_sw, j)
        rows = [(float(d), side_length(m, pat_ne, j), side_length(m, pat_sw, j),
                 c1_ne.real, c1_sw.real) for d, m in zip(deltas, members)]
        zio.write_csv(args.out, ["delta", "abs_a", "abs_b", "c1_ne", "c1_sw"], rows)
        print(f"coalescence sweep written to {args.out}: "
              f"c1_ne={c1_ne.real:+.4f} (residual {res_ne:.2e}), "
              f"c1_sw={c1_sw.real:+.4f} (residual {res_sw:.2e})")
        return 0
    except (ValueError, ZigzagError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    handlers = {
        "solve": cmd_solve,
        "verify": cmd_verify,
        "mesh": cmd_mesh,
        "sweep": cmd_sweep,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
