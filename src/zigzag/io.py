"""Persistence: solution files, OBJ meshes, CSV sweeps.

Solution files are a single self-describing JSON text document with an
explicit schema version.  All floats are rendered with 17 significant
digits, which round-trips IEEE doubles exactly, so identical inputs give
byte-identical files and a file loaded and saved again is the same file.
Their ``trace_summary`` holds max|F| at every Newton point of the
shared-prevertex solve (``newton_residuals``) and, with unknowns, the
smallest singular value of its certified Jacobian (``jacobian_sigma_min``).
Each prevertex tuple is stored as its values and its gaps s_{m+1} - s_m
(``prev_ne_gaps``, ``prev_sw_gaps``, ``weierstrass.prevertex_gaps``), and
loads from its p-1 free gaps above s_1 (``_prevertices``): the stored
gaps, or the differences of the values in a file without them.  The
``weierstrass`` block of a converged solution holds the record's
Weierstrass data: at genus >= 2 the tuple of the shared-prevertex solve
and the scales of its certified sides.  Files written before the record
carried them store the tuple whose free gaps are the means of the NE and
SW ones, with its scales; they load, verify and round-trip as before, for
a loaded record carries its file's block.  Every converged file has one:
a converged file without it is refused (ValueError).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import ZigzagParams, build_vertices
from .height import SolutionRecord
from .scmap import Prevertices
from .weierstrass import SurfaceMesh, WeierstrassData, build_weierstrass

SCHEMA_VERSION = 1

__all__ = [
    "SolutionFile",
    "solution_to_record",
    "record_to_solution",
    "save_solution",
    "load_solution",
    "write_obj",
    "write_csv",
]


def _fmt(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _render(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_render(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, complex):
        return _render([obj.real, obj.imag])
    return json.dumps(obj)


@dataclass(frozen=True)
class SolutionFile:
    data: dict

    def dumps(self) -> str:
        return _render(self.data) + "\n"


def record_to_solution(record: SolutionRecord) -> SolutionFile:
    """The solution file of a record; a converged record also gets the
    Weierstrass block of its own data, as build_weierstrass returns them."""
    summary = {"newton_residuals": list(record.residuals)}
    if not math.isnan(record.sigma_min):  # only solves with unknowns have a Jacobian
        summary["jacobian_sigma_min"] = record.sigma_min
    data = {
        "schema_version": SCHEMA_VERSION,
        "genus": record.zigzag.genus,
        "turn_order": record.zigzag.turn_order,
        "side_lengths": list(record.zigzag.side_lengths),
        "prev_ne": list(record.prev_ne.values),
        "prev_ne_gaps": list(record.prev_ne.gaps),
        "prev_sw": list(record.prev_sw.values),
        "prev_sw_gaps": list(record.prev_sw.gaps),
        "ext_ne": list(record.ext_ne),
        "ext_sw": list(record.ext_sw),
        "height": record.height,
        "converged": record.converged,
        "trace_summary": summary,
    }
    if record.converged:
        wd = build_weierstrass(record)
        data["weierstrass"] = {
            "prevertices": list(wd.prevertices.values),
            "prevertex_gaps": list(wd.prevertices.gaps),
            "scale_ne": complex(wd.scale_ne),
            "scale_sw": complex(wd.scale_sw),
            "dh_scale": complex(wd.dh_scale),
        }
    return SolutionFile(data)


def _prevertices(values, gaps, genus: int, name: str) -> Prevertices:
    """The tuple of the stored gaps, or of np.diff(values) for a file
    without them; refused unless the stored values and gaps are its own to
    1e-12 of its largest prevertex: symmetric, with s_0 = 0 and s_1 = 1.
    Values and gaps must be lists of JSON numbers (_numbers)."""
    values = np.asarray(_numbers(values, name), float)
    stored = np.diff(values) if gaps is None else np.asarray(_numbers(gaps, f"{name} gaps"), float)
    prev = Prevertices(genus, stored[genus + 1:])
    tol = 1e-12 * prev.values[-1]
    if not (values.shape == (2 * genus + 1,) and np.all(np.abs(values - prev.values) <= tol)
            and np.all(np.abs(stored - prev.gaps) <= tol)):
        raise ValueError(f"{name} is not the tuple s_0 = 0, s_1 = 1 of its {2 * genus} gaps")
    return prev


def _number(v, what: str) -> float:
    """A JSON number as a float: an int or a float, not a bool or a string,
    else ValueError."""
    if type(v) not in (int, float):
        raise ValueError(f"{what} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError(f"{what} is an integer beyond the float range") from None


def _numbers(v, what: str) -> tuple[float, ...]:
    """A JSON list of numbers as a tuple of floats, else ValueError."""
    if type(v) is not list:
        raise ValueError(f"{what} must be a list of numbers, got {v!r}")
    return tuple(_number(x, f"{what} entry") for x in v)


def _complex(v, what: str) -> complex:
    """A complex stored as exactly two JSON numbers, else ValueError."""
    parts = _numbers(v, what)
    if len(parts) != 2:
        raise ValueError(f"{what} must be [real, imag], got {v!r}")
    return complex(*parts)


def _zigzag(d) -> ZigzagParams:
    """The stored zigzag.  A genus or turn order that is not an integer, a
    converged flag that is not a bool, and side lengths that are not a list
    of numbers with a finite sum are refused (ValueError), not truncated or
    cast."""
    for key, kind in (("genus", int), ("turn_order", int), ("converged", bool)):
        if type(d[key]) is not kind:  # bool is no int, nor a string a bool
            raise ValueError(f"{key} must be {kind.__name__}, got {d[key]!r}")
    sides = _numbers(d["side_lengths"], "side_lengths")
    if not math.isfinite(sum(sides)):
        raise ValueError(f"side lengths must have a finite sum, got {sides}")
    return ZigzagParams(d["genus"], d["turn_order"], sides)


def solution_to_record(sf: SolutionFile) -> SolutionRecord:
    """The record of a solution file, carrying the Weierstrass data of its
    stored block, so that a file loaded and saved again is the same file;
    a converged file without the block is refused.  Every stored number
    must be a JSON number and every vector a list of them (ValueError
    otherwise), so a string is never cast: the extremal lengths, the
    height, the Newton residuals and sigma_min as much as the zigzag and
    its tuples."""
    d = sf.data
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {d.get('schema_version')}")
    z = _zigzag(d)
    if d["converged"] and "weierstrass" not in d:
        raise ValueError("converged solution file carries no weierstrass block")
    # files written before the Newton history was stored carry other
    # summary keys, which are ignored: they load with no residuals
    summary = d.get("trace_summary", {})
    return SolutionRecord(
        z,
        _prevertices(d["prev_ne"], d.get("prev_ne_gaps"), z.genus, "prev_ne"),
        _prevertices(d["prev_sw"], d.get("prev_sw_gaps"), z.genus, "prev_sw"),
        _numbers(d["ext_ne"], "ext_ne"),
        _numbers(d["ext_sw"], "ext_sw"),
        _number(d["height"], "height"),
        d["converged"],
        _numbers(summary.get("newton_residuals", []), "newton_residuals"),
        _number(summary.get("jacobian_sigma_min", math.nan), "jacobian_sigma_min"),
        _weierstrass(d["weierstrass"], z) if "weierstrass" in d else None,
    )


def weierstrass_from_solution(sf: SolutionFile) -> WeierstrassData:
    """The stored Weierstrass data of a solution file (no re-solve):
    build_weierstrass of its record, by the checks of solution_to_record,
    so a converged file without its block raises ValueError."""
    return build_weierstrass(solution_to_record(sf))


def _weierstrass(w, z: ZigzagParams) -> WeierstrassData:
    """The WeierstrassData of the stored block ``w`` of the zigzag z, with
    the chain build_vertices(z)."""
    return WeierstrassData(
        z.genus,
        z.turn_order,
        _prevertices(w["prevertices"], w.get("prevertex_gaps"), z.genus,
                     "weierstrass.prevertices"),
        _complex(w["scale_ne"], "weierstrass.scale_ne"),
        _complex(w["scale_sw"], "weierstrass.scale_sw"),
        _complex(w["dh_scale"], "weierstrass.dh_scale"),
        build_vertices(z),
    )


def save_solution(path, record: SolutionRecord) -> None:
    with open(path, "w") as fh:
        fh.write(record_to_solution(record).dumps())


def load_solution(path) -> SolutionFile:
    with open(path) as fh:
        return SolutionFile(json.load(fh))


def write_obj(path, mesh: SurfaceMesh) -> None:
    """Wavefront OBJ with 1-based faces; symmetry generators in comments.

    Each block is formatted by one %-call; %.17g renders a float as _fmt
    does but for nan and inf, which are mapped back to NaN and Infinity.
    """
    lines = []
    for gen in mesh.symmetries:
        entry = f"# sym {gen.name} {gen.description}"
        if gen.matrix is not None:
            flat = " ".join(_fmt(x) for row in gen.matrix for x in row)
            entry += f" | matrix {flat}"
        lines.append(entry + "\n")
    vertices = np.asarray(mesh.vertices, dtype=float)
    faces = np.asarray(mesh.triangles) + 1
    lines.append((("v %.17g %.17g %.17g\n" * len(vertices)) % tuple(vertices.ravel().tolist()))
                 .replace("nan", "NaN").replace("inf", "Infinity"))
    lines.append(("f %d %d %d\n" * len(faces)) % tuple(faces.ravel().tolist()))
    with open(path, "w") as fh:
        fh.write("".join(lines))


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) if isinstance(x, float) else str(x)
                             for x in row) + "\n")
