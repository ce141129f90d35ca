"""Persistence: solution files, OBJ meshes, CSV sweeps.

Solution files are a single self-describing JSON text document with an
explicit schema version.  All floats are rendered with 17 significant
digits, which round-trips IEEE doubles exactly and keeps output
byte-identical across runs with the same inputs.  Their ``trace_summary``
holds max|F| at every Newton point of the shared-prevertex solve
(``newton_residuals``) and, with unknowns, the smallest singular value of
its Jacobian at the solution (``jacobian_sigma_min``), so a file loaded
and saved again is the same file byte for byte.  Each prevertex tuple is
stored with its gaps s_{m+1} - s_m (``prev_ne_gaps``, ``prev_sw_gaps``,
``weierstrass.prevertex_gaps``), which every real-interval integral takes:
a gap 1e-8 of the prevertices read back as a difference of stored values
would lose half its digits.  Files without gaps load with the differences.
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
    Weierstrass block that build_weierstrass makes from it."""
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
    """The stored tuple with its stored gaps; np.diff(values) for a file
    without them.  Gaps must be positive and match the values' differences
    to 1e-12 of the largest prevertex."""
    if len(values) != 2 * genus + 1:
        raise ValueError(f"{name} has {len(values)} entries, need {2 * genus + 1} "
                         f"at genus {genus}")
    if gaps is None:
        return Prevertices(tuple(values))
    gaps = np.asarray(gaps, float)
    if (gaps.shape != (2 * genus,) or not np.all(gaps > 0.0)
            or np.any(np.abs(gaps - np.diff(values)) > 1e-12 * np.max(np.abs(values)))):
        raise ValueError(f"{name} gaps are not the positive differences of its values")
    return Prevertices(tuple(values), tuple(gaps))


def _zigzag(d) -> ZigzagParams:
    """The stored zigzag; a genus or turn order that is not an integer is
    refused (ValueError), not truncated."""
    for key in ("genus", "turn_order"):
        if type(d[key]) is not int:  # bool and float included
            raise ValueError(f"{key} must be an integer, got {d[key]!r}")
    return ZigzagParams(d["genus"], d["turn_order"], tuple(d["side_lengths"]))


def solution_to_record(sf: SolutionFile) -> SolutionRecord:
    d = sf.data
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {d.get('schema_version')}")
    z = _zigzag(d)
    # files written before the Newton history was stored carry other
    # summary keys, which are ignored: they load with no residuals
    summary = d.get("trace_summary", {})
    return SolutionRecord(
        z,
        _prevertices(d["prev_ne"], d.get("prev_ne_gaps"), z.genus, "prev_ne"),
        _prevertices(d["prev_sw"], d.get("prev_sw_gaps"), z.genus, "prev_sw"),
        tuple(d["ext_ne"]),
        tuple(d["ext_sw"]),
        float(d["height"]),
        bool(d["converged"]),
        tuple(float(x) for x in summary.get("newton_residuals", ())),
        float(summary.get("jacobian_sigma_min", math.nan)),
    )


def weierstrass_from_solution(sf: SolutionFile) -> WeierstrassData:
    """Rebuild WeierstrassData from the stored constants (no re-solve)."""
    d = sf.data
    w = d.get("weierstrass")
    if w is None:
        raise ValueError("solution file carries no weierstrass block")

    def as_complex(v):
        return complex(v[0], v[1])

    z = _zigzag(d)
    return WeierstrassData(
        z.genus,
        z.turn_order,
        _prevertices(w["prevertices"], w.get("prevertex_gaps"), z.genus,
                     "weierstrass.prevertices"),
        as_complex(w["scale_ne"]),
        as_complex(w["scale_sw"]),
        as_complex(w["dh_scale"]),
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
