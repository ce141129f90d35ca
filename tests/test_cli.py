import json
import sys

import numpy as np
import pytest

import zigzag as zz
from zigzag import io as zio
from zigzag.cli import main


@pytest.fixture(scope="module")
def solved_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("solutions") / "p2.json"
    code = main(["solve", "--genus", "2", "--out", str(path)])
    assert code == 0
    return path


def malformed_files(solved_file, tmp_path):
    """Edited copies of a genus-2 solution file whose weierstrass block
    cannot be loaded."""
    edits = {
        "empty_weierstrass": lambda d: d.update(weierstrass={}),
        "scale_not_complex": lambda d: d["weierstrass"].update(scale_ne="x"),
        "asymmetric_prevertices":
            lambda d: d["weierstrass"]["prevertices"].__setitem__(0, -3.0),
    }
    paths = []
    for name, edit in edits.items():
        data = json.loads(solved_file.read_text())
        edit(data)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths.append(path)
    return paths


class TestSolve:
    def test_genus1_exit_zero(self, tmp_path):
        out = tmp_path / "p1.json"
        assert main(["solve", "--genus", "1", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["height"] == 0.0
        assert data["converged"] is True

    def test_negative_genus_usage_error(self):
        assert main(["solve", "--genus", "-1"]) == 1

    def test_missing_flag_usage_error(self):
        assert main(["solve"]) == 1

    @pytest.mark.parametrize("flag,value", [
        ("--eps", "-1"), ("--eps", "0"), ("--eps", "nan"), ("--eps", "inf"),
        ("--tol", "-1"), ("--tol", "0"), ("--tol", "nan"), ("--tol", "inf"),
    ])
    def test_bad_eps_or_tol_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "p3.json"
        assert main(["solve", "--genus", "3", flag, value, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists() and not (tmp_path / "p3.json.partial").exists()

    def test_trace_written(self, tmp_path):
        out = tmp_path / "p2.json"
        trace = tmp_path / "trace.csv"
        assert main(["solve", "--genus", "2", "--out", str(out),
                     "--trace", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "step,height,grad_norm,stratum_distance"
        assert len(lines) > 2

    def test_deterministic_bytes(self, tmp_path, solved_file):
        out2 = tmp_path / "again.json"
        assert main(["solve", "--genus", "2", "--out", str(out2)]) == 0
        assert out2.read_bytes() == solved_file.read_bytes()


class TestVerify:
    def test_solved_file_passes(self, solved_file, capsys):
        assert main(["verify", str(solved_file)]) == 0
        out = capsys.readouterr().out
        assert "deg g" in out and "3" in out
        assert "-12 pi" in out.replace("  ", " ")

    def test_missing_file(self, solved_file, tmp_path, capsys):
        assert main(["verify", "/nonexistent/sol.json"]) == 1
        for bad in malformed_files(solved_file, tmp_path):
            assert main(["verify", str(bad)]) == 1
            assert "error: cannot load" in capsys.readouterr().err

    def test_tampered_file(self, solved_file, tmp_path):
        data = json.loads(solved_file.read_text())
        data["weierstrass"]["prevertices"][0] -= 1e-3
        data["weierstrass"]["prevertices"][-1] += 1e-3
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(data))
        assert main(["verify", str(bad)]) == 3

        data = json.loads(solved_file.read_text())
        data["weierstrass"]["dh_scale"] = [3.0 * data["weierstrass"]["dh_scale"][0], 0.7]
        bad_dh = tmp_path / "tampered_dh.json"
        bad_dh.write_text(json.dumps(data))
        assert main(["verify", str(bad_dh)]) == 3


class TestMesh:
    def test_genus0_mesh(self, tmp_path):
        sol = tmp_path / "p0.json"
        assert main(["solve", "--genus", "0", "--out", str(sol)]) == 0
        obj = tmp_path / "p0.obj"
        assert main(["mesh", str(sol), "--radius", "2", "--resolution", "8",
                     "--out", str(obj)]) == 0
        text = obj.read_text().splitlines()
        vs = [l for l in text if l.startswith("v ")]
        fs = [l for l in text if l.startswith("f ")]
        syms = [l for l in text if l.startswith("# sym")]
        assert len(vs) > 0 and len(fs) > 0 and len(syms) == 3
        indices = {int(tok) for l in fs for tok in l.split()[1:]}
        assert min(indices) >= 1 and max(indices) <= len(vs)

    def test_genus1_mesh_metric_finite(self, tmp_path):
        sol = tmp_path / "p1.json"
        main(["solve", "--genus", "1", "--out", str(sol)])
        rec = zio.solution_to_record(zio.load_solution(sol))
        wd = zz.build_weierstrass(rec)
        mesh = zz.generate_mesh(wd, 2.0, 8)
        assert np.all(np.isfinite(mesh.conformal_factor))

    def test_bad_flags(self, solved_file, tmp_path):
        assert main(["mesh", str(solved_file), "--resolution", "2"]) == 1
        not_json = tmp_path / "not_json.json"
        not_json.write_text("not a solution file")
        assert main(["mesh", str(not_json)]) == 1
        no_genus = tmp_path / "no_genus.json"
        no_genus.write_text('{"schema_version": 1}')
        assert main(["mesh", str(no_genus)]) == 1
        for bad in malformed_files(solved_file, tmp_path):
            assert main(["mesh", str(bad), "--out", str(tmp_path / "bad.obj")]) == 1
        for radius in ("nan", "inf"):
            assert main(["mesh", str(solved_file), "--radius", radius,
                         "--out", str(tmp_path / "bad.obj")]) == 1
        assert not (tmp_path / "bad.obj").exists()


class TestSweep:
    def test_extlength_csv(self, tmp_path):
        out = tmp_path / "ext.csv"
        assert main(["sweep", "--kind", "extlength",
                     "--lambdas", "1e-6,1e-3,8", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda,ext,ext_times_log"
        prods = [float(l.split(",")[2]) for l in lines[1:]]
        mean = sum(prods) / len(prods)
        assert all(abs(p - mean) / mean < 0.15 for p in prods)

    def test_empty_grid_usage_error(self, tmp_path):
        assert main(["sweep", "--kind", "extlength",
                     "--lambdas", "1e-6,1e-3,0",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_coalescence_sign_contrast(self, tmp_path):
        out = tmp_path / "coal.csv"
        assert main(["sweep", "--kind", "coalescence", "--genus", "3",
                     "--deltas", "1e-6,1e-4,9", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,abs_a,abs_b,c1_ne,c1_sw"
        first = lines[1].split(",")
        c1_ne, c1_sw = float(first[3]), float(first[4])
        assert c1_ne * c1_sw < 0


class TestLadderFailureExit:
    def test_partial_ladder_written(self, tmp_path, monkeypatch):
        from zigzag import cli as zcli
        from zigzag.errors import LadderFailure

        partial = {1: zz.continuation_solve(1, 2)}

        def stalling(p, k, opts):
            raise LadderFailure("stalled", records=partial, failed_genus=2)

        monkeypatch.setattr(zcli, "continuation_solve", stalling)
        out = tmp_path / "p2.json"
        assert main(["solve", "--genus", "2", "--out", str(out)]) == 2
        assert (tmp_path / "p2.json.partial").exists()

    def test_solver_error_exits_with_partial_ladder(self, tmp_path, monkeypatch, capsys):
        from zigzag.errors import LadderFailure, NoConvergence

        height_mod = sys.modules["zigzag.height"]
        original = height_mod.solve_parameter_problem

        def failing_at_genus3(z, pat, **kwargs):
            if z.genus == 3:
                raise NoConvergence("injected", [1.0])
            return original(z, pat, **kwargs)

        monkeypatch.setattr(height_mod, "solve_parameter_problem", failing_at_genus3)
        with pytest.raises(LadderFailure) as info:
            zz.continuation_solve(3, 2)
        assert info.value.failed_genus == 3 and sorted(info.value.records) == [0, 1, 2]
        assert isinstance(info.value.__cause__, NoConvergence)
        out = tmp_path / "p3.json"
        capsys.readouterr()
        assert main(["solve", "--genus", "3", "--out", str(out)]) == 2
        assert (tmp_path / "p3.json.partial").exists()
        # the solver's history reaches the user
        err = capsys.readouterr().err
        assert "ladder failed at genus 3" in err
        assert "after 1 Newton iterations, last residual 1.000e+00" in err


class TestSolutionFileRoundTrip:
    def test_lossless(self, solved_file):
        sf = zio.load_solution(solved_file)
        rec = zio.solution_to_record(sf)
        text1 = zio.record_to_solution(
            rec, zio.weierstrass_from_solution(sf)
        ).dumps()
        path2 = solved_file.parent / "rewrite.json"
        path2.write_text(text1)
        sf2 = zio.load_solution(path2)
        rec2 = zio.solution_to_record(sf2)
        assert rec2.zigzag == rec.zigzag
        assert rec2.prev_ne.values == rec.prev_ne.values
        assert rec2.height == rec.height

    def test_reverify_height(self, solved_file):
        sf = zio.load_solution(solved_file)
        rec = zio.solution_to_record(sf)
        fresh = zz.height(rec.zigzag)
        assert abs(fresh - rec.height) < 1e-9
