import errno
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

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
    """Edited copies of a genus-2 solution file that cannot be loaded."""
    huge = [-1e308, -1.0, 0.0, 1.0, 1e308]

    def moved(entries):
        entries[-1] += 1e-3

    def scaled(entries):
        entries[:] = [x * (1.0 + 1e-9) for x in entries]

    edits = {
        "empty_weierstrass": lambda d: d.update(weierstrass={}),
        "scale_not_complex": lambda d: d["weierstrass"].update(scale_ne="x"),
        "asymmetric_prevertices":
            lambda d: d["weierstrass"]["prevertices"].__setitem__(0, -3.0),
        "short_prevertices":
            lambda d: d["weierstrass"].update(prevertices=d["weierstrass"]["prevertices"][1:-1]),
        "short_prev_ne": lambda d: d.update(prev_ne=d["prev_ne"][1:-1]),
        "short_gaps": lambda d: d.update(prev_sw_gaps=d["prev_sw_gaps"][1:]),
        "negative_gap": lambda d: d["prev_ne_gaps"].__setitem__(0, -d["prev_ne_gaps"][0]),
        "gap_not_a_difference": lambda d: d["prev_sw_gaps"].__setitem__(0, 1e-3),
        "non_integer_genus": lambda d: d.update(genus=2.7, turn_order=2.9),
        "converged_not_bool": lambda d: d.update(converged="no"),
        "overflowing_side_sum": lambda d: d.update(side_lengths=[1e308, 1e308]),
        # a tuple whose span s_2 - s_-2 overflows
        "huge_prevertices": lambda d: d["weierstrass"].update(
            prevertices=huge, prevertex_gaps=[1e308, 1.0, 1.0, 1e308]),
        "huge_prevertices_without_gaps": lambda d: d["weierstrass"].update(
            prevertices=huge) or d["weierstrass"].pop("prevertex_gaps"),
        # s_2 moved 1e-3 off the mirror of s_-2, with its gap and without
        "asymmetric_by_1e-3": lambda d: moved(d["prev_ne"]) or moved(d["prev_ne_gaps"]),
        "asymmetric_by_1e-3_without_gaps": lambda d: moved(d["prev_ne"]) or d.pop("prev_ne_gaps"),
        # values and gaps scaled together, so that s_1 = 1 + 1e-9
        "unnormalized": lambda d: scaled(d["prev_sw"]) or scaled(d["prev_sw_gaps"]),
        "unnormalized_without_gaps": lambda d: scaled(d["prev_sw"]) or d.pop("prev_sw_gaps"),
        # numbers stored as strings or bools, and vectors that are not lists
        # of numbers, are refused rather than cast
        "height_a_string": lambda d: d.update(height="0"),
        "ext_a_string": lambda d: d.update(ext_ne="a"),
        "ext_entry_a_string": lambda d: d["ext_sw"].__setitem__(0, "1.5"),
        "sides_entry_a_string": lambda d: d["side_lengths"].__setitem__(0, "0.5"),
        "prevertex_a_string": lambda d: d["prev_ne"].__setitem__(0, str(d["prev_ne"][0])),
        "gap_a_string": lambda d: d["weierstrass"]["prevertex_gaps"].__setitem__(
            0, str(d["weierstrass"]["prevertex_gaps"][0])),
        "complex_of_three": lambda d: d["weierstrass"]["scale_ne"].append(0.0),
        "complex_of_bools": lambda d: d["weierstrass"].update(dh_scale=[True, False]),
        "residuals_a_string": lambda d: d["trace_summary"].update(newton_residuals="12"),
        "residual_a_string": lambda d: d["trace_summary"]["newton_residuals"].append("1e-13"),
        "sigma_min_a_bool": lambda d: d["trace_summary"].update(jacobian_sigma_min=True),
        "height_integer_beyond_floats": lambda d: d.update(height=10 ** 400),
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

    def test_deterministic_bytes(self, tmp_path, solved_file):
        out2 = tmp_path / "again.json"
        assert main(["solve", "--genus", "2", "--out", str(out2)]) == 0
        assert out2.read_bytes() == solved_file.read_bytes()

    def test_runs_without_scipy(self, tmp_path, solved_file):
        # numpy is the only runtime dependency: with scipy unimportable the
        # CLI imports no scipy module and writes the same solution file
        out = tmp_path / "p2.json"
        code = ("import sys\n"
                "sys.modules['scipy'] = None\n"
                "import zigzag.cli\n"
                "loaded = [m for m, v in sys.modules.items() if m.startswith('scipy') and v is not None]\n"
                "assert not loaded, loaded\n"
                f"sys.exit(zigzag.cli.main(['solve', '--genus', '2', '--out', {str(out)!r}]))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(zz.__file__).parents[1]),
                                                           env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             timeout=120)
        assert run.returncode == 0, run.stderr
        assert out.read_bytes() == solved_file.read_bytes()


class TestVerify:
    def test_solved_file_passes(self, solved_file, capsys):
        assert main(["verify", str(solved_file)]) == 0
        out = capsys.readouterr().out
        assert "deg g" in out and "3" in out
        assert "-12 pi" in out.replace("  ", " ")

    def test_missing_file(self, solved_file, tmp_path, capsys):
        assert main(["verify", "/nonexistent/sol.json"]) == 1
        for bad in malformed_files(solved_file, tmp_path):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["verify", str(bad)]) == 1, bad.name
            assert "error: cannot load" in capsys.readouterr().err

    def test_tampered_file(self, solved_file, tmp_path):
        # the outermost prevertices moved out, and their gaps with them
        data = json.loads(solved_file.read_text())
        data["weierstrass"]["prevertices"][0] -= 1e-3
        data["weierstrass"]["prevertices"][-1] += 1e-3
        data["weierstrass"]["prevertex_gaps"][0] += 1e-3
        data["weierstrass"]["prevertex_gaps"][-1] += 1e-3
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(data))
        assert main(["verify", str(bad)]) == 3

        data = json.loads(solved_file.read_text())
        data["weierstrass"]["dh_scale"] = [3.0 * data["weierstrass"]["dh_scale"][0], 0.7]
        bad_dh = tmp_path / "tampered_dh.json"
        bad_dh.write_text(json.dumps(data))
        assert main(["verify", str(bad_dh)]) == 3

    def test_zero_dh_scale_fails_verification(self, solved_file, tmp_path, capsys):
        # c = 0 has infinite dh defects: a period mismatch, not a traceback
        data = json.loads(solved_file.read_text())
        data["weierstrass"]["dh_scale"] = [0, 0]
        bad = tmp_path / "zero_dh.json"
        bad.write_text(json.dumps(data))
        assert main(["verify", str(bad)]) == 3
        assert "dh inf" in capsys.readouterr().err
        assert main(["mesh", str(bad), "--out", str(tmp_path / "zero_dh.obj")]) == 1
        assert "rotation" in capsys.readouterr().err
        assert not (tmp_path / "zero_dh.obj").exists()

    def test_unbuildable_file_fails_verification(self, solved_file, tmp_path, capsys):
        # a file that loads but is not converged, with no stored Weierstrass
        # data to check: building them fails (NotReflexive), a failed check
        data = json.loads(solved_file.read_text())
        data["converged"] = False
        del data["weierstrass"]
        bad = tmp_path / "not_converged.json"
        bad.write_text(json.dumps(data))
        assert main(["verify", str(bad)]) == 3
        assert capsys.readouterr().err == "FAIL NotReflexive: solution record not converged\n"


class TestFileWithoutWeierstrassBlock:
    def test_is_refused(self, solved_file, tmp_path, capsys):
        # a converged file stores its Weierstrass data; one whose block was
        # deleted is refused on load, naming the block, before any work
        data = json.loads(solved_file.read_text())
        del data["weierstrass"]
        path = tmp_path / "no_block.json"
        path.write_text(json.dumps(data))
        obj = tmp_path / "no_block.obj"
        for argv in (["verify", str(path)], ["mesh", str(path), "--out", str(obj)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err == (f"error: cannot load {path}: converged solution file carries no "
                           "weierstrass block\n")
        assert not obj.exists()
        with pytest.raises(ValueError, match="no weierstrass block"):
            zio.weierstrass_from_solution(zio.SolutionFile(data))


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


class TestWriteObj:
    def test_bytes_match_the_line_by_line_writer(self, tmp_path):
        vertices = np.array([[-0.0, 5e-324, 1e300],
                             [math.nan, math.inf, -math.inf],
                             [0.1, -2.5e-17, 123456789.123]])
        triangles = np.array([[0, 1, 2], [2, 1, 0]])
        sym = (zz.SymmetryGenerator("deck_involution", "a rotation",
                                    ((-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0))),
               zz.SymmetryGenerator("boundary_reflection", "no matrix"))
        mesh = zz.SurfaceMesh(vertices, triangles, np.ones(3), np.zeros(3, complex), sym)
        lines = ["# sym deck_involution a rotation | matrix -1 0 0 0 -1 0 0 0 1",
                 "# sym boundary_reflection no matrix"]
        lines += ["v " + " ".join(zio._fmt(x) for x in v) for v in vertices]
        lines += ["f " + " ".join(str(i + 1) for i in t) for t in triangles]
        zio.write_obj(tmp_path / "m.obj", mesh)
        assert (tmp_path / "m.obj").read_bytes() == ("\n".join(lines) + "\n").encode()
        assert "v NaN Infinity -Infinity\n" in (tmp_path / "m.obj").read_text()


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

    @pytest.mark.parametrize("grid", ["1e-6,1e-3", "1e-6,1e-3,8,2"])
    def test_grid_without_three_parts_usage_error(self, tmp_path, capsys, grid):
        out = tmp_path / "x.csv"
        assert main(["sweep", "--kind", "extlength", "--lambdas", grid, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: expected min,max,count: {grid}\n"
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["1e-8,inf,3", "1e-8,nan,3", "nan,1e-3,3", "inf,inf,3"])
    @pytest.mark.parametrize("kind", ["extlength", "coalescence"])
    def test_non_finite_grid_bound_usage_error(self, tmp_path, monkeypatch, capsys, grid, kind):
        # refused as a bad grid before any work: no numpy warning, no R_F
        # error and no base solve
        solves = []
        monkeypatch.setattr(sys.modules["zigzag.cli"], "continuation_solve",
                            lambda *args: solves.append(args))
        out = tmp_path / "x.csv"
        option = "--lambdas" if kind == "extlength" else "--deltas"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--kind", kind, option, grid, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: bad grid {grid}\n"
        assert not out.exists() and solves == []

    def test_coalescence_solver_error_exits_2(self, tmp_path, monkeypatch, capsys):
        from zigzag import cli as zcli
        from zigzag.errors import NoConvergence

        def failing(p, k):
            raise NoConvergence("injected", [1.0])

        monkeypatch.setattr(zcli, "continuation_solve", failing)
        out = tmp_path / "coal.csv"
        assert main(["sweep", "--kind", "coalescence", "--genus", "3",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "solve failed at genus 3: NoConvergence" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--deltas", "1e-4,1e-6,9"], ["--deltas", "1e-6,1e-4,5"],
                                       ["--deltas", "1e-6,1e-5,9"], ["--j", "2"]],
                             ids=["grid", "few_deltas", "one_decade", "j"])
    def test_coalescence_bad_grid_or_j_usage_error(self, tmp_path, monkeypatch, extra):
        # bad arguments are refused before the base solve
        solves = []
        monkeypatch.setattr(sys.modules["zigzag.cli"], "continuation_solve",
                            lambda *args: solves.append(args))
        out = tmp_path / "coal.csv"
        assert main(["sweep", "--kind", "coalescence", "--genus", "3",
                     "--out", str(out), *extra]) == 1
        assert not out.exists()
        assert solves == []

    def test_coalescence_below_genus_3_usage_error(self, tmp_path, monkeypatch, capsys):
        # a genus-2 zigzag has no pair of periods a_j, a_(j+1) to fit:
        # refused before the base solve
        solves = []
        monkeypatch.setattr(sys.modules["zigzag.cli"], "continuation_solve",
                            lambda *args: solves.append(args))
        out = tmp_path / "coal.csv"
        assert main(["sweep", "--kind", "coalescence", "--genus", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: coalescence sweep needs --genus >= 3\n"
        assert not out.exists() and solves == []

    def test_coalescence_sign_contrast(self, tmp_path):
        out = tmp_path / "coal.csv"
        assert main(["sweep", "--kind", "coalescence", "--genus", "3",
                     "--deltas", "1e-6,1e-4,9", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,abs_a,abs_b,c1_ne,c1_sw"
        first = lines[1].split(",")
        c1_ne, c1_sw = float(first[3]), float(first[4])
        assert c1_ne * c1_sw < 0

    def test_coalescence_one_kernel_call(self, tmp_path, monkeypatch):
        # both fits and the CSV columns come from one stacked call: NE and SW
        # rows on the intervals of a_j and a_(j+1) of every member
        quad = sys.modules["zigzag.quadrature"]
        inner, calls = quad.interval_abs_integral, []
        monkeypatch.setattr(quad, "interval_abs_integral",
                            lambda *args: calls.append(args) or inner(*args))
        assert main(["sweep", "--kind", "coalescence", "--genus", "3",
                     "--out", str(tmp_path / "coal.csv")]) == 0
        assert len(calls) == 1


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_processes(self, solved_file, tmp_path, capsys,
                                                        monkeypatch):
        # main builds its parser once per process; a bad usage between two
        # commands must leave it as a fresh process finds it
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(zz.__file__).parents[1]),
                                                           env.get("PYTHONPATH")]))
        calls = [["verify", str(solved_file)],
                 ["mesh", str(solved_file), "--resolution", "eight"],
                 ["sweep", "--kind", "extlength", "--lambdas", "1e-6,1e-3,6",
                  "--out", str(tmp_path / "ext.csv")]]
        codes = []
        for argv in calls:
            codes.append(code := main(argv))
            here = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-c", f"import sys, zigzag.cli; sys.exit(zigzag.cli.main({argv!r}))"],
                env=env, capture_output=True, text=True, timeout=120)
            assert (code, here.out, here.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert codes == [0, 1, 0]
        assert sys.modules["zigzag.cli"]._build_parser.cache_info().currsize == 1


class TestSolveFailureExit:
    def test_solver_error_exits_without_file(self, tmp_path, monkeypatch, capsys):
        from zigzag.errors import NoConvergence

        height_mod = sys.modules["zigzag.height"]
        original = height_mod.solve_parameter_problems

        def failing_at_genus3(z, patterns):
            if z.genus == 3:
                raise NoConvergence("injected", [1.0])
            return original(z, patterns)

        monkeypatch.setattr(height_mod, "solve_parameter_problems", failing_at_genus3)
        with pytest.raises(NoConvergence):  # the library error, unwrapped
            zz.continuation_solve(3, 2)
        out = tmp_path / "p3.json"
        assert main(["solve", "--genus", "3", "--out", str(out)]) == 2
        assert not out.exists()
        # the solver's history reaches the user
        err = capsys.readouterr().err
        assert "solve failed at genus 3: NoConvergence: injected" in err
        assert "after 1 Newton iterations, last residual 1.000e+00" in err

    def test_not_reflexive_exits_without_file(self, tmp_path, monkeypatch, capsys):
        from zigzag.errors import NotReflexive

        height_mod = sys.modules["zigzag.height"]
        monkeypatch.setattr(height_mod, "_height_from_ext", lambda ext_ne, ext_sw: 1e-3)
        with pytest.raises(NotReflexive, match="height 1.000e-03 not below 1.0e-10"):
            zz.continuation_solve(2, 2)
        out = tmp_path / "p2.json"
        assert main(["solve", "--genus", "2", "--out", str(out)]) == 2
        assert not out.exists()
        assert "solve failed at genus 2: NotReflexive" in capsys.readouterr().err


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        lambda sol: ["solve", "--genus", "0", "--out", "/nonexistent/x.json"],
        lambda sol: ["mesh", str(sol), "--resolution", "8", "--out", "/nonexistent/m.obj"],
        lambda sol: ["sweep", "--kind", "extlength", "--out", "/nonexistent/s.csv"],
        lambda sol: ["solve", "--genus", "80", "--out", str(sol.parent)],
        lambda sol: ["mesh", str(sol), "--resolution", "8", "--out", str(sol.parent)],
        lambda sol: ["sweep", "--kind", "extlength", "--out", str(sol.parent)],
    ], ids=["solve", "mesh", "sweep", "solve into a directory", "mesh into a directory",
            "sweep into a directory"])
    def test_usage_error_without_traceback(self, solved_file, capsys, monkeypatch, argv):
        # a missing output directory, or an --out naming a directory, is
        # refused before any work is done
        calls = []
        for module, name in (("zigzag.cli", "continuation_solve"), ("zigzag.cli", "generate_mesh"),
                             ("zigzag.elliptic", "extremal_length_quad")):
            monkeypatch.setattr(sys.modules[module], name,
                                lambda *args, name=name: calls.append(name))
        args = argv(solved_file)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and args[-1] in err
        assert "Traceback" not in err
        assert calls == []

    def test_write_error_after_the_work_exits_1(self, capsys, monkeypatch):
        # a full device passes every check before the work and fails only
        # when the finished sweep writes its file
        quad = sys.modules["zigzag.elliptic"].extremal_length_quad
        calls = []
        monkeypatch.setattr(sys.modules["zigzag.elliptic"], "extremal_length_quad",
                            lambda lam: calls.append(lam) or quad(lam))
        assert main(["sweep", "--kind", "extlength", "--lambdas", "1e-6,1e-3,3",
                     "--out", "/dev/full"]) == 1
        assert len(calls) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and os.strerror(errno.ENOSPC) in err
        assert "Traceback" not in err


class TestDefaultOutput:
    @pytest.mark.parametrize("path, out", [("runs.v1/sol", "runs.v1/sol.obj"),
                                           ("./p2", "./p2.obj")])
    def test_mesh_replaces_only_the_extension(self, solved_file, tmp_path, monkeypatch, path, out):
        # the default OBJ sits beside its solution file: a dot in a
        # directory name or a file without an extension keeps its name
        monkeypatch.chdir(tmp_path)
        Path(path).parent.mkdir(exist_ok=True)
        Path(path).write_text(solved_file.read_text())
        assert main(["mesh", path, "--resolution", "8"]) == 0
        assert Path(out).read_text().count("\nf ") > 0
        assert sorted(os.listdir(Path(path).parent)) == sorted([Path(path).name, Path(out).name])

    @pytest.mark.parametrize("argv, out", [
        (["solve", "--genus", "2"], "zigzag_p2_k2.json"),
        (["mesh", "p2.json"], "p2.obj"),
    ], ids=["solve", "mesh"])
    def test_default_naming_a_directory_is_refused_before_any_work(
            self, solved_file, tmp_path, capsys, monkeypatch, argv, out):
        monkeypatch.chdir(tmp_path)
        Path("p2.json").write_text(solved_file.read_text())
        Path(out).mkdir()
        calls = []
        for name in ("continuation_solve", "_load"):
            monkeypatch.setattr(sys.modules["zigzag.cli"], name,
                                lambda *args, name=name: calls.append(name))
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: it is a directory\n"
        assert calls == []


class TestInputIsNotOverwritten:
    @pytest.mark.parametrize("path, extra", [("sol.obj", []), ("p2.json", ["--out", "./p2.json"])],
                             ids=["default out", "given out"])
    def test_mesh_over_its_input_is_refused(self, solved_file, tmp_path, capsys, monkeypatch,
                                            path, extra):
        # a solution file named .obj is its own default OBJ, and an --out
        # may name the input by another path: either is refused before
        # any work, and the input still verifies
        monkeypatch.chdir(tmp_path)
        data = solved_file.read_bytes()
        Path(path).write_bytes(data)
        assert main(["mesh", path, "--resolution", "8"] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and f"it is the input {path}" in err
        assert Path(path).read_bytes() == data
        assert main(["verify", path]) == 0


class TestSolutionFileRoundTrip:
    def test_unknown_schema_version_is_refused(self, solved_file, tmp_path):
        data = json.loads(solved_file.read_text())
        data["schema_version"] = 2
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=r"^unsupported schema version 2$"):
            zio.solution_to_record(zio.load_solution(path))

    def test_lossless(self, solved_file):
        sf = zio.load_solution(solved_file)
        rec = zio.solution_to_record(sf)
        text1 = zio.record_to_solution(rec).dumps()
        path2 = solved_file.parent / "rewrite.json"
        path2.write_text(text1)
        sf2 = zio.load_solution(path2)
        rec2 = zio.solution_to_record(sf2)
        assert rec2.zigzag == rec.zigzag
        assert rec2.prev_ne.values == rec.prev_ne.values
        assert rec2.height == rec.height

    def test_thin_tuple_keeps_its_gaps(self, tmp_path):
        # a gap 1.5e-8 above s_1: the differences of the stored values would
        # move its sides by ~1e-8, the stored gaps leave them bit-equal
        p, k = 4, 3
        thin = zz.Prevertices(4, (1.5e-8, 0.9, 1.7))
        rec = zz.SolutionRecord(zz.ZigzagParams(p, k, (1.0,) * p), thin, thin,
                                (1.0,) * p, (1.0,) * p, 0.0, False)
        path = tmp_path / "thin.json"
        zio.save_solution(path, rec)
        data = json.loads(path.read_text())
        back = zio.solution_to_record(zio.load_solution(path))
        assert back.prev_ne.gaps == back.prev_sw.gaps == thin.gaps
        pats = (zz.ne_pattern(p, k), zz.sw_pattern(p, k))
        sides = [[zz.side_length(thin, pat, j) for j in range(p)] for pat in pats]
        assert [[zz.side_length(back.prev_sw, pat, j) for j in range(p)] for pat in pats] == sides
        # without its gaps the same file still loads, with the differences
        del data["prev_ne_gaps"]
        path.write_text(json.dumps(data))
        old = zio.solution_to_record(zio.load_solution(path))
        assert old.prev_ne.gaps == tuple(np.diff(thin.values)) != thin.gaps

    def test_isolation_certificate(self, solved_file):
        # written by solve and carried through a load; files without it,
        # such as the committed benchmark inputs, still load
        sf = zio.load_solution(solved_file)
        sigma = sf.data["trace_summary"]["jacobian_sigma_min"]
        assert sigma > 0.0
        assert zio.solution_to_record(sf).sigma_min == sigma
        data = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "p3_k2.json"
        rec = zio.solution_to_record(zio.load_solution(data))
        assert math.isnan(rec.sigma_min)
        assert "jacobian_sigma_min" not in zio.record_to_solution(rec).data["trace_summary"]

    def test_load_then_save_is_byte_identical(self, solved_file):
        # the file holds the whole Newton history, so nothing is made up on load
        sf = zio.load_solution(solved_file)
        rec = zio.solution_to_record(sf)
        assert len(rec.residuals) >= 2
        assert rec.residuals == tuple(sf.data["trace_summary"]["newton_residuals"])
        text = zio.record_to_solution(rec).dumps()
        assert text == solved_file.read_text()

    @pytest.mark.parametrize("name", ["p2_k3.json", "p3_k2.json", "p5_k2.json"])
    def test_descent_era_summary_loads(self, name):
        # committed files carry the summary keys of the deleted descent
        # trace; they load with no residuals and are saved without them
        path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / name
        sf = zio.load_solution(path)
        assert "iterations" in sf.data["trace_summary"]
        rec = zio.solution_to_record(sf)
        assert rec.residuals == ()
        assert rec.height == sf.data["height"]
        summary = zio.record_to_solution(rec).data["trace_summary"]
        assert summary == {"newton_residuals": []}

    def test_reverify_height(self, solved_file):
        sf = zio.load_solution(solved_file)
        rec = zio.solution_to_record(sf)
        fresh = zz.height(rec.zigzag)
        assert abs(fresh - rec.height) < 1e-9
