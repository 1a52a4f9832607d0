"""Config validation, run artifacts, and the command-line entry point."""

import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from reflectal import cli
from reflectal.cli import (ExperimentConfig, main, run, serialize, validate)
from reflectal.coefficients import preset
from reflectal.errors import ConfigInvalid
from reflectal.forward import TimeGrid, simulate_reflected_batch
from reflectal.geometry import make_domain


def base_config(**over):
    cfg = {
        "command": "skeleton",
        "domain": {"kind": "interval", "a": 0.0, "b": 1.0},
        "preset": {"name": "constant-drift", "params": {"v": 1.0}},
        "x": 0.5,
        "grid": {"n_steps": 1024},
        "seed": 3,
    }
    cfg.update(over)
    return json.dumps(cfg).encode()


class TestValidate:
    def test_minimal_config_defaults(self):
        cfg = validate(base_config())
        assert cfg.command == "skeleton"
        assert cfg.s == 0.0 and cfg.T == 1.0
        assert cfg.x == (0.5,)
        assert cfg.n_steps == 1024
        assert cfg.n_paths == 1000

    def test_round_trip(self):
        cfg = validate(base_config())
        again = validate(serialize(cfg))
        assert again == cfg

    def test_round_trip_with_optionals(self):
        cfg = validate(base_config(command="convergence",
                                   eps_ladder=[0.1, 0.05, 0.025, 0.0125],
                                   target="K4"))
        assert validate(serialize(cfg)) == cfg

    def test_s_equals_T_rejected(self):
        with pytest.raises(ConfigInvalid) as exc:
            validate(base_config(s=1.0, T=1.0))
        assert exc.value.field == "/s"

    def test_x_outside_domain_rejected(self):
        with pytest.raises(ConfigInvalid) as exc:
            validate(base_config(x=1.1))
        assert exc.value.field == "/x"

    def test_bad_json_and_bad_fields(self):
        with pytest.raises(ConfigInvalid):
            validate(b"{not json")
        with pytest.raises(ConfigInvalid) as exc:
            validate(base_config(command="frobnicate"))
        assert exc.value.field == "/command"
        with pytest.raises(ConfigInvalid) as exc:
            validate(base_config(preset={"name": "no-such"}))
        assert exc.value.field == "/preset/name"


class TestRun:
    def test_skeleton_outputs_and_manifest(self, tmp_path):
        cfg = validate(base_config(output_dir=str(tmp_path / "out")))
        manifest = run(cfg)
        out = tmp_path / "out"
        csv_path = out / "skeleton.csv"
        assert csv_path.exists() and (out / "manifest.json").exists()
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "path,t,x_1,K"
        last = rows[-1].split(",")
        dt = 1.0 / 1024
        assert abs(float(last[2]) - 1.0) <= 2 * dt
        assert abs(float(last[3]) - 0.5) <= 2 * dt
        # manifest hash matches a recomputation from the echoed config
        echoed = json.dumps(manifest["config"], sort_keys=True,
                            separators=(",", ":")).encode()
        assert hashlib.sha256(echoed).hexdigest() == manifest["config_hash"]
        assert manifest["outputs"]["skeleton.csv"]["rows"] == 1025

    def test_audit_manifest_passes(self, tmp_path):
        cfg = validate(base_config(
            command="audit",
            preset={"name": "zero-drift-unit-noise"},
            output_dir=str(tmp_path / "out")))
        manifest = run(cfg)
        assert manifest["audit"]["passed"] == {"H1": True, "H2": True,
                                               "Hfgh": True}

    def test_reruns_are_byte_identical(self, tmp_path):
        texts = []
        for sub in ("a", "b"):
            cfg = validate(base_config(command="simulate-forward",
                                       n_paths=8, eps=0.05,
                                       output_dir=str(tmp_path / sub)))
            run(cfg)
            texts.append((tmp_path / sub / "simulate-forward.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_failure_leaves_only_error_json(self, tmp_path):
        out = tmp_path / "out"
        cfg = validate(base_config(command="action-min",
                                   output_dir=str(out)))  # y missing
        with pytest.raises(ConfigInvalid):
            run(cfg)
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigInvalid"
        assert err["field"] == "/y"

    def test_convergence_rerun_identity(self, tmp_path):
        texts = []
        for sub in ("a", "b"):
            cfg = validate(base_config(
                command="convergence", target="X4", n_paths=1000,
                grid={"n_steps": 128},
                eps_ladder=[0.1, 0.05, 0.025, 0.0125],
                output_dir=str(tmp_path / sub)))
            run(cfg)
            texts.append((tmp_path / sub / "convergence.csv").read_bytes())
        assert texts[0] == texts[1]


class TestMain:
    def _write_cfg(self, tmp_path, **over):
        p = tmp_path / "run.json"
        p.write_bytes(base_config(**over))
        return str(p)

    def test_cli_happy_path(self, tmp_path):
        cfg = self._write_cfg(tmp_path, grid={"n_steps": 64})
        out = str(tmp_path / "out")
        rc = main(["skeleton", "--config", cfg, "--out", out])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "skeleton.csv"))

    def test_cli_error_exit_code(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, x=2.0)
        rc = main(["skeleton", "--config", cfg,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigInvalid"

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = self._write_cfg(tmp_path, command="simulate-forward",
                              n_paths=4, grid={"n_steps": 64})
        out1, out2, out3 = (str(tmp_path / d) for d in ("o1", "o2", "o3"))
        main(["simulate-forward", "--config", cfg, "--out", out1])
        monkeypatch.setenv("REFLECTAL_SEED", "99")
        main(["simulate-forward", "--config", cfg, "--out", out2])
        main(["simulate-forward", "--config", cfg, "--out", out3])
        a, b, c = (Path(out, "simulate-forward.csv").read_bytes()
                   for out in (out1, out2, out3))
        assert a != b          # seed override changes the draw
        assert b == c          # and stays deterministic
        m = json.loads(Path(out2, "manifest.json").read_bytes())
        assert m["seed"] == 99


class TestValidateRejects:
    @pytest.mark.parametrize("over, field", [
        ({"eps": -1.0}, "/eps"),
        ({"eps": float("nan")}, "/eps"),
        ({"n_paths": 0}, "/n_paths"),
        ({"workers": -3}, "/workers"),
        ({"T": 1.0, "preset": {"name": "constant-drift",
                               "params": {"v": 1.0, "T": 5.0}}},
         "/preset/params/T"),
        ({"domain": {"kind": "hexagon"}}, "/domain"),
        ({"domain": {"a": 0.0, "b": 1.0}}, "/domain"),
        ({"domain": {"kind": "interval", "a": 0.0, "b": 1.0, "width": 1.0}},
         "/domain"),
        # an unknown key fails at its pointer, whatever its value
        ({"workers": 1}, "/workers"),
        ({"command": "action-min", "y": 1.7}, "/y"),
        ({"command": "action-min", "y": [0.5, 0.5]}, "/y"),
    ])
    def test_bad_value_rejected(self, over, field):
        with pytest.raises(ConfigInvalid) as exc:
            validate(base_config(**over))
        assert exc.value.field == field

    def test_matching_preset_T_accepted(self):
        cfg = validate(base_config(T=2.0, preset={
            "name": "constant-drift", "params": {"v": 1.0, "T": 2.0}}))
        assert cfg.preset_params["T"] == 2.0

    def test_command_line_override_validated(self, tmp_path, capsys):
        # argparse rejects a flag it does not know before anything is written
        p = tmp_path / "run.json"
        p.write_bytes(base_config(grid={"n_steps": 16}))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["skeleton", "--config", str(p), "--out", str(out),
                  "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()


class TestMainRejects:
    """Bad values reach the user as a JSON ConfigInvalid on stderr, exit 1,
    and no output directory."""

    def _main(self, tmp_path, capsys, **over):
        p = tmp_path / "run.json"
        p.write_bytes(base_config(**over))
        out = tmp_path / "out"
        command = over.get("command", "skeleton")
        rc = main([command, "--config", str(p), "--out", str(out)])
        err = json.loads(capsys.readouterr().err.strip())
        assert not out.exists()
        return rc, err

    @pytest.mark.parametrize("over, field", [
        ({"eps": "abc"}, "/eps"),
        ({"n_paths": "x"}, "/n_paths"),
        ({"x": "mid"}, "/x"),
        ({"grid": {"n_steps": None}}, "/grid/n_steps"),
        ({"domain": {"kind": "interval", "a": "zero", "b": 1.0}}, "/domain"),
        ({"preset": {"name": "constant-drift", "params": {"v": "fast"}}},
         "/preset/params"),
    ])
    def test_non_numeric_value(self, tmp_path, capsys, over, field):
        rc, err = self._main(tmp_path, capsys, **over)
        assert rc == 1
        assert err["error"] == "ConfigInvalid"
        assert err["message"].startswith(field + ":")

    def test_non_numeric_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REFLECTAL_SEED", "abc")
        rc, err = self._main(tmp_path, capsys, grid={"n_steps": 16})
        assert rc == 1
        assert err["error"] == "ConfigInvalid"
        assert err["message"].startswith("/seed:")

    def test_bsde_grid_zero_eps(self, tmp_path, capsys):
        rc, err = self._main(tmp_path, capsys, command="bsde-grid", eps=0.0,
                             preset={"name": "linear-bsde"}, space_nodes=5,
                             field_steps=4, mc_per_node=64)
        assert rc == 1
        assert err["error"] == "ConfigInvalid"
        assert err["message"].startswith("/eps: must be > 0")


INTERVAL = {"kind": "interval", "a": 0.0, "b": 1.0}
UNIT_NOISE = {"name": "zero-drift-unit-noise"}

# tiny configs for the commands that the tests above do not run; each entry
# lists the expected output files with their CSV headers
SMALL_COMMANDS = {
    "bsde-limit": (
        {"preset": {"name": "linear-bsde"}, "grid": {"n_steps": 32}},
        {"bsde-limit.csv": "t,y_1"}),
    "bsde-grid": (
        {"preset": {"name": "linear-bsde"}, "eps": 0.05, "space_nodes": 5,
         "field_steps": 4, "mc_per_node": 64},
        {"bsde-grid.csv": "t,x_1,u_1"}),
    "action-eval": (
        {"grid": {"n_steps": 32}},
        {"action-eval.csv": "t,psi_1,phi_1,integrand"}),
    "action-min": (
        {"preset": UNIT_NOISE, "y": 0.8, "grid": {"n_steps": 8}},
        {"action-min.csv": "iter,action,step,violation",
         "action-min-path.csv": "t,psi_1"}),
    "contracted-rate": (
        {"preset": UNIT_NOISE, "space_nodes": 5, "field_steps": 4},
        {"contracted-rate.csv": "t,psi_1"}),
    "tail": (
        {"preset": UNIT_NOISE, "n_paths": 200, "grid": {"n_steps": 16},
         "delta": 0.3},
        {"tail.csv": "eps,delta,p_hat,eps_log_p,se"}),
}


@pytest.mark.parametrize("command", sorted(SMALL_COMMANDS))
def test_command_outputs_and_rerun(command, tmp_path):
    over, expected = SMALL_COMMANDS[command]
    texts = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        manifest = run(validate(base_config(command=command, domain=INTERVAL,
                                            output_dir=str(out), **over)))
        assert sorted(manifest["outputs"]) == sorted(expected)
        assert sorted(p.name for p in out.iterdir()) == sorted(
            list(expected) + ["manifest.json"])
        for name, header in expected.items():
            lines = (out / name).read_text().splitlines()
            assert lines[0] == header
            assert manifest["outputs"][name]["rows"] == len(lines) - 1 >= 1
        texts.append({name: (out / name).read_bytes() for name in expected})
    assert texts[0] == texts[1]


def test_contracted_rate_manifest_records_stall(tmp_path):
    manifest = run(validate(base_config(
        command="contracted-rate", domain=INTERVAL,
        preset={"name": "zero-drift-unit-noise"}, space_nodes=5,
        field_steps=4, output_dir=str(tmp_path / "out"))))
    assert manifest["stalled"] is False
    on_disk = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert on_disk["stalled"] is False


def _git(cwd, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                           "-c", "commit.gpgsign=false", *args], cwd=cwd,
                          check=True, capture_output=True,
                          text=True).stdout.strip()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_git_describe_of_a_checkout(tmp_path, monkeypatch):
    repo = tmp_path / "checkout"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "f.txt").write_text("a")
    _git(repo, "add", "f.txt")
    _git(repo, "commit", "-q", "-m", "c")
    head = _git(repo, "rev-parse", "--short", "HEAD")
    assert cli._git_describe(str(repo)) == head
    (repo / "f.txt").write_text("b")
    assert cli._git_describe.__wrapped__(str(repo)) == head + "-dirty"

    # computed once per process: a second call starts no git
    def no_git(*args, **kwargs):
        raise AssertionError("git ran twice")
    monkeypatch.setattr(subprocess, "run", no_git)
    assert cli._git_describe(str(repo)) == head


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_git_describe_of_an_untracked_install(tmp_path):
    # a package installed into a virtual environment inside an unrelated,
    # dirty checkout: that checkout's describe is not the package's
    repo = tmp_path / "project"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "f.txt").write_text("a")
    _git(repo, "add", "f.txt")
    _git(repo, "commit", "-q", "-m", "c")
    (repo / "f.txt").write_text("b")
    for sub in ("venv/lib/site-packages/pkg", "ignored/pkg"):
        pkg = repo / sub
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
    (repo / ".gitignore").write_text("ignored/\n")
    assert _git(repo, "describe", "--always", "--dirty").endswith("-dirty")
    for sub in ("venv/lib/site-packages/pkg", "ignored/pkg"):
        assert cli._git_describe.__wrapped__(str(repo / sub)) == ""


def test_git_describe_without_checkout_or_git(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    bare = tmp_path / "plain"
    bare.mkdir()
    assert cli._git_describe.__wrapped__(str(bare)) == ""
    monkeypatch.setenv("PATH", "")
    assert cli._git_describe.__wrapped__(str(bare)) == ""


def test_manifest_carries_git_describe(tmp_path):
    manifest = run(validate(base_config(output_dir=str(tmp_path / "out"),
                                        grid={"n_steps": 16})))
    assert manifest["git_describe"] == cli._git_describe(
        os.path.dirname(cli.__file__))


class TestSchema:
    """Every key is declared once; a key the schema does not know, and a
    value that the run would reject later, fail validation at its pointer."""

    @pytest.mark.parametrize("over, field", [
        ({"n_path": 5000}, "/n_path"),
        ({"grid": {"steps": 64}}, "/grid/steps"),
        ({"grid": {"n_steps": 64, "dt": 0.1}}, "/grid/dt"),
        ({"preset": {"name": "constant-drift", "parms": {"v": 2.0}}},
         "/preset/parms"),
        ({"preset": {"name": "constant-drift", "params": {"velocity": 3}}},
         "/preset/params"),
        ({"preset": {"name": "constant-drift", "params": [1.0]}},
         "/preset/params"),
        ({"eps_ladder": [0.1, 0.2]}, "/eps_ladder"),
        ({"eps_ladder": [0.1, 0.05, 0.025, 1.5]}, "/eps_ladder"),
        ({"eps_ladder": [[0.1, 0.05], [0.025, 0.0125]]}, "/eps_ladder"),
        ({"eps_ladder": []}, "/eps_ladder"),
        ({"field_steps": 0}, "/field_steps"),
        ({"space_nodes": 1}, "/space_nodes"),
        ({"mc_per_node": 63}, "/mc_per_node"),
        ({"delta": 0.0}, "/delta"),
        ({"delta": float("nan")}, "/delta"),
        ({"grid": 0}, "/grid"),
    ])
    def test_rejected_at_pointer(self, over, field):
        with pytest.raises(ConfigInvalid) as exc:
            validate(base_config(**over))
        assert exc.value.field == field

    def test_smallest_accepted_values(self):
        cfg = validate(base_config(field_steps=1, space_nodes=2,
                                   mc_per_node=64, delta=1e-9, eps_ladder=None,
                                   grid=8))
        assert (cfg.field_steps, cfg.space_nodes, cfg.mc_per_node,
                cfg.n_steps) == (1, 2, 64, 8)
        assert cfg.eps_ladder is None

    def test_defaults_come_from_the_config_class(self):
        cfg = validate(json.dumps({
            "command": "skeleton", "preset": "zero-drift-unit-noise",
            "domain": {"kind": "interval", "a": 0.0, "b": 1.0}}).encode())
        assert cfg == ExperimentConfig(
            command="skeleton", preset_name="zero-drift-unit-noise",
            domain={"kind": "interval", "a": 0.0, "b": 1.0})

    def test_bad_ladder_is_a_json_error(self, tmp_path, capsys):
        p = tmp_path / "run.json"
        p.write_bytes(base_config(command="convergence",
                                  eps_ladder=[0.1, 0.2]))
        out = tmp_path / "out"
        assert main(["convergence", "--config", str(p), "--out",
                     str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigInvalid"
        assert err["message"].startswith("/eps_ladder:")
        assert not out.exists()


@pytest.mark.parametrize("command", sorted(SMALL_COMMANDS))
def test_small_command_configs_round_trip(command):
    over, _ = SMALL_COMMANDS[command]
    cfg = validate(base_config(command=command, domain=INTERVAL, **over))
    assert validate(serialize(cfg)) == cfg


class TestIntegralCountsAndFlatPoints:
    """Counts take integral values only, reals are finite, and a point is a
    number or a flat list; anything else fails at its pointer, through
    validate and main."""

    CASES = [
        ({"n_paths": 1000.7}, "/n_paths"),
        ({"n_paths": True}, "/n_paths"),
        ({"workers": 2.5}, "/workers"),
        ({"mc_per_node": 64.5}, "/mc_per_node"),
        ({"space_nodes": False}, "/space_nodes"),
        ({"field_steps": [4]}, "/field_steps"),
        ({"grid": {"n_steps": 16.5}}, "/grid/n_steps"),
        ({"grid": 16.5}, "/grid"),
        ({"seed": 3.9}, "/seed"),
        ({"seed": -1}, "/seed"),
        ({"x": [[0.5]]}, "/x"),
        ({"x": None}, "/x"),
        ({"x": float("nan")}, "/x"),
        ({"command": "action-min", "y": [[0.8]]}, "/y"),
        # json.loads reads Infinity: a real must be finite as well
        ({"s": float("inf")}, "/s"),
        ({"T": float("inf")}, "/T"),
        ({"eps": float("inf")}, "/eps"),
        ({"command": "tail", "delta": float("inf")}, "/delta"),
    ]

    @pytest.mark.parametrize("over, field", CASES)
    def test_validate_rejects(self, over, field):
        with pytest.raises(ConfigInvalid) as exc:
            validate(base_config(**over))
        assert exc.value.field == field

    @pytest.mark.parametrize("over, field", CASES)
    def test_main_rejects(self, tmp_path, capsys, over, field):
        p = tmp_path / "run.json"
        p.write_bytes(base_config(**over))
        out = tmp_path / "out"
        rc = main([over.get("command", "skeleton"), "--config", str(p),
                   "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigInvalid"
        assert err["message"].startswith(field + ":")
        assert not out.exists()

    def test_integral_values_accepted(self):
        cfg = validate(base_config(n_paths=1000.0, seed="7", x=[0.5],
                                   y=0.25, grid={"n_steps": 16.0}))
        assert (cfg.n_paths, cfg.seed, cfg.n_steps) == (1000, 7, 16)
        assert all(type(v) is int for v in (cfg.n_paths, cfg.seed,
                                             cfg.n_steps))
        assert cfg.x == (0.5,) and cfg.y == (0.25,)

    @pytest.mark.parametrize("env_seed", ["3.9", "true", "-2", ""])
    def test_env_seed_must_be_integral(self, tmp_path, capsys, monkeypatch,
                                       env_seed):
        monkeypatch.setenv("REFLECTAL_SEED", env_seed)
        p = tmp_path / "run.json"
        p.write_bytes(base_config(grid={"n_steps": 16}))
        out = tmp_path / "out"
        assert main(["skeleton", "--config", str(p), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigInvalid"
        assert err["message"].startswith("/seed:")
        assert not out.exists()


def csv_reference(header, rows):
    """The CSV text of csv.writer with each float as repr and any other
    value as str, the rule the columnar writer must reproduce."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else str(v)
                         for v in row])
    return buf.getvalue()


class TestWriteCsv:
    """cli._write_csv against csv_reference, within and across blocks."""

    SPECIAL = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324,
               1e-20, 1e16, 0.1, 1.0 / 3.0, -2.5e300, 123456789.0]
    ROWS = [0, 1, cli._BLOCK_ROWS - 1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1]

    @pytest.mark.parametrize("rows", ROWS)
    def test_matches_csv_writer_with_repr(self, rows, tmp_path):
        rng = np.random.default_rng(rows)
        ints = np.arange(rows) - 2
        flags = rng.random(rows) < 0.5
        special = np.resize(np.array(self.SPECIAL), rows)
        block = rng.standard_normal((rows, 2)) * 10.0 ** rng.integers(
            -300, 300, (rows, 1))
        header = ["i", "flag", "v", "w_1", "w_2"]
        path = tmp_path / "table.csv"
        assert cli._write_csv(path, header, (ints, flags, special, block)) == rows
        text = path.read_bytes().decode()
        assert text == csv_reference(header, zip(
            ints.tolist(), flags.tolist(), special.tolist(), *block.T.tolist()))
        assert "np." not in text
        assert text.count("\r\n") == rows + 1

    def test_python_columns_keep_their_types(self, tmp_path):
        path = tmp_path / "table.csv"
        assert cli._write_csv(path, ["n", "x", "ok"],
                              ((0, 1, 2), (0.0, 1.0, 2.5), [True] * 3)) == 3
        assert path.read_bytes() == (b"n,x,ok\r\n0,0.0,True\r\n"
                                     b"1,1.0,True\r\n2,2.5,True\r\n")

    @pytest.mark.parametrize("n_paths, n_steps", [
        (1, cli._BLOCK_ROWS - 2), (1, cli._BLOCK_ROWS - 1),
        (1, cli._BLOCK_ROWS), (3, cli._BLOCK_ROWS // 2)])
    def test_trajectories_across_blocks(self, n_paths, n_steps, tmp_path):
        rows = n_paths * (n_steps + 1)  # block - 1, block, block + 1, more
        manifest = run(validate(base_config(
            command="simulate-forward", n_paths=n_paths, eps=0.1,
            grid={"n_steps": n_steps}, output_dir=str(tmp_path))))
        assert manifest["outputs"]["simulate-forward.csv"]["rows"] == rows
        grid = TimeGrid(0.0, 1.0, n_steps)
        xp, kp = simulate_reflected_batch(
            preset("constant-drift", {"v": 1.0}),
            make_domain("interval", a=0.0, b=1.0), 0.0, [0.5], 0.1, grid, 3,
            n_paths)
        expected = csv_reference(["path", "t", "x_1", "K"], (
            (p, float(t), float(x[0]), float(k)) for p in range(n_paths)
            for t, x, k in zip(grid.nodes, xp[p], kp[p])))
        path = tmp_path / "simulate-forward.csv"
        assert path.read_bytes().decode() == expected
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert table.shape == (rows, 4) and np.isfinite(table).all()
