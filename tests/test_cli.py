import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from waveguide_carleman.cli import ConfigError, ScenarioConfig, main, write_reference
from waveguide_carleman.grid import SpaceTimeGrid
from waveguide_carleman.stability import perturbation_sweep, sweep_table
from waveguide_carleman.synth import axial_factor, dq_preset, q_preset
from waveguide_carleman.weights import WeightSystem

MINIMAL = """\
[scenario]
name: test-run

[grid]
n1: 12
n2: 12
nt: 24

[open]
n1: 127
n2: 7
nt: 16

[lemmas]
seed: 11
draws: 2
"""

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = PYPROJECT.parent / "src"
SUBCOMMANDS = ("forward", "check-weights", "verify-lemmas", "verify-carleman", "stability")


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "scenario.cfg"
    p.write_text(MINIMAL)
    return p


class TestConfigParsing:
    def test_missing_required_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[grid]\nn1: 8\n")
        with pytest.raises(ConfigError, match="scenario.name"):
            ScenarioConfig.parse(p)

    def test_unknown_key_named(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[scenario]\nname: x\n\n[grid]\nn1: 8\nwhat: 3\n")
        with pytest.raises(ConfigError, match="grid.what"):
            ScenarioConfig.parse(p)

    @pytest.mark.parametrize("section, key", [
        ("carleman", "bump_amplitude"), ("stability", "q_amplitude"), ("stability", "f_bump"),
        ("weights", "s"),
    ])
    def test_removed_key_is_unknown(self, tmp_path, capsys, section, key):
        # every pipeline command reads one potential, [forward] q_amplitude
        # times the fixed axial factor, and the Carleman bumps have unit
        # amplitude, so no key sets either separately; an s only picked the
        # sweep row that heads each report, which is WeightParams' default
        p = tmp_path / "bad.cfg"
        p.write_text(f"[scenario]\nname: x\n\n[{section}]\n{key}: 0.3\n")
        command = "verify-carleman" if section == "carleman" else "stability"
        assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert f"unknown config key: {section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key", [("mystery", "k"), ("DEFAULT", "L")])
    def test_unknown_section_named(self, tmp_path, capsys, section, key):
        # configparser would add a [DEFAULT] key to every section
        p = tmp_path / "bad.cfg"
        p.write_text(f"[scenario]\nname: x\n\n[{section}]\n{key}: 1\n")
        assert main(["forward", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: unknown config section: {section}\n"

    def test_invalid_value_named(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[scenario]\nname: x\n\n[grid]\nn1: soup\n")
        with pytest.raises(ConfigError, match=re.escape("[grid] n1")):
            ScenarioConfig.parse(p)

    @pytest.mark.parametrize("section, text", [
        ("[grid]", "[grid]\nn1: 2\n"),
        ("[domain]", "[domain]\nalpha: 3.0\n"),
        ("[open]", "[open]\nnt: 3\n"),
    ])
    def test_out_of_range_value_names_section(self, tmp_path, capsys, section, text):
        p = tmp_path / "bad.cfg"
        p.write_text("[scenario]\nname: x\n\n" + text)
        with pytest.raises(ConfigError, match=re.escape(section)):
            ScenarioConfig.parse(p)
        assert main(["forward", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert section in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, key", [
        ("check-weights", "[weights]\nlambda: -1\n", "[weights]"),
        ("verify-lemmas", "[open]\nlambda: 0\n", "[open] lambda"),
        ("stability", "[stability]\ntheta_list: 0.1,-0.1\n", "[stability] theta_list"),
        ("stability", "[stability]\neps_list: 0.25,5\n", "[stability] eps_list"),
        ("verify-lemmas", "[lemmas]\ndraws: 0\n", "[lemmas] draws"),
        ("verify-lemmas", "[weights]\ns_sweep: -1,2\n", "[weights] s_sweep"),
        ("verify-lemmas", "[open]\ns_sweep: 4,0\n", "[open] s_sweep"),
        ("verify-carleman", "[carleman]\ns_sweep: -2,2\n", "[carleman] s_sweep"),
        ("verify-lemmas", "[lemmas]\nseed: -1\n", "[lemmas] seed"),
        ("verify-carleman", "[carleman]\ns_sweep: 2,inf\n", "[carleman] s_sweep"),
        ("forward", "[forward]\npreset: positive\nq_amplitude: -100\n", "[forward] q_amplitude"),
        ("verify-carleman", "[open]\ns_sweep: 4\n", "[open] s_sweep"),
        ("forward", "[forward]\npreset: soup\n", "[forward] preset"),
        ("forward", "[domain]\nT: inf\n", "[domain] T"),
        ("forward", "[forward]\nq_amplitude: inf\n", "[forward] q_amplitude"),
        ("stability", "[stability]\ntheta_list: nan\n", "[stability] theta_list"),
        ("verify-carleman", "[carleman]\ntheta: nan\n", "[carleman] theta"),
        ("check-weights", "[weights]\ndelta: nan\n", "[weights] delta"),
        ("verify-carleman", "[carleman]\ntheta: 0\n", "[carleman] theta"),
        ("verify-carleman", "[domain]\nh: 1e-300\n", "[grid]/[domain] values"),
        ("verify-lemmas", "[weights]\ns_sweep: 4,2\n", "[weights] s_sweep"),
        # an anchor that snaps onto a cap node: 2/33 apart on [grid], 2/8 on [open]
        ("check-weights", "[domain]\nalpha: 0.98\n", "[grid]/[domain] values"),
        ("verify-lemmas", "[domain]\nalpha: 0.9\n\n[open]\nn1: 7\n", "[open] values"),
        # sup psi = 725.5 at L = 6.5, so exp(2 lam sup psi) overflows
        ("check-weights", "[domain]\nL: 6.5\n", "bounded weight on [grid]"),
        ("verify-carleman", "[open]\nlambda: 800\n", "open weight on [open]"),
        ("forward", "[domain]\nobs_side: left\n", "[grid]/[domain] values"),
        # ia = round(0.99 / dt) = 32 = nt - ia on the default 64 levels
        ("stability", "[stability]\neps_list: 0.99\n",
         "[stability] eps_list: eps=0.99 leaves no interior time window"),
    ])
    def test_value_the_builders_reject_names_key(self, tmp_path, capsys, command, text, key):
        p = tmp_path / "bad.cfg"
        p.write_text("[scenario]\nname: x\n\n" + text)
        with pytest.raises(ConfigError, match=re.escape(key)):
            ScenarioConfig.parse(p)
        assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key_text, argv", [
        ("[stability]\neps_list: 5\n", ["stability", "--eps", "0.25"]),
        ("[weights]\ns_sweep: 4,2\n", ["verify-lemmas", "--sweep-s", "1,2"]),
    ], ids=["eps", "sweep-s"])
    def test_flag_replaces_its_key_before_the_rules(self, tmp_path, key_text, argv):
        # the key's value breaks its rule, but the run reads the flag's value
        p = tmp_path / "scenario.cfg"
        p.write_text(MINIMAL + "\n" + key_text)
        with pytest.raises(ConfigError):
            ScenarioConfig.parse(p)
        out = tmp_path / "out"
        assert main(argv + ["--config", str(p), "--out", str(out)]) == 0
        if argv[0] == "stability":
            rows = (out / "stability_sweep.csv").read_text().splitlines()[1:]
            assert {row.split(",")[1] for row in rows} == {"0.25"}

    def test_oracle_needs_a_coarser_axis(self, tmp_path, capsys):
        # at n1 = 4 the oracle's coarse grid keeps max(4 // 2, 4) = 4 axial
        # nodes, so its order fit would see two equal spacings
        p = tmp_path / "bad.cfg"
        p.write_text("[scenario]\nname: x\n\n[grid]\nn1: 4\nn2: 4\nnt: 8\n")
        with pytest.raises(ConfigError, match=re.escape("[grid] n1")):
            ScenarioConfig.parse(p)
        assert main(["forward", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "[grid] n1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        p.write_text(p.read_text() + "\n[forward]\npreset: positive\n")
        assert ScenarioConfig.parse(p).grid().n1 == 4

    def test_eps_that_rounds_to_t_0_exits_2(self, tmp_path, capsys):
        # at T = 2 with 8 or 4 time steps, eps = 0.1 rounds to time level 0,
        # where the window would run over all of [0, T] under eps's name
        p = tmp_path / "scenario.cfg"
        out = str(tmp_path / "o")
        p.write_text("[scenario]\nname: x\n\n[grid]\nnt: 8\n\n[stability]\neps_list: 0.1\n")
        assert main(["stability", "--config", str(p), "--out", out]) == 2
        assert "[stability] eps_list: eps=0.1 rounds to time level 0" in capsys.readouterr().err
        p.write_text("[scenario]\nname: x\n\n[grid]\nnt: 4\n")
        with pytest.raises(SystemExit) as exc:
            main(["stability", "--config", str(p), "--out", out, "--eps", "0.1"])
        assert exc.value.code == 2
        assert "argument --eps: eps=0.1 rounds to time level 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("raw", [
        b"[scenario]\nname: x\n\n[grid]\nn1: 8\n\n[grid]\nn2: 8\n",
        b"[scenario]\nname: x\nname: y\n",
        b"name: x\n[scenario]\nname: x\n",
        b"[scenario]\nname: x\nno separator here\n",
        b"\xff\xfe[scenario]\nname: x\n",
    ], ids=["duplicate-section", "duplicate-key", "no-section-header", "no-separator",
            "not-utf8"])
    def test_unreadable_file_exits_2(self, tmp_path, capsys, raw):
        p = tmp_path / "bad.cfg"
        p.write_bytes(raw)
        with pytest.raises(ConfigError, match="bad.cfg"):
            ScenarioConfig.parse(p)
        assert main(["forward", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "bad.cfg" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_percent_sign_is_literal(self, tmp_path):
        # the file is flat key: value text, with no %(key)s interpolation
        p = tmp_path / "pct.cfg"
        p.write_text("[scenario]\nname: 100% (%(x)s)\n")
        assert ScenarioConfig.parse(p)["scenario"]["name"] == "100% (%(x)s)"

    def test_missing_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "absent.cfg"
        assert main(["forward", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert f"config file not found: {p}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_defaults_fill_in(self, cfg_path):
        cfg = ScenarioConfig.parse(cfg_path)
        assert cfg["domain"]["L"] == 1.0
        assert cfg["weights"]["s_sweep"] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
        assert cfg["scenario"]["name"] == "test-run"

    def test_reference_file_lists_all_keys(self, tmp_path):
        path = write_reference(tmp_path)
        text = path.read_text()
        for token in ("[scenario]", "[domain]", "s_sweep", "theta_list", "<required>"):
            assert token in text


class TestCommands:
    def test_missing_config_key_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("[grid]\nn1: 8\n")
        code = main(["check-weights", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "scenario.name" in capsys.readouterr().err

    def test_check_weights_ok(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["check-weights", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        assert (out / "assumptions_bounded.txt").exists()
        assert (out / "assumptions_open.txt").exists()
        assert (out / "config_reference.txt").exists()
        assert "all_passed: true" in capsys.readouterr().out

    def test_check_weights_reports_name_their_wall(self, cfg_path, tmp_path, capsys):
        # the two walls' profiles are mirror images with the same margins,
        # so the obs_side line after regime: is all that tells them apart
        bottom = tmp_path / "bottom.cfg"
        bottom.write_text(MINIMAL + "\n[domain]\nobs_side: bottom\n")
        lines = {}
        for side, cfg in (("top", cfg_path), ("bottom", bottom)):
            out = tmp_path / side
            assert main(["check-weights", "--config", str(cfg), "--out", str(out)]) == 0
            lines[side] = [capsys.readouterr().out.splitlines()] + [
                (out / f"assumptions_{regime}.txt").read_text().splitlines()
                for regime in ("bounded", "open")]
        for top, bottom in zip(lines["top"], lines["bottom"], strict=True):
            assert len(top) == len(bottom)
            changed = [(i, a, b) for i, (a, b) in enumerate(zip(top, bottom)) if a != b]
            assert changed and all(top[i - 1].startswith("regime: ") and
                                   (a, b) == ("obs_side: top", "obs_side: bottom")
                                   for i, a, b in changed), changed

    def test_forward_oracle_writes_field_and_report(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        code = main(["forward", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        assert (out / "u.meta").exists() and (out / "u.f64").exists()
        text = (out / "forward_oracle.txt").read_text()
        assert "relative_l2_error" in text and "fitted_order" in text

    def test_forward_positive_preset(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("[scenario]\nname: positive\n\n[forward]\npreset: positive\n")
        out = tmp_path / "out"
        assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "u.meta").exists() and (out / "u.f64").exists()
        report = dict(line.split(": ", 1)
                      for line in (out / "forward_positive.txt").read_text().splitlines())
        assert float(report["min_u"]) == pytest.approx(0.9407773423660128, rel=1e-12)
        assert float(report["compatibility_residual"]) == 0.0

    def test_verify_lemmas_ok_and_deterministic(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["verify-lemmas", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["verify-lemmas", "--config", str(cfg_path), "--out", str(out2)]) == 0
        for name in ("lemma_bounded_00.txt", "lemma_bounded_01.txt",
                     "lemma_open_00.txt", "lemma_open_01.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_flag_changes_reports(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["verify-lemmas", "--config", str(cfg_path), "--out", str(out1), "--seed", "1"])
        main(["verify-lemmas", "--config", str(cfg_path), "--out", str(out2), "--seed", "2"])
        a = (out1 / "lemma_bounded_00.txt").read_bytes()
        b = (out2 / "lemma_bounded_00.txt").read_bytes()
        assert a != b

    def test_sweep_flag_overrides(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        code = main(["verify-lemmas", "--config", str(cfg_path), "--out", str(out),
                     "--sweep-s", "1,2"])
        assert code == 0
        text = (out / "lemma_bounded_00.txt").read_text()
        assert "\n1.0," in text and "\n2.0," in text and "\n4.0," not in text

    @pytest.mark.parametrize("argv, flag", [
        (["verify-lemmas", "--sweep-s", "abc"], "--sweep-s"),
        (["verify-lemmas", "--sweep-s", ","], "--sweep-s"),
        (["stability", "--eps", "x"], "--eps"),
        (["stability", "--eps", ""], "--eps"),
        (["forward", "--eps", "0.25"], "--eps"),
        (["check-weights", "--seed", "3"], "--seed"),
        (["stability", "--eps", "5"], "--eps"),  # outside (0, T/2) on the T = 2 grid
        (["verify-lemmas", "--sweep-s=-1,2"], "--sweep-s"),
        (["verify-lemmas", "--seed", "-3"], "--seed"),
        (["verify-lemmas", "--sweep-s", "4,2"], "--sweep-s"),
    ])
    def test_malformed_or_foreign_flag_exits_2(self, cfg_path, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_stability_reports_and_table(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        code = main(["stability", "--config", str(cfg_path), "--out", str(out),
                     "--eps", "0.25"])
        assert code == 0
        table = (out / "stability_sweep.csv").read_text()
        assert table.startswith("theta,eps,lhs")
        assert (out / "stability_00.txt").exists()

    def test_stability_uses_the_forward_potential(self, cfg_path, tmp_path):
        # stability sweeps the potential q_preset([forward] q_amplitude) times
        # the axial factor f = 1 + 0.5 cos(pi x1 / L), as verify-carleman does
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(cfg_path.read_text() + "\n[forward]\nq_amplitude: 0.2\n")
        out = tmp_path / "out"
        assert main(["stability", "--config", str(cfg), "--out", str(out), "--eps", "0.25"]) == 0
        grid = ScenarioConfig.parse(cfg).grid()
        reports = perturbation_sweep(grid, q_preset(grid, 0.2), dq_preset(grid),
                                     axial_factor(grid), [0.1, 0.05, 0.025], [0.25])
        for i, rep in enumerate(reports):
            assert (out / f"stability_{i:02d}.txt").read_text() == rep.to_text()
        assert (out / "stability_sweep.csv").read_text() == sweep_table(reports)

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_that_is_not_a_directory_exits_2(self, cfg_path, tmp_path, out):
        # the config is checked first; then --out must name a directory it
        # can create or reuse, and an existing file is left as it was
        (tmp_path / "afile").write_text("keep")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "waveguide_carleman", "check-weights", "--config",
             str(cfg_path), "--out", out], capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 2
        assert "argument --out:" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert (tmp_path / "afile").read_text() == "keep"

    @pytest.mark.parametrize("command", [
        pytest.param(c, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 4: open draw 0 fits slope -1.468, "
                                "outside the band [-2.5, -1.5]"))
        if c == "verify-lemmas" else c for c in SUBCOMMANDS])
    def test_shipped_defaults_exit_0(self, tmp_path, command):
        # every key but the required scenario.name at its shipped default
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("[scenario]\nname: defaults\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_zero_row_fails_verify_carleman(self, tmp_path):
        # the shipped defaults but a large open sweep: at s = 512 the open
        # bump's decay is 0 on every node, so both sides of that row are 0;
        # the row used to read 0, pass all_finite and exit 0
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("[scenario]\nname: large-s\n\n[open]\ns_sweep: 32,64,128,256,512,1024\n")
        out = tmp_path / "out"
        assert main(["verify-carleman", "--config", str(cfg), "--out", str(out)]) == 1
        text = (out / "carleman_open_bump.txt").read_text()
        assert "verdict.all_finite: False" in text
        assert "\n512.0,1.1,0.0,0.0,0.0,0.0,0.0,0.0,0.0,nan\n" in text

    @pytest.mark.parametrize("key_text, reason", [
        ("[forward]\nq_amplitude: 1000\n", "f*u~ is not positive"),
        ("[carleman]\ntheta: 100\n", "z does not vanish on the space boundary"),
        ("[forward]\nq_amplitude: 1e100\n", "member 0, step 1: no convergence in 200 iterations"),
    ], ids=["q_amplitude", "theta", "breakdown"])
    def test_verify_carleman_names_a_pipeline_it_cannot_check(self, cfg_path, tmp_path,
                                                             key_text, reason):
        # the pipeline's solve breaks down, or the pipeline breaks a hypothesis
        # of the transform or of the check: the run says why, still checks
        # the open bump, and fails
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(cfg_path.read_text() + "\n" + key_text)
        out = tmp_path / "out"
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "waveguide_carleman", "verify-carleman", "--config", str(cfg),
             "--out", str(out)], capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"carleman_bounded pipeline: not checked: {reason}" in proc.stderr
        assert (out / "carleman_open_bump.txt").exists()
        assert not (out / "carleman_bounded_pipeline.txt").exists()
        assert "carleman_open bump: s0" in proc.stdout

    @pytest.mark.parametrize("command, key_text, reason", [
        ("stability", "[forward]\nq_amplitude: 1e100\n", "no convergence in 200 iterations"),
        ("forward", "[forward]\npreset: positive\nq_amplitude: 1e300\n", "non-finite residual"),
        ("stability", "[forward]\nq_amplitude: 1e308\n", "non-finite residual"),
    ], ids=["stability", "forward", "overflow"])
    def test_solver_breakdown_fails_without_a_traceback(self, cfg_path, tmp_path, command,
                                                        key_text, reason):
        # the potential is so large that the first step's solve does not
        # converge, or its residual overflows: the run names the breakdown on
        # the one line it prints to stderr, with no overflow warning, and fails
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(cfg_path.read_text() + "\n" + key_text)
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "waveguide_carleman", command, "--config", str(cfg),
             "--out", str(tmp_path / "out")], capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"{command}: not solved: member 0, step 1: {reason}")

    def test_forward_oracle_reads_no_anchor(self, tmp_path):
        # alpha = 0.95 is interior at the default n1 = 32 but snaps onto the
        # cap of the oracle's coarse axis at n1 = 16, which reads no anchor
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("[scenario]\nname: anchor\n\n[domain]\nalpha: 0.95\n")
        out = tmp_path / "out"
        assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 0
        assert "alpha: 0.95\n" in (out / "u.meta").read_text()
        assert "fitted_order: " in (out / "forward_oracle.txt").read_text()

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_each_grid_and_weight_is_built_once(self, cfg_path, tmp_path, monkeypatch, command):
        # parse builds the bounded and open grids and weights; the commands
        # use them, and only forward's oracle builds its coarse grid
        built = []
        for cls, kind in ((SpaceTimeGrid, "grid"), (WeightSystem, "weights")):
            def counting(self, *args, _init=cls.__init__, _kind=kind, **kwargs):
                _init(self, *args, **kwargs)
                built.append((_kind, self.domain.truncated) if _kind == "grid"
                             else (_kind, self.params.regime))
            monkeypatch.setattr(cls, "__init__", counting)
        main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        grids = [("grid", False), ("grid", True)] + [("grid", False)] * (command == "forward")
        assert sorted(built) == sorted(grids + [("weights", "bounded"), ("weights", "open")])

    def test_verify_carleman_runs(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        code = main(["verify-carleman", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        for name in ("carleman_bounded_bump.txt", "carleman_bounded_pipeline.txt",
                     "carleman_open_bump.txt"):
            assert (out / name).exists()


class TestThreadIndependence:
    def test_reports_do_not_depend_on_blas_threads(self, tmp_path):
        # the quadrature contracts through BLAS; its result must not change
        # with the thread count (criterion-10 config)
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            "[scenario]\nname: determinism\n\n[grid]\nn1: 12\nn2: 12\nnt: 24\n\n"
            "[open]\nn1: 63\nn2: 7\nnt: 16\n\n[lemmas]\nseed: 3\ndraws: 2\n"
        )
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
            for command in ("verify-carleman", "stability"):
                proc = subprocess.run(
                    [sys.executable, "-m", "waveguide_carleman", command, "--config", str(cfg),
                     "--out", str(out)], capture_output=True, text=True, env=env,
                )
                assert proc.returncode == 0, proc.stderr
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert "carleman_open_bump.txt" in names and "stability_sweep.csv" in names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestEntryPoint:
    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "waveguide_carleman", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "forward" in proc.stdout and "stability" in proc.stdout

    def test_package_import_loads_no_scipy(self):
        # scipy is most of the package's import time and no module needs it
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, waveguide_carleman.cli; print(sorted(sys.modules))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "'waveguide_carleman.forward'" in proc.stdout
        assert "'scipy'" not in proc.stdout

    def test_console_script_help(self):
        # Checks the [project.scripts] declaration itself, so a wrong module,
        # function or script name fails without an install: the subprocess
        # does what an installer's generated wrapper does.
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["waveguide-carleman"]
        module, attr = target.split(":")
        wrapper = (
            "import sys\n"
            "sys.argv[0] = 'waveguide-carleman'\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        _assert_help(subprocess.run(
            [sys.executable, "-c", wrapper, "--help"], capture_output=True, text=True
        ))
        installed = shutil.which("waveguide-carleman")
        if installed is not None:
            _assert_help(subprocess.run(
                [installed, "--help"], capture_output=True, text=True
            ))


def _assert_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: waveguide-carleman")
    for name in SUBCOMMANDS:
        assert name in proc.stdout
