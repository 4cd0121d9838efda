import argparse
import csv
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from chemocert.cli import build_parser, main
from chemocert.config import (
    INITIAL_OPTIONS,
    MAX_CELLS,
    TOL_C,
    ConfigError,
    RunConfig,
    config_from_mapping,
    load_config,
    parse_config_text,
)
from chemocert.solver import MAX_STEPS

SMALL_CFG = """
grid.cells = 16, 16
grid.lengths = 1.0, 1.0
model.theta = 2.0
model.eps = 0.25
solver.max_dt = 0.01
run.T = 0.4
run.output_times = 0.0:0.4:5
init.u.kind = gaussian-bump
init.u.center = 0.35, 0.55
init.u.sigma = 0.2
init.u.mass = 0.5
init.v.kind = gaussian-bump
init.v.center = 0.65, 0.4
init.v.sigma = 0.18
init.v.mass = 0.3
init.w.kind = constant
init.w.value = 0.1
certify.bumps = 2
certify.seed = 7
sweep.eps_ladder = 0.5, 0.25, 0.125
"""

# certificates.csv of `certify` on SMALL_CFG, evaluated one bump at a time
PINNED_RECORDS = {
    ("weakform_w", 0): (
        0.00015138235920389182, 0.00014830285287004973, 3.0795063338420845e-06,
        {"eps_discrepancy": 6.95794783293355e-05,
         "residual_limit_form": -6.649997199549345e-05}),
    ("weakform_v", 0): (
        -0.0018339020027798671, -0.0021417973821771827, 0.0003078953793973155,
        {"information_loss": 1.0}),
    ("entropy_inequality", 0): (
        -7.312657948093434e-05, -9.472280450780123e-05, 2.1596225026866892e-05,
        {"limit_form_slack": -9.121699570651824e-05,
         "eps_discrepancy": 6.962077067965134e-05, "p": 1.0, "k": 2.0}),
    ("z_evolution", 0): (
        0.0013526292638452106, 0.0, 0.0013526292638452106,
        {"printed_drift_coeff_residual": 0.0009541479119856344, "n_instants": 14.0,
         "p": 1.0, "k": 2.0}),
    ("weakform_w", 1): (
        0.00035689575824786004, 0.0003507239133050206, 6.171844942839456e-06,
        {"eps_discrepancy": 0.00011663374290773699,
         "residual_limit_form": -0.00011046189796489749}),
    ("weakform_v", 1): (
        -2.066319878132385e-05, -2.508502672573653e-05, 4.421827944412679e-06,
        {"information_loss": 0.0}),
    ("entropy_inequality", 1): (
        2.7854075152839573e-05, 6.541267373234453e-05, -3.755859857950496e-05,
        {"limit_form_slack": -6.987204824593021e-05,
         "eps_discrepancy": 0.00010743064682543526, "p": 1.0, "k": 2.0}),
    ("z_evolution", 1): (
        0.0005557486212707727, 0.0, 0.0005557486212707727,
        {"printed_drift_coeff_residual": 0.0006689757643093125, "n_instants": 35.0,
         "p": 1.0, "k": 2.0}),
}


# the refine ladder from an 8x8 base: three levels end at 32x32
REFINE_CFG = SMALL_CFG.replace("grid.cells = 16, 16", "grid.cells = 8, 8").replace(
    "solver.max_dt = 0.01", "solver.max_dt = 0.02")


# a horizon simulate takes and the time-integrating commands refuse
ZERO_HORIZON_CFG = SMALL_CFG.replace("run.T = 0.4", "run.T = 0.0").replace(
    "run.output_times = 0.0:0.4:5", "run.output_times = 0.0")


def write_cfg(tmp_path, text=SMALL_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def switch_kind(text, name, kind, **options):
    """``text`` with field ``name`` set to ``kind``; the old kind's options go."""
    lines = [line for line in text.splitlines() if not line.startswith(f"init.{name}.")]
    lines.append(f"init.{name}.kind = {kind}")
    lines += [f"init.{name}.{key} = {value}" for key, value in options.items()]
    return "\n".join(lines) + "\n"


class TestConfigParsing:
    def test_round_trip_mapping(self):
        mapping = parse_config_text(SMALL_CFG)
        cfg = config_from_mapping(mapping)
        again = config_from_mapping(cfg.to_mapping())
        assert again.grid == cfg.grid
        assert again.params == cfg.params
        assert again.output_times == cfg.output_times
        assert again.eps_ladder == cfg.eps_ladder

    def test_restated_tolerance_constants_accepted(self):
        # a config may restate each calibrated constant; it is fixed in code,
        # so the run and its manifest are those of the config without it
        restated = "".join(f"certify.tol_c.{kind} = {c!r}\n" for kind, c in TOL_C.items())
        cfg = config_from_mapping(parse_config_text(SMALL_CFG + restated))
        assert cfg.to_mapping() == config_from_mapping(parse_config_text(SMALL_CFG)).to_mapping()
        assert not any(key.startswith("certify.tol_c.") for key in cfg.to_mapping())

    def test_comments_and_blank_lines(self):
        mapping = parse_config_text("# hi\n\na.b = 1 # trailing\n")
        assert mapping == {"a.b": "1"}

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("nonsense")

    def test_theta_validation_names_field(self):
        mapping = parse_config_text(SMALL_CFG)
        mapping["model.theta"] = "0.9"
        with pytest.raises(ConfigError, match="model.theta"):
            config_from_mapping(mapping)

    def test_missing_initial_kind_named(self):
        mapping = parse_config_text(SMALL_CFG)
        del mapping["init.u.kind"]
        with pytest.raises(ConfigError, match="init.u.kind"):
            config_from_mapping(mapping)

    def test_inadmissible_weights_rejected(self):
        mapping = parse_config_text(SMALL_CFG)
        mapping["certify.weights"] = "1:1"
        with pytest.raises(ConfigError, match="certify.weights"):
            config_from_mapping(mapping)

    @pytest.mark.parametrize("weights", ["-1:2", "0:1"])
    def test_weight_threshold_domain_named(self, weights):
        mapping = parse_config_text(SMALL_CFG)
        mapping["certify.weights"] = weights
        with pytest.raises(ConfigError, match="certify.weights.*p must be positive"):
            config_from_mapping(mapping)

    @pytest.mark.parametrize("key, value", [
        ("run.T", "inf"),
        ("grid.cells", "64.7, 64"),
        ("run.output_times", "0, nan"),
        ("solver.max_dt", "inf"),
        ("model.theta", "inf"),
        ("certify.tol_c.mass", "-1"),
        ("certify.seed", "-1"),
        ("probe.seed", "-1"),
        ("sweep.eps_ladder", "0.25"),  # a sweep compares at least two rungs
        # refused by the objects config builds, one key at a time
        ("grid.lengths", "-1, 1"),
        ("solver.max_dt", "0"),
        # a bump with no mass on the grid, and one whose mass overflows its peak
        ("init.u.sigma", "1e-200"),
        ("init.u.mass", "1e308"),
        # a bump centred on or past the wall: half a bump, or none on the grid
        ("init.u.center", "1.5, 0.5"),
        ("init.u.center", "50, 50"),
        ("init.v.center", "0.65, 0"),
    ])
    def test_meaningless_value_names_field(self, key, value):
        mapping = parse_config_text(SMALL_CFG)
        mapping[key] = value
        with pytest.raises(ConfigError, match=re.escape(f"'{key}'")):
            config_from_mapping(mapping)

    @pytest.mark.parametrize("key, value, message", [
        # one past the bound, so that a lost bound costs 0.8 MB here and not
        # the 8 GB that 0:0.4:1000000000 would ask of linspace
        ("run.output_times", "0:0.4:100001", "count must be <= 100000"),
        ("grid.cells", "257, 256", "a grid of 257 x 256 cells exceeds"),
        ("certify.bumps", "257", "must lie in [1, 256]"),
        ("certify.bumps", "0", "must lie in [1, 256]"),
    ])
    def test_counts_that_would_not_fit_named(self, key, value, message):
        mapping = parse_config_text(SMALL_CFG)
        mapping[key] = value
        with pytest.raises(ConfigError, match=re.escape(f"'{key}': {message}")):
            config_from_mapping(mapping)

    def test_counts_at_their_bounds_accepted(self):
        mapping = parse_config_text(SMALL_CFG)
        mapping["run.output_times"] = "0:0.4:100000"
        mapping["certify.bumps"] = "256"
        mapping["grid.cells"] = "256, 256"
        cfg = config_from_mapping(mapping)
        assert len(cfg.output_times) == 100_000 and cfg.bump_count == 256
        assert cfg.grid.n_cells == MAX_CELLS

    def test_repeated_key_names_both_lines(self):
        text = SMALL_CFG + "model.theta = 3.0\n"
        lines = text.splitlines()
        first = lines.index("model.theta = 2.0") + 1
        with pytest.raises(ConfigError, match=re.escape(
                f"'model.theta': set twice, on lines {first} and {len(lines)}")):
            parse_config_text(text)

    def test_increasing_ladder_rejected(self):
        mapping = parse_config_text(SMALL_CFG)
        mapping["sweep.eps_ladder"] = "0.25, 0.5"
        with pytest.raises(ConfigError, match="sweep.eps_ladder"):
            config_from_mapping(mapping)

    @pytest.mark.parametrize("key, value", [
        ("model.esp", "0.25"),
        ("solver.linear_solver", "cg"),
        ("run.history_every", "2"),
        # N is the grid's dimension; the initial data are only clipped
        ("model.dim_n", "2"),
        ("sweep.smoothing", "0"),
        ("init.u.sigmma", "0.2"),
        # the estimates always run; older manifests carry this line
        ("run.estimates", "on"),
    ])
    def test_unknown_key_named(self, key, value):
        mapping = parse_config_text(SMALL_CFG)
        mapping[key] = value
        with pytest.raises(ConfigError, match=re.escape(f"'{key}': unknown key")):
            config_from_mapping(mapping)

    @pytest.mark.parametrize("text, key, value", [
        (switch_kind(SMALL_CFG, "u", "constant", value="0.5"), "init.u.sigma", "0.2"),
        # only a constant reads value; older manifests echo it for every kind
        (SMALL_CFG, "init.u.value", "0"),
    ], ids=["sigma-of-constant", "value-of-gaussian-bump"])
    def test_option_of_another_kind_named(self, text, key, value):
        mapping = parse_config_text(text)
        config_from_mapping(mapping)
        mapping[key] = value
        with pytest.raises(ConfigError, match=re.escape(f"'{key}': unknown key")):
            config_from_mapping(mapping)

    @pytest.mark.parametrize("value", ["2.5", "2", "1", "0"])
    def test_refine_levels_named(self, value):
        mapping = parse_config_text(SMALL_CFG)
        mapping["refine.levels"] = value
        with pytest.raises(ConfigError, match=re.escape("'refine.levels'")):
            config_from_mapping(mapping)

    @pytest.mark.parametrize("sigma", ["1e-5", "1e-200"])
    def test_massless_bump_without_mass_key_names_sigma(self, sigma):
        # without init.u.mass the bump is not scaled, so no mass check sees it
        text = switch_kind(SMALL_CFG, "u", "gaussian-bump", center="0.35, 0.55",
                           sigma=sigma)
        with pytest.raises(ConfigError, match=re.escape("'init.u.sigma': bump has no")):
            config_from_mapping(parse_config_text(text))

    def test_very_wide_bump_is_flat(self):
        # sigma ** 2 overflows a double: the bump is flat, scaled to its mass
        text = switch_kind(SMALL_CFG, "u", "gaussian-bump", center="0.35, 0.55",
                           sigma="1e200", mass="0.5")
        u0 = config_from_mapping(parse_config_text(text)).build_initial_family().u0
        assert np.all(u0.values == u0.values[0, 0])
        assert u0.values[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_gaussian_bump_integrates_to_its_mass(self):
        text = switch_kind(SMALL_CFG, "u", "gaussian-bump", center="0.3, 0.6",
                           sigma="0.1", mass="0.7")
        cfg = config_from_mapping(parse_config_text(text))
        u0 = cfg.build_initial_family().u0
        assert u0.min() > 0.0
        assert u0.values.sum() * cfg.grid.cell_volume == pytest.approx(0.7, rel=1e-12)

    @pytest.mark.parametrize("kind, options, key, message", [
        ("two-bump", {"center1": "0.3, 0.3", "center2": "0.7, 0.7", "sigma1": "0.1",
                      "sigma2": "0.15"}, "init.u.kind", "unknown kind 'two-bump'"),
        ("random-seeded", {"seed": "3"}, "init.u.kind", "unknown kind 'random-seeded'"),
        ("gaussian-bump", {"center": "0.3, 0.6", "sigma": "0.1", "mass": "0.5",
                           "amplitude": "3"}, "init.u.amplitude", "unknown key"),
    ], ids=["two-bump", "random-seeded", "amplitude"])
    def test_removed_initial_data_named(self, kind, options, key, message):
        text = switch_kind(SMALL_CFG, "u", kind, **options)
        with pytest.raises(ConfigError, match=re.escape(f"'{key}': {message}")):
            config_from_mapping(parse_config_text(text))

    @pytest.mark.parametrize("kind, option", [
        (kind, option) for kind, options in INITIAL_OPTIONS.items() for option in options])
    def test_every_initial_option_is_read(self, kind, option):
        # every option of a kind, each set beside all the others, changes the
        # field the kind builds
        base = {"constant": {"value": "0.3"},
                "gaussian-bump": {"center": "0.4, 0.5", "sigma": "0.2", "mass": "0.5"}}
        other = {"value": "0.6", "center": "0.6, 0.5", "sigma": "0.1", "mass": "0.7"}

        def built(options):
            text = switch_kind(SMALL_CFG, "u", kind, **options)
            return config_from_mapping(parse_config_text(text)).build_initial_family().u0

        assert not np.array_equal(built(base[kind]).values,
                                  built({**base[kind], option: other[option]}).values)


class TestCommandLine:
    def test_each_command_takes_only_its_options(self):
        # a run is its config file: the commands that read one take no other
        # option; verify-identities reads none, and its sampling is fixed
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        options = {name: sorted(option for action in parser._actions
                                for option in action.option_strings
                                if option not in ("-h", "--help"))
                   for name, parser in sub.choices.items()}
        assert options == {"simulate": ["--config", "--out"],
                           "sweep": ["--config", "--out"],
                           "certify": ["--config", "--out"],
                           "refine": ["--config", "--out"],
                           "verify-identities": ["--out"]}

    @pytest.mark.parametrize("command, text, builds", [
        ("simulate", SMALL_CFG, 1), ("sweep", SMALL_CFG, 1), ("certify", SMALL_CFG, 1),
        # each refine level is a config of its own, on its own grid
        ("refine", REFINE_CFG, 4),
    ], ids=["simulate", "sweep", "certify", "refine"])
    def test_initial_family_built_once_per_config(self, tmp_path, monkeypatch, command,
                                                  text, builds):
        # the load's check and the run read one build; every process that
        # builds one, a forked worker too, appends a line
        log = tmp_path / "builds.log"
        build = RunConfig.build_initial_family

        def counted(cfg):
            with log.open("a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return build(cfg)

        monkeypatch.setattr(RunConfig, "build_initial_family", counted)
        main([command, "--config", str(write_cfg(tmp_path, text)),
              "--out", str(tmp_path / "out")])
        assert len(log.read_text(encoding="utf-8").splitlines()) == builds


class TestSimulateCommand:
    def test_artifacts_and_exit(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("manifest.cfg", "diagnostics.csv", "estimates.csv",
                     "fields_0.csv", "fields_0.4.csv"):
            assert (out / name).exists(), name
        header = (out / "diagnostics.csv").read_text().splitlines()[0]
        assert header.startswith("t,dt,mass_u,mass_v,mass_w")

    def test_t_zero_single_snapshot(self, tmp_path):
        text = SMALL_CFG.replace("run.T = 0.4", "run.T = 0.0")
        text = text.replace("run.output_times = 0.0:0.4:5", "run.output_times = 0.0, 0.0")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out0"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        fields = [p.name for p in out.glob("fields_*.csv")]
        assert fields == ["fields_0.csv"]

    @pytest.mark.parametrize("T, times, clash", [
        ("0.2", "0, 0.1234561, 0.1234562, 0.2", "fields_0.123456.csv"),
        ("1", "0, 0.5, 0.9999999", "fields_1.csv"),  # collides with T's file
    ], ids=["six-digit-twins", "next-to-T"])
    def test_snapshot_name_collision_exit_2(self, tmp_path, capsys, T, times, clash):
        text = SMALL_CFG.replace("grid.cells = 16, 16", "grid.cells = 8, 8")
        text = text.replace("run.T = 0.4", f"run.T = {T}")
        text = text.replace("run.output_times = 0.0:0.4:5", f"run.output_times = {times}")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "run.output_times" in err and clash in err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value, clash", [
        ("sweep", "sweep.eps_ladder", "0.5, 0.4999999, 0.125", "eps=0.5"),
    ], ids=["sweep.eps_ladder"])
    def test_entries_named_alike_exit_2(self, tmp_path, capsys, command, key, value,
                                        clash):
        # two entries whose outputs would share a name are refused by key
        # before anything is stepped or written
        lines = [line for line in REFINE_CFG.splitlines() if not line.startswith(key)]
        cfg = write_cfg(tmp_path, "\n".join(lines + [f"{key} = {value}"]) + "\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and clash in err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [
        ("certify", "certify.weights", "1:2; 1:3"),
        ("sweep", "certify.weights", "1:2; 1:3"),
        ("refine", "certify.weights", "1:2; 1:3"),
        *[("certify", f"certify.tol_c.{kind}", f"{2 * c:g}") for kind, c in TOL_C.items()],
        ("refine", "certify.tol_c.mass", "1e-7"),
        ("certify", "certify.tol_c.gradient", "1"),
        ("simulate", "probe.trials", "200"),
        # fixed in code even at the value they had as keys
        ("simulate", "probe.eta", "0.25, 1"),
        ("simulate", "solver.cfl_safety", "0.5"),
    ], ids=["certify.weights", "sweep-weights", "refine-weights",
            *[f"tol_c.{kind}" for kind in TOL_C], "refine-tol_c.mass", "tol_c.gradient",
            "probe.trials", "probe.eta", "solver.cfl_safety"])
    def test_one_pair_and_fixed_constants_exit_2(self, tmp_path, capsys, command, key,
                                                 value):
        # a run certifies one weight pair, and the tolerance constants, the
        # probe's levels and trial count and the CFL factor are fixed in code:
        # a config that sets another is refused by key before anything is
        # stepped or written
        cfg = write_cfg(tmp_path, REFINE_CFG + f"{key} = {value}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_theta_exit_2_names_field(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_CFG.replace("model.theta = 2.0",
                                                    "model.theta = 0.9"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "model.theta" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        *[(switch_kind(REFINE_CFG, name, "constant", value="1e200"), f"init.{name}.value")
          for name in "uvw"],
        (REFINE_CFG.replace("init.u.mass = 0.5", "init.u.mass = 1e200"), "init.u.mass"),
        # finite in each cell, but the reactions' sums over the 64 cells overflow
        (switch_kind(REFINE_CFG, "u", "constant", value="1e154"), "init.u.value"),
    ], ids=["u.value", "v.value", "w.value", "u.mass", "u.value-cell-sum"])
    def test_overflowing_initial_data_exit_2_before_running(self, tmp_path, capsys,
                                                            text, key):
        # u^theta, v^2 or w^2 of such data, or a reaction's sum over the
        # cells, overflows a double: refused at load, with no numpy warning,
        # which the suite would raise
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == 2
        assert f"'{key}': the initial {key[5]} overflows a double" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _run_w_bump(tmp_path, command, mass, base=REFINE_CFG):
        """``command`` on ``base`` with a w bump of ``mass``, as the command line runs.

        numpy's warnings are printed, not raised. Returns the finished process.
        """
        text = switch_kind(base, "w", "gaussian-bump", center="0.5, 0.5", sigma="0.1",
                           mass=mass)
        src = Path(__file__).resolve().parents[1] / "src"
        return subprocess.run(
            [sys.executable, "-m", "chemocert", command, "--config",
             str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=120)

    @pytest.mark.parametrize("command", ["simulate", "certify"])
    def test_stepper_abort_exit_2(self, tmp_path, command):
        # this w bump loads, as its norm and its |grad w|^2 in each cell are
        # finite, but the sum of |grad w|^2 over the cells, which the load
        # does not take, overflows, and the stepper gives up after one step.
        # Its dt is near 1e-156: at T = 1e-150 the step budget admits the run
        base = REFINE_CFG.replace("run.T = 0.4", "run.T = 1e-150").replace(
            "run.output_times = 0.0:0.4:5", "run.output_times = 0.0")
        proc = self._run_w_bump(tmp_path, command, "1e152", base)
        out = tmp_path / "out"
        assert proc.returncode == 2
        assert "error: non-finite accumulator" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "certify"])
    def test_step_budget_exit_2(self, tmp_path, command):
        # the transport limit sets dt near 1e-154 at this mass, so T = 0.4
        # would take about 1e153 steps; the budget stops it at its first step
        start = time.monotonic()
        proc = self._run_w_bump(tmp_path, command, "1e150")
        assert time.monotonic() - start < 30.0
        assert proc.returncode == 2
        message = proc.stderr.strip().splitlines()[-1]
        assert message.startswith("error: step budget spent: 0 steps reach t=0 of T=0.4")
        assert "the transport limit sets dt=2.29461e-154 (solver.max_dt = 0.02)" in message
        assert message.endswith(f"more than MAX_STEPS = {MAX_STEPS} steps")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("max_dt", ["0.02", "1"])
    def test_step_budget_admits_a_steep_bump(self, tmp_path, max_dt):
        # transport sets most of this bump's steps, 445 under max_dt = 0.02 and
        # 423 under max_dt = 1: a looser cap does not shrink the budget
        base = REFINE_CFG.replace("solver.max_dt = 0.02", f"solver.max_dt = {max_dt}")
        proc = self._run_w_bump(tmp_path, "simulate", "10", base)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "diagnostics.csv").exists()

    @pytest.mark.parametrize("command, key, value", [
        ("simulate", "grid.cells", "257, 256"),
        # 8 x 8 doubled six times is 512 x 512; five times is the bound's 256 x 256
        ("refine", "refine.levels", "7"),
    ], ids=["grid.cells", "refine.levels"])
    def test_grid_over_the_cell_bound_exit_2(self, tmp_path, capsys, command, key, value):
        lines = [line for line in REFINE_CFG.splitlines() if not line.startswith(key)]
        cfg = write_cfg(tmp_path, "\n".join(lines + [f"{key} = {value}"]) + "\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"'{key}': a grid of " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "certify", "refine",
                                         "verify-identities"])
    def test_negative_seed_exit_2_before_running(self, tmp_path, capsys, command):
        # the commands that read a config take their seeds from it, and
        # verify-identities has a fixed one: none has a --seed at all
        out = tmp_path / "out"
        config = [] if command == "verify-identities" else ["--config",
                                                            str(write_cfg(tmp_path))]
        with pytest.raises(SystemExit) as exc:
            main([command, *config, "--out", str(out), "--seed", "-1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed -1" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_round_trip_reproduces(self, tmp_path):
        cfg = write_cfg(tmp_path, REFINE_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(out1 / "manifest.cfg"),
                     "--out", str(out2)]) == 0
        for name in ("diagnostics.csv", "estimates.csv", "fields_0.4.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        # every command's manifest, extras included, loads as the same config
        expected = load_config(cfg).to_mapping()
        for command in ("certify", "sweep", "refine"):
            out = tmp_path / command
            main([command, "--config", str(cfg), "--out", str(out)])
            assert load_config(out / "manifest.cfg").to_mapping() == expected, command


class TestSweepCommand:
    def test_zero_horizon_named_before_stepping(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(write_cfg(tmp_path, ZERO_HORIZON_CFG)),
                     "--out", str(out)]) == 2
        assert "'run.T'" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_data_gaps_exactly_zero(self, tmp_path):
        text = switch_kind(SMALL_CFG, "u", "constant", value="0.0")
        text = switch_kind(text, "v", "constant", value="0.0")
        text = text.replace("init.w.value = 0.1", "init.w.value = 0.0")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 4  # header + three ladder levels
        first = rows[1].split(",")
        assert float(first[1]) == 0.0 and float(first[2]) == 0.0

    def test_constant_data_gaps_match_ode_oracle(self, tmp_path):
        # constant (1/2, 1/2) data: species gaps vanish and the w gap between
        # rungs is |g' - g| * int_0^T (1 - e^-t) dt with g = 1/(1 + eps)
        text = switch_kind(SMALL_CFG, "u", "constant", value="0.5")
        text = switch_kind(text, "v", "constant", value="0.5")
        text = text.replace("run.T = 0.4", "run.T = 1.0")
        text = text.replace("run.output_times = 0.0:0.4:5", "run.output_times = 0.0:1.0:11")
        text = text.replace("solver.max_dt = 0.01", "solver.max_dt = 0.001")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "sweep"
        main(["sweep", "--config", str(cfg), "--out", str(out)])
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        ladder = (0.5, 0.25, 0.125)
        time_factor = math.exp(-1.0)  # int_0^T (1 - e^-t) dt = T - 1 + e^-T at T=1
        for row, (e1, e2) in zip(rows[:-1], zip(ladder[:-1], ladder[1:])):
            cols = row.split(",")
            assert float(cols[1]) < 1e-12 and float(cols[2]) < 1e-12
            gap_w = float(cols[3])
            dg = abs(1.0 / (1.0 + e2) - 1.0 / (1.0 + e1))
            assert gap_w == pytest.approx(dg * time_factor, rel=0.01)

    def test_two_rungs_say_gap_trend_unchecked(self, tmp_path, capsys):
        text = REFINE_CFG.replace("sweep.eps_ladder = 0.5, 0.25, 0.125",
                                  "sweep.eps_ladder = 0.5, 0.25")
        main(["sweep", "--config", str(write_cfg(tmp_path, text)), "--out",
              str(tmp_path / "sweep")])
        out = capsys.readouterr().out.splitlines()
        for name in ("u", "v", "w"):
            assert f"[sweep] {name} gaps: trend unchecked (1 gap; needs >= 2)" in out

    def test_output_independent_of_cpu_count(self, tmp_path, capsys, monkeypatch):
        # one share per CPU: the three rungs run in one, two or three processes
        cfg = write_cfg(tmp_path)
        runs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            main(["sweep", "--config", str(cfg), "--out", str(out)])
            runs.append((capsys.readouterr(), (out / "sweep.csv").read_bytes(),
                         (out / "estimates.csv").read_bytes()))
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("cpus", [1, 2], ids=["main", "worker"])
    def test_failed_rung_reported_and_skipped(self, tmp_path, capsys, monkeypatch, cpus):
        # the middle rung fails: the sweep says so and exits 1, writes the
        # finished rungs with the gap between them, and checks no band; with
        # two shares the middle rung runs in a worker
        from chemocert import runner
        from chemocert.solver import SchemeViolationError

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        simulate = runner.simulate

        def failing_middle(init, params, *args):
            if params.eps == 0.25:
                raise SchemeViolationError("u reached -1e-09")
            return simulate(init, params, *args)

        monkeypatch.setattr(runner, "simulate", failing_middle)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(write_cfg(tmp_path)), "--out", str(out)]) == 1
        assert "[sweep] eps=0.25 FAILED: u reached -1e-09" in capsys.readouterr().err
        assert not (out / "estimates.csv").exists()
        # the same rows as a ladder of only the two finished rungs
        monkeypatch.setattr(runner, "simulate", simulate)
        text = SMALL_CFG.replace("sweep.eps_ladder = 0.5, 0.25, 0.125",
                                 "sweep.eps_ladder = 0.5, 0.125")
        both = tmp_path / "both"
        main(["sweep", "--config", str(write_cfg(tmp_path, text, "both.cfg")),
              "--out", str(both)])
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 3 and rows[1].startswith("0.5,")
        assert rows == (both / "sweep.csv").read_text().splitlines()

    def test_dead_worker_fails_its_rung(self, tmp_path, capsys, monkeypatch):
        # with two shares the middle rung runs in a worker, which dies on it
        from chemocert import runner

        simulate = runner.simulate

        def dying_middle(init, params, *args):
            if params.eps == 0.25:
                os._exit(3)
            return simulate(init, params, *args)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(runner, "simulate", dying_middle)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(write_cfg(tmp_path)), "--out", str(out)]) == 1
        assert ("[sweep] eps=0.25 FAILED: worker exited with status 3"
                in capsys.readouterr().err.splitlines())
        rows = (out / "sweep.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["0.5", "0.125"]

    @pytest.mark.parametrize("cells, lengths, centers, exponent", [
        ("8, 8", "1.0, 1.0", ("0.35, 0.55", "0.65, 0.4"), 4.0),
        ("16", "1.0", ("0.35", "0.65"), 2.0),
    ], ids=["2D", "1D"])
    def test_w_lp_column_is_the_band_figure(self, tmp_path, cells, lengths, centers,
                                            exponent):
        # at theta = 1.2 the band's p is max(2, N(2-theta)/(2(theta-1))) = max(2, 2N)
        text = REFINE_CFG.replace("model.theta = 2.0", "model.theta = 1.2")
        for line, value in (("grid.cells = 8, 8", cells),
                            ("grid.lengths = 1.0, 1.0", lengths),
                            ("init.u.center = 0.35, 0.55", centers[0]),
                            ("init.v.center = 0.65, 0.4", centers[1])):
            text = text.replace(line, f"{line.split(' = ')[0]} = {value}")
        out = tmp_path / "sweep"
        main(["sweep", "--config", str(write_cfg(tmp_path, text)), "--out", str(out)])
        with (out / "estimates.csv").open(encoding="utf-8") as fh:
            band = next(r for r in csv.DictReader(fh) if r["name"] == "eps_uniform_w_lp")
        details = dict(kv.split("=") for kv in band["details"].split(";"))
        assert float(details["p"]) == pytest.approx(exponent, rel=1e-12)
        with (out / "sweep.csv").open(encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["w_lp_sup"] for r in rows] == [
            details[f"eps_{float(r['eps']):g}"] for r in rows]
        assert rows[-1]["w_lp_sup"] == band["value"]

    def test_bumpy_sweep_writes_estimates(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert (out / "sweep.csv").exists()
        assert (out / "estimates.csv").exists()
        assert code in (0, 1)  # short 3-rung ladder may sit outside the band
        text = (out / "estimates.csv").read_text()
        assert "eps_uniform_grad_w" in text


class TestCertifyCommand:
    def test_small_certify_passes(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "cert"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "certificates.csv").read_text().splitlines()
        assert text[0].startswith("certificate,bump,lhs,rhs,residual")
        # mass + 2 bumps x (weak_w, weak_v, entropy, z)
        assert len(text) == 1 + 1 + 2 * 4

    def test_inadmissible_weights_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_CFG + "certify.weights = 1:1\n")
        assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err
        assert "sqrt(p)(p+1)/2" in err

    @pytest.mark.parametrize("command", ["certify", "refine"])
    def test_grid_too_coarse_for_bumps_named(self, tmp_path, capsys, command):
        # simulate and sweep run on a 4x4 grid; a bump support needs 5 cells
        # per axis, and the commands that draw bumps refuse it before stepping
        text = SMALL_CFG.replace("grid.cells = 16, 16", "grid.cells = 4, 4")
        out = tmp_path / "out"
        assert main([command, "--config", str(write_cfg(tmp_path, text)), "--out",
                     str(out)]) == 2
        assert "'grid.cells'" in capsys.readouterr().err
        assert not out.exists()

    def test_certify_is_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path)
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["certify", "--config", str(cfg), "--out", str(first)]) == 0
        assert main(["certify", "--config", str(cfg), "--out", str(second)]) == 0
        assert (first / "certificates.csv").read_bytes() == \
            (second / "certificates.csv").read_bytes()

    def test_one_history_walk_for_all_kinds(self, tmp_path, monkeypatch):
        # one walk takes grad w, grad ln(1+v) and grad z^(1/2) once per
        # walked instant; a walk per kind takes more. The certify process
        # walks the last instant only
        from chemocert import identities, runner
        from chemocert.identities import history_pass, sample_bumps

        calls = []
        gradient_values = identities.gradient_values

        def counted(*args):
            calls.append(1)
            return gradient_values(*args)

        trajs = []
        simulate = runner.simulate

        def kept(*args, **kwargs):
            trajs.append(simulate(*args, **kwargs))
            return trajs[-1]

        monkeypatch.setattr(identities, "gradient_values", counted)
        monkeypatch.setattr(runner, "simulate", kept)
        cfg = write_cfg(tmp_path)
        assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
        per_instant = 3
        assert len(calls) == per_instant
        config = load_config(cfg)
        traj = trajs[0]
        bumps = sample_bumps(config.grid, config.T, config.bump_count, config.bump_seed)
        calls.clear()
        history_pass(traj, bumps, config.weights)
        walked = len(traj.times)
        assert 2 < walked and len(calls) == per_instant * walked

    def test_walker_gives_stored_walk_bytes(self, tmp_path, capsys, monkeypatch):
        # certify walks beside the stepper in a forked walker and keeps the
        # last instant in this process. At any CPU count it writes the bytes
        # of the walk over the stored history. SMALL_CFG steps 81 instants,
        # which go round the ring of 8 about ten times. The walker is slowed,
        # so the ring fills and the stepper waits for freed slots
        import time

        from chemocert import identities, runner
        from chemocert.identities import sample_bumps

        stepper = os.getpid()
        products = identities.InstantProducts.__call__

        def slow_in_walker(self, *fields):
            if os.getpid() != stepper:
                time.sleep(0.002)
            return products(self, *fields)

        monkeypatch.setattr(identities.InstantProducts, "__call__", slow_in_walker)
        trajs = []
        simulate = runner.simulate

        def kept(*args, **kwargs):
            trajs.append(simulate(*args, **kwargs))
            return trajs[-1]

        monkeypatch.setattr(runner, "simulate", kept)
        cfg = write_cfg(tmp_path)
        runs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
            runs.append((capsys.readouterr(), (out / "certificates.csv").read_bytes()))
        assert runs[1] == runs[0] and runs[2] == runs[0]
        traj = trajs[0]
        assert len(traj.times) > 10 * runner.WALK_RING_SLOTS
        config = load_config(cfg)
        bumps = sample_bumps(config.grid, config.T, config.bump_count, config.bump_seed)
        records = runner.run_certificates(traj, config.weights, bumps,
                                          runner.certificate_tolerances(traj))
        runner._write_certificates(records, tmp_path / "stored")
        assert (tmp_path / "stored" / "certificates.csv").read_bytes() == runs[0][1]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_dead_walker_fails_the_run(self, tmp_path, capsys, monkeypatch, cpus):
        # the forked walker, forked at any CPU count, dies on the first instant
        # it is handed
        from chemocert import identities

        stepper = os.getpid()
        products = identities.InstantProducts.__call__

        def dying_in_walker(self, *fields):
            if os.getpid() != stepper:
                os._exit(3)
            return products(self, *fields)

        monkeypatch.setattr(identities.InstantProducts, "__call__", dying_in_walker)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        out = tmp_path / "cert"
        assert main(["certify", "--config", str(write_cfg(tmp_path)), "--out", str(out)]) != 0
        assert "certificate walker exited with status 3" in capsys.readouterr().err
        assert not (out / "certificates.csv").exists()

    def test_failed_step_stops_the_walker(self, tmp_path, capsys, monkeypatch):
        # a step raises after the walker has been handed instants: the run
        # stops with the error, and the walker is terminated and joined
        import multiprocessing

        from chemocert import solver
        from chemocert.solver import SchemeViolationError

        advance = solver._advance
        steps = []

        def failing_late(*args):
            steps.append(1)
            if len(steps) == 70:
                raise SchemeViolationError("u reached -1e-09")
            return advance(*args)

        monkeypatch.setattr(solver, "_advance", failing_late)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        out = tmp_path / "cert"
        assert main(["certify", "--config", str(write_cfg(tmp_path)), "--out", str(out)]) == 2
        assert "error: u reached -1e-09" in capsys.readouterr().err
        assert not out.exists()
        assert multiprocessing.active_children() == []
        with pytest.raises(ChildProcessError):  # none left, not even unjoined
            os.waitpid(-1, os.WNOHANG)

    def test_weak_form_records_pinned(self, tmp_path):
        # PINNED_RECORDS come from a bump-by-bump evaluation; the batched
        # contraction sums in another order, so they agree to roundoff
        cfg = write_cfg(tmp_path)
        out = tmp_path / "cert"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
        with (out / "certificates.csv").open(encoding="utf-8") as fh:
            rows = [r for r in csv.DictReader(fh) if r["certificate"] != "mass_inequality"]
        assert len(rows) == len(PINNED_RECORDS)
        for row in rows:
            lhs, rhs, residual, extras = PINNED_RECORDS[(row["certificate"],
                                                         int(row["bump"]))]
            close = 1e-9 * float(row["tolerance"])
            got = dict(kv.split("=") for kv in row["extras"].split(";"))
            assert got.keys() == extras.keys()
            for name, want, value in [("lhs", lhs, row["lhs"]), ("rhs", rhs, row["rhs"]),
                                      ("residual", residual, row["residual"])] + \
                    [(k, v, got[k]) for k, v in extras.items()]:
                assert abs(float(value) - want) <= close, (row["certificate"], name)


class TestVerifyIdentitiesCommand:
    def test_default_invocation(self, tmp_path, capsys):
        assert main(["verify-identities", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "identities.csv").exists()
        assert "pass" in capsys.readouterr().out

    def test_runs_without_sympy(self, tmp_path):
        # sympy is a test dependency only: with its import made to fail, the
        # command line still checks the identities from its numeric closed forms
        src = Path(__file__).resolve().parents[1] / "src"
        script = ("import sys; sys.modules['sympy'] = None\n"
                  "from chemocert.cli import main\n"
                  f"raise SystemExit(main(['verify-identities', '--out', {str(tmp_path)!r}]))")
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "identities.csv").exists()

    @pytest.mark.parametrize("option, value", [("--seed", "1"), ("--samples", "5")],
                             ids=["seed", "samples"])
    def test_removed_options_unrecognized(self, tmp_path, capsys, option, value):
        # the evaluation points are fixed in code: 100 per identity, seed 0
        with pytest.raises(SystemExit) as exc:
            main(["verify-identities", "--out", str(tmp_path), option, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err
        assert not (tmp_path / "identities.csv").exists()


class TestRefineCommand:
    def test_levels_validation(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_CFG + "refine.levels = 1\n")
        assert main(["refine", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert "levels" in capsys.readouterr().err

    def test_two_levels_exit_2_before_running(self, tmp_path, capsys):
        # two levels leave one gap per field, too few to fit an order to
        out = tmp_path / "r"
        cfg = write_cfg(tmp_path, REFINE_CFG + "refine.levels = 2\n")
        assert main(["refine", "--config", str(cfg), "--out", str(out)]) == 2
        assert "'refine.levels'" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_horizon_named_before_stepping(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["refine", "--config", str(write_cfg(tmp_path, ZERO_HORIZON_CFG)),
                     "--out", str(out)]) == 2
        assert "'run.T'" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_rerun_walks_same_ladder(self, tmp_path):
        # the manifest echoes refine.levels, so its re-run walks the same ladder
        cfg = write_cfg(tmp_path, REFINE_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["refine", "--config", str(cfg), "--out", str(out1)])
        main(["refine", "--config", str(out1 / "manifest.cfg"), "--out", str(out2)])
        first = (out1 / "refine.csv").read_bytes()
        assert len(first.splitlines()) == 6  # header, three levels, order, C
        assert (out2 / "refine.csv").read_bytes() == first

    def test_output_independent_of_cpu_count(self, tmp_path, capsys, monkeypatch):
        # each level walks its certificates in a forked walker beside its
        # steps, at any CPU count
        cfg = write_cfg(tmp_path, REFINE_CFG)
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            main(["refine", "--config", str(cfg), "--out", str(out)])
            runs.append((capsys.readouterr(), (out / "refine.csv").read_bytes()))
        assert runs[1] == runs[0]

    def test_three_level_study(self, tmp_path):
        cfg = write_cfg(tmp_path, REFINE_CFG)
        out = tmp_path / "refine"
        code = main(["refine", "--config", str(cfg), "--out", str(out)])
        assert code in (0, 1)
        rows = (out / "refine.csv").read_text().splitlines()
        assert rows[0].startswith("level,cells,h,dt_mean")
        assert rows[-1].startswith("calibrated_C")
        assert rows[-2].startswith("order_fit")
