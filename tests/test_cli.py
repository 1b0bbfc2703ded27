import json
import math

import pytest

import bdfvac.cli
import bdfvac.dispersion
import bdfvac.polarization
from bdfvac.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    DispersionConfig,
    ModelConfig,
    PekarConfig,
    PolarizationConfig,
    RunConfig,
    load_config,
    main,
    run_verification,
)
from bdfvac.dispersion import ModelParams, free_dispersion
from bdfvac.numerics import make_grid
from bdfvac.polarization import b_lambda_zero_radial, b_screening
from oracles import config_to_ini

# small, fast parameter set reused across command tests
FAST = [
    "--override", "model.cutoff=100",
    "--override", "dispersion.n_nodes=128",
    "--override", "polarization.k_nodes=12",
    "--override", "pekar.n_nodes=512",
]


def fast_config():
    return RunConfig(
        model=ModelConfig(cutoff=100.0),
        dispersion=DispersionConfig(n_nodes=128),
        polarization=PolarizationConfig(k_nodes=12),
        pekar=PekarConfig(n_nodes=512),
    )


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None, [])
        assert cfg.model.alpha == 0.01
        assert cfg.model.cutoff == 1e4

    def test_ini_file(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nalpha = 0.02\ncutoff = 500\n\n[pekar]\nn_nodes = 512\n")
        cfg = load_config(str(ini), [])
        assert cfg.model.alpha == 0.02
        assert cfg.model.cutoff == 500.0
        assert cfg.pekar.n_nodes == 512

    def test_L_derives_cutoff(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nalpha = 0.02\nL = 0.05\n")
        cfg = load_config(str(ini), [])
        assert math.isclose(cfg.model.cutoff, math.exp(0.05 / 0.02), rel_tol=1e-12)

    def test_cutoff_and_L_conflict(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nalpha = 0.02\nL = 0.05\ncutoff = 100\n")
        with pytest.raises(ConfigError):
            load_config(str(ini), [])

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/does/not/exist.ini", [])

    def test_overrides(self):
        cfg = load_config(None, ["model.alpha=0.05", "sweep.alphas=0.1 0.2"])
        assert cfg.model.alpha == 0.05
        assert cfg.sweep.alphas == (0.1, 0.2)

    def test_bad_override_forms(self):
        with pytest.raises(ConfigError):
            load_config(None, ["alpha=0.05"])
        with pytest.raises(ConfigError):
            load_config(None, ["model.unknown=1"])
        with pytest.raises(ConfigError):
            load_config(None, ["model.alpha=abc"])

    def test_validation(self):
        with pytest.raises(ConfigError):
            load_config(None, ["dispersion.n_nodes=4"])
        with pytest.raises(ConfigError):
            load_config(None, ["pekar.tol=-1"])

    def test_round_trip(self, tmp_path):
        cfg = load_config(None, ["model.alpha=0.03", "polarization.k_nodes=33"])
        ini = tmp_path / "rt.ini"
        ini.write_text(config_to_ini(cfg))
        assert load_config(str(ini), []) == cfg


class TestConfigErrors:
    """A bad config value exits 2 with one "config error:" line, before any
    stage runs: no traceback and no run on non-finite numbers."""

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("dispersion", ["dispersion.max_iter=0"]),
            ("pekar", ["pekar.max_iter=0"]),
            ("dispersion", ["model.alpha=1e-4", "model.L=0.1"]),
            ("dispersion", ["model.cutoff=inf"]),
            ("dispersion", ["model.cutoff=nan"]),
            ("dispersion", ["model.L=abc"]),
            ("sweep", ["sweep.alphas=-0.01"]),
            ("sweep", ["sweep.alphas="]),
            ("verify", ["output.seed=-1"]),
        ],
        ids=lambda v: v if isinstance(v, str) else ",".join(v),
    )
    def test_exit_2_with_one_line(self, command, overrides, tmp_path, capsys):
        argv = [command, "--out", str(tmp_path)]
        for ov in overrides:
            argv += ["--override", ov]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")

    @pytest.mark.parametrize(
        "command, override",
        [
            ("dispersion", "dispersion.damping=1.0"),
            ("polarization", "polarization.k_min=1e-4"),
            ("pekar", "pekar.dt=0.5"),
            ("sweep", "pekar.r_max=30"),
        ],
    )
    def test_removed_key_is_unknown(self, command, override, tmp_path, capsys):
        # the starting steps, the Pekar box and the k-grid floor are constants
        argv = [command, "--out", str(tmp_path), "--override", override]
        assert main(argv + FAST) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: unknown configuration key [")

    def test_round_trip_with_L(self, tmp_path):
        cfg = load_config(None, ["model.alpha=0.02", "model.L=0.05"])
        ini = tmp_path / "rt.ini"
        ini.write_text(config_to_ini(cfg))
        assert load_config(str(ini), []) == cfg


class TestExitCodes:
    def test_missing_config_is_usage_error(self, tmp_path):
        code = main(["dispersion", "--config", "/nope.ini", "--out", str(tmp_path)])
        assert code == EXIT_USAGE

    def test_nonconvergence_is_failure(self, tmp_path):
        code = main(
            ["dispersion", "--out", str(tmp_path), "--override", "dispersion.max_iter=1"]
            + FAST
        )
        assert code == EXIT_FAIL
        report = json.loads((tmp_path / "asymptotics.json").read_text())
        assert report["converged"] is False

    @pytest.mark.parametrize(
        "command, stage, override",
        [
            ("pekar", "pekar", "pekar.max_iter=1"),
            ("polarization", "dispersion", "dispersion.max_iter=1"),
            ("predict", "dispersion", "dispersion.max_iter=1"),
        ],
    )
    def test_stage_failure_is_one_line(self, command, stage, override, tmp_path, capsys):
        argv = [command, "--out", str(tmp_path), "--override", override]
        assert main(argv + FAST) == EXIT_FAIL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"{command}: {stage} stage failed ("), err


class TestCommands:
    def test_dispersion_writes_artifacts(self, tmp_path):
        assert main(["dispersion", "--out", str(tmp_path)] + FAST) == EXIT_OK
        assert (tmp_path / "dispersion.csv").is_file()
        report = json.loads((tmp_path / "asymptotics.json").read_text())
        assert report["converged"] is True

    def test_dispersion_zero_coupling_column(self, tmp_path):
        assert (
            main(["dispersion", "--out", str(tmp_path), "--override", "model.alpha=0"] + FAST)
            == EXIT_OK
        )
        rows = (tmp_path / "dispersion.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[1] == "1" for row in rows)

    def test_polarization_writes_artifacts(self, tmp_path):
        assert main(["polarization", "--out", str(tmp_path)] + FAST) == EXIT_OK
        body = (tmp_path / "polarization.csv").read_text()
        assert body.splitlines()[0] == "k,B,b"
        meta = json.loads((tmp_path / "polarization.json").read_text())
        assert meta["dispersion_kind"] == "dressed"

    def test_pekar_writes_artifacts(self, tmp_path):
        assert main(["pekar", "--out", str(tmp_path)] + FAST) == EXIT_OK
        summary = json.loads((tmp_path / "pekar_summary.json").read_text())
        assert summary["E"] < 0.0
        assert summary["residual"] <= 1e-6

    def test_predict_reports_both_screenings(self, tmp_path):
        assert main(["predict", "--out", str(tmp_path)] + FAST) == EXIT_OK
        pred = json.loads((tmp_path / "prediction.json").read_text())
        assert pred["total_pred"] < pred["m"]
        assert "total_pred_free_screening" in pred
        assert 0.0 < pred["Z3"] < 1.0

    def test_predict_reads_b0_only(self, tmp_path, monkeypatch):
        def refuse(d, k):
            raise AssertionError("predict evaluated a 2-d B(k)")

        monkeypatch.setattr(bdfvac.polarization, "b_lambda_k", refuse)
        assert main(["predict", "--out", str(tmp_path)] + FAST) == EXIT_OK

    def test_predict_zero_coupling(self, tmp_path):
        assert (
            main(["predict", "--out", str(tmp_path), "--override", "model.alpha=0"] + FAST)
            == EXIT_OK
        )
        pred = json.loads((tmp_path / "prediction.json").read_text())
        assert pred["total_pred"] == pred["m"] == 1.0

    def test_predict_free_companion_on_the_dressed_grid(self, tmp_path):
        assert main(["predict", "--out", str(tmp_path)] + FAST) == EXIT_OK
        pred = json.loads((tmp_path / "prediction.json").read_text())
        # FAST solves the dispersion on 128 nodes; the free B(0) uses the same grid
        free = free_dispersion(ModelParams(0.01, 100.0), make_grid(100.0, 128, "geometric"))
        assert pred["b0_free"] == b_screening(b_lambda_zero_radial(free), 0.01)

    def test_sweep_row_count(self, tmp_path):
        args = ["sweep", "--out", str(tmp_path), "--override", "sweep.alphas=0.02 0.01 0.005"]
        assert main(args + FAST) == EXIT_OK
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(rows) == 4  # header + 3

    def test_sweep_uses_the_dispersion_section(self, tmp_path):
        args = ["sweep", "--out", str(tmp_path), "--override", "dispersion.max_iter=1"]
        assert main(args + FAST) == EXIT_FAIL

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["dispersion", "--out", str(out)] + FAST) == EXIT_OK
            assert main(["sweep", "--out", str(out)] + FAST) == EXIT_OK
        for name in ("dispersion.csv", "sweep.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestVerify:
    def test_default_fast_config_passes(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path)] + FAST) == EXIT_OK
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["passed"] is True
        assert report["regime_warning"] is False
        assert all(c["passed"] for c in report["checks"])

    def test_nonconvergent_config_fails(self, tmp_path):
        code = main(
            ["verify", "--out", str(tmp_path), "--override", "dispersion.max_iter=1"] + FAST
        )
        assert code == EXIT_FAIL
        report = json.loads((tmp_path / "verify.json").read_text())
        names = {c["name"]: c["passed"] for c in report["checks"]}
        assert names["dispersion.converged"] is False

    def test_out_of_regime_warning_recorded(self, tmp_path):
        main(["verify", "--out", str(tmp_path), "--override", "model.alpha=1.5"] + FAST)
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["regime_warning"] is True
        assert len(report["checks"]) > 5  # checks still executed

    def test_run_verification_api(self):
        cfg = fast_config()
        checks, ok = run_verification(cfg)
        assert ok
        assert any(c.name == "energy.correction_identity" for c in checks)

    def test_kernel_rules_built_once_for_the_iterate_check(self, monkeypatch):
        builds = []
        real = bdfvac.dispersion.KernelRules

        def counting(grid):
            builds.append(grid)
            return real(grid)

        monkeypatch.setattr(bdfvac.dispersion, "KernelRules", counting)
        monkeypatch.setattr(bdfvac.cli, "KernelRules", counting)
        cfg = fast_config()
        run_verification(cfg)
        # one for the six iterate-ordering steps, one inside solve_dispersion
        assert len(builds) == 2
