import json
import math
from dataclasses import replace

import pytest

import bdfvac.cli
import bdfvac.dispersion
import bdfvac.pekar
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
from bdfvac.dispersion import ModelParams, check_asymptotics, free_dispersion
from bdfvac.numerics import make_grid
from bdfvac.polarization import b_lambda_zero_radial, b_screening
from oracles import config_to_ini, limit_laws

# small, fast parameter set reused across command tests
FAST = [
    "--override", "model.cutoff=100",
    "--override", "dispersion.n_nodes=128",
    "--override", "polarization.k_nodes=12",
    "--override", "pekar.n_nodes=512",
]


def strict_json(path):
    """The file's JSON, refusing NaN and infinities as the standard does."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


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
            load_config(None, ["polarization.k_nodes=4"])

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
            ("dispersion", ["dispersion.n_nodes=4"]),
            ("pekar", ["pekar.n_nodes=4"]),
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
            ("dispersion", "dispersion.tol=1e-9"),
            ("sweep", "dispersion.max_iter=200"),
            ("pekar", "pekar.tol=1e-6"),
            ("verify", "pekar.max_iter=50000"),
        ],
    )
    def test_removed_key_is_unknown(self, command, override, tmp_path, capsys):
        # the starting steps, the Pekar box, the k-grid floor and the
        # solvers' tolerances and iteration caps are constants
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

    def test_strong_coupling_at_a_large_cutoff_converges(self, tmp_path):
        # L = 165.8: damping every residual rise stalled this solve at its
        # floor, and the command exited 1 after 200 iterations
        argv = ["dispersion", "--out", str(tmp_path)]
        argv += ["--override", "model.alpha=1.2", "--override", "model.cutoff=1e60"]
        assert main(argv) == EXIT_OK
        assert strict_json(tmp_path / "asymptotics.json")["converged"] is True

    def test_nonconvergence_is_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bdfvac.dispersion, "DEFAULT_MAX_ITER", 1)
        assert main(["dispersion", "--out", str(tmp_path)] + FAST) == EXIT_FAIL
        report = json.loads((tmp_path / "asymptotics.json").read_text())
        assert report["converged"] is False

    @pytest.mark.parametrize(
        "command, stage",
        [("pekar", "pekar"), ("polarization", "dispersion"), ("predict", "dispersion")],
    )
    def test_stage_failure_is_one_line(self, command, stage, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(getattr(bdfvac, stage), "DEFAULT_MAX_ITER", 1)
        assert main([command, "--out", str(tmp_path)] + FAST) == EXIT_FAIL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"{command}: {stage} stage failed ("), err

    @pytest.mark.parametrize(
        "command, alpha",
        [("polarization", "0.00025"), ("predict", "0.0002")],
        ids=["polarization", "predict"],
    )
    def test_overflowing_cutoff_is_usage_error_with_no_nan_written(self, command, alpha, tmp_path):
        # at L = 0.05, alpha = 2.5e-4 puts the cutoff at e^200 = 7.2e86, past
        # the range of B(k)'s denominator, and alpha = 2e-4 at e^250 = 3.7e108,
        # past that of the SCF rule's PCHIP slopes and of B(0)
        argv = [command, "--out", str(tmp_path)]
        for override in (f"model.alpha={alpha}", "model.L=0.05", "dispersion.n_nodes=128",
                         "polarization.k_nodes=12", "pekar.n_nodes=512"):
            argv += ["--override", override]
        assert main(argv) == EXIT_USAGE
        assert not any(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("command", ["dispersion", "verify", "predict"])
    def test_cutoff_past_the_scf_rule_is_usage_error(self, command, tmp_path, capsys):
        # alpha = 5e-4, L = 0.2 puts the cutoff at e^400 = 5.2e173, where the
        # SCF rule's weights pass the float64 range
        argv = [command, "--out", str(tmp_path)]
        for override in ("model.alpha=0.0005", "model.L=0.2", "dispersion.n_nodes=128",
                         "pekar.n_nodes=512"):
            argv += ["--override", override]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "5.22e+173" in err[0], err
        assert not any(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_out_on_a_file_is_usage_error(self, below, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        out = target / "sub" if below else target
        assert main(["pekar", "--out", str(out)] + FAST) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err


class TestCommands:
    def test_dispersion_writes_artifacts(self, tmp_path):
        assert main(["dispersion", "--out", str(tmp_path)] + FAST) == EXIT_OK
        assert (tmp_path / "dispersion.csv").is_file()
        report = json.loads((tmp_path / "asymptotics.json").read_text())
        assert report["converged"] is True
        assert list(report) == ["converged", "regime_warning", "alpha", "cutoff", "L", "entries"]
        for entry in report["entries"]:
            assert list(entry) == ["name", "measured", "predicted", "rel_deviation"]

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
        assert set(meta) == {"alpha", "cutoff", "L", "B0_at_zero"}

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

    def test_predict_zero_coupling_writes_strict_json(self, tmp_path):
        args = ["predict", "--out", str(tmp_path), "--override", "model.alpha=0"]
        assert main(args + FAST) == EXIT_OK
        # C0^2 is infinite with the coupling off
        assert strict_json(tmp_path / "prediction.json")["C0_sq"] is None

    def test_predict_in_the_paper_limit(self, tmp_path):
        # alpha = 2.5e-4 at L = 0.05 is cutoff e^200 = 7.2e86, where the
        # radial B(0) in powers of u and Et overflowed
        args = ["predict", "--out", str(tmp_path)]
        for override in ("model.alpha=0.00025", "model.L=0.05", "pekar.n_nodes=512"):
            args += ["--override", override]
        assert main(args) == EXIT_OK
        pred = strict_json(tmp_path / "prediction.json")
        closed = 2.0 / (3.0 * math.pi) * (200.0 + math.log(2.0)) - 5.0 / (9.0 * math.pi)
        assert abs(pred["b0_free"] / b_screening(closed, 0.00025) - 1.0) <= 1e-13

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

    def test_sweep_rows_in_the_paper_limit(self, tmp_path):
        # cutoffs 7.2e10 to 5.0e98 at L = 0.05.  binding/(alpha^2 |E_CP|)
        # misses its alpha -> 0 law by -6.06 alpha to -6.14 alpha on 512
        # nodes; the radial B(0) in powers of u and Et read +15% off the
        # line at 3e-4
        alphas = (2e-3, 1e-3, 5e-4, 3e-4, 2.5e-4, 2.2e-4)
        args = ["sweep", "--out", str(tmp_path), "--override", "pekar.n_nodes=512",
                "--override", "sweep.alphas=" + ",".join(map(str, alphas))]
        assert main(args) == EXIT_OK
        data = strict_json(tmp_path / "sweep.json")
        assert [row["alpha"] for row in data["rows"]] == list(alphas)
        law = limit_laws(0.05)["binding_per_E"]
        for row in data["rows"]:
            alpha = row["alpha"]
            line = law * (1.0 - 6.1 * alpha)
            value = row["binding"] / (alpha**2 * abs(data["E_CP"]))
            assert abs(value / line - 1.0) <= 0.1 * alpha, (alpha, value, line)

    @pytest.mark.parametrize("alpha", ["0.0002", "0.0001", "0.00005"])
    def test_sweep_past_float64_is_usage_error(self, alpha, tmp_path, capsys):
        # cutoffs 3.7e108 (the PCHIP slopes), 1.4e217 (the SCF rule) and
        # e^1000 (no float) at L = 0.05
        args = ["sweep", "--out", str(tmp_path), "--override", "pekar.n_nodes=512",
                "--override", f"sweep.alphas=0.002,{alpha}"]
        assert main(args) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert not any(tmp_path.glob("sweep.*"))

    def test_sweep_uses_the_dispersion_section(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bdfvac.dispersion, "DEFAULT_MAX_ITER", 1)
        assert main(["sweep", "--out", str(tmp_path)] + FAST) == EXIT_FAIL

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

    def test_k0_consistency_carries_the_free_drop_at_a_low_cutoff(self, tmp_path):
        # B(K_SWITCH)/B(0) - 1 reads 1.95e-6 at cutoff 30, almost all of it
        # Uehling's U(K) and the edge term K/(8 pi cutoff)
        main(["verify", "--out", str(tmp_path)] + FAST + ["--override", "model.cutoff=30"])
        checks = {c["name"]: c for c in strict_json(tmp_path / "verify.json")["checks"]}
        assert checks["polarization.k0_consistency"]["passed"] is True

    def test_passes_at_cutoff_10(self, tmp_path):
        # the windows' laws in 2 alpha ln(cutoff)/(3 pi) read m_alpha 1.30
        # and g1_slope 1.30 here; in asinh(cutoff) they read 1.000 and 0.999
        args = FAST + ["--override", "model.cutoff=10"]
        assert main(["verify", "--out", str(tmp_path)] + args) == EXIT_OK

    def test_passes_in_the_paper_limit(self, tmp_path):
        # alpha = 0.002 at L = 0.05 is cutoff 7.2e10, where the B(k) rule in
        # (|q|, cos(q, k)) read k0_consistency 3.3e-5 and verify exited 1
        args = ["--override", "model.alpha=0.002", "--override", "model.L=0.05"]
        assert main(["verify", "--out", str(tmp_path)] + args) == EXIT_OK

    @pytest.mark.parametrize("alpha", ["0.001", "0.0005"])
    def test_polarization_holds_deeper_in_the_paper_limit(self, alpha):
        # cutoffs 5.2e21 and 2.7e43: at the first that rule read
        # k0_consistency 1.2e14 and continuity_modulus 3.9e19; now both
        # read under 1e-2 at either
        cfg = load_config(None, [f"model.alpha={alpha}", "model.L=0.05", "pekar.n_nodes=512"])
        checks = {c.name: c for c in run_verification(cfg)[0]}
        assert checks["polarization.k0_consistency"].value <= 1e-6
        assert checks["polarization.continuity_modulus"].value <= 10.0

    @pytest.mark.parametrize(
        "cutoff", [None, 10.0, 100.0], ids=["default", "cutoff10", "cutoff100"]
    )
    def test_free_reference_passes(self, tmp_path, cutoff):
        overrides = [] if cutoff is None else ["--override", f"model.cutoff={cutoff:g}"]
        main(["verify", "--out", str(tmp_path)] + FAST + overrides)
        checks = {c["name"]: c for c in strict_json(tmp_path / "verify.json")["checks"]}
        check = checks["polarization.free_reference"]
        assert check["passed"] is True and 0.0 < check["value"] <= check["budget"]

    def test_nonconvergent_config_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bdfvac.dispersion, "DEFAULT_MAX_ITER", 1)
        assert main(["verify", "--out", str(tmp_path)] + FAST) == EXIT_FAIL
        report = json.loads((tmp_path / "verify.json").read_text())
        names = {c["name"]: c["passed"] for c in report["checks"]}
        assert names["dispersion.converged"] is False

    def test_pekar_failure_records_its_residual_as_strict_json(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bdfvac.pekar, "DEFAULT_MAX_ITER", 1)
        assert main(["verify", "--out", str(tmp_path)] + FAST) == EXIT_FAIL
        checks = {c["name"]: c for c in strict_json(tmp_path / "verify.json")["checks"]}
        check = checks["pekar.converged"]
        assert check["passed"] is False
        assert math.isfinite(check["value"]) and check["value"] > check["budget"]

    def test_out_of_regime_warning_recorded(self, tmp_path):
        main(["verify", "--out", str(tmp_path), "--override", "model.alpha=1.5"] + FAST)
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["regime_warning"] is True
        assert len(report["checks"]) > 5  # checks still executed

    def test_run_verification_api(self):
        cfg = fast_config()
        checks, ok = run_verification(cfg)
        assert ok
        assert any(c.name == "energy.binding_sign" for c in checks)

    def test_check_names(self):
        checks, _ = run_verification(fast_config())
        assert [c.name for c in checks] == [
            "dispersion.converged",
            "dispersion.ordering",
            "dispersion.window.m_alpha",
            "dispersion.window.g1_slope",
            "polarization.pointwise_kernel_bound",
            "polarization.continuity_modulus",
            "polarization.k0_consistency",
            "polarization.free_reference",
            "pekar.beats_gaussian_bound",
            "pekar.virial",
            "energy.binding_sign",
        ]

    def test_windows_read_the_asymptotic_entries(self):
        cfg = fast_config()
        checks, _ = run_verification(cfg)
        value = {c.name: c.value for c in checks}
        entries = check_asymptotics(bdfvac.cli._solve_dispersion(cfg, cfg.params()))
        for check, name in (("m_alpha", "m_alpha"), ("g1_slope", "g1_prime_zero")):
            e = entries[name]
            assert value[f"dispersion.window.{check}"] == (e.measured - 1.0) / (e.predicted - 1.0)

    def test_check_names_at_zero_coupling(self):
        cfg = fast_config()
        cfg.model.alpha = 0.0
        checks, ok = run_verification(cfg)
        assert ok
        assert [c.name for c in checks] == [
            "dispersion.converged",
            "dispersion.ordering",
            "polarization.pointwise_kernel_bound",
            "polarization.continuity_modulus",
            "polarization.k0_consistency",
            "polarization.free_reference",
            "pekar.beats_gaussian_bound",
            "pekar.virial",
        ]

    def test_ordering_reads_the_solved_profiles(self, monkeypatch):
        real = bdfvac.cli._solve_dispersion

        def misordered(cfg, params):
            d = real(cfg, params)
            g1 = d.g1.copy()
            i = len(g1) // 2
            g1[i] = d.grid.nodes[i] * d.g0[i] * (1.0 + 1e-6)
            return replace(d, g1=g1)

        monkeypatch.setattr(bdfvac.cli, "_solve_dispersion", misordered)
        checks, ok = run_verification(fast_config())
        (check,) = [c for c in checks if c.name == "dispersion.ordering"]
        assert not ok and not check.passed
        assert check.value == pytest.approx(1e-6, rel=0.1)

    def test_kernel_rules_built_once_for_the_iterate_check(self, monkeypatch):
        builds = []
        real = bdfvac.dispersion.KernelRules.__init__

        def counting(self, grid):
            builds.append(grid)
            real(self, grid)

        monkeypatch.setattr(bdfvac.dispersion.KernelRules, "__init__", counting)
        cfg = fast_config()
        run_verification(cfg)
        # the ordering check reads the solved profiles: no second solve
        assert len(builds) == 1
