"""Command-line front end.

Subcommands drive each pipeline stage and persist deterministic CSV/JSON
artifacts:

    bdfvac dispersion   --config run.ini --out artifacts/
    bdfvac polarization ...
    bdfvac pekar        ...
    bdfvac predict      ...
    bdfvac sweep        ...
    bdfvac verify       ...

Configuration is flat INI text with one section per module; any value can
be overridden on the command line with repeated --override section.key=value
flags.  Exit codes: 0 success, 1 convergence/check failure, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dispersion import (
    ALPHA_REGIME_LIMIT,
    KernelRules,
    ModelParams,
    check_asymptotics,
    dispersion_to_csv,
    free_dispersion,
    g1_prime_zero,
    m_alpha,
    scf_step,
    solve_dispersion,
)
from .energy import (
    assemble_breakdown,
    breakdown_to_json,
    c0_squared,
    regime_sweep,
    sweep_to_csv,
    sweep_to_json,
)
from .numerics import FixedPointError, InvalidParameterError, make_grid
from .pekar import (
    GAUSSIAN_BOUND,
    PekarConvergenceError,
    el_residual,
    solve_pekar,
    state_to_csv,
)
from .polarization import (
    DEFAULT_K_MIN,
    charge_renormalization,
    continuity_modulus,
    default_k_nodes,
    free_polarization_table,
    kernel_difference_bound_check,
    linear_response_density,
    polarization_table,
    table_to_csv,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    """The configuration is malformed or inconsistent."""


@dataclass
class RunConfig:
    """All knobs of a run, with working defaults for every field."""

    alpha: float = 0.01
    cutoff: float = 1e4
    disp_n_nodes: int = 512
    disp_tol: float = 1e-9
    disp_max_iter: int = 200
    disp_damping: float = 1.0
    pol_k_nodes: int = 128
    pol_k_min: float = 1e-4
    pekar_r_max: float = 40.0
    pekar_n_nodes: int = 1024
    pekar_dt: float = 0.5
    pekar_tol: float = 1e-6
    pekar_max_iter: int = 50_000
    sweep_alphas: tuple = (0.02, 0.01, 0.005)
    sweep_L: float = 0.05
    sweep_n_nodes: int = 512
    seed: int = 0

    def params(self) -> ModelParams:
        return ModelParams(alpha=self.alpha, cutoff=self.cutoff)


_SCHEMA = {
    ("model", "alpha"): ("alpha", float),
    ("model", "cutoff"): ("cutoff", float),
    ("dispersion", "n_nodes"): ("disp_n_nodes", int),
    ("dispersion", "tol"): ("disp_tol", float),
    ("dispersion", "max_iter"): ("disp_max_iter", int),
    ("dispersion", "damping"): ("disp_damping", float),
    ("polarization", "k_nodes"): ("pol_k_nodes", int),
    ("polarization", "k_min"): ("pol_k_min", float),
    ("pekar", "r_max"): ("pekar_r_max", float),
    ("pekar", "n_nodes"): ("pekar_n_nodes", int),
    ("pekar", "dt"): ("pekar_dt", float),
    ("pekar", "tol"): ("pekar_tol", float),
    ("pekar", "max_iter"): ("pekar_max_iter", int),
    ("sweep", "alphas"): ("sweep_alphas", "alphas"),
    ("sweep", "L"): ("sweep_L", float),
    ("sweep", "n_nodes"): ("sweep_n_nodes", int),
    ("output", "seed"): ("seed", int),
}


def _apply_item(cfg: RunConfig, section: str, key: str, value: str, seen_model: set):
    if section == "model" and key == "L":
        seen_model.add("L")
        cfg.cutoff = None  # resolved after alpha is known
        cfg._L = float(value)  # type: ignore[attr-defined]
        return
    try:
        attr, conv = _SCHEMA[(section, key)]
    except KeyError:
        raise ConfigError(f"unknown configuration key [{section}] {key}") from None
    if section == "model" and key == "cutoff":
        seen_model.add("cutoff")
    if conv == "alphas":
        parsed = tuple(float(tok) for tok in value.replace(",", " ").split())
        if not parsed:
            raise ConfigError("sweep alphas list is empty")
        setattr(cfg, attr, parsed)
    else:
        try:
            setattr(cfg, attr, conv(value))
        except ValueError:
            raise ConfigError(f"bad value for [{section}] {key}: {value!r}") from None


def load_config(path: str | None, overrides: list[str]) -> RunConfig:
    """Build a RunConfig from an optional INI file plus overrides.

    Exactly one of cutoff / L may be supplied in [model]; the other is
    derived.  With neither, the default cutoff applies.
    """
    cfg = RunConfig()
    seen_model: set = set()
    items: list[tuple[str, str, str]] = []
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case-sensitive ("L")
        try:
            parser.read_string(p.read_text())
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
        for section in parser.sections():
            for key, value in parser.items(section):
                items.append((section, key, value))
    for ov in overrides:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {ov!r}")
        loc, value = ov.split("=", 1)
        section, key = loc.split(".", 1)
        items.append((section.strip(), key.strip(), value.strip()))
    for section, key, value in items:
        _apply_item(cfg, section, key, value, seen_model)
    if "L" in seen_model and "cutoff" in seen_model:
        raise ConfigError("supply exactly one of [model] cutoff or [model] L")
    if "L" in seen_model:
        if cfg.alpha <= 0:
            raise ConfigError("deriving cutoff from L needs alpha > 0")
        cfg.cutoff = math.exp(cfg._L / cfg.alpha)  # type: ignore[attr-defined]
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.alpha < 0:
        raise ConfigError("alpha must be >= 0")
    if cfg.cutoff is None or cfg.cutoff <= 1:
        raise ConfigError("cutoff must exceed 1")
    for name in ("disp_tol", "pekar_tol", "pol_k_min", "pekar_dt", "sweep_L"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be positive")
    for name in ("disp_n_nodes", "pol_k_nodes", "pekar_n_nodes", "sweep_n_nodes"):
        if getattr(cfg, name) < 8:
            raise ConfigError(f"{name} must be at least 8")


def config_to_ini(cfg: RunConfig) -> str:
    """Serialize back to INI text; load_config(parse of this) == cfg."""
    lines = []
    by_section: dict[str, list[str]] = {}
    for (section, key), (attr, conv) in _SCHEMA.items():
        value = getattr(cfg, attr)
        if conv == "alphas":
            text = ", ".join(repr(a) for a in value)
        else:
            text = repr(value)
        by_section.setdefault(section, []).append(f"{key} = {text}")
    for section, entries in by_section.items():
        lines.append(f"[{section}]")
        lines.extend(entries)
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------- stages


def _solve_dispersion(cfg: RunConfig):
    grid = make_grid(cfg.cutoff, cfg.disp_n_nodes, "geometric")
    return solve_dispersion(
        cfg.params(), grid, tol=cfg.disp_tol, max_iter=cfg.disp_max_iter,
        damping=cfg.disp_damping,
    )


def cmd_dispersion(cfg: RunConfig, out: Path) -> int:
    try:
        d = _solve_dispersion(cfg)
    except FixedPointError as exc:
        (out / "asymptotics.json").write_text(
            json.dumps({"converged": False, "report": exc.report.to_dict()}, indent=2) + "\n"
        )
        print(f"dispersion: no convergence ({exc})", file=sys.stderr)
        return EXIT_FAIL
    dispersion_to_csv(d, out / "dispersion.csv")
    payload = {"converged": True, "regime_warning": cfg.params().regime_warning}
    if cfg.alpha > 0:
        payload.update(check_asymptotics(d).to_dict())
    (out / "asymptotics.json").write_text(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_polarization(cfg: RunConfig, out: Path) -> int:
    try:
        d = _solve_dispersion(cfg)
    except FixedPointError as exc:
        print(f"polarization: dispersion stage failed ({exc})", file=sys.stderr)
        return EXIT_FAIL
    k_nodes = default_k_nodes(cfg.cutoff, cfg.pol_k_nodes, cfg.pol_k_min)
    table = polarization_table(d, k_nodes)
    table_to_csv(table, out / "polarization.csv", out / "polarization.json")
    return EXIT_OK


def cmd_pekar(cfg: RunConfig, out: Path) -> int:
    grid = make_grid(cfg.pekar_r_max, cfg.pekar_n_nodes, "uniform")
    try:
        state = solve_pekar(
            grid, tol=cfg.pekar_tol, max_iter=cfg.pekar_max_iter, dt=cfg.pekar_dt
        )
    except PekarConvergenceError as exc:
        print(f"pekar: {exc}", file=sys.stderr)
        return EXIT_FAIL
    state_to_csv(state, out / "pekar.csv", out / "pekar_summary.json")
    return EXIT_OK


def cmd_predict(cfg: RunConfig, out: Path) -> int:
    try:
        d = _solve_dispersion(cfg)
        grid = make_grid(cfg.pekar_r_max, cfg.pekar_n_nodes, "uniform")
        p = solve_pekar(grid, tol=cfg.pekar_tol, max_iter=cfg.pekar_max_iter, dt=cfg.pekar_dt)
    except (FixedPointError, PekarConvergenceError) as exc:
        stage = "dispersion" if isinstance(exc, FixedPointError) else "pekar"
        print(f"predict: {stage} stage failed ({exc})", file=sys.stderr)
        return EXIT_FAIL
    t = polarization_table(d, k_nodes=np.array([cfg.pol_k_min]))
    br = assemble_breakdown(d, t, p)
    payload = br.to_dict()
    # companion prediction with the undressed polarization value, and the
    # associated coupling renormalization, reported side by side
    t_free = free_polarization_table(cfg.params(), k_nodes=np.array([cfg.pol_k_min]))
    Z3, alpha_phys = charge_renormalization(cfg.params(), t_free.B0_at_zero)
    br_free = assemble_breakdown(d, t_free, p)
    payload.update(
        {
            "total_pred_free_screening": br_free.total_pred,
            "b0_free": br_free.b0,
            "Z3": Z3,
            "alpha_physical": alpha_phys,
        }
    )
    (out / "prediction.json").write_text(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    grid = make_grid(cfg.pekar_r_max, cfg.pekar_n_nodes, "uniform")
    try:
        p = solve_pekar(grid, tol=cfg.pekar_tol, max_iter=cfg.pekar_max_iter, dt=cfg.pekar_dt)
        table = regime_sweep(cfg.sweep_alphas, cfg.sweep_L, p, n_nodes=cfg.sweep_n_nodes)
    except (FixedPointError, PekarConvergenceError, InvalidParameterError) as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return EXIT_FAIL
    sweep_to_csv(table, out / "sweep.csv")
    sweep_to_json(table, out / "sweep.json")
    for alpha in table.skipped:
        print(f"sweep: alpha={alpha} skipped (cutoff over cap)", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------- verify


@dataclass
class _Check:
    name: str
    passed: bool
    value: float
    budget: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": float(self.value),
            "budget": float(self.budget),
        }


def run_verification(cfg: RunConfig) -> tuple[list[_Check], bool]:
    """The full cross-module invariant suite on the configured run."""
    checks: list[_Check] = []

    def add(name, passed, value, budget):
        checks.append(_Check(name, bool(passed), float(value), float(budget)))

    params = cfg.params()
    grid = make_grid(cfg.cutoff, cfg.disp_n_nodes, "geometric")

    # iterate ordering: 1 <= g0 and p <= g1 <= p*g0 on every iterate
    d_it = free_dispersion(params, grid)
    rules = KernelRules(grid)
    worst = 0.0
    for _ in range(6):
        d_it = scf_step(d_it, rules)
        p_nodes = grid.nodes
        worst = max(
            worst,
            float(np.max(1.0 - d_it.g0)),
            float(np.max((p_nodes - d_it.g1) / p_nodes)),
            float(np.max((d_it.g1 - p_nodes * d_it.g0) / p_nodes)),
        )
    del rules  # solve_dispersion builds its own; do not hold two at once
    add("dispersion.iterate_ordering", worst <= 1e-12, worst, 1e-12)

    d = None
    try:
        d = _solve_dispersion(cfg)
        add("dispersion.converged", True, d.report.final_residual, cfg.disp_tol)
    except FixedPointError as exc:
        add("dispersion.converged", False, exc.report.final_residual, cfg.disp_tol)

    if d is not None:
        if cfg.alpha > 0 and params.L > 0:
            L = params.L
            m_ratio = (m_alpha(d) - 1.0) * math.pi / L
            slope_ratio = (g1_prime_zero(d) - 1.0) * 3.0 * math.pi / (2.0 * L)
            add("dispersion.window.m_alpha", 0.7 <= m_ratio <= 1.3, m_ratio, 1.3)
            add("dispersion.window.g1_slope", 0.7 <= slope_ratio <= 1.3, slope_ratio, 1.3)
        k_nodes = default_k_nodes(cfg.cutoff, cfg.pol_k_nodes, cfg.pol_k_min)
        table = polarization_table(d, k_nodes)
        add("polarization.B_nonnegative", np.all(table.B >= 0.0), float(table.B.min()), 0.0)
        b_ok = np.all(table.b >= 0.0) and np.all(table.b < 1.0)
        add("polarization.b_in_unit_interval", b_ok, float(table.b.max()), 1.0)
        bound = kernel_difference_bound_check(d, 100, seed=cfg.seed)
        add("polarization.pointwise_kernel_bound", bound.violations == 0, bound.violations, 0.0)
        cont = continuity_modulus(table)
        add("polarization.continuity_modulus", cont.max_ratio <= 10.0, cont.max_ratio, 10.0)
        # linear response: response is linear in the source and opposite in sign
        rho = 1.0 / (1.0 + table.k_nodes**2)
        resp1 = linear_response_density(table, rho)
        resp2 = linear_response_density(table, 2.0 * rho)
        lin_err = float(np.max(np.abs(resp2 - 2.0 * resp1)))
        add("polarization.response_linearity", lin_err == 0.0, lin_err, 0.0)
        sign_ok = np.all(resp1 <= 0.0)
        add("polarization.response_sign", sign_ok, float(resp1.max()), 0.0)

    # coupling-off reductions are exact in every module
    zero = ModelParams(0.0, cfg.cutoff)
    d0 = free_dispersion(zero, grid)
    d0s = scf_step(d0)
    red = max(float(np.max(np.abs(d0s.g0 - 1.0))), float(np.max(np.abs(d0s.g1 - grid.nodes))))
    t0 = polarization_table(d0, k_nodes=np.array([DEFAULT_K_MIN]))
    red = max(red, float(np.max(np.abs(t0.b))))
    add("coupling_off.exact_reduction", red == 0.0, red, 0.0)

    # direct-space minimizer
    try:
        pk_grid = make_grid(cfg.pekar_r_max, cfg.pekar_n_nodes, "uniform")
        st = solve_pekar(pk_grid, tol=cfg.pekar_tol, max_iter=cfg.pekar_max_iter, dt=cfg.pekar_dt)
        add("pekar.beats_gaussian_bound", st.E <= GAUSSIAN_BOUND + 1e-4, st.E, GAUSSIAN_BOUND + 1e-4)
        virial = abs(st.D - 2.0 * st.T) / st.D
        add("pekar.virial", virial <= 1e-3, virial, 1e-3)
        res = el_residual(st)
        add("pekar.el_residual", res <= cfg.pekar_tol, res, cfg.pekar_tol)
    except PekarConvergenceError as exc:
        add("pekar.converged", False, math.inf, cfg.pekar_tol)
        st = None

    if d is not None and st is not None:
        t1 = polarization_table(d, k_nodes=np.array([DEFAULT_K_MIN]))
        br = assemble_breakdown(d, t1, st)
        total_corr = br.kinetic_corr + br.vacuum_corr + br.direct_corr
        if cfg.alpha > 0:
            expected = (st.T - st.D) / c0_squared(d, t1)
            rel = abs(total_corr - expected) / abs(expected)
            add("energy.correction_identity", rel <= 1e-12, rel, 1e-12)
            add("energy.vacuum_corr_positive", br.vacuum_corr > 0, br.vacuum_corr, 0.0)
            add("energy.direct_corr_negative", br.direct_corr < 0, br.direct_corr, 0.0)
            binds = br.total_pred < br.m if st.E < 0 else True
            add("energy.binding_sign", binds, br.total_pred - br.m, 0.0)
        else:
            add("energy.coupling_off_total", br.total_pred == br.m, br.total_pred - br.m, 0.0)

    all_ok = all(c.passed for c in checks)
    return checks, all_ok


def cmd_verify(cfg: RunConfig, out: Path) -> int:
    checks, all_ok = run_verification(cfg)
    payload = {
        "passed": all_ok,
        "regime_warning": cfg.params().regime_warning,
        "alpha": cfg.alpha,
        "cutoff": cfg.cutoff,
        "checks": [c.to_dict() for c in checks],
    }
    (out / "verify.json").write_text(json.dumps(payload, indent=2) + "\n")
    width = max(len(c.name) for c in checks)
    for c in checks:
        print(f"{c.name:<{width}}  {'PASS' if c.passed else 'FAIL'}  value={c.value:.6g}")
    print(f"verify: {'all checks passed' if all_ok else 'FAILURES present'}")
    if not all_ok:
        for c in checks:
            if not c.passed:
                print(f"verify: failed check {c.name}", file=sys.stderr)
    return EXIT_OK if all_ok else EXIT_FAIL


_COMMANDS = {
    "dispersion": cmd_dispersion,
    "polarization": cmd_polarization,
    "pekar": cmd_pekar,
    "predict": cmd_predict,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdfvac",
        description="Dressed Dirac-vacuum pipeline: dispersion, polarization, "
        "variational minimizer, energy prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="INI configuration file")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override a config value (repeatable)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.override)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.params().regime_warning:
        print(
            f"warning: alpha={cfg.alpha} is outside the admissible regime "
            f"(limit {ALPHA_REGIME_LIMIT:.6f})",
            file=sys.stderr,
        )
    try:
        return _COMMANDS[args.command](cfg, out)
    except InvalidParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
