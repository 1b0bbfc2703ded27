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
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import dispersion, pekar
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
from .energy import assemble_breakdown, c0_squared, regime_sweep, sweep_to_csv, sweep_to_json
from .numerics import FixedPointError, InvalidParameterError, make_grid, write_json
from .pekar import GAUSSIAN_BOUND, PekarConvergenceError, el_residual, solve_pekar, state_to_csv
from .polarization import (
    DEFAULT_K_MIN,
    charge_renormalization,
    continuity_modulus,
    default_k_nodes,
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


def _knob(default, **bound):
    """A config value with its lower bound, min=x (value >= x) or above=x
    (value > x); a tuple value is bounded element by element."""
    return field(default=default, metadata=bound)


@dataclass
class ModelConfig:
    alpha: float = _knob(0.01, min=0.0)
    cutoff: float = _knob(1e4, above=1.0)
    L: float | None = None  # given instead of cutoff, which is then exp(L / alpha)


@dataclass
class DispersionConfig:
    n_nodes: int = _knob(512, min=8)
    tol: float = _knob(dispersion.DEFAULT_TOL, above=0.0)
    max_iter: int = _knob(dispersion.DEFAULT_MAX_ITER, min=1)


@dataclass
class PolarizationConfig:
    k_nodes: int = _knob(128, min=8)


@dataclass
class PekarConfig:
    n_nodes: int = _knob(1024, min=8)
    tol: float = _knob(pekar.DEFAULT_TOL, above=0.0)
    max_iter: int = _knob(pekar.DEFAULT_MAX_ITER, min=1)


@dataclass
class SweepConfig:
    alphas: tuple = _knob((0.02, 0.01, 0.005), above=0.0)
    L: float = _knob(0.05, above=0.0)


@dataclass
class OutputConfig:
    seed: int = _knob(0, min=0)


@dataclass
class RunConfig:
    """All knobs of a run, one dataclass per INI section, whose field names
    are the keys; every field has a working default."""

    model: ModelConfig = field(default_factory=ModelConfig)
    dispersion: DispersionConfig = field(default_factory=DispersionConfig)
    polarization: PolarizationConfig = field(default_factory=PolarizationConfig)
    pekar: PekarConfig = field(default_factory=PekarConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def params(self) -> ModelParams:
        return ModelParams(alpha=self.model.alpha, cutoff=self.model.cutoff)


def _parse(spec, text: str):
    """Convert INI text to the type the field is declared with."""
    if spec.type != "tuple":
        return int(text) if spec.type == "int" else float(text)
    values = tuple(float(tok) for tok in text.replace(",", " ").split())
    if not values:
        raise ValueError("empty list")
    return values


def load_config(path: str | None, overrides: list[str]) -> RunConfig:
    """Build a RunConfig from an optional INI file plus overrides.

    Exactly one of cutoff / L may be supplied in [model]; the other is
    derived.  With neither, the default cutoff applies.
    """
    cfg = RunConfig()
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
    specs = {(s.name, f.name): f for s in fields(cfg) for f in fields(getattr(cfg, s.name))}
    given = set()
    for section, key, value in items:
        spec = specs.get((section, key))
        if spec is None:
            raise ConfigError(f"unknown configuration key [{section}] {key}")
        try:
            setattr(getattr(cfg, section), key, _parse(spec, value))
        except ValueError:
            raise ConfigError(f"bad value for [{section}] {key}: {value!r}") from None
        given.add((section, key))
    model = cfg.model
    if {("model", "L"), ("model", "cutoff")} <= given:
        raise ConfigError("supply exactly one of [model] cutoff or [model] L")
    if model.L is not None:
        try:
            model.cutoff = ModelParams.from_L(model.alpha, model.L).cutoff
        except InvalidParameterError as exc:
            raise ConfigError(str(exc)) from None
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    """Every number finite and within the bounds of its field."""
    for section in fields(cfg):
        part = getattr(cfg, section.name)
        for spec in fields(part):
            value = getattr(part, spec.name)
            if value is None:  # model.L when the cutoff is given
                continue
            name = f"{section.name}.{spec.name}"
            for v in value if isinstance(value, tuple) else (value,):
                if not math.isfinite(v):
                    raise ConfigError(f"{name} must be finite, got {v}")
                if "min" in spec.metadata and v < spec.metadata["min"]:
                    raise ConfigError(f"{name} must be at least {spec.metadata['min']:g}")
                if "above" in spec.metadata and v <= spec.metadata["above"]:
                    raise ConfigError(f"{name} must exceed {spec.metadata['above']:g}")


# ---------------------------------------------------------------- stages


def _momentum_grid(cfg: RunConfig, cutoff: float):
    """The grid every dispersion of a run is solved on, sweep included."""
    return make_grid(cutoff, cfg.dispersion.n_nodes, "geometric")


def _solve_dispersion(cfg: RunConfig, params: ModelParams):
    c = cfg.dispersion
    grid = _momentum_grid(cfg, params.cutoff)
    return solve_dispersion(params, grid, tol=c.tol, max_iter=c.max_iter)


def _solve_pekar(cfg: RunConfig):
    c = cfg.pekar
    grid = make_grid(pekar.DEFAULT_R_MAX, c.n_nodes, "uniform")
    return solve_pekar(grid, tol=c.tol, max_iter=c.max_iter)


def cmd_dispersion(cfg: RunConfig, out: Path) -> int:
    try:
        d = _solve_dispersion(cfg, cfg.params())
    except FixedPointError as exc:
        write_json(out / "asymptotics.json", {"converged": False, "report": asdict(exc.report)})
        print(f"dispersion: no convergence ({exc})", file=sys.stderr)
        return EXIT_FAIL
    dispersion_to_csv(d, out / "dispersion.csv")
    payload = {"converged": True, "regime_warning": cfg.params().regime_warning}
    if cfg.model.alpha > 0:
        payload.update(check_asymptotics(d).to_dict())
    write_json(out / "asymptotics.json", payload)
    return EXIT_OK


def cmd_polarization(cfg: RunConfig, out: Path) -> int:
    d = _solve_dispersion(cfg, cfg.params())
    k_nodes = default_k_nodes(cfg.model.cutoff, cfg.polarization.k_nodes, DEFAULT_K_MIN)
    table = polarization_table(d, k_nodes)
    table_to_csv(table, out / "polarization.csv", out / "polarization.json")
    return EXIT_OK


def cmd_pekar(cfg: RunConfig, out: Path) -> int:
    state = _solve_pekar(cfg)
    state_to_csv(state, out / "pekar.csv", out / "pekar_summary.json")
    return EXIT_OK


def cmd_predict(cfg: RunConfig, out: Path) -> int:
    d = _solve_dispersion(cfg, cfg.params())
    p = _solve_pekar(cfg)
    # only B0_at_zero is read: a k below K_SWITCH skips the 2-d integral
    k_zero = np.array([DEFAULT_K_MIN])
    t = polarization_table(d, k_nodes=k_zero)
    br = assemble_breakdown(d, t, p)
    payload = asdict(br)
    # companion prediction with the undressed polarization value on the same
    # grid, and the associated coupling renormalization, side by side
    t_free = polarization_table(free_dispersion(d.params, d.grid), k_zero)
    Z3, alpha_phys = charge_renormalization(d.params, t_free.B0_at_zero)
    br_free = assemble_breakdown(d, t_free, p)
    payload.update(total_pred_free_screening=br_free.total_pred, b0_free=br_free.b0)
    payload.update(Z3=Z3, alpha_physical=alpha_phys)
    write_json(out / "prediction.json", payload)
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    c = cfg.sweep
    p = _solve_pekar(cfg)
    table = regime_sweep(c.alphas, c.L, p, lambda params: _solve_dispersion(cfg, params))
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


def run_verification(cfg: RunConfig) -> tuple[list[_Check], bool]:
    """The full cross-module invariant suite on the configured run."""
    checks: list[_Check] = []

    def add(name, passed, value, budget):
        checks.append(_Check(name, bool(passed), float(value), float(budget)))

    params = cfg.params()
    grid = _momentum_grid(cfg, params.cutoff)

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
    # coupling off: scf_step is the identity and leaves the rules unread
    zero = ModelParams(0.0, params.cutoff)
    d0 = free_dispersion(zero, grid)
    d0s = scf_step(d0, rules)
    del rules  # solve_dispersion builds its own; do not hold two at once
    add("dispersion.iterate_ordering", worst <= 1e-12, worst, 1e-12)

    d = None
    try:
        d = _solve_dispersion(cfg, params)
        add("dispersion.converged", True, d.report.final_residual, cfg.dispersion.tol)
    except FixedPointError as exc:
        add("dispersion.converged", False, exc.report.final_residual, cfg.dispersion.tol)

    if d is not None:
        if params.alpha > 0 and params.L > 0:
            L = params.L
            m_ratio = (m_alpha(d) - 1.0) * math.pi / L
            slope_ratio = (g1_prime_zero(d) - 1.0) * 3.0 * math.pi / (2.0 * L)
            add("dispersion.window.m_alpha", 0.7 <= m_ratio <= 1.3, m_ratio, 1.3)
            add("dispersion.window.g1_slope", 0.7 <= slope_ratio <= 1.3, slope_ratio, 1.3)
        k_nodes = default_k_nodes(params.cutoff, cfg.polarization.k_nodes, DEFAULT_K_MIN)
        table = polarization_table(d, k_nodes)
        add("polarization.B_nonnegative", np.all(table.B >= 0.0), float(table.B.min()), 0.0)
        b_ok = np.all(table.b >= 0.0) and np.all(table.b < 1.0)
        add("polarization.b_in_unit_interval", b_ok, float(table.b.max()), 1.0)
        bound = kernel_difference_bound_check(d, seed=cfg.output.seed)
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
    red = max(float(np.max(np.abs(d0s.g0 - 1.0))), float(np.max(np.abs(d0s.g1 - grid.nodes))))
    t0 = polarization_table(d0, k_nodes=np.array([DEFAULT_K_MIN]))
    red = max(red, float(np.max(np.abs(t0.b))))
    add("coupling_off.exact_reduction", red == 0.0, red, 0.0)

    # direct-space minimizer
    try:
        st = _solve_pekar(cfg)
        add("pekar.beats_gaussian_bound", st.E <= GAUSSIAN_BOUND + 1e-4, st.E, GAUSSIAN_BOUND + 1e-4)
        virial = abs(st.D - 2.0 * st.T) / st.D
        add("pekar.virial", virial <= 1e-3, virial, 1e-3)
        res = el_residual(st)
        add("pekar.el_residual", res <= cfg.pekar.tol, res, cfg.pekar.tol)
    except PekarConvergenceError:
        add("pekar.converged", False, math.inf, cfg.pekar.tol)
        st = None

    if d is not None and st is not None:
        br = assemble_breakdown(d, table, st)
        total_corr = br.kinetic_corr + br.vacuum_corr + br.direct_corr
        if params.alpha > 0:
            expected = (st.T - st.D) / c0_squared(d, table)
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
    params = cfg.params()
    payload = {
        "passed": all_ok,
        "regime_warning": params.regime_warning,
        "alpha": params.alpha,
        "cutoff": params.cutoff,
        "checks": [asdict(c) for c in checks],
    }
    write_json(out / "verify.json", payload)
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
            f"warning: alpha={cfg.model.alpha} is outside the admissible regime "
            f"(limit {ALPHA_REGIME_LIMIT:.6f})",
            file=sys.stderr,
        )
    try:
        return _COMMANDS[args.command](cfg, out)
    except InvalidParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FixedPointError, PekarConvergenceError) as exc:
        stage = "dispersion" if isinstance(exc, FixedPointError) else "pekar"
        print(f"{args.command}: {stage} stage failed ({exc})", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
