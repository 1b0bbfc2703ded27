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
    ModelParams,
    check_asymptotics,
    dispersion_to_csv,
    free_dispersion,
    solve_dispersion,
)
from .energy import (
    assemble_breakdown,
    breakdown_to_dict,
    regime_sweep,
    sweep_to_csv,
    sweep_to_json,
)
from .numerics import FixedPointError, InvalidParameterError, make_grid, write_json
from .pekar import GAUSSIAN_BOUND, PekarConvergenceError, solve_pekar, state_to_csv
from .polarization import (
    DEFAULT_K_MIN,
    K_SWITCH,
    b_lambda_k,
    charge_renormalization,
    continuity_modulus,
    default_k_nodes,
    free_reference,
    kernel_difference_bound_check,
    polarization_table,
    table_to_csv,
    uehling,
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


@dataclass
class PolarizationConfig:
    k_nodes: int = _knob(128, min=8)


@dataclass
class PekarConfig:
    n_nodes: int = _knob(1024, min=8)


@dataclass
class SweepConfig:
    alphas: tuple = _knob((0.02, 0.01, 0.005, 0.002, 0.001, 0.0005), above=0.0)
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
    return solve_dispersion(params, _momentum_grid(cfg, params.cutoff))


def _solve_pekar(cfg: RunConfig):
    return solve_pekar(make_grid(pekar.DEFAULT_R_MAX, cfg.pekar.n_nodes, "uniform"))


def cmd_dispersion(cfg: RunConfig, out: Path) -> int:
    try:
        d = _solve_dispersion(cfg, cfg.params())
    except FixedPointError as exc:
        write_json(out / "asymptotics.json", {"converged": False, "report": asdict(exc.report)})
        print(f"dispersion: no convergence ({exc})", file=sys.stderr)
        return EXIT_FAIL
    dispersion_to_csv(d, out / "dispersion.csv")
    params = d.params
    payload = {"converged": True, "regime_warning": params.regime_warning}
    if params.alpha > 0:
        entries = [asdict(e) for e in check_asymptotics(d).values()]
        payload.update(alpha=params.alpha, cutoff=params.cutoff, L=params.L, entries=entries)
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
    t = polarization_table(d, k_nodes=())
    br = assemble_breakdown(d, t, p)
    payload = breakdown_to_dict(br)
    # companion prediction with the undressed polarization value on the same
    # grid, and the associated coupling renormalization, side by side
    t_free = polarization_table(free_dispersion(d.params, d.grid), k_nodes=())
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
    return EXIT_OK


# ---------------------------------------------------------------- verify


@dataclass
class _Check:
    name: str
    passed: bool
    value: float
    budget: float


def run_verification(cfg: RunConfig) -> tuple[list[_Check], bool]:
    """Checks on numbers this run computed, each of which the run can push
    past its budget.  Properties that hold for every input (B >= 0, the
    energy algebra, the coupling-off reduction) are tested in tests/."""
    checks: list[_Check] = []

    def add(name, passed, value, budget):
        checks.append(_Check(name, bool(passed), float(value), float(budget)))

    params = cfg.params()
    d = None
    try:
        d = _solve_dispersion(cfg, params)
        add("dispersion.converged", True, d.report.final_residual, dispersion.DEFAULT_TOL)
    except FixedPointError as exc:
        add("dispersion.converged", False, exc.report.final_residual, dispersion.DEFAULT_TOL)

    if d is not None:
        # ordering of the solved profiles, 1 <= g0 and p <= g1 <= p*g0, as
        # the largest relative excess over the nodes
        p = d.grid.nodes
        margin = max(np.max(1.0 - d.g0), np.max((p - d.g1) / p), np.max((d.g1 - p * d.g0) / p))
        add("dispersion.ordering", margin <= 1e-12, margin, 1e-12)
        if params.alpha > 0:
            # m - 1 and g1'(0) - 1 over their small-L forms
            entries = check_asymptotics(d)
            for check, name in (("m_alpha", "m_alpha"), ("g1_slope", "g1_prime_zero")):
                e = entries[name]
                ratio = (e.measured - 1.0) / (e.predicted - 1.0)
                add(f"dispersion.window.{check}", 0.7 <= ratio <= 1.3, ratio, 1.3)
        # continuity_modulus reads only the k <= 0.1
        k_nodes = default_k_nodes(params.cutoff, cfg.polarization.k_nodes, DEFAULT_K_MIN)
        table = polarization_table(d, k_nodes[k_nodes <= 0.1])
        bound = kernel_difference_bound_check(d, seed=cfg.output.seed)
        add("polarization.pointwise_kernel_bound", bound.violations == 0, bound.violations, 0.0)
        cont = continuity_modulus(table)
        add("polarization.continuity_modulus", cont.max_ratio <= 10.0, cont.max_ratio, 10.0)
        # the 2-d B(k) at its smallest k, K = K_SWITCH, against the radial B(0)
        # less the free drop there, U(K) and the edge term K/(8 pi cutoff)
        K = K_SWITCH
        drop = uehling(K) + K / (8.0 * math.pi * params.cutoff)
        k0 = abs(b_lambda_k(d, K) - table.B0_at_zero + drop) / table.B0_at_zero
        add("polarization.k0_consistency", k0 <= 1e-6, k0, 1e-6)
        miss, budget = free_reference(d)
        add("polarization.free_reference", miss <= budget, miss, budget)

    # direct-space minimizer
    try:
        st = _solve_pekar(cfg)
        add("pekar.beats_gaussian_bound", st.E <= GAUSSIAN_BOUND + 1e-4, st.E, GAUSSIAN_BOUND + 1e-4)
        virial = abs(st.D - 2.0 * st.T) / st.D
        add("pekar.virial", virial <= 1e-3, virial, 1e-3)
    except PekarConvergenceError as exc:
        add("pekar.converged", False, exc.residual, pekar.DEFAULT_TOL)
        st = None

    # a bound state must lower the total below m; this fails once the
    # correction drops under one ulp of m
    if d is not None and st is not None and params.alpha > 0:
        br = assemble_breakdown(d, table, st)
        binds = br.total_pred < br.m if st.E < 0 else True
        add("energy.binding_sign", binds, br.total_pred - br.m, 0.0)

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
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot use --out {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
