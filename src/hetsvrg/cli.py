"""``hetsvrg`` command line: grid sweeps, rate calculators, protocol checks.

Subcommands
-----------
run            -- run a learning-rate sweep and write trace/report CSVs
rates          -- evaluate a convergence-factor formula
protocol-test  -- draw from the tree-sampling protocol and check marginals

``run`` options may also come from a flat key=value config file (``--config``);
explicit command-line flags take precedence.  Exit status is 0 on success, 2
with argparse's usage message for a flag argparse rejects, and 1 with a single
diagnostic line on stderr otherwise (a bad config-file value among them).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import comm, harness, optim, sampling

# short names; any other name is passed on as given, and ExperimentSpec
# rejects the unknown ones
_PRESET_ALIASES = {
    "linear": "linear_synthetic",
    "logistic": "logistic_synthetic",
    "custom": "custom_csv",
}

_ALGO_ALIASES = {
    "svrg": "svrg_uniform",
    "asd": "asd_svrg",
}


def _parse_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` lines; '#' starts a comment, blank lines ignored.
    Keys are the long option names of the ``run`` subcommand."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _csv_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _csv_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


# the run options, each as (flag, the ExperimentSpec or EstimationConfig
# field it sets, add_argument keywords); a config-file key is the flag's name,
# spelled with '-' or '_', and is parsed with the flag's type and checked
# against its choices
_RUN_OPTIONS = (
    ("--preset", "preset", dict(choices=sorted({*_PRESET_ALIASES, *harness.PRESETS}))),
    ("--csv", "csv_path", dict(help="dataset CSV for --preset custom")),
    ("--task", "task", dict(help="objective for --preset custom")),
    ("--algos", "algorithms", dict(help="comma list: sgd,svrg,svrg_importance,asd")),
    ("--etas", "eta_grid", dict(help="comma list of step sizes")),
    ("--epochs", "epochs", dict(type=int)),
    ("--inner", "inner_iters", dict(type=int, help="inner iterations per epoch")),
    ("--R", "group_size", dict(type=int, help="worker draws per inner step")),
    ("--seeds", "seeds", dict(help="comma list of seeds")),
    ("--out", "out_dir", dict(help="output directory")),
    ("--growth-base", "growth_base", dict(type=float)),
    ("--eval-every", "eval_every", dict(type=int)),
    ("--l2-sgd", "l2_for_sgd", dict(type=float)),
    ("--estimation", "subsample_policy", dict(choices=sampling.SUBSAMPLE_POLICIES)),
    ("--fixed-n", "fixed_n", dict(type=int)),
)

# the CLI's own defaults; every other option left unset takes the default of
# its ExperimentSpec or EstimationConfig field
_RUN_DEFAULTS = {"preset": "linear", "algorithms": "sgd,svrg,asd", "seeds": "1"}


def _config_key(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _resolve_run_options(args) -> dict:
    """Merge CLI flags over config-file values over the CLI defaults, keyed by
    field; an option set nowhere is left out."""
    merged = dict(_RUN_DEFAULTS)
    if args.config:
        options = {_config_key(flag): (field, kwargs) for flag, field, kwargs in _RUN_OPTIONS}
        raw = _parse_config_file(args.config)
        unknown = set(raw) - set(options)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            field, kwargs = options[key]
            merged[field], choices = kwargs.get("type", str)(value), kwargs.get("choices")
            if choices is not None and merged[field] not in choices:
                raise ValueError(f"{args.config}: {key} = {value}: invalid choice (choose from {', '.join(choices)})")
    for _, field, _ in _RUN_OPTIONS:
        if getattr(args, field) is not None:
            merged[field] = getattr(args, field)
    return merged


def _cmd_run(args) -> int:
    opts = _resolve_run_options(args)
    preset = opts.pop("preset")
    etas = opts.pop("eta_grid", None)
    seeds = opts.pop("seeds")
    algos = (name.strip() for name in opts.pop("algorithms").split(","))
    estimation = {f.name: opts.pop(f.name) for f in dataclasses.fields(sampling.EstimationConfig) if f.name in opts}
    spec = harness.ExperimentSpec(
        preset=_PRESET_ALIASES.get(preset, preset),
        algorithms=tuple(dict.fromkeys(_ALGO_ALIASES.get(name, name) for name in algos if name)),
        eta_grid=_csv_floats(etas) if etas else None,
        seeds=_csv_ints(seeds),
        estimation=sampling.EstimationConfig(**estimation),
        **opts,
    )
    report = harness.run_experiment(spec)
    harness.emit_plotdata(report, spec.out_dir)
    for algorithm in spec.algorithms:
        if algorithm in report.best:
            eta, metrics = report.best[algorithm]
            print(
                f"{algorithm}: best eta {eta:g}, median final train loss "
                f"{metrics['median_final_train_loss']:.6g}"
            )
        else:
            print(f"{algorithm}: every grid cell diverged")
    print(f"report and traces written under {spec.out_dir}")
    return 0


def _cmd_rates(args) -> int:
    params = optim.RateParams(
        lam=args.lam,
        l_bar=args.lbar,
        eta=args.eta,
        T=args.T,
        R=args.R,
        tau=args.tau,
        l_max=args.lmax,
    )
    rho = optim.theoretical_rate(args.kind, params)
    print(f"rho({args.kind}) = {rho!r}")
    if rho >= 1.0:
        print("note: rho >= 1, the bound does not certify convergence")
    return 0


def _cmd_protocol_test(args) -> int:
    for flag in ("M", "R", "draws"):
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag} must be at least 1, got {getattr(args, flag)}")
    if args.weights:
        weights = list(_csv_floats(args.weights))
        if len(weights) != args.M:
            raise ValueError(f"--weights needs {args.M} entries, got {len(weights)}")
    else:
        weights = [float(i + 1) for i in range(args.M)]
    protocol = comm.pc_sample if args.protocol == "pc" else comm.optimal_comm_sample
    rng = np.random.default_rng(args.seed)
    ledger = comm.CommLedger()
    counts = np.zeros(args.M)
    calls = max(1, args.draws // args.R)
    for _ in range(calls):
        hist = protocol(weights, args.R, ledger, rng)
        for worker, mult in hist.items():
            counts[worker] += mult
    n = counts.sum()
    exact = np.asarray(weights) / sum(weights)
    empirical = counts / n
    tol = 4.0 * np.sqrt(exact * (1 - exact) / n)
    print("worker,exact,empirical,abs_dev,tolerance_4sigma")
    for i in range(args.M):
        print(
            f"{i},{exact[i]:.6f},{empirical[i]:.6f},"
            f"{abs(empirical[i] - exact[i]):.6f},{tol[i]:.6f}"
        )
    print(comm.CommLedger.CSV_HEADER)
    print(ledger.csv_row(f"{args.protocol}_x{calls}"))
    bad = np.abs(empirical - exact) > tol
    if bad.any():
        print(f"error: marginals off beyond 4 sigma for workers {np.where(bad)[0].tolist()}", file=sys.stderr)
        return 1
    print(f"marginals within 4 sigma over {int(n)} sampled indices")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hetsvrg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a learning-rate grid sweep")
    run.add_argument("--config", help="flat key=value config file")
    for flag, field, kwargs in _RUN_OPTIONS:
        # the help text names an option by its flag, not by its field
        metavar = None if "choices" in kwargs else _config_key(flag).upper()
        run.add_argument(flag, dest=field, metavar=metavar, **kwargs)
    run.set_defaults(func=_cmd_run)

    rates = sub.add_parser("rates", help="evaluate a convergence-factor formula")
    rates.add_argument("--kind", choices=optim.RATE_KINDS, required=True)
    rates.add_argument("--lambda", dest="lam", type=float, required=True)
    rates.add_argument("--eta", type=float, required=True)
    rates.add_argument("--T", type=int, required=True)
    rates.add_argument("--R", type=int, default=1)
    rates.add_argument("--tau", type=float, default=None)
    rates.add_argument("--lbar", type=float, required=True)
    rates.add_argument("--lmax", type=float, default=None)
    rates.set_defaults(func=_cmd_rates)

    proto = sub.add_parser("protocol-test", help="check tree-sampling marginals")
    proto.add_argument("--M", type=int, required=True)
    proto.add_argument("--R", type=int, required=True)
    proto.add_argument("--draws", type=int, default=100000, help="total indices to sample")
    proto.add_argument("--weights", default=None, help="comma list (default: 1..M)")
    proto.add_argument("--protocol", choices=("pc", "optimal"), default="pc")
    proto.add_argument("--seed", type=int, default=0)
    proto.set_defaults(func=_cmd_protocol_test)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, sampling.DegenerateWeights, optim.RateUndefined) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
