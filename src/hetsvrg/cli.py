"""``hetsvrg`` command line: grid sweeps, rate calculators, protocol checks.

Subcommands
-----------
run            -- run a learning-rate sweep and write trace/report CSVs
rates          -- evaluate a convergence-factor formula
protocol-test  -- draw from the tree-sampling protocol and check marginals

``run`` options may also come from a flat key=value config file (``--config``);
explicit command-line flags take precedence.  Exit status is 0 on success and
1 with a single diagnostic line on stderr otherwise.
"""

from __future__ import annotations

import argparse
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


_RUN_OPTION_TYPES = {
    "preset": str,
    "csv": str,
    "task": str,
    "algos": str,
    "etas": str,
    "epochs": int,
    "inner": int,
    "R": int,
    "seeds": str,
    "out": str,
    "growth_base": float,
    "eval_every": int,
    "l2_sgd": float,
    "estimation": str,
    "tau": float,
    "delta": float,
    "fixed_n": int,
}

# the CLI's own defaults; every other option left unset takes the default of
# its ExperimentSpec or EstimationConfig field
_RUN_DEFAULTS = {"preset": "linear", "algos": "sgd,svrg,asd", "seeds": "1"}

# options named differently from their dataclass field
_FIELD_NAMES = {
    "csv": "csv_path",
    "inner": "inner_iters",
    "R": "group_size",
    "out": "out_dir",
    "l2_sgd": "l2_for_sgd",
    "estimation": "subsample_policy",
}
_ESTIMATION_OPTIONS = ("estimation", "tau", "delta", "fixed_n")


def _resolve_run_options(args) -> dict:
    """Merge CLI flags over config-file values over the CLI defaults; an
    option set nowhere is left out."""
    from_file = {}
    if args.config:
        raw = _parse_config_file(args.config)
        unknown = set(raw) - set(_RUN_OPTION_TYPES)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            from_file[key] = _RUN_OPTION_TYPES[key](value)
    merged = dict(_RUN_DEFAULTS)
    merged.update(from_file)
    for key in _RUN_OPTION_TYPES:
        cli_value = getattr(args, key)
        if cli_value is not None:
            merged[key] = cli_value
    return merged


def _cmd_run(args) -> int:
    opts = _resolve_run_options(args)
    preset = opts.pop("preset")
    etas = opts.pop("etas", None)
    seeds = opts.pop("seeds")
    algos = (name.strip() for name in opts.pop("algos").split(","))
    estimation = {_FIELD_NAMES.get(key, key): opts.pop(key) for key in _ESTIMATION_OPTIONS if key in opts}
    spec = harness.ExperimentSpec(
        preset=_PRESET_ALIASES.get(preset, preset),
        algorithms=tuple(dict.fromkeys(_ALGO_ALIASES.get(name, name) for name in algos if name)),
        eta_grid=_csv_floats(etas) if etas else None,
        seeds=_csv_ints(seeds),
        estimation=sampling.EstimationConfig(**estimation),
        **{_FIELD_NAMES.get(key, key): value for key, value in opts.items()},
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
    run.add_argument("--preset", choices=sorted({*_PRESET_ALIASES, *harness.PRESETS}), default=None)
    run.add_argument("--csv", default=None, help="dataset CSV for --preset custom")
    run.add_argument("--task", default=None, help="objective for --preset custom")
    run.add_argument("--algos", default=None, help="comma list: sgd,svrg,svrg_importance,asd")
    run.add_argument("--etas", default=None, help="comma list of step sizes")
    run.add_argument("--epochs", type=int, default=None)
    run.add_argument("--inner", type=int, default=None, help="inner iterations per epoch")
    run.add_argument("--R", type=int, default=None, help="worker draws per inner step")
    run.add_argument("--seeds", default=None, help="comma list of seeds")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--growth-base", dest="growth_base", type=float, default=None)
    run.add_argument("--eval-every", dest="eval_every", type=int, default=None)
    run.add_argument("--l2-sgd", dest="l2_sgd", type=float, default=None)
    run.add_argument("--estimation", choices=sampling.SUBSAMPLE_POLICIES, default=None)
    run.add_argument("--tau", type=float, default=None)
    run.add_argument("--delta", type=float, default=None)
    run.add_argument("--fixed-n", dest="fixed_n", type=int, default=None)
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
