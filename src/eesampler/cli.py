"""Command-line entry points.

Verbs: ``run``, ``rate-study``, ``bias-study``, ``verify``. Every verb takes
a JSON config (schema in the README); ``--seed``, ``--replicates`` and
``--abort-on-stability`` override the corresponding config fields before
resolution, so the embedded config hash always reflects what actually ran.

Exit codes: 0 success, 2 configuration error, 3 stability abort,
4 numerical error, 5 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .config import _read_raw, config_from_dict
from .errors import ConfigurationError, DomainError, NumericalError, StabilityError
from .experiments import (
    bias_study,
    run_experiment,
    slln_rate_study,
    verify_suite,
    write_json,
    write_rate_report,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STABILITY = 3
EXIT_NUMERICAL = 4
EXIT_VERIFY = 5


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument(
        "--replicates", type=int, default=None, help="override the replicate count"
    )
    parser.add_argument(
        "--abort-on-stability",
        action="store_true",
        help="abort (exit 3) when a ring mass falls below theta",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eesampler",
        description="Equi-energy sampler: runs, rate studies, bias studies, verification",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text in (
        ("run", "run the configured experiment and write trace artifacts"),
        ("rate-study", "estimate the SLLN error decay rate across replicates"),
        ("bias-study", "demonstrate the frozen-feeder bias against the oracle"),
        ("verify", "machine-check every oracle identity and bound"),
    ):
        p = sub.add_parser(verb, help=help_text)
        _add_common(p)
        if verb == "bias-study":
            p.add_argument(
                "--freeze-at", type=int, default=9,
                help="feeder rounds before freezing (atoms = freeze-at + 1)",
            )
        if verb == "rate-study":
            p.add_argument(
                "--n-grid", default=None,
                help="comma-separated round grid (default: 128..16384 doubling)",
            )
    return parser


# one parser per process: parsing leaves it as it was, and building it
# costs more than a short verb's parse
_parser = functools.cache(build_parser)


def _load(args) -> "ExperimentConfig":
    raw = _read_raw(args.config)
    if args.seed is not None:
        raw["seed"] = int(args.seed)
    if args.replicates is not None:
        raw["replicates"] = int(args.replicates)
    if args.abort_on_stability:
        stability = raw.setdefault("stability", {})
        if isinstance(stability, dict):  # otherwise config_from_dict rejects it
            stability["policy"] = "abort"
    return config_from_dict(raw)


def _parse_grid(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"--n-grid needs comma-separated integers, got {text!r}") from exc


def _check_out(out: Path) -> None:
    """Refuse, before any work, an output path that cannot be a directory:
    its nearest existing part must be one."""
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigurationError(f"--out {out}: {path} exists and is not a directory")
            return


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _load(args)
        out = Path(args.out)
        _check_out(out)
        if args.verb == "run":
            paths = run_experiment(config, out)
            print(f"wrote {len(paths['traces'])} trace(s) under {out}")
            return EXIT_OK
        if args.verb == "rate-study":
            grid = None if args.n_grid is None else _parse_grid(args.n_grid)
            report = slln_rate_study(config, n_grid=grid)
            write_rate_report(report, out)
            for f in report.functions:
                slope = "n/a" if f.slope is None else f"{f.slope:+.4f}"
                print(f"rate-study {f.name}: slope={slope} pass={f.passed and f.monotone}")
            return EXIT_OK if report.passed else EXIT_VERIFY
        if args.verb == "bias-study":
            report = bias_study(config, args.freeze_at)
            write_json(report, out / "bias_study.json")
            print(
                f"bias-study: predicted_tv={report.predicted_tv:.6f} "
                f"max_z={report.max_z:.3f} exact_feeder_tv={report.exact_feeder_tv:.2e} "
                f"pass={report.passed}"
            )
            return EXIT_OK if report.passed else EXIT_VERIFY
        if args.verb == "verify":
            report = verify_suite(config)
            write_json(report, out / "verification.json")
            for check in report.checks:
                print(
                    f"verify {check.name}: statistic={check.statistic:.3e} "
                    f"pass={check.passed}"
                )
            if not report.passed:
                print(f"FAILED checks: {', '.join(report.failing())}", file=sys.stderr)
                return EXIT_VERIFY
            return EXIT_OK
        raise ConfigurationError(f"unknown verb {args.verb!r}")
    except (ConfigurationError, DomainError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StabilityError as exc:
        print(f"stability abort: {exc}", file=sys.stderr)
        return EXIT_STABILITY
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
