"""Command-line entry point.

Verbs: run (full pipeline), sweep-kappa, sweep-m (every RO count from one
candidate pool per device; ignores --ro-count), bench (stage times of device
0's chain), ingest (measured CSV), nist (standalone suite on a response dump:
exit status 0 when the suite passes, 1 when it fails and 2 for a malformed,
unreadable or empty dump).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .characterize import DEFAULT_THRESHOLD, ingest_csv, keep_mask
from .chipmodel import PRESETS, ConfigError, DataError
from .nist import format_rate, run_suite
from .pipeline import PipelineConfig, bench, run_pipeline, sweep_kappa, sweep_m
from .puf import load_responses


def _add_common(p: argparse.ArgumentParser) -> None:
    # No defaults here: a flag left out keeps the --config file's value, or
    # PipelineConfig's default without one.
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--devices", type=int)
    p.add_argument("--ro-count", type=int, dest="ro_count")
    p.add_argument("--kappa", type=float)
    p.add_argument("--seeding")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, dest="global_seed")
    p.add_argument("--env-mode", choices=["axes", "cross", "reference"])
    p.add_argument("--out", dest="out_dir")
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--device-spec", dest="device_spec_file",
                   help="JSON device spec file; overrides --preset")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="log each stage's host seconds to stderr")


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    if args.config:
        try:
            config = PipelineConfig.from_json(Path(args.config).read_text())
        except (OSError, ConfigError) as exc:
            raise ConfigError(f"{args.config}: {exc}") from None
    else:
        config = PipelineConfig()
    overrides = {
        k: getattr(args, k)
        for k in (
            "preset", "devices", "ro_count", "kappa", "seeding", "samples",
            "global_seed", "env_mode", "out_dir", "device_spec_file",
        )
        if getattr(args, k, None) is not None
    }
    for k, v in overrides.items():
        setattr(config, k, v)
    return config


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    report, nist_report, _ = run_pipeline(config)
    print(f"run written to {config.out_dir}")
    print(
        f"reliability r_avg={report.r_avg:.4f} r_min={report.r_min:.4f} "
        f"uniqueness u={report.u:.4f} min_entropy={report.min_entropy_avg:.4f}"
    )
    print(f"nist pass rate {format_rate(nist_report.pass_rate, '.1%')} "
          f"({'all pass' if nist_report.all_pass() else 'some fail'})")
    return 0


def cmd_sweep_kappa(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    points = sweep_kappa(config)
    full = [p.kappa for p in points if p.all_pass]
    for p in points:
        print(f"kappa={p.kappa:<7g} pass_rate={format_rate(p.pass_rate, '6.1%')} "
              f"u={p.uniqueness:.4f} h={p.min_entropy_avg:.4f}")
    print(f"full-pass ratios: {full if full else 'none'}")
    return 0


def cmd_sweep_m(args: argparse.Namespace) -> int:
    for p in sweep_m(_config_from_args(args)):
        print(f"M={p.m:<3d} bits={p.bits:<5d} median_min_diff={p.median_min_diff:.3f} MHz "
              f"r_avg={p.r_avg:.4f} nist={format_rate(p.nist_pass_rate, '.0%')}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    report = bench(_config_from_args(args))
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    chip = ingest_csv(args.csv)
    means, sigmas = chip.nominal_freq, chip.meas_sigma_site
    rejected = int(np.count_nonzero(~keep_mask(means, sigmas)))
    print(f"ingested {chip.site_count} sites from {args.csv}")
    print(f"mean span {means.max() - means.min():.3f} MHz, "
          f"mean of means {means.mean():.3f} MHz")
    print(f"sigma span {(sigmas.max() - sigmas.min()) * 1e3:.3f} kHz; "
          f"sigma/mean > {DEFAULT_THRESHOLD:g} rejects {rejected} of {chip.site_count} sites")
    return 0


def cmd_nist(args: argparse.Namespace) -> int:
    responses = load_responses(args.responses)
    if not responses:
        raise DataError(f"{args.responses}: no responses in dump")
    report = run_suite([r.bits for r in responses])
    sys.stdout.write(report.to_csv())
    print(f"pass rate {format_rate(report.pass_rate, '.1%')} over {report.sequences} sequences")
    return 0 if report.all_pass() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ropuf",
        description="Ring-oscillator PUF construction and evaluation toolkit",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("run", help="full pipeline over a device population")
    _add_common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep-kappa", help="NIST pass rate per randomness ratio")
    _add_common(p)
    p.set_defaults(fn=cmd_sweep_kappa)

    p = sub.add_parser("sweep-m", help="summary per oscillator count")
    _add_common(p)
    p.set_defaults(fn=cmd_sweep_m)

    p = sub.add_parser("bench", help="computation-time accounting")
    _add_common(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("ingest", help="summarize a measured-frequency CSV")
    p.add_argument("csv")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("nist", help="run the statistical suite on a response dump")
    p.add_argument("responses")
    p.set_defaults(fn=cmd_nist)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    log = logging.getLogger("ropufsim")
    handler = logging.StreamHandler(sys.stderr)
    level = log.level
    if getattr(args, "verbose", False):
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
    try:
        return args.fn(args)
    except (ConfigError, DataError) as exc:
        print(f"ropuf {args.verb}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"ropuf {args.verb}: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    raise SystemExit(main())
