"""Command-line entry point.

Verbs: run (full pipeline), sweep-kappa, sweep-m, bench, ingest (measured
CSV), nist (standalone suite on a response dump).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .chipmodel import PRESETS, ConfigError, ingest_csv
from .nist import format_rate, run_suite
from .pipeline import (
    PipelineConfig,
    bench,
    kmeans_scaling,
    run_pipeline,
    sweep_kappa,
)
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
    config.validate()
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
    config = _config_from_args(args)
    rows = []
    for m in (8, 16, 32, 64):
        cfg = dataclasses.replace(config, ro_count=m)
        report, nist_report, runs = run_pipeline(cfg, write=False)
        k = runs[0].golden.k
        md = float(np.median([r.relocated_min_diff for r in runs]))
        rows.append((m, k, md, report.r_avg, nist_report.pass_rate))
        print(f"M={m:<3d} bits={k:<5d} median_min_diff={md:.3f} MHz "
              f"r_avg={report.r_avg:.4f} nist={format_rate(nist_report.pass_rate, '.0%')}")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["m,bits,median_min_diff_mhz,r_avg,nist_pass_rate"]
    lines += [f"{m},{k},{md:.6f},{r:.6f},{format_rate(pr, '.4f')}" for m, k, md, r, pr in rows]
    (out / "m_sweep.csv").write_text("\n".join(lines) + "\n")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    report = bench(config)
    print(json.dumps(report.to_json_dict(), indent=2))
    if args.kmeans_scaling:
        for n, sec in kmeans_scaling([1_000, 10_000, 100_000], m=config.ro_count):
            print(f"kmeans n={n:<7d} {sec * 1e3:8.2f} ms")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    chip = ingest_csv(args.csv)
    means = chip.nominal_freq
    print(f"ingested {chip.site_count} sites from {args.csv}")
    print(f"mean span {means.max() - means.min():.3f} MHz, "
          f"mean of means {means.mean():.3f} MHz")
    return 0


def cmd_nist(args: argparse.Namespace) -> int:
    responses = load_responses(args.responses)
    if not responses:
        print("no responses in dump", file=sys.stderr)
        return 1
    report = run_suite([r.bits for r in responses])
    sys.stdout.write(report.to_csv())
    print(f"pass rate {format_rate(report.pass_rate, '.1%')} over {report.sequences} sequences")
    return 0 if report.all_pass() else 2


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
    p.add_argument("--kmeans-scaling", action="store_true")
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
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"ropuf {args.verb}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
