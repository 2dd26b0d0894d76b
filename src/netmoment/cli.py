"""Command-line interface: reproducible synth / estimate / sweep runs.

Every command is deterministic given its flags (seeds included); outputs are
CSV or JSON with full float round-trip precision.  Exit codes: 0 success,
1 configuration error, 2 numerical-domain error.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from ._checks import _finite
from .estimate import (EstimatorSpec, GridParams, _shown_axis, _synthesised_map,
                       all_specs, estimate_moment, sweep)
from .field import asympt_condition_margin
from .noise import NoiseSpec, detrend_backward
from .quad import read_field_csv, write_field_csv
from .scene import _UNIT_SYSTEMS, load_scene, net_moment
from .specfun import IDENTITIES, DomainError

__all__ = ["main"]


class ConfigError(ValueError):
    """Bad command-line configuration."""


def _flag(args, flag: str):
    """The value of a flag such as --n-radial; None when it was not given."""
    return getattr(args, flag[2:].replace("-", "_"))


def _radii_from_args(args) -> list[float]:
    # NaN and inf would pass the range test below and fail only inside the sweep
    for flag in ("--radius", "--radius-min", "--radius-max"):
        value = _flag(args, flag)
        if value is not None:
            _finite(value, f"{flag} must be finite", ConfigError)
    if args.radius is not None:
        return [args.radius]
    if None in (args.radius_min, args.radius_max, args.radius_count):
        raise ConfigError("provide --radius or all of --radius-min/--radius-max/--radius-count")
    if args.radius_min <= 0 or args.radius_max <= args.radius_min or args.radius_count < 2:
        raise ConfigError("radius range must be positive, increasing, with count >= 2")
    if args.log_spacing:
        return list(np.geomspace(args.radius_min, args.radius_max, args.radius_count))
    return list(np.linspace(args.radius_min, args.radius_max, args.radius_count))


def _parse_specs(raw: Optional[Sequence[str]]) -> list[EstimatorSpec]:
    if not raw:
        return all_specs()
    try:
        # a repeated spec would be estimated and written once per repeat
        return list(dict.fromkeys(EstimatorSpec.parse(s) for s in raw))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# flags that shape or perturb a map synthesised from --scene; None when not given
_SYNTHESIS_FLAGS = ("--radius", "--snr-db", "--n-radial", "--n-angular", "--seed",
                    "--plain-variance")


def _synthesis_from_args(args) -> tuple[GridParams, Optional[NoiseSpec]]:
    """The grid and noise flags, with GridParams' grid and seed 0 where not given."""
    sizes = {"n_radial": args.n_radial, "n_angular": args.n_angular}
    grid = GridParams(**{k: v for k, v in sizes.items() if v is not None})
    if args.snr_db is None:
        for flag in ("--seed", "--plain-variance"):
            if _flag(args, flag) is not None:
                raise ConfigError(f"{flag} shapes the noise and needs --snr-db")
        return grid, None
    return grid, NoiseSpec(snr_db=args.snr_db, seed=args.seed or 0,
                           weighted_variance=not args.plain_variance)


def cmd_synth(args) -> int:
    fmap = _synthesised_map(load_scene(args.scene), args.radius, *_synthesis_from_args(args))
    write_field_csv(fmap, args.out)
    print(f"wrote {len(fmap.samples)} samples to {args.out}")
    return 0


def cmd_estimate(args) -> int:
    specs = _parse_specs(args.spec)
    if args.scene and args.field_csv:
        raise ConfigError("estimate takes --scene or --field-csv, not both: the scene's "
                          "net moment and margin do not describe a map read from a file")
    if args.scene and args.unit_system is not None:
        raise ConfigError("--unit-system applies only to a map read with --field-csv; "
                          "a scene states its own")
    scene = load_scene(args.scene) if args.scene else None
    if args.field_csv:
        for flag in _SYNTHESIS_FLAGS:
            if _flag(args, flag) is not None:
                raise ConfigError(f"{flag} applies only to a map synthesised from --scene, "
                                  "not to one read with --field-csv")
        fmap = read_field_csv(args.field_csv, args.unit_system or "si")
    elif scene is not None:
        if args.radius is None:
            raise ConfigError("estimate from a scene needs --radius")
        fmap = _synthesised_map(scene, args.radius, *_synthesis_from_args(args))
    else:
        raise ConfigError("estimate needs --scene or --field-csv")
    report = {"radius": fmap.radius, "estimates": []}
    truth = net_moment(scene) if scene is not None else None
    if scene is not None:
        margin = asympt_condition_margin(scene, fmap.radius)
        report["condition_margin"] = margin
        report["condition_ok"] = bool(margin < 1.0)
        if margin >= 1.0:
            print(f"warning: asymptotic condition margin {margin:.3f} >= 1", file=sys.stderr)
        report["net_moment_true"] = list(truth.as_array())
    for spec in specs:
        entry = {
            "component": spec.component,
            "order": spec.order,
            "axis": _shown_axis(spec),
            "estimate": estimate_moment(fmap, spec),
        }
        if truth is not None:
            entry["true_value"] = getattr(truth, spec.component)
        report["estimates"].append(entry)
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_sweep(args) -> int:
    scene = load_scene(args.scene)
    radii = _radii_from_args(args)
    specs = _parse_specs(args.spec)
    grid, noise = _synthesis_from_args(args)
    if args.detrend_window is not None and not 3 <= args.detrend_window <= len(radii):
        raise ConfigError(f"--detrend-window must lie between 3 and the number of radii, "
                          f"{len(radii)}; got {args.detrend_window}")
    result = sweep(scene, radii, specs, grid, noise=noise)
    detrended = {}
    if args.detrend_window is not None:
        for spec in specs:
            if spec.component != "m3":
                continue
            series = [(r.radius, r.estimate) for r in result.for_spec(spec)]
            detrended[spec.label()] = {
                p.radius: p for p in detrend_backward(series, args.detrend_window,
                                                      power=-spec.order)
            }
    header = ["A", "component", "order", "axis", "estimate", "true_value",
              "abs_error", "predicted_error"]
    if detrended:
        header += ["detrended_estimate", "detrend_fitted"]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for spec in specs:
            for row in result.for_spec(spec):
                record = [repr(row.radius), spec.component, str(spec.order),
                          _shown_axis(spec) or "",
                          repr(row.estimate), repr(row.true_value), repr(row.abs_error),
                          "" if row.predicted_error is None else repr(row.predicted_error)]
                if detrended:
                    point = detrended.get(spec.label(), {}).get(row.radius)
                    record += (["", ""] if point is None
                               else [repr(point.value), str(point.fitted).lower()])
                writer.writerow(record)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    return 0


def cmd_verify_specfun(args) -> int:
    if args.perturb is not None and args.perturb not in IDENTITIES:
        raise ConfigError(f"--perturb names no check: {args.perturb!r}")
    names = [name for name in IDENTITIES if not args.filter or args.filter in name]
    if not names:
        raise ConfigError(f"--filter {args.filter!r} matches no check")
    if args.perturb is not None and args.perturb not in names:
        raise ConfigError(f"--perturb {args.perturb!r} names a check that "
                          f"--filter {args.filter!r} leaves out")
    rows = []
    for name in names:
        tol, check = IDENTITIES[name]
        err = float(check())  # a NumPy scalar would print as np.float64(...)
        if name == args.perturb:
            err += tol + 1e-6  # testing hook: fail this row whatever its tolerance
        rows.append((name, err, tol, err <= tol))
    with (open(args.out, "w", newline="", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "max_error", "tolerance", "status"])
        for name, err, tol, ok in rows:
            writer.writerow([name, repr(err), repr(tol), "pass" if ok else "fail"])
    failed = [name for name, _, _, ok in rows if not ok]
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_validate_scene(args) -> int:
    scene = load_scene(args.scene)
    moment = net_moment(scene)
    print(f"scene ok: {len(scene.dipoles)} dipole(s), height {scene.height}, "
          f"units {scene.unit_system}, net moment ({moment.m1}, {moment.m2}, {moment.m3})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netmoment",
        description="Net magnetisation moment estimation from planar disk field maps.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scene_required=True):
        p.add_argument("--scene", required=scene_required,
                       help="scene JSON file (unit_system, height, dipoles)")
        # None marks a flag not given; _synthesis_from_args fills the defaults
        p.add_argument("--n-radial", type=int)
        p.add_argument("--n-angular", type=int)
        p.add_argument("--snr-db", type=float,
                       help="add Gaussian noise at this signal-to-noise ratio")
        p.add_argument("--seed", type=int)
        p.add_argument("--plain-variance", action="store_true", default=None,
                       help="use the unweighted sample variance in the noise amplitude")

    p_synth = sub.add_parser("synth", help="sample a field map onto a disk grid")
    add_common(p_synth)
    p_synth.add_argument("--radius", type=float, required=True)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_est = sub.add_parser("estimate", help="estimate net moment components")
    add_common(p_est, scene_required=False)
    p_est.add_argument("--field-csv", help="estimate from a stored field map instead")
    p_est.add_argument("--unit-system", choices=_UNIT_SYSTEMS,
                       help="field units of the --field-csv map (default si)")
    p_est.add_argument("--radius", type=float)
    p_est.add_argument("--spec", action="append",
                       help="component:order[:axis], repeatable; default all")
    p_est.add_argument("--out")
    p_est.set_defaults(func=cmd_estimate)

    p_sweep = sub.add_parser("sweep", help="radius sweep with errors and predictions")
    add_common(p_sweep)
    p_sweep.add_argument("--radius", type=float, help="single radius (else use the range flags)")
    p_sweep.add_argument("--radius-min", type=float)
    p_sweep.add_argument("--radius-max", type=float)
    p_sweep.add_argument("--radius-count", type=int)
    p_sweep.add_argument("--log-spacing", action="store_true")
    p_sweep.add_argument("--spec", action="append")
    p_sweep.add_argument("--detrend-window", type=int, nargs="?", const=11, default=None,
                         help="append backward-detrended normal-moment columns "
                              "(each window fit in A**-order)")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_ver = sub.add_parser("verify-specfun", help="run the special-function identity suite")
    p_ver.add_argument("--out", help="CSV output path (default: stdout)")
    p_ver.add_argument("--filter", help="only run checks whose name contains this substring")
    p_ver.add_argument("--perturb", help=argparse.SUPPRESS)  # testing hook
    p_ver.set_defaults(func=cmd_verify_specfun)

    p_val = sub.add_parser("validate-scene", help="check a scene file and report its net moment")
    p_val.add_argument("--scene", required=True)
    p_val.set_defaults(func=cmd_validate_scene)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as exc:
        if isinstance(exc, DomainError):
            print(f"numerical domain error: {exc}", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
