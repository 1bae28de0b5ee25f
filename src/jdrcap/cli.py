"""Command-line front end emitting the capacity, tradeoff, BER, and link data.

Every subcommand writes CSV (or JSON for ``link``) with a reproducibility
manifest: the subcommand, its parameters (every parsed option but ``--out``
and ``--seed``), any seed, the tool version, and a checksum of the emitted
bytes. Reruns with an identical manifest produce byte-identical output.
Exit codes: 0 success, 2 usage error (an option argparse rejects, any
ValueError, or an ``--out`` that cannot be written, checked before any
work is done, printed as one ``error: <message>`` line), 3 numerical failure
(any ArithmeticError: a solver that did not converge or a failed consistency
check; printed as one ``numerical failure: <message>`` line).
"""

import argparse
import errno
import functools
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, capacity_limits, superchannel
from .ber_sim import hadamard_dr_ber, hadamard_jdr_ber, uncoded_bpsk_ber
from .link_budget import LinkParams, mode_count, power_and_rate, required_modes

# parsed options left out of a manifest's parameters; the seed is a top-level key
_NOT_PARAMETERS = {"subcommand", "run", "out", "seed"}


def _fmt(x):
    """Floats at 17 significant digits: enough to round-trip doubles exactly."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _csv(header, columns):
    """CSV text of equal-length columns (arrays or lists), one row per index."""
    lines = [",".join(header)]
    rows = zip(*(np.asarray(col).tolist() for col in columns), strict=True)
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(payload, args):
    """Write the payload and its reproducibility manifest."""
    params = {key: value for key, value in vars(args).items() if key not in _NOT_PARAMETERS}
    manifest = json.dumps({"subcommand": args.subcommand, "parameters": params,
                           "seed": getattr(args, "seed", None), "version": __version__,
                           "output_sha256": hashlib.sha256(payload.encode()).hexdigest()},
                          indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(payload)
            Path(args.out + ".manifest.json").write_text(manifest)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(payload)
        sys.stderr.write(manifest)


def _check_out(path):
    """Refuse an --out that cannot be written, before the subcommand spends any work."""
    target = Path(path)
    if target.is_dir():
        code = errno.EISDIR
    elif not target.parent.is_dir():
        code = errno.ENOENT
    elif not os.access(target.parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write --out {path!r}: {os.strerror(code)}")


def _log_grid(lo, hi, points, name):
    if not 0 < lo < hi:
        raise ValueError(f"need 0 < {name}-min < {name}-max")
    # geomspace overflows inside from hi ~ 1.8e308 on, then sets both ends exactly
    with np.errstate(over="ignore"):
        return np.geomspace(lo, hi, points)


def _bounded(kind, ok, need):
    """An argparse type: the text read by ``kind``, refused as a usage error
    'need <need>, got <text>' if ``kind`` cannot read it or ``ok`` rejects it."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"need {need}, got {text!r}")
    return parse


# every float option; --m and --m-max take the code orders of every family; --points
# bounds the memory a grid takes; numpy seed sequences take only integers >= 0;
# hadamard_dr_ber refuses a thin --trials itself, in one error line
_finite_float = _bounded(float, math.isfinite, "a finite number")
_code_order = _bounded(int, lambda m: 1 <= m <= 10, "a code order in 1..10")
_grid_points = _bounded(int, lambda n: 2 <= n <= 10_000, "2..10000 grid points")
_seed = _bounded(int, lambda n: n >= 0, "a seed >= 0")
_trials = _bounded(int, lambda n: True, "at least 10000 trials")


def _number_list(spec, flag, kind):
    """The comma-separated numbers of list option ``flag``, each parsed by ``kind``."""
    try:
        return [kind(tok) for tok in spec.split(",")]
    except ValueError:
        raise ValueError(f"bad {flag} {spec!r}; give comma-separated numbers") from None


# each limits column as a function of the nbar grid and the code orders of the envelopes
LIMIT_COLUMNS = {
    "ultimate": lambda grid, ms: capacity_limits.pie_ultimate(grid),
    "holevo_bpsk": lambda grid, ms: capacity_limits.holevo_bpsk(grid) / grid,
    "c1_dolinar": lambda grid, ms: capacity_limits.c1_bpsk_dolinar(grid) / grid,
    "hadamard_envelope":
        lambda grid, ms: capacity_limits.pie_envelope(grid, "hadamard_jdr", ms)[1],
    "rm_gm_envelope": lambda grid, ms: capacity_limits.pie_envelope(grid, "rm_gm", ms)[1],
    "two_symbol": lambda grid, ms: capacity_limits.two_symbol_structured_capacity(grid) / grid,
}


def cmd_limits(args):
    grid = _log_grid(args.nbar_min, args.nbar_max, args.points, "nbar")
    args.families = args.families.split(",") if args.families else list(LIMIT_COLUMNS)
    unknown = set(args.families) - set(LIMIT_COLUMNS)
    if unknown:
        raise ValueError(f"unknown families {sorted(unknown)}; "
                         f"choose from {tuple(LIMIT_COLUMNS)}")
    m_range = range(1, args.m_max + 1)
    columns = [grid] + [LIMIT_COLUMNS[fam](grid, m_range) for fam in args.families]
    return _csv(["nbar"] + args.families, columns)


def cmd_tradeoff(args):
    args.modes_list = _number_list(args.modes_list, "--modes-list", int)
    grid = _log_grid(args.nr_min, args.nr_max, args.points, "nr")
    se, pie = np.concatenate([capacity_limits.tradeoff_curve(modes, grid)
                              for modes in args.modes_list], axis=1)
    return _csv(["modes", "n_r", "spectral_efficiency", "pie"],
                [np.repeat(args.modes_list, len(grid)), np.tile(grid, len(args.modes_list)),
                 se, pie])


def cmd_superchannel(args):
    grid = _log_grid(args.nbar_min, args.nbar_max, args.points, "nbar")
    # an option the family ignores is refused, not recorded in the manifest: the
    # two-symbol code has no order, and only it has a choice of receiver
    if args.family == "two_symbol":
        if args.m is not None:
            raise ValueError("--family two_symbol takes no --m")
        i2, c1 = superchannel.two_symbol_ratio_curve(grid, args.receiver)
        return _csv(["nbar", "bits_per_symbol", "pie", "c1", "ratio"],
                    [grid, i2, i2 / grid, c1, i2 / c1])
    if args.receiver != "structured":
        raise ValueError(f"--receiver {args.receiver} needs --family two_symbol")
    bits = superchannel.capacity_curves(args.family, args.m, grid)
    return _csv(["nbar", "bits_per_symbol", "pie"], [grid, bits, bits / grid])


def _child_seed(master, index):
    words = np.random.SeedSequence(entropy=master, spawn_key=(index,)).generate_state(2)
    return int(words[0]) << 32 | int(words[1])


def cmd_ber(args):
    grid = _log_grid(args.nbar_min, args.nbar_max, args.points, "nbar")
    generated = args.seed is None
    if generated:
        args.seed = int(np.random.SeedSequence().generate_state(1)[0])
    dr = [hadamard_dr_ber(args.m, nbar, args.trials, _child_seed(args.seed, i))
          for i, nbar in enumerate(grid)]
    # reported once the trial count has passed, so a usage error prints one line
    if generated:
        sys.stderr.write(f"generated seed: {args.seed}\n")
    columns = [grid, uncoded_bpsk_ber(grid), [pt.ber for pt in dr], [pt.stderr for pt in dr],
               hadamard_jdr_ber(args.m, grid)]
    return _csv(["nbar", "uncoded_dr", "hadamard_dr", "hadamard_dr_stderr", "hadamard_jdr"],
                columns)


def _two_floats(spec, flag):
    values = _number_list(spec, flag, float)
    if len(values) == 1:
        values *= 2
    if len(values) != 2 or not all(map(math.isfinite, values)):
        raise ValueError(f"bad {flag} {spec!r}; give one finite value or tx,rx")
    return values


def cmd_link(args):
    if (args.radii is None) == (args.areas is None):
        raise ValueError("give exactly one of --radii or --areas")
    n_r, nbar_star, modes_needed = required_modes(args.pie, args.se)
    if args.radii is not None:
        r_tx, r_rx = _two_floats(args.radii, "--radii")
        params = LinkParams.from_radii(args.wavelength, args.range, r_tx, r_rx,
                                       args.slot_rate, n_r=n_r)
    else:
        a_tx, a_rx = _two_floats(args.areas, "--areas")
        params = LinkParams(wavelength=args.wavelength, range=args.range,
                            tx_aperture_area=a_tx, rx_aperture_area=a_rx,
                            slot_rate=args.slot_rate, n_r=n_r)
    counted = mode_count(params)
    power, rate = power_and_rate(params, args.pie)
    report = {
        "fresnel_number": counted.fresnel_number,
        "mode_count": counted.modes,
        "n_r": n_r,
        "nbar_star": nbar_star,
        "modes_required": modes_needed,
        "power_watts": power,
        "rate_bps": rate,
    }
    if counted.regime_warning:
        report["regime_warning"] = counted.regime_warning
    return json.dumps(report, indent=2) + "\n"


@functools.cache
def build_parser():
    """The CLI's argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="jdrcap",
        description="Capacities and joint-detection receiver data for coherent-state optics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_subcommand(name, run, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", default=None)
        p.set_defaults(run=run)
        return p

    def add_nbar_grid(p, lo, hi, points):
        p.add_argument("--nbar-min", type=_finite_float, default=lo)
        p.add_argument("--nbar-max", type=_finite_float, default=hi)
        p.add_argument("--points", type=_grid_points, default=points)

    p = add_subcommand("limits", cmd_limits, "PIE of the capacity families on a log nbar grid")
    add_nbar_grid(p, 1e-6, 10.0, 200)
    p.add_argument("--families", default=None,
                   help=f"comma list from {','.join(LIMIT_COLUMNS)} (default all)")
    p.add_argument("--m-max", type=_code_order, default=10, help="largest code order, 1..10")

    p = add_subcommand("tradeoff", cmd_tradeoff, "PIE versus spectral efficiency per mode count")
    p.add_argument("--modes-list", default="1,2,10,100,189")
    p.add_argument("--nr-min", type=_finite_float, default=1e-3)
    p.add_argument("--nr-max", type=_finite_float, default=10.0)
    p.add_argument("--points", type=_grid_points, default=200)

    p = add_subcommand("superchannel", cmd_superchannel, "capacity and PIE of one receiver family")
    p.add_argument("--family", required=True,
                   choices=(*capacity_limits.CLOSED_FORMS, "two_symbol"))
    p.add_argument("--m", type=_code_order, default=None, help="code order, 1..10")
    add_nbar_grid(p, 1e-6, 2.0, 100)
    p.add_argument("--receiver", choices=("structured", "mpe"), default="structured")

    p = add_subcommand("ber", cmd_ber, "bit error rates of the Hadamard code receivers")
    p.add_argument("--m", type=_code_order, default=8, help="code order, 1..10")
    add_nbar_grid(p, 1e-3, 1e-1, 10)
    p.add_argument("--trials", type=_trials, default=100000)
    p.add_argument("--seed", type=_seed, default=None)

    p = add_subcommand("link", cmd_link, "free-space link example report")
    p.add_argument("--wavelength", type=_finite_float, required=True)
    p.add_argument("--range", type=_finite_float, required=True)
    p.add_argument("--radii", default=None, help="aperture radius in m, or tx,rx")
    p.add_argument("--areas", default=None, help="aperture area in m^2, or tx,rx")
    p.add_argument("--slot-rate", type=_finite_float, required=True)
    p.add_argument("--pie", type=_finite_float, required=True)
    p.add_argument("--se", type=_finite_float, required=True)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        _emit(args.run(args), args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        raise SystemExit(2)
    except ArithmeticError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
