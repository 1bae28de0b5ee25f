"""Command-line front end emitting the capacity, tradeoff, BER, and link data.

Every subcommand writes CSV (or JSON for ``link``) with a reproducibility
manifest: the subcommand, its parameters, any seed, the tool version, and a
checksum of the emitted bytes. Reruns with an identical manifest produce
byte-identical output. Exit codes: 0 success, 2 usage error, 3 numerical
failure (a solver that did not converge, or an ArithmeticError such as a
failed consistency or row-sum check).
"""

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, capacity_limits, superchannel
from .ber_sim import hadamard_dr_ber, hadamard_jdr_ber, uncoded_bpsk_ber
from .dmc import ConvergenceError
from .link_budget import LinkParams, mode_count, power_and_rate, required_modes


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record accompanying every output file."""

    subcommand: str
    parameters: dict
    seed: int | None
    version: str = __version__
    output_sha256: str = field(default="")

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


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


def _emit(payload, manifest_params, subcommand, seed, out_path):
    digest = hashlib.sha256(payload.encode()).hexdigest()
    manifest = RunManifest(subcommand=subcommand, parameters=manifest_params,
                           seed=seed, output_sha256=digest)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
        with open(out_path + ".manifest.json", "w") as fh:
            fh.write(manifest.to_json())
    else:
        sys.stdout.write(payload)
        sys.stderr.write(manifest.to_json())
    return 0


def _log_grid(args):
    if not 0 < args.nbar_min < args.nbar_max < np.inf or args.points < 2:
        raise SystemExit2("need 0 < nbar-min < nbar-max < inf and points >= 2")
    return np.geomspace(args.nbar_min, args.nbar_max, args.points)


def _finite_float(text):
    """argparse type of every float option: NaN and +-inf are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"need a finite number, got {text!r}")
    return value


def _seed(text):
    """argparse type of --seed: numpy seed sequences take only integers >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"need a seed >= 0, got {text!r}")
    return value


class SystemExit2(SystemExit):
    def __init__(self, message):
        sys.stderr.write(f"error: {message}\n")
        super().__init__(2)


# each limits column as a function of the nbar grid and the code orders of the envelopes
LIMIT_COLUMNS = {
    "ultimate": lambda grid, ms: capacity_limits.pie_ultimate(grid),
    "holevo_bpsk": lambda grid, ms: capacity_limits.holevo_bpsk(grid) / grid,
    "c1_dolinar": lambda grid, ms: capacity_limits.c1_bpsk_dolinar(grid) / grid,
    "hadamard_envelope":
        lambda grid, ms: capacity_limits.pie_envelope(grid, "hadamard_jdr", ms)[1],
    "rm_gm_envelope": lambda grid, ms: capacity_limits.pie_envelope(grid, "rm_gm", ms)[1],
    "two_symbol": lambda grid, ms: superchannel.capacity_curves("two_symbol", None, grid) / grid,
}


def _check_m(m, flag):
    if m is not None and not 1 <= m <= 10:
        raise SystemExit2(f"need 1 <= {flag} <= 10")


def cmd_limits(args):
    grid = _log_grid(args)
    families = args.families.split(",") if args.families else list(LIMIT_COLUMNS)
    unknown = set(families) - set(LIMIT_COLUMNS)
    if unknown:
        raise SystemExit2(f"unknown families {sorted(unknown)}; "
                          f"choose from {tuple(LIMIT_COLUMNS)}")
    _check_m(args.m_max, "m-max")
    m_range = range(1, args.m_max + 1)
    columns = [grid] + [LIMIT_COLUMNS[fam](grid, m_range) for fam in families]
    payload = _csv(["nbar"] + families, columns)
    params = {"nbar_min": args.nbar_min, "nbar_max": args.nbar_max,
              "points": args.points, "families": families, "m_max": args.m_max}
    return _emit(payload, params, "limits", None, args.out)


def cmd_tradeoff(args):
    try:
        modes_list = [int(tok) for tok in args.modes_list.split(",")]
    except ValueError:
        raise SystemExit2(f"bad --modes-list {args.modes_list!r}")
    if min(modes_list) < 1 or max(modes_list) > sys.float_info.max:
        raise SystemExit2("need every mode count >= 1 and within the range of a double")
    if not 0 < args.nr_min < args.nr_max < np.inf or args.points < 2:
        raise SystemExit2("need 0 < nr-min < nr-max < inf and points >= 2")
    grid = np.geomspace(args.nr_min, args.nr_max, args.points)
    se, pie = np.concatenate([capacity_limits.tradeoff_curve(modes, grid)
                              for modes in modes_list], axis=1)
    payload = _csv(["modes", "n_r", "spectral_efficiency", "pie"],
                   [np.repeat(modes_list, len(grid)), np.tile(grid, len(modes_list)), se, pie])
    params = {"modes_list": modes_list, "nr_min": args.nr_min,
              "nr_max": args.nr_max, "points": args.points}
    return _emit(payload, params, "tradeoff", None, args.out)


def cmd_superchannel(args):
    grid = _log_grid(args)
    _check_m(args.m, "m")
    if args.family != "two_symbol" and args.m is None:
        raise SystemExit2(f"family {args.family} requires --m")
    try:
        if args.family == "two_symbol":
            i2, c1 = superchannel.two_symbol_ratio_curve(grid, args.receiver)
            header = ["nbar", "bits_per_symbol", "pie", "c1", "ratio"]
            columns = [grid, i2, i2 / grid, c1, i2 / c1]
        else:
            bits = superchannel.capacity_curves(args.family, args.m, grid)
            header = ["nbar", "bits_per_symbol", "pie"]
            columns = [grid, bits, bits / grid]
    except ValueError as exc:
        raise SystemExit2(str(exc))
    params = {"family": args.family, "m": args.m, "receiver": args.receiver,
              "nbar_min": args.nbar_min, "nbar_max": args.nbar_max, "points": args.points}
    return _emit(payload=_csv(header, columns), manifest_params=params,
                 subcommand="superchannel", seed=None, out_path=args.out)


def _child_seed(master, index):
    words = np.random.SeedSequence(entropy=master, spawn_key=(index,)).generate_state(2)
    return int(words[0]) << 32 | int(words[1])


def cmd_ber(args):
    _check_m(args.m, "m")
    grid = _log_grid(args)
    if args.trials < 10 ** 4:
        raise SystemExit2("need --trials >= 10000")
    seed = args.seed
    if seed is None:
        seed = int(np.random.SeedSequence().generate_state(1)[0])
        sys.stderr.write(f"generated seed: {seed}\n")
    dr = [hadamard_dr_ber(args.m, nbar, args.trials, _child_seed(seed, i))
          for i, nbar in enumerate(grid)]
    columns = [grid, uncoded_bpsk_ber(grid), [pt.ber for pt in dr], [pt.stderr for pt in dr],
               hadamard_jdr_ber(args.m, grid)]
    payload = _csv(["nbar", "uncoded_dr", "hadamard_dr", "hadamard_dr_stderr",
                    "hadamard_jdr"], columns)
    params = {"m": args.m, "nbar_min": args.nbar_min, "nbar_max": args.nbar_max,
              "points": args.points, "trials": args.trials}
    return _emit(payload, params, "ber", seed, args.out)


def cmd_link(args):
    if (args.radii is None) == (args.areas is None):
        raise SystemExit2("give exactly one of --radii or --areas")
    def two_floats(spec, what):
        toks = spec.split(",")
        if len(toks) == 1:
            toks = toks * 2
        values = tuple(float(tok) for tok in toks)
        if len(values) != 2 or not all(map(math.isfinite, values)):
            raise SystemExit2(f"bad {what} {spec!r}; give one finite value or tx,rx")
        return values
    if not (args.pie > 0 and args.se > 0):
        raise SystemExit2("need --pie > 0 and --se > 0")
    try:
        n_r, nbar_star, modes_needed = required_modes(args.pie, args.se)
        if args.radii is not None:
            r_tx, r_rx = two_floats(args.radii, "--radii")
            params = LinkParams.from_radii(args.wavelength, args.range, r_tx, r_rx,
                                           args.slot_rate, n_r=n_r)
        else:
            a_tx, a_rx = two_floats(args.areas, "--areas")
            params = LinkParams(wavelength=args.wavelength, range=args.range,
                                tx_aperture_area=a_tx, rx_aperture_area=a_rx,
                                slot_rate=args.slot_rate, n_r=n_r)
    except ValueError as exc:
        raise SystemExit2(str(exc))
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
    payload = json.dumps(report, indent=2) + "\n"
    params_record = {"wavelength": args.wavelength, "range": args.range,
                     "radii": args.radii, "areas": args.areas,
                     "slot_rate": args.slot_rate, "pie": args.pie, "se": args.se}
    return _emit(payload, params_record, "link", None, args.out)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jdrcap",
        description="Capacities and joint-detection receiver data for coherent-state optics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_nbar_grid(p, lo, hi, points):
        p.add_argument("--nbar-min", type=_finite_float, default=lo)
        p.add_argument("--nbar-max", type=_finite_float, default=hi)
        p.add_argument("--points", type=int, default=points)

    p = sub.add_parser("limits", help="PIE of the capacity families on a log nbar grid")
    add_nbar_grid(p, 1e-6, 10.0, 200)
    p.add_argument("--families", default=None,
                   help=f"comma list from {','.join(LIMIT_COLUMNS)} (default all)")
    p.add_argument("--m-max", type=int, default=10, help="largest code order in envelopes, 1..10")
    p.add_argument("--out", default=None)
    p.set_defaults(run=cmd_limits)

    p = sub.add_parser("tradeoff", help="PIE versus spectral efficiency per mode count")
    p.add_argument("--modes-list", default="1,2,10,100,189")
    p.add_argument("--nr-min", type=_finite_float, default=1e-3)
    p.add_argument("--nr-max", type=_finite_float, default=10.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out", default=None)
    p.set_defaults(run=cmd_tradeoff)

    p = sub.add_parser("superchannel", help="capacity and PIE of one receiver family")
    p.add_argument("--family", required=True,
                   choices=(*capacity_limits.CLOSED_FORMS, "two_symbol"))
    p.add_argument("--m", type=int, default=None, help="code order, 1..10")
    add_nbar_grid(p, 1e-6, 2.0, 100)
    p.add_argument("--receiver", choices=("structured", "mpe"), default="structured")
    p.add_argument("--out", default=None)
    p.set_defaults(run=cmd_superchannel)

    p = sub.add_parser("ber", help="bit error rates of the Hadamard code receivers")
    p.add_argument("--m", type=int, default=8, help="code order, 1..10")
    add_nbar_grid(p, 1e-3, 1e-1, 10)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(run=cmd_ber)

    p = sub.add_parser("link", help="free-space link example report")
    p.add_argument("--wavelength", type=_finite_float, required=True)
    p.add_argument("--range", type=_finite_float, required=True)
    p.add_argument("--radii", default=None, help="aperture radius in m, or tx,rx")
    p.add_argument("--areas", default=None, help="aperture area in m^2, or tx,rx")
    p.add_argument("--slot-rate", type=_finite_float, required=True)
    p.add_argument("--pie", type=_finite_float, required=True)
    p.add_argument("--se", type=_finite_float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(run=cmd_link)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ConvergenceError as exc:
        sys.stderr.write(f"convergence failure: {exc}\n")
        return 3
    except ArithmeticError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
