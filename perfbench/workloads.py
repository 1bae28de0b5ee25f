"""The benchmark's workloads: the inputs each builds and the work of one pass.

A pass (``run``) is one round of the same operations; the function of the
workload's name in ``checks`` verifies its outputs. Workload code calls
every layer through its module attribute (``codes.ml_decode_hard``, not a
local name), so that the traced run sees the calls.

figures    the argument lists that ``scripts/reproduce_figures.py --fast``
           runs, recorded from the script at set-up and run through
           ``jdrcap.cli.main`` into a scratch directory. Takes no seeded
           input: it is the fixed run users make.
receivers  physical and Gram-route receivers at large block length: the
           Green Machine channels up to m = 9, hard ML decoding of seeded
           received words, and SRM/MPE solves on RM(1,m) Gram matrices with
           uniform and seeded non-uniform priors, plus seeded two-state solves.
ber        the ``jdrcap ber`` call of the full reproduce run, recorded the
           same way; the Monte Carlo seed is the benchmark seed (20260810
           reproduces the script's run).
"""

import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent


def reproduce_argv(fast):
    """The jdrcap argument lists that scripts/reproduce_figures.py runs, in order.

    Runs the script's main() with its ``run`` replaced by a recorder. Every
    output path in the lists starts with the returned directory name, which
    a pass replaces with its own directory.
    """
    sys.path.insert(0, str(HERE.parent / "scripts"))
    import reproduce_figures as script

    (HERE / "out").mkdir(exist_ok=True)
    out = tempfile.mkdtemp(dir=HERE / "out", prefix="record-")
    recorded = []
    saved = script.run, sys.argv
    script.run = recorded.append
    sys.argv = ["reproduce_figures.py", out] + (["--fast"] if fast else [])
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            script.main()
    finally:
        script.run, sys.argv = saved
        shutil.rmtree(out)
    return recorded, out


class CliWorkload:
    """Subcommands run through jdrcap.cli.main; outputs are the files written."""

    def __init__(self, argv, placeholder):
        from jdrcap import cli
        self.cli = cli
        self.argv, self.placeholder = argv, placeholder
        self.inputs = None

    def run(self, workdir):
        codes = [self.cli.main([a.replace(self.placeholder, workdir) for a in cmd])
                 for cmd in self.argv]
        files = {p.name: p.read_bytes() for p in sorted(Path(workdir).iterdir())}
        return {"exit_codes": codes, "files": files}


def ber_workload(seed):
    """The full reproduce run's ``ber`` call, with the Monte Carlo seed replaced."""
    argv, out = reproduce_argv(fast=False)
    cmd = next(c for c in argv if c[0] == "ber")
    cmd[cmd.index("--seed") + 1] = str(seed)
    return CliWorkload([cmd], out)


# receivers: fixed grids (the known faults show on them whatever the seed)
CHANNEL_M = range(1, 10)
CHANNEL_NBAR = np.geomspace(1e-3, 1.0, len(CHANNEL_M))   # 2^m nbar spans 2e-3 .. 512
ENSEMBLE_M = range(1, 8)
ENSEMBLE_NBAR = (0.01, 0.1, 1.0)
DECODE_M = range(1, 10)
RANDOM_WORDS = 16            # per code family and m >= 2; m = 1 is enumerated
FLIP_PROB = 0.25
GM_CODEWORDS = 4             # seeded codeword rows per m through the Green Machine
GM_VECTORS = 2               # seeded complex vectors per m
TWO_STATE = 8


class Receivers:
    def __init__(self, seed):
        from jdrcap import codes, discrimination, optics_sim, superchannel
        self.codes, self.disc = codes, discrimination
        self.optics, self.sc = optics_sim, superchannel
        rng = np.random.default_rng(seed)
        channel_points = [(m, float(nbar)) for m, nbar in zip(CHANNEL_M, CHANNEL_NBAR)]

        gm_inputs = []
        for m, nbar in channel_points:
            book = codes.hadamard_code(m, with_ancilla=True).amplitudes(np.sqrt(nbar))
            for k in sorted(rng.choice(len(book), size=min(GM_CODEWORDS, len(book)),
                                       replace=False)):
                gm_inputs.append((m, "codeword", int(k), book[k]))
            for _ in range(GM_VECTORS):
                n = 2 ** m
                gm_inputs.append((m, "random", None,
                                  rng.normal(size=n) + 1j * rng.normal(size=n)))

        decode_inputs = []
        for m in DECODE_M:
            for family, code in (("hadamard", codes.hadamard_code(m)),
                                 ("rm1", codes.rm1_code(m))):
                if m == 1:
                    words = [np.array([(w >> i) & 1 for i in range(code.n)], dtype=np.uint8)
                             for w in range(2 ** code.n)]
                else:
                    sent = code.codewords[rng.integers(code.size, size=RANDOM_WORDS)]
                    words = list(sent ^ (rng.random(sent.shape) < FLIP_PROB))
                decode_inputs += [(family, m, code, w) for w in words]

        rm_codes = {m: codes.rm1_code(m) for m in ENSEMBLE_M}
        ensemble_points = [(m, nbar) for m in ENSEMBLE_M for nbar in ENSEMBLE_NBAR]
        priors = {}
        for m, nbar in ensemble_points:
            w = 0.5 + rng.random(rm_codes[m].size)      # max/min prior ratio below 3
            priors[m, nbar] = w / w.sum()
        two_state = [(float(rng.uniform(0.0, 0.95)), float(rng.uniform(0.1, 0.9)))
                     for _ in range(TWO_STATE)]
        self.inputs = {"channel_points": channel_points, "gm_inputs": gm_inputs,
                       "decode_inputs": decode_inputs, "rm_codes": rm_codes,
                       "ensemble_points": ensemble_points, "priors": priors,
                       "two_state": two_state}

    def _solve(self, ensemble):
        srm = self.disc.srm_channel(ensemble)
        res = self.disc.mpe_solve(ensemble)
        return {"gram": ensemble.gram, "srm": srm.p,
                "srm_mi": self.sc.mutual_information(srm, ensemble.priors),
                "mpe": (res.success_probability, res.iterations, res.success_trace,
                        res.channel.p),
                "mpe_mi": self.sc.mutual_information(res.channel, ensemble.priors)}

    def run(self, workdir):
        inp, out = self.inputs, {}
        for m, nbar in inp["channel_points"]:
            for key, build in (("hadamard", self.optics.hadamard_jdr_channel),
                               ("rm_gm", self.optics.rm_gm_jdr_channel)):
                ch = build(m, nbar)
                uniform = np.full(ch.num_inputs, 1.0 / ch.num_inputs)
                out[key, m] = (ch.p, self.sc.mutual_information(ch, uniform))
        out["gm"] = [self.optics.green_machine(v) for _, _, _, v in inp["gm_inputs"]]
        out["decode"] = [self.codes.ml_decode_hard(code, w)
                         for _, _, code, w in inp["decode_inputs"]]
        for m, nbar in inp["ensemble_points"]:
            ens = self.disc.gram_from_code(inp["rm_codes"][m], nbar)
            out["uniform", m, nbar] = self._solve(ens)
            weighted = self.disc.PureStateEnsemble(gram=ens.gram, priors=inp["priors"][m, nbar])
            out["weighted", m, nbar] = self._solve(weighted)
        out["two_state"] = []
        for overlap_sq, p1 in inp["two_state"]:
            s = np.sqrt(overlap_sq)
            ens = self.disc.PureStateEnsemble(gram=np.array([[1.0, s], [s, 1.0]]),
                                              priors=np.array([p1, 1.0 - p1]))
            res = self.disc.mpe_solve(ens)
            out["two_state"].append((res.success_probability, res.iterations,
                                     res.success_trace, res.channel.p))
        return out


def setup(name, seed):
    if name == "figures":
        return CliWorkload(*reproduce_argv(fast=True))
    if name == "ber":
        return ber_workload(seed)
    if name == "receivers":
        return Receivers(seed)
    raise ValueError(f"unknown workload {name!r}")


def digest(obj):
    """SHA-256 of a pass's outputs, for the check that passes are byte-identical."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, dict):
            for k in sorted(x, key=repr):
                h.update(repr(k).encode())
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"[%d" % len(x))
            for v in x:
                feed(v)
        elif isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, bytes):
            h.update(x)
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()
