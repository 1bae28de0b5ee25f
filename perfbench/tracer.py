"""Spans around calls into jdrcap's layers, installed from outside the package.

Each wrapped call records one span (name, start, end, parent) in memory. A
span's self time is its duration minus the durations of its direct children,
which is the time the layer spent in its own code, numpy work included.
numpy/scipy entry points are counted without spans.
"""

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Public functions wrapped per layer (module of src/jdrcap). Helpers called
# once per butterfly or per matrix entry (beam_splitter, spd_click_prob,
# sqrtm_psd, entropy) stay unwrapped, so their time is their caller's.
LAYERS = {
    "cli": ["main"],
    "capacity_limits": ["g", "pie_ultimate", "nbar_for_pie", "holevo_bpsk", "dolinar_error_q",
                        "c1_bpsk_dolinar", "f_integral", "hadamard_jdr_capacity",
                        "rm_gm_outcome_probs", "rm_gm_jdr_capacity", "rm_mpe_capacity",
                        "pie_envelope", "tradeoff_curve"],
    "superchannel": ["mutual_information", "capacity_blahut_arimoto", "prior_scan_max",
                     "two_symbol_ratio_curve", "capacity_curves"],
    "discrimination": ["PureStateEnsemble", "gram_from_code", "srm_channel",
                       "helstrom_binary", "mpe_solve"],
    "dmc": ["DiscreteChannel"],
    "optics_sim": ["green_machine", "two_symbol_receiver_channel", "hadamard_jdr_channel",
                   "rm_gm_jdr_channel"],
    "codes": ["fwht", "ml_decode_hard"],
    "ber_sim": ["uncoded_bpsk_ber", "hadamard_dr_ber", "hadamard_jdr_ber"],
    "link_budget": ["fresnel_number", "mode_count", "required_modes", "power_and_rate"],
}
CHANNEL_BUILDERS = ("two_symbol_receiver_channel", "hadamard_jdr_channel", "rm_gm_jdr_channel")


def rebind(original, wrapped, undo):
    """Point every reference jdrcap holds to ``original`` at ``wrapped``.

    Covers module globals, names imported into other modules, and family
    tables (dicts of functions). Appends what ``restore`` needs to ``undo``.
    """
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("jdrcap") and m]
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, key, original))
                setattr(mod, key, wrapped)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        undo.append((value, k, original))
                        value[k] = wrapped


def restore(undo):
    while undo:
        container, key, old = undo.pop()
        if isinstance(container, dict):
            container[key] = old
        else:
            setattr(container, key, old)


@contextmanager
def observing(layer, fname, observe):
    """Within the block, call ``observe(args, result)`` after every call of
    ``jdrcap.<layer>.<fname>``, wherever the package calls it from."""
    import jdrcap.cli  # noqa: F401  (loads every layer module)

    original = getattr(sys.modules[f"jdrcap.{layer}"], fname)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        observe(args, result)
        return result

    undo = []
    rebind(original, wrapper, undo)
    try:
        yield
    finally:
        restore(undo)


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []           # (name index, start, end, parent span index or -1)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._stack = []          # [span index, start, child time]
        self._undo = []

    def reset(self):
        self.spans.clear()
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()

    def _span(self, name, fn, observe=None):
        if name not in self.names:
            self.names.append(name)
        index = self.names.index(name)
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            slot = len(spans)
            spans.append(None)
            frame = [slot, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                spans[slot] = (index, frame[1], end, parent)
                calls[name] += 1
                self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, container, key, new):
        old = getattr(container, key)
        setattr(container, key, new)
        self._undo.append((container, key, old))

    def install(self):
        import jdrcap.cli  # noqa: F401  (loads every layer module)

        observers = {"discrimination.mpe_solve": self._observe_mpe,
                     "ber_sim.hadamard_dr_ber": self._observe_ber}
        for layer, names in LAYERS.items():
            module = sys.modules[f"jdrcap.{layer}"]
            for fname in names:
                name = f"{layer}.{fname}"
                original = getattr(module, fname)
                if isinstance(original, type):
                    # a dataclass: a construction is a call of its __post_init__
                    self._replace(original, "__post_init__",
                                  self._span(name, original.__post_init__))
                    continue
                rebind(original, self._span(name, original, observers.get(name)), self._undo)
        self._replace(np.linalg, "eigh", self._count("kernels.eigh", np.linalg.eigh))
        self._replace(np.linalg, "eigvalsh", self._count("kernels.eigh", np.linalg.eigvalsh))
        cl = sys.modules["jdrcap.capacity_limits"]
        self._replace(cl, "quad", self._count("kernels.quad", cl.quad))

    def uninstall(self):
        restore(self._undo)

    def _observe_mpe(self, args, result):
        self.counters["discrimination.mpe_solve.iterations"] += result.iterations

    def _observe_ber(self, args, point):
        self.counters["ber_sim.trials"] += point.trials
        self.counters["ber_sim.zero_error_points"] += point.bit_errors == 0

    def layer_self(self):
        """Self time per layer, summed over its wrapped functions."""
        out = defaultdict(float)
        for name, s in self.self_s.items():
            if not name.startswith("kernels."):
                out[name.split(".")[0]] += s
        return dict(out)

    def metrics(self):
        """The per-layer metrics of one traced pass."""
        c, s = self.calls, self.self_s
        cl_other = sum(v for k, v in s.items() if k.startswith("capacity_limits.")
                       and k not in ("capacity_limits.f_integral", "capacity_limits.pie_envelope"))
        dr_time = sum(end - start for i, start, end, _ in self.spans
                      if self.names[i] == "ber_sim.hadamard_dr_ber")
        trials = self.counters["ber_sim.trials"]
        return {
            "cli.main.calls": c["cli.main"],
            "cli.main.self_s": s["cli.main"],
            "capacity_limits.f_integral.calls": c["capacity_limits.f_integral"],
            "capacity_limits.f_integral.self_s": s["capacity_limits.f_integral"],
            "capacity_limits.pie_envelope.self_s": s["capacity_limits.pie_envelope"],
            "capacity_limits.self_s": cl_other,
            "superchannel.prior_scan_max.calls": c["superchannel.prior_scan_max"],
            "superchannel.prior_scan_max.self_s": s["superchannel.prior_scan_max"],
            "superchannel.mutual_information.calls": c["superchannel.mutual_information"],
            "superchannel.mutual_information.self_s": s["superchannel.mutual_information"],
            "discrimination.PureStateEnsemble.calls": c["discrimination.PureStateEnsemble"],
            "discrimination.PureStateEnsemble.self_s": s["discrimination.PureStateEnsemble"],
            "discrimination.mpe_solve.calls": c["discrimination.mpe_solve"],
            "discrimination.mpe_solve.self_s": s["discrimination.mpe_solve"],
            "discrimination.mpe_solve.iterations":
                self.counters["discrimination.mpe_solve.iterations"],
            "discrimination.srm_channel.self_s": s["discrimination.srm_channel"],
            "dmc.DiscreteChannel.calls": c["dmc.DiscreteChannel"],
            "dmc.DiscreteChannel.self_s": s["dmc.DiscreteChannel"],
            "optics_sim.green_machine.calls": c["optics_sim.green_machine"],
            "optics_sim.green_machine.self_s": s["optics_sim.green_machine"],
            "optics_sim.channels.self_s": sum(s[f"optics_sim.{b}"] for b in CHANNEL_BUILDERS),
            "codes.fwht.calls": c["codes.fwht"],
            "codes.fwht.self_s": s["codes.fwht"],
            "codes.ml_decode_hard.calls": c["codes.ml_decode_hard"],
            "codes.ml_decode_hard.self_s": s["codes.ml_decode_hard"],
            "ber_sim.hadamard_dr_ber.self_s": s["ber_sim.hadamard_dr_ber"],
            "ber_sim.trials": trials,
            "ber_sim.trials_per_s": trials / dr_time if dr_time > 0 else 0.0,
            "ber_sim.zero_error_points": self.counters["ber_sim.zero_error_points"],
            "kernels.eigh.calls": c["kernels.eigh"],
            "kernels.quad.calls": c["kernels.quad"],
        }

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
