"""jdrcap: capacities and joint-detection receivers for coherent-state optics."""

__version__ = "0.1.0"

from .capacity_limits import (
    c1_bpsk_dolinar,
    dolinar_error_q,
    f_integral,
    g,
    hadamard_jdr_capacity,
    holevo_bpsk,
    nbar_for_pie,
    pie_envelope,
    pie_ultimate,
    rm_gm_jdr_capacity,
    rm_mpe_capacity,
    tradeoff_curve,
    two_symbol_structured_capacity,
)
from .codes import BinaryCode, fwht, hadamard_code, ml_decode_hard, rm1_code, two_symbol_code
from .discrimination import (
    PureStateEnsemble,
    gram_from_code,
    helstrom_binary,
    mpe_solve,
    srm_channel,
)
from .dmc import ConvergenceError, DiscreteChannel
from .link_budget import LinkParams, fresnel_number, mode_count, power_and_rate, required_modes
from .optics_sim import (
    beam_splitter,
    green_machine,
    hadamard_jdr_channel,
    rm_gm_jdr_channel,
    spd_click_prob,
    two_symbol_receiver_channel,
)
from .superchannel import capacity_blahut_arimoto, mutual_information, two_symbol_ratio_curve
