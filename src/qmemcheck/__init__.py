"""Desk-scale simulator for a fingerprint-based online memory checker.

A checker relays store/retrieve requests between a user and an adversarial
public memory, holding only a few logarithmic-size summaries privately. The
package provides the encoder (a 2-query locally decodable code), the
comparison-test model with a statevector oracle backing it, the checker
protocol with honest resource accounting, adversary schedules, closed-form
detection bounds with brute-force verification, and a deterministic Monte
Carlo harness with a CLI.
"""

from .adversary import (
    AttackSchedule,
    FlipCount,
    IncrementalAttack,
    NoOpAttack,
    ScheduleError,
    SubstituteCodeword,
)
from .analysis import (
    BoundReport,
    lemma1_bound,
    p_multi,
    p_single,
    verify_lemma2,
    verify_swap_oracle,
)
from .bits import as_bits, hamming_distance
from .checker import (
    CheckerState,
    ComplexityReport,
    ProtocolError,
    PublicMemory,
    Verdict,
    complexity_report,
    new_checker,
    required_k,
    retrieve,
    stated_complexity,
    store,
)
from .code import CodeParams, HadamardCode, LocallyDecodableCode
from .fingerprint import (
    Fingerprint,
    SwapOutcome,
    cswap_statevector_probs,
    make_fingerprint,
    sample_swap_test,
    swap_accept_prob,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    OpSpec,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "AttackSchedule",
    "BoundReport",
    "CheckerState",
    "CodeParams",
    "ComplexityReport",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "Fingerprint",
    "FlipCount",
    "HadamardCode",
    "IncrementalAttack",
    "LocallyDecodableCode",
    "NoOpAttack",
    "OpSpec",
    "ProtocolError",
    "PublicMemory",
    "ScheduleError",
    "SubstituteCodeword",
    "SwapOutcome",
    "Verdict",
    "as_bits",
    "complexity_report",
    "cswap_statevector_probs",
    "hamming_distance",
    "lemma1_bound",
    "make_fingerprint",
    "new_checker",
    "p_multi",
    "p_single",
    "required_k",
    "retrieve",
    "run_experiment",
    "sample_swap_test",
    "stated_complexity",
    "store",
    "swap_accept_prob",
    "verify_lemma2",
    "verify_swap_oracle",
    "__version__",
]
