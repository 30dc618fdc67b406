"""The controlled-SWAP comparison test on phase-state fingerprints: its law and its oracle.

A fingerprint of an m-bit word y is the state with amplitude (-1)^(y_j)/sqrt(m)
on basis state |j>. Such states are fully described by their classical phase
pattern: the inner product of two fingerprints is (m - 2d)/m where d is the
Hamming distance of the patterns, and the comparison test accepts (control
qubit measures 0) with probability (1 + ip^2)/2 = p_single(d/m). All protocol
probabilities can therefore be computed exactly from integer Hamming
distances, which keeps million-trial Monte Carlo cheap.

cswap_statevector_probs is the guard against modeling error: it runs the actual
H / controlled-SWAP / H circuit on a dense statevector per pair of phase rows
(the half of it that its accept probability reads) and must agree with
p_single, the formula every bound uses, to 1e-10 (the circuit uses
2*log2(m) + 1 qubits, so floating-point error stays far below that). Two
fingerprints a and b are its one row: a.phases[None] against b.phases[None].

This module is the test's law and its oracle, which the engine and the
bounds read. The fingerprint states themselves and the sampled test
(Fingerprint, make_fingerprint, swap_accept_prob, sample_swap_test) belong
to the per-trial library, checker.py.
"""

from __future__ import annotations

import math

import numpy as np

from .bits import all_bits

# Dense oracle limit: m = 64 means 13 qubits, a statevector of 8192 entries.
MAX_ORACLE_M = 64


def _amplitude_rows(phases: np.ndarray) -> np.ndarray:
    """(-1)^(phases) / sqrt(m) along the last axis, for one 0/1 phase pattern or a stack of
    rows. The sign is 1 - 2*phase, the same +-1.0 as the power at a fraction of its cost."""
    return (1.0 - 2.0 * phases) / math.sqrt(phases.shape[-1])


def p_single(delta_frac: float | np.ndarray) -> float | np.ndarray:
    """Accept probability of one comparison test against a fraction-delta_frac corruption.

    1 - 2*d + 2*d^2: equals (1 + ip^2)/2 at inner product ip = 1 - 2*d. Note
    d = 1 gives 1 again: a full complement is a global phase flip of the state
    and is invisible to the test. On a float array it works elementwise, with
    the same operations in the same order, so each entry is the double that
    the scalar call gives.
    """
    if isinstance(delta_frac, np.ndarray):
        if not ((0.0 <= delta_frac) & (delta_frac <= 1.0)).all():
            raise ValueError("flip fractions must be in [0, 1]")
    elif not 0.0 <= delta_frac <= 1.0:
        raise ValueError(f"flip fraction must be in [0, 1], got {delta_frac}")
    return 1.0 - 2.0 * delta_frac + 2.0 * delta_frac * delta_frac


def p_accept(delta_frac: float, k: int) -> float:
    """Accept probability of k copies of the comparison test against a
    fraction-delta_frac corruption: p_single(delta_frac)**k, the chance that
    all k accept (Buhrman, Cleve, Watrous & de Wolf, PRL 2001). The one place
    the per-test law is raised to the k, as a float power: numpy's array **
    differs from float ** in the last bit at large m."""
    return p_single(delta_frac) ** k


def check_oracle_size(m: int) -> int:
    """Return m if the dense oracle runs at codeword length m, a power of two in [1, MAX_ORACLE_M]."""
    if not (1 <= m <= MAX_ORACLE_M and m & (m - 1) == 0):
        raise ValueError(
            f"statevector oracle requires m to be a power of two in [1, {MAX_ORACLE_M}], got {m}"
        )
    return m


def cswap_statevector_probs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Accept probability of each pair of rows from a dense simulation of the actual test circuit.

    a and b are (P, m) uint8 0/1 phase rows; pair i compares a[i] with b[i].
    Runs |0>|psi_a>|psi_b> on 2*log2(m) + 1 qubits for each pair through a
    Hadamard on the control, a register swap controlled on it (log2(m)
    qubit-pair swaps, which together transpose each pair's (m, m) block of
    amplitudes), a second Hadamard, and returns the probability of
    measuring the control as 0: one contiguous m*m-element sum of squares per
    pair. Serves as the independent oracle for p_single; m must pass
    check_oracle_size, and an entry other than 0 or 1 raises ValueError.

    Only the amplitude entries that sum reads are built, as (P, m, m) arrays. The
    control starts in |0>, so its |1> half is zero and the first Hadamard
    leaves psi/sqrt(2) on both branches: (psi + 0.0)/sqrt(2) and
    (psi - 0.0)/sqrt(2) are that same double, as no amplitude is zero. The
    swaps act on the |1> branch, and the second Hadamard's |0> half is
    (psi/sqrt(2) + swapped)/sqrt(2). Its |1> half, which no measurement of 0
    reads, is never formed. Each amplitude takes the same operations as on
    the full (P, 2, m, m) statevector, so each probability is the same double.
    """
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"phase rows must be two (P, m) arrays of one shape, got {a.shape} and {b.shape}")
    pairs, m = a.shape
    check_oracle_size(m)
    if not (all_bits(a) and all_bits(b)):
        raise ValueError("phase rows must hold only 0s and 1s")

    branch = _amplitude_rows(a)[:, :, None] * _amplitude_rows(b)[:, None, :]
    branch /= math.sqrt(2)  # first Hadamard: either branch of the control
    # Controlled register swap on the |1> branch: exchanging qubit i of the two registers for
    # every i exchanges the registers, the transpose of each pair's (m, m) block (a view).
    accept = branch + branch.transpose(0, 2, 1)  # second Hadamard, |0> half
    accept /= math.sqrt(2)
    accept *= accept
    return accept.reshape(pairs, m * m).sum(axis=1)

