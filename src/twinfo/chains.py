"""The inequality chain and its companion identities, checked on random states.

A record is one ``(check, margin, bound)`` triple: ``check`` is a name from
``CHECKS``; ``margin`` is how far the sample's numbers go past the inequality
or identity (at most 0 when an inequality holds, an absolute difference for an
identity); ``bound`` is the largest margin that still counts as agreement.  A
record with ``margin > bound`` is a violation.  ``Tally`` counts one check's
records.
"""

from __future__ import annotations

import math

import numpy as np

from .entropy import clamp_nonnegative, relative_entropies
from .kernels import (
    dagger, entropy_bits, frobenius, info_gain_side1, joint_mutual_info, kron, ptrace_keep1,
    ptrace_keep2, swap_sides, vn_entropy,
)
from .measurement import luders_sum_rows
from .sampling import sample_random_densities, sample_random_observables, sample_random_unitaries
from .states import Dims

CHECKS = ("chain", "relative_entropy_identity", "partial_trace_identities", "lindblad", "lieb")
# Matrix entries per sample stack: bounds a chunk's memory, so 8x8 runs one
# sample at a time.
SWEEP_CHUNK_ENTRIES = 4096


class Tally:
    def __init__(self):
        self.evaluations = 0
        self.violations = 0
        self.worst_margin = 0.0

    def record(self, margin: float, bound: float) -> bool:
        """Record one check; ``margin`` > ``bound`` is a violation."""
        self.evaluations += 1
        self.worst_margin = max(self.worst_margin, margin)
        if margin > bound:
            self.violations += 1
            return True
        return False


def _relative_entropy_rounding(lam_min: float, n: int) -> float:
    """First-order rounding allowance, in bits, of a relative entropy against an
    ``n x n`` reference with smallest eigenvalue ``lam_min``.

    Rounding in ``log2 reference`` is amplified by ``1 / lambda_min``: about
    ``n eps / (lambda_min ln 2)``.  A Lüders channel is unital, so it never
    lowers ``lambda_min``; the bound holds for the measured references too.  A
    singular reference gets no bound (infinity).
    """
    if lam_min <= 0:
        return math.inf
    return n * np.finfo(float).eps / (lam_min * math.log(2))


def sweep_records(dims: Dims, seed: int, samples: int, tol: float):
    """Per sample ``0 .. samples - 1``, in order: ``(index, rho, ref, records)``,
    the sampled state and reference matrices and the sample's records.

    Samples are checked in chunks of at most ``SWEEP_CHUNK_ENTRIES`` matrix
    entries per stack (at least one sample); the records do not depend on it.
    """
    chunk = max(1, SWEEP_CHUNK_ENTRIES // dims.total**2)
    for start in range(0, samples, chunk):
        yield from _sweep_chunk(dims, seed, range(start, min(start + chunk, samples)), tol)


def _sweep_chunk(dims: Dims, seed: int, samples: range, tol: float):
    """Per sample of ``samples``: its state and reference matrices and its records.

    Every step runs once on ``(S, D, D)`` stacks, each sample from its own
    ``(seed, stream)`` generators; every margin is the per-sample arithmetic's,
    bit for bit.  The states' spectra give S(12) and the reference's
    ``lambda_min``; a channel output is computed once and reused.
    """
    d1, d2, n = dims.d1, dims.d2, dims.total
    streams = [10 * i for i in samples]
    # Sampled states are valid by construction, and already (m + m^dagger) / 2.
    rho = sample_random_densities(dims, [i % n + 1 for i in samples], seed, streams)
    ref = sample_random_densities(dims, [n] * len(streams), seed, [s + 7 for s in streams])
    spectrum, ref_spectrum = np.linalg.eigvalsh(rho), np.linalg.eigvalsh(ref)

    def herm(m):
        return (m + dagger(m)) / 2.0

    rho1, rho2 = herm(ptrace_keep1(rho, d1, d2)), herm(ptrace_keep2(rho, d1, d2))
    s1_raw, s2_raw, s12 = vn_entropy(rho1), vn_entropy(rho2), entropy_bits(spectrum)
    s1 = [clamp_nonnegative(x) for x in s1_raw.tolist()]
    s2 = [clamp_nonnegative(x) for x in s2_raw.tolist()]
    mi = [clamp_nonnegative(x) for x in (s1_raw + s2_raw - s12).tolist()]
    mi_rel = relative_entropies(rho, herm(kron(rho1, rho2)), s12)

    # The chain's two draws of bases, k = 0 and 1, on a leading axis of the stacks.
    u1 = sample_random_unitaries(d1, seed, [s + 1 + k for k in (0, 1) for s in streams])
    u2 = sample_random_unitaries(d2, seed, [s + 3 + k for k in (0, 1) for s in streams])
    u1, u2 = u1.reshape(2, -1, d1, d1), u2.reshape(2, -1, d2, d2)
    chain = np.stack([joint_mutual_info(rho, u1, u2), info_gain_side1(rho, u1, d2),
                      info_gain_side1(swap_sides(rho, d1, d2), u2, d1)], axis=-1).swapaxes(0, 1).tolist()

    obs_a = sample_random_observables(d1, seed, [s + 5 for s in streams], False)
    obs_b = sample_random_observables(d2, seed, [s + 6 for s in streams], False)

    def luders_a(m):
        return herm(luders_sum_rows(obs_a, 1, dims, m))

    def luders_b(m):
        return herm(luders_sum_rows(obs_b, 2, dims, m))

    after_a, after_b = luders_a(rho), luders_b(rho)
    t_ab = luders_a(after_b)
    diff_1 = ptrace_keep1(t_ab, d1, d2) - herm(ptrace_keep1(after_a, d1, d2))
    diff_2 = ptrace_keep2(t_ab, d1, d2) - herm(ptrace_keep2(after_b, d1, d2))
    ref_a = luders_a(ref)
    after_ba = luders_b(after_a)
    before = relative_entropies(rho, ref, s12)
    after_one = relative_entropies(after_a, ref_a, vn_entropy(after_a))
    after_two = relative_entropies(after_ba, luders_b(ref_a), vn_entropy(after_ba))

    for j, i in enumerate(samples):
        links = [("chain", max(-jmi, jmi - g1, jmi - g2, g1 - min(mi[j], s2[j]),
                               g2 - min(mi[j], s1[j])), tol)
                 for jmi, g1, g2 in chain[j]]
        yield i, rho[j], ref[j], [
            ("lieb", mi[j] - 2.0 * min(s1[j], s2[j]), tol),
            ("relative_entropy_identity", abs(mi[j] - mi_rel[j]), tol),
            *links,
            ("partial_trace_identities", max(frobenius(diff_1[j]), frobenius(diff_2[j])), 1e-10),
            ("lindblad", max(after_one[j] - before[j], after_two[j] - after_one[j]),
             tol + _relative_entropy_rounding(float(ref_spectrum[j, 0]), n)),
        ]
