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
import numbers

import numpy as np

from .entropy import clamp_nonnegative, relative_entropies
from .kernels import (
    dagger, eigvalsh, entropy_bits, frobenius, info_gain_side1, joint_mutual_info, kron,
    ptrace_keep1, ptrace_keep2, swap_sides, vn_entropy,
)
from .measurement import luders_sum_rows
from .sampling import _CUTS, _densities, _observables, _unitaries, generators
from .states import Dims, as_integer

CHECKS = ("chain", "relative_entropy_identity", "partial_trace_identities", "lindblad", "lieb")
# Matrix entries per sample stack: bounds a chunk's memory (a stage stacks up
# to 3 such stacks), so 8x8 runs one sample at a time.
SWEEP_CHUNK_ENTRIES = 4096
MAX_SWEEP_DIM = 8


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

    Raises at the call, at the first failed check in the order seed, sides, samples,
    tol: TypeError for a seed or ``samples`` that is no integer (a bool included) or a
    ``tol`` that is no real number, ValueError unless ``seed >= 0``, sides at most
    ``MAX_SWEEP_DIM``, ``samples >= 1`` and ``tol`` neither nan (it would pass every
    margin) nor -inf (fail every one).  Samples are checked in chunks of at
    most ``SWEEP_CHUNK_ENTRIES`` matrix entries per sample stack (at least one
    sample); the records do not depend on it.
    """
    if as_integer(seed, "seed must be an integer") < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if dims.d1 > MAX_SWEEP_DIM or dims.d2 > MAX_SWEEP_DIM:
        raise ValueError(f"dims sides must be <= {MAX_SWEEP_DIM}, got {dims.d1}x{dims.d2}")
    if as_integer(samples, "samples must be an integer") < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not isinstance(tol, numbers.Real) or isinstance(tol, bool):
        raise TypeError(f"tol must be a number, got {tol!r}")
    if math.isnan(tol):
        raise ValueError("tol must be a number, got nan")
    if tol == -math.inf:
        raise ValueError("tol must be above -inf")
    chunk = max(1, SWEEP_CHUNK_ENTRIES // dims.total**2)
    return (record for start in range(0, samples, chunk)
            for record in _sweep_chunk(dims, seed, range(start, min(start + chunk, samples)), tol))


def _sweep_chunk(dims: Dims, seed: int, samples: range, tol: float):
    """Per sample of ``samples``: its state and reference matrices and its records.

    Each stage runs once, on the ``(S, D, D)`` stacks of the chunk's ``S``
    samples concatenated with the other inputs it takes, up to ``3 S`` rows;
    each sample draws from its own ``(seed, stream)`` generators, one call keying
    them all in the order the stages draw.  A stacked
    call equals the per-sample call slice by slice, so every margin is the
    per-sample arithmetic's, bit for bit.  The spectra give S(12) and the
    reference's ``lambda_min``; a channel output is computed once and reused.
    """
    d1, d2, n = dims.d1, dims.d2, dims.total
    count = len(samples)
    # Streams: states, references; side 1's chain bases and eigenbases, side 2's; then each
    # side's cuts, ``_CUTS`` past its eigenbases as ``sample_random_observables`` keys them.
    rngs = generators(seed, [10 * i + k for k in (0, 7, 1, 2, 5, 3, 4, 6, _CUTS + 5, _CUTS + 6) for i in samples])
    # Sampled states are valid by construction, and already (m + m^dagger) / 2.
    states = _densities(dims, [i % n + 1 for i in samples] + [n] * count, rngs)
    spectra = eigvalsh(states)
    rho, ref = states[:count], states[count:]

    def herm(m):
        return (m + dagger(m)) / 2.0

    rho1, rho2 = herm(ptrace_keep1(rho, d1, d2)), herm(ptrace_keep2(rho, d1, d2))
    s1_raw, s2_raw, s12 = vn_entropy(rho1), vn_entropy(rho2), entropy_bits(spectra[:count])
    s1 = [clamp_nonnegative(x) for x in s1_raw.tolist()]
    s2 = [clamp_nonnegative(x) for x in s2_raw.tolist()]
    mi = [clamp_nonnegative(x) for x in (s1_raw + s2_raw - s12).tolist()]

    # Per side: the chain's two draws of bases, k = 0 and 1, then the observables' eigenbases.
    u1 = _unitaries(d1, 3 * count, rngs).reshape(3, count, d1, d1)
    u2 = _unitaries(d2, 3 * count, rngs).reshape(3, count, d2, d2)
    chain = np.stack([joint_mutual_info(rho, u1[:2], u2[:2]), info_gain_side1(rho, u1[:2], d2),
                      info_gain_side1(swap_sides(rho, d1, d2), u2[:2], d1)], axis=-1).swapaxes(0, 1).tolist()
    obs_a, obs_b = _observables(u1[2], rngs, False), _observables(u2[2], rngs, False)

    # T_A on [rho; ref], T_B on [T_A rho; T_A ref; rho], T_A on T_B rho.
    after_a = herm(luders_sum_rows(obs_a * 2, 1, dims, states))
    after_b = herm(luders_sum_rows(obs_b * 3, 2, dims, np.concatenate([after_a, rho])))
    t_ab = herm(luders_sum_rows(obs_a, 1, dims, after_b[2 * count:]))
    diff_1 = ptrace_keep1(t_ab, d1, d2) - herm(ptrace_keep1(after_a[:count], d1, d2))
    diff_2 = ptrace_keep2(t_ab, d1, d2) - herm(ptrace_keep2(after_b[2 * count:], d1, d2))
    # S(rho | product of marginals) and S(rho | ref), then S(rho | ref) after T_A and
    # after T_B T_A.  Two calls of two stacks each: one call of four raised a sweep's
    # peak resident memory by about 2 MB at 8x8.
    pair = relative_entropies(np.concatenate([rho, rho]), np.concatenate([herm(kron(rho1, rho2)), ref]),
                              np.concatenate([s12, s12]))
    mi_rel, before = pair[:count], pair[count:]
    measured = np.concatenate([after_a[:count], after_b[:count]])
    pair = relative_entropies(measured, np.concatenate([after_a[count:], after_b[count:2 * count]]),
                              vn_entropy(measured))
    after_one, after_two = pair[:count], pair[count:]

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
             tol + _relative_entropy_rounding(float(spectra[count + j, 0]), n)),
        ]
