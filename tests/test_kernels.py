import math
import pathlib
import re
import struct
import warnings

import numpy as np
import pytest

import twinfo as T
from twinfo.entropy import SUPPORT_TOL, clamp_nonnegative, relative_entropies
from twinfo.kernels import (
    KERNEL_CLIP, dagger, eigh, eigvalsh, einsum, entropy_bits, frobenius, frobenius_rows,
    gain_from_conditionals, info_gain_side1, joint_mutual_info, kron, ptrace_keep1, ptrace_keep2, swap_sides,
    vn_entropy,
)
from twinfo.measurement import embed, luders_sum_rows
from twinfo.sampling import generator, sample_random_observables, sample_random_unitaries
from twinfo.states import Dims


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("transposed", [False, True])
def test_kron_is_bitwise_np_kron(dtype, transposed):
    rng = np.random.default_rng(7)

    def draw(m, n):
        x = rng.normal(size=(n, m) if transposed else (m, n))
        if dtype is np.complex128:
            x = x + 1j * rng.normal(size=x.shape)
        return x.T if transposed else x

    for m, n, p, q in rng.integers(1, 9, size=(200, 4)):
        a, b = draw(m, n), draw(p, q)
        got, want = kron(a, b), np.kron(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    # The one-side embedding is the same Kronecker product with an identity.
    for d1, d2 in ((2, 3), (3, 2)):
        dims = Dims(d1, d2)
        a, b = draw(d1, d1), draw(d2, d2)
        for got, want in (
            (embed(a, 1, dims), np.kron(a, np.eye(d2, dtype=np.complex128))),
            (embed(b, 2, dims), np.kron(np.eye(d1, dtype=np.complex128), b)),
        ):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


# ------------------------------------------------ conditional entropies, bit for bit


def _vn_entropy_masked(m):
    """``vn_entropy`` with its own masked sum; the reference for its bits."""
    w = np.linalg.eigvalsh(m)
    q = w[w > KERNEL_CLIP]
    return -np.sum(q * np.log2(q))


def _info_gain_side1_loop(rho, basis, d2):
    """``info_gain_side1`` one diagonal block and one eigendecomposition at a
    time; the reference for the bits ``sweep`` prints."""
    d1, n = basis.shape
    w = np.kron(basis.conj().T, np.eye(d2, dtype=np.complex128))
    m = w @ rho @ w.conj().T
    gain = _vn_entropy_masked(ptrace_keep2(rho, d1, d2))
    for i in range(n):
        blk = m[i * d2 : (i + 1) * d2, i * d2 : (i + 1) * d2]
        p = np.trace(blk).real
        if p > KERNEL_CLIP:
            gain -= p * _vn_entropy_masked(np.ascontiguousarray(blk) / p)
    return gain


@pytest.mark.parametrize("d1", range(1, 9))
def test_conditional_entropy_kernels_match_loops_bitwise(d1):
    # Rank 4 keeps 4 of 8 eigenvalues at d = 8, where numpy's pairwise sum
    # would regroup a zero-padded sum; ranks 1 and 2 cannot show that.
    rng = np.random.default_rng(50 + d1)
    for d2 in range(1, 9):
        total = d1 * d2
        for rank in sorted({1, min(2, total), min(4, total), total}):
            g = rng.normal(size=(total, rank)) + 1j * rng.normal(size=(total, rank))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            assert vn_entropy(rho) == _vn_entropy_masked(rho)
            for r, d_meas, d_opp in ((rho, d1, d2), (swap_sides(rho, d1, d2), d2, d1)):
                z = rng.normal(size=(d_meas, d_meas)) + 1j * rng.normal(size=(d_meas, d_meas))
                u = np.ascontiguousarray(np.linalg.qr(z)[0])
                assert info_gain_side1(r, u, d_opp) == _info_gain_side1_loop(r, u, d_opp)


# ------------------------------------------------ stacked kernels, row by row


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _haar_loop(d, seed, stream):
    """Phase-fixed QR of one Ginibre draw from the ``(seed, stream)`` generator."""
    rng = generator(seed, stream)
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _relative_entropy_loop(sigma, rho):
    """S(sigma|rho) of one pair of matrices: ``eigh`` of rho, its kept columns, ``np.dot``."""
    w, v = np.linalg.eigh(rho)
    keep = w > KERNEL_CLIP
    vk = v[:, keep]
    proj = (vk.conj() * (sigma @ vk)).real
    if 1.0 - float(np.sum(proj)) > SUPPORT_TOL:
        return math.inf
    term_rho = float(np.dot(np.sum(proj, axis=0), np.log2(w[keep])))
    return clamp_nonnegative(-float(vn_entropy(sigma)) - term_rho)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 16, 17, 64])
def test_stacked_entropy_rows_equal_the_1d_call_bitwise(n):
    # Rows keep 0 .. n entries above the clip, each count on several rows and
    # in mixed order; the dropped entries are zeros, clipped values and round-off
    # below zero.  Over two leading axes as in ``gain_from_conditionals``.
    rng = np.random.default_rng(n)
    kept = np.repeat(np.arange(n + 1), 3)
    rng.shuffle(kept)
    p = rng.random((len(kept), n)) + KERNEL_CLIP
    for row, k in zip(p, kept):
        row[rng.permutation(n)[k:]] = rng.choice([0.0, KERNEL_CLIP, KERNEL_CLIP / 3, -1e-15], n - k)
    p /= np.sum(p, axis=-1, keepdims=True)
    stacked = entropy_bits(p)
    for row, value in zip(p, stacked):
        _same(value, entropy_bits(row))
    _same(entropy_bits(p.reshape(3, n + 1, n)), stacked.reshape(3, n + 1))
    # A row that keeps nothing has the 1-D call's empty sum, negated: -0.0.
    _same(entropy_bits(np.zeros((2, n))), np.array([-0.0, -0.0]))
    assert entropy_bits(np.zeros(n)).tobytes() == np.float64(-0.0).tobytes()


@pytest.mark.parametrize("d1, d2", [(1, 1), (1, 3), (4, 1), (2, 2), (2, 3), (2, 4), (3, 3), (4, 4), (8, 8)])
def test_stacked_kernels_equal_unbatched_rows_bitwise(d1, d2):
    # One stack holds ranks 1, 2, 4 and full, so batched rows and rows that
    # sum alone (an eigenvalue or weight at or below the clip) sit side by side.
    # Rank 4 keeps 4 of 8 or more eigenvalues, where a zero-padded sum regroups.
    dims = T.Dims(d1, d2)
    n = dims.total
    ranks = sorted({1, min(2, n), min(4, n), n})
    rng = np.random.default_rng(n)
    streams = [7 * k for k in range(len(ranks) + 1)]
    rho_ms = [T.sample_random_density(dims, r, 3, stream=s) for r, s in zip(ranks, streams)]
    # A product with side 1 in |0><0|: measured in the standard basis, every other
    # outcome has weight 0.
    e0 = np.zeros((d1, d1), dtype=complex)
    e0[0, 0] = 1.0
    # Hermitised as the sampler's states are: some imaginary zeros of kron are -0.0.
    product = kron(e0, T.sample_random_density(T.Dims(1, d2), d2, 3, stream=1))
    rho_ms.append((product + product.conj().T) / 2.0)
    # Stacked as sweep stacks its samples.
    rho = np.array(rho_ms)
    spectra = np.linalg.eigvalsh(rho)
    u1 = sample_random_unitaries(d1, 3, streams)
    u1[-1] = np.eye(d1)
    u2 = sample_random_unitaries(d2, 3, [s + 1 for s in streams])
    obs = sample_random_observables(d1, 3, streams, complete=False)
    after = luders_sum_rows(obs, 1, dims, rho)
    refs = np.array([T.sample_random_density(dims, n, 4, stream=s) for s in streams])
    products = kron(ptrace_keep1(rho, d1, d2), ptrace_keep2(rho, d1, d2))
    # Three outcomes a row; row j drops its first j % 4 of them (3: all), with
    # weights of 0, below and at the clip, and negative round-off.
    g = rng.standard_normal((len(rho_ms), 3, d2, d2)) + 1j * rng.standard_normal((len(rho_ms), 3, d2, d2))
    conds = g @ dagger(g)
    tiny = [0.0, KERNEL_CLIP / 3, KERNEL_CLIP, -1e-15]
    for j in range(len(rho_ms)):
        for i in range(j % 4):
            conds[j, i] *= tiny[(i + j) % 4] / np.trace(conds[j, i]).real
    probs = np.trace(conds, axis1=-2, axis2=-1).real
    s_opp = vn_entropy(ptrace_keep2(rho, d1, d2))
    stacked = {
        "gain_dropped": gain_from_conditionals(s_opp, probs, conds),
        "vn_entropy": vn_entropy(rho),
        "ptrace_keep1": ptrace_keep1(rho, d1, d2),
        "ptrace_keep2": ptrace_keep2(rho, d1, d2),
        "swap_sides": swap_sides(rho, d1, d2),
        "gain_1": info_gain_side1(rho, u1, d2),
        "gain_2": info_gain_side1(swap_sides(rho, d1, d2), u2, d1),
        "joint": joint_mutual_info(rho, u1, u2),
        "relative_ref": relative_entropies(rho, refs, vn_entropy(rho)),
        "relative_product": relative_entropies(rho, products, vn_entropy(rho)),
        "luders": (after + dagger(after)) / 2.0,
    }
    for j, m in enumerate(rho_ms):
        r = (m + m.conj().T) / 2.0
        _same(rho[j], r)
        _same(spectra[j], np.linalg.eigvalsh(r))
        _same(u1[j], np.eye(d1, dtype=complex) if j == len(ranks) else _haar_loop(d1, 3, streams[j]))
        _same(u2[j], _haar_loop(d2, 3, streams[j] + 1))
        sandwich = sum((p @ r @ p for p in embed(obs[j].projectors, 1, dims)), np.zeros_like(r))
        want = {
            "gain_dropped": gain_from_conditionals(s_opp[j], probs[j], conds[j]),
            "vn_entropy": vn_entropy(r),
            "ptrace_keep1": ptrace_keep1(r, d1, d2),
            "ptrace_keep2": ptrace_keep2(r, d1, d2),
            "swap_sides": swap_sides(r, d1, d2),
            "gain_1": info_gain_side1(r, u1[j], d2),
            "gain_2": info_gain_side1(swap_sides(r, d1, d2), u2[j], d1),
            "joint": joint_mutual_info(r, u1[j], u2[j]),
            "relative_ref": _relative_entropy_loop(r, refs[j]),
            "relative_product": _relative_entropy_loop(r, products[j]),
            "luders": (sandwich + sandwich.conj().T) / 2.0,
        }
        for name, value in want.items():
            _same(stacked[name][j], value)


SRC = pathlib.Path(T.__file__).parent


def _hermitian(shape, dtype=np.complex128, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    if dtype is np.complex128:
        x = x + 1j * rng.normal(size=shape)
    return x + dagger(x)


def _outcome(f, a):
    """The bytes of each output of ``f(a)``, or its ``LinAlgError``'s message."""
    try:
        out = f(a)
    except np.linalg.LinAlgError as exc:
        return str(exc)
    return tuple((x.shape, x.dtype, x.tobytes()) for x in (out if isinstance(out, tuple) else (out,)))


EIG_INPUTS = {
    "stack-4x2-of-2x2": _hermitian((4, 2, 2, 2)),
    "stack-16-of-3x3": _hermitian((16, 3, 3)),
    "complex-64x64": _hermitian((64, 64)),
    "float64-5x5": _hermitian((5, 5), np.float64),
    "empty-stack": np.zeros((0, 3, 3), dtype=np.complex128),
    "non-contiguous": _hermitian((6, 8, 8))[1::2, ::2, ::2],
}


@pytest.mark.parametrize("name", EIG_INPUTS)
@pytest.mark.parametrize("ours, numpys", [(eigh, np.linalg.eigh), (eigvalsh, np.linalg.eigvalsh)],
                         ids=["eigh", "eigvalsh"])
def test_eigensolver_entries_equal_np_linalg_bitwise(name, ours, numpys):
    got = _outcome(ours, EIG_INPUTS[name])
    assert isinstance(got, tuple) and got == _outcome(numpys, EIG_INPUTS[name])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("entry", [(0, 0), (1, 0), (0, 1)])
def test_eigensolver_entries_treat_nan_and_inf_as_np_linalg_does(bad, dtype, entry):
    a = np.eye(3, dtype=dtype)
    a[entry] = bad
    assert _outcome(eigh, a) == _outcome(np.linalg.eigh, a)
    assert _outcome(eigvalsh, a) == _outcome(np.linalg.eigvalsh, a)


def test_a_lapack_failure_still_raises_linalg_error():
    a = np.eye(3, dtype=np.complex128)
    a[1, 0] = math.inf
    for f in (eigh, eigvalsh):
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            f(a)


def _library_einsum_subscripts():
    found = set()
    for path in SRC.glob("*.py"):
        found.update(re.findall(r'\beinsum\(\s*"([^"]+)"', path.read_text()))
    return sorted(found)


@pytest.mark.parametrize("subscripts", _library_einsum_subscripts())
def test_einsum_entry_equals_np_einsum_bitwise(subscripts):
    rng = np.random.default_rng(5)
    inputs = subscripts.split("->")[0].split(",")
    sizes = {label: int(rng.integers(2, 5)) for label in set("".join(inputs)) - {"."}}
    shapes = [(4,) * ("..." in term) + tuple(sizes[c] for c in term.replace("...", "")) for term in inputs]
    for _ in range(5):
        ops = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
        got, want = einsum(subscripts, *ops), np.einsum(subscripts, *ops)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_the_library_has_one_eigensolver_and_einsum_entry():
    # Every other module goes through ``kernels.eigh``, ``eigvalsh`` and ``einsum``, so numpy's
    # per-call wrapper and dispatch stay off the hot paths.
    wrapped = re.compile(r"\b(?:np|numpy)\.(?:linalg\.eig(?:vals)?h|einsum)\b"
                         r"|\bfrom\s+numpy(?:\.linalg)?\s+import\b[^\n]*\b(?:eig(?:vals)?h|einsum)\b")
    assert len(_library_einsum_subscripts()) >= 10
    offenders = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(SRC.glob("*.py")) if path.name != "kernels.py"
        for i, line in enumerate(path.read_text().splitlines(), 1) if wrapped.search(line)
    ]
    assert offenders == []


def test_the_library_has_one_norm_entry():
    # Every other module goes through ``kernels.frobenius`` and ``frobenius_rows``, numpy's
    # norm body without its wrapper.
    wrapped = re.compile(r"\b(?:np|numpy)\.linalg\.norm\b|\bfrom\s+numpy(?:\.linalg)?\s+import\b[^\n]*\bnorm\b")
    offenders = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(SRC.glob("*.py")) if path.name != "kernels.py"
        for i, line in enumerate(path.read_text().splitlines(), 1) if wrapped.search(line)
    ]
    assert offenders == []


# ------------------------------------------------ the norm entry, bit for bit


def _norm_inputs(dtype, seed):
    """A vector, a matrix, its transpose and a column-strided view of it."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(6, 9 + 8))
    if dtype is np.complex128:
        x = x + 1j * rng.normal(size=x.shape)
    vector, m = x[0].copy(), x[:, 9:].copy()
    return {"1-D": vector, "2-D": m, "transposed": m.T, "strided": m[:, ::2]}


# No errstate, ``states._check_unit_vector``'s and ``measurement.observable_from_basis``'s.
NORM_ERRSTATES = [{}, {"over": "ignore"}, {"over": "ignore", "invalid": "ignore"}]


def _norm_outcome(f, args, errstate):
    """``f(*args)`` as bytes (or "nan") and the warnings it raised under ``errstate``."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(**errstate):
        warnings.simplefilter("always")
        value = f(*args)
    assert isinstance(value, float)
    return "nan" if math.isnan(value) else struct.pack("<d", value), [(w.category, str(w.message)) for w in caught]


def _np_norm(a, b=None):
    return float(np.linalg.norm(a if b is None else a - b))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("layout", ["1-D", "2-D", "transposed", "strided"])
def test_frobenius_equals_np_linalg_norm_bitwise(dtype, layout):
    for seed in range(20):
        a, b = _norm_inputs(dtype, seed)[layout], _norm_inputs(dtype, seed + 100)[layout]
        for args in ((a,), (a, b)):
            assert _norm_outcome(frobenius, args, {}) == _norm_outcome(_np_norm, args, {})


@pytest.mark.parametrize("special", [1e308, -1e308, 1.3e154, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("errstate", NORM_ERRSTATES, ids=["default", "over", "over-invalid"])
def test_frobenius_treats_huge_and_non_finite_entries_as_np_linalg_norm_does(special, dtype, errstate):
    # 1.3e154 squares to a finite 1.69e308; with a real and an imaginary entry the sum of
    # the two dots overflows, which warns unless ``over`` is ignored.
    for layout in ("1-D", "2-D", "transposed", "strided"):
        a, b = _norm_inputs(dtype, 1)[layout], _norm_inputs(dtype, 2)[layout]
        a[(0,) * a.ndim] = special
        if dtype is np.complex128:
            a[(-1,) * a.ndim] = complex(0.0, special)
        for args in ((a,), (a, b), (b, a)):
            assert _norm_outcome(frobenius, args, errstate) == _norm_outcome(_np_norm, args, errstate)


# The stacks ``verify_twins`` norms, (n, D, D) with D = d1 d2 from 4 to 16, and the partial-trace
# differences of a ``sweep`` chunk, (S, d, d) with d a side from 1 to 8.
@pytest.mark.parametrize("shape", [(1, 4, 4), (2, 6, 6), (3, 9, 9), (4, 12, 12), (4, 16, 16),
                                   (8, 1, 1), (8, 2, 2), (3, 3, 3), (8, 4, 4), (5, 7, 7), (1, 8, 8)])
def test_frobenius_rows_equal_frobenius_of_each_row_bitwise(shape):
    rng = np.random.default_rng(shape[-1])
    for scale in (1.0, 1e-9, 1e150):
        stack = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        rows = frobenius_rows(stack)
        assert rows.shape == shape[:1] and rows.dtype == np.float64
        for k in range(len(stack)):
            assert struct.pack("<d", rows[k]) == struct.pack("<d", frobenius(stack[k]))
