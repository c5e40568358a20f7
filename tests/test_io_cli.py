import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import twinfo as T
from twinfo import chains
from twinfo.cli import main
from twinfo.io import (
    StateFileError,
    complex_payload,
    format_json,
    load_state_file,
    parse_state_payload,
    write_state_file,
)
from twinfo.entropy import clamp_nonnegative, relative_entropies
from twinfo.kernels import (
    dagger, entropy_bits, frobenius, info_gain_side1, joint_mutual_info, kron, ptrace_keep1,
    ptrace_keep2, swap_sides, vn_entropy,
)
from twinfo.measurement import luders_sum_rows
from twinfo.sampling import (
    sample_random_densities, sample_random_observables, sample_random_unitaries,
)

from conftest import SIGMA_X, SIGMA_Z, bell_vector


def run_cli(*args, cwd=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "twinfo.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )


def write_bell(path):
    phi = bell_vector()
    write_state_file(path, "density", np.outer(phi, phi.conj()), [2, 2])
    return str(path)


def write_pure(path, phi, dims):
    write_state_file(path, "pure", phi, dims)
    return str(path)


def write_observable(path, matrix):
    write_state_file(path, "observable", matrix, [matrix.shape[0]])
    return str(path)


# ---------------------------------------------------------------- file format


def test_state_file_round_trip(tmp_path):
    rho = T.sample_random_density(T.Dims(2, 3), 4, seed=60)
    path = tmp_path / "state.json"
    write_state_file(path, "density", rho, [2, 3])
    kind, arr, dims = load_state_file(str(path))
    assert kind == "density"
    assert dims == [2, 3]
    np.testing.assert_allclose(arr, rho, atol=1e-12)
    assert np.max(np.abs(arr - rho)) == 0.0  # 17 significant digits are lossless


def test_pure_file_round_trip(tmp_path):
    phi = T.sample_random_pure(T.Dims(2, 2), seed=61)
    path = tmp_path / "pure.json"
    write_state_file(path, "pure", phi, [2, 2])
    kind, arr, dims = load_state_file(str(path))
    assert kind == "pure"
    np.testing.assert_array_equal(arr, phi)


def test_parse_rejects_malformed_payloads():
    with pytest.raises(StateFileError):
        parse_state_payload({"kind": "wavefunction", "dims": [2, 2], "vector": []})
    with pytest.raises(StateFileError):
        parse_state_payload({"kind": "pure", "dims": [2], "vector": [[1, 0], [0, 0]]})
    with pytest.raises(StateFileError):
        parse_state_payload({"kind": "density", "dims": [2, 2], "matrix": [[1, 2], [3, 4]]})
    with pytest.raises(StateFileError) as err:
        parse_state_payload(
            {"kind": "pure", "dims": [2, 1], "vector": [[0.0, 0.0], ["x", 0.0]]}
        )
    assert "vector[1]" in str(err.value)
    with pytest.raises(StateFileError) as err:
        parse_state_payload({"kind": "pure", "dims": [True, 2], "vector": [[1, 0], [0, 0]]})
    assert "dims" in str(err.value)


def test_format_json_floats_and_inf():
    text = format_json({"a": 1.0, "b": 0.1, "c": math.inf, "d": [1, 2.5]})
    data = json.loads(text)
    assert data["a"] == 1.0
    assert data["b"] == 0.1
    assert data["c"] == "inf"
    assert data["d"] == [1, 2.5]
    third = 1.0 / 3.0
    assert json.loads(format_json({"x": third}))["x"] == third


def test_format_json_bytes():
    # The CLI's stdout bytes, pinned scalar by scalar and for each container layout.
    assert format_json(None) == "null"
    assert format_json(True) == "true"
    assert format_json(False) == "false"
    assert format_json('say "hé"') == '"say \\"h\\u00e9\\""'
    assert format_json(np.int64(-7)) == "-7"
    assert format_json(np.float64(0.1)) == "0.10000000000000001"
    assert format_json(-0.0) == "-0"
    assert format_json(math.inf) == '"inf"'
    assert format_json((1, 2.5)) == "[1, 2.5]"
    assert format_json([np.int64(3), 1.0 / 3.0, -0.0]) == "[3, 0.33333333333333331, -0]"
    assert format_json([[0.5, -0.0], [1, 2e-300]]) == (
        "[\n  [0.5, -0],\n  [1, 2.0000000000000001e-300]\n]"
    )
    assert format_json({}) == "{}"
    assert format_json([]) == "[]"
    assert format_json({"a": {}, "b": [], "c": [True, None]}) == (
        '{\n  "a": {},\n  "b": [],\n  "c": [\n    true,\n    null\n  ]\n}'
    )
    with pytest.raises(TypeError):
        format_json(np.bool_(True))
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError):
            format_json(bad)


def test_complex_payload_matches_entrywise_pairs():
    def entrywise(array):
        array = np.asarray(array)
        if array.ndim == 1:
            return [[float(z.real), float(z.imag)] for z in array]
        return [[[float(z.real), float(z.imag)] for z in row] for row in array]

    rng = np.random.default_rng(5)
    real = rng.normal(size=(3, 3))
    real[0, 1] = -0.0
    cplx = real + 1j * rng.normal(size=(3, 3))
    cplx[1, 2] = complex(0.25, -0.0)
    cplx[2, 0] = complex(-0.0, -0.0)
    for array in (real[0], real, cplx[1], cplx, cplx.T):
        # repr tells -0.0 from 0.0 and a float from an int.
        assert repr(complex_payload(array)) == repr(entrywise(array))


# ------------------------------------------------------------------ cmd_report


def test_report_bell(tmp_path):
    path = write_bell(tmp_path / "bell.json")
    res = run_cli("report", path)
    assert res.returncode == 0
    report = json.loads(res.stdout)
    state = report["state"]
    assert state["entropy_1"] == pytest.approx(1.0, abs=1e-10)
    assert state["entropy_2"] == pytest.approx(1.0, abs=1e-10)
    assert state["entropy_12"] == pytest.approx(0.0, abs=1e-10)
    assert state["mutual_information"] == pytest.approx(2.0, abs=1e-10)
    assert state["purity"] == "pure"
    assert state["schmidt_coefficients"] == pytest.approx([2**-0.5, 2**-0.5], abs=1e-10)
    # schema is stable: optional blocks are null, never missing
    assert report["optimization"] is None
    assert report["twins"] is None


def test_report_product_state(tmp_path):
    r1 = np.diag([0.3, 0.7]).astype(complex)
    r2 = np.diag([0.6, 0.4]).astype(complex)
    path = tmp_path / "prod.json"
    write_state_file(path, "density", T.tensor_product(r1, r2), [2, 2])
    res = run_cli("report", str(path))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert abs(report["state"]["mutual_information"]) < 1e-9
    assert report["state"]["schmidt_coefficients"] is None


def test_report_product_basis_state_prints_no_negative_zero(tmp_path):
    path = write_pure(tmp_path / "zz.json", np.array([1, 0, 0, 0], dtype=complex), [2, 2])
    res = run_cli("report", path)
    assert res.returncode == 0
    # The input path is printed too, and may hold "-0" (pytest's "pytest-0" base dir).
    assert not any("-0" in out.replace(path, "") for out in (res.stdout, res.stderr))
    block = json.loads(res.stdout)["state"]
    for key in ("entropy_1", "entropy_2", "entropy_12", "lieb_slack"):
        assert block[key] == 0
    assert "S(1)=0  S(2)=0  S(12)=0" in res.stderr


def test_report_bad_trace_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    write_state_file(path, "density", np.diag([0.5, 0.4]).astype(complex), [2, 1])
    res = run_cli("report", str(path))
    assert res.returncode == 2
    assert "trace" in res.stderr


@pytest.mark.parametrize("m, invariant", [
    ("[[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]", "trace"),
    ("[[[0.5, 0], [1e308, 0]], [[1e308, 0], [0.5, 0]]]", "positivity"),
    ("[[[0.5, 0], [1e308, 0]], [[-1e308, 0], [0.5, 0]]]", "hermitian"),
], ids=["trace", "positivity", "hermitian"])
def test_report_overflowing_density_exits_2_on_one_line(m, invariant, tmp_path):
    # Finite entries whose sums overflow fail their check with no numpy warning.
    path = tmp_path / "overflow.json"
    path.write_text(f'{{"kind": "density", "dims": [2, 1], "matrix": {m}}}')
    res = run_cli("report", str(path))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith(f"twinfo: validation failed ({invariant}): ")
    assert res.stderr.count("\n") == 1
    if invariant == "positivity":
        # The Hermitian part overflows to inf, so its spectrum is NaN: not "negative".
        assert res.stderr.endswith(": spectrum is not finite\n")


def test_report_pure_norm_beyond_tolerance_squared_fails_as_norm(tmp_path):
    # |phi| - 1 = 0.9e-10 is within STATE_TOL, but the trace of |phi><phi| is not.
    phi = np.array([1, 0, 0, 0], dtype=complex) * (1.0 + 0.9e-10)
    res = run_cli("report", write_pure(tmp_path / "long.json", phi, [2, 2]))
    assert res.returncode == 2
    assert res.stderr.startswith("twinfo: validation failed (norm): vector norm is ")


def test_report_overflowing_pure_norm_exits_2_on_one_line(tmp_path):
    # The squared norm overflows: one `norm` line, with no numpy warning before it.
    path = tmp_path / "huge.json"
    path.write_text('{"kind": "pure", "dims": [2, 2], "vector": [[1e200, 0], [0, 0], [0, 0], [0, 0]]}')
    res = run_cli("report", str(path))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "twinfo: validation failed (norm): vector norm is inf, expected 1\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(T.StateValidationError) as err:
            T.bipartite_from_pure(np.array([1e200, 0, 0, 0], dtype=complex), T.Dims(2, 2))
    assert err.value.invariant == "norm"


def test_report_malformed_json_exits_1(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    res = run_cli("report", str(path))
    assert res.returncode == 1


@pytest.mark.parametrize("content", [
    b'{"kind": "pure", "dims": [1, 1], "vector": [[1, 0]], "note": "\xff"}',
    b'{"kind": "pure", "dims": [1, 1], "vector": ' + b"[" * 100000 + b"]" * 100000 + b"}",
    b'{"kind": "pure", "dims": [1, 1], "vector": [[1' + b"0" * 4300 + b', 0]]}',
    b'{"kind": "pure", "dims": [1, 1], "vector": [[1' + b"0" * 400 + b', 0]]}',
    b'{"kind": "density", "dims": [8589934592, 8589934592], "matrix": []}',
    b'{"kind": "density", "dims": [1' + b"0" * 3000 + b", 1" + b"0" * 3000 + b'], "matrix": []}',
    b'[{"kind": "pure", "dims": [1, 1], "vector": [[1, 0]]}]',
    b'{"kind": "pure", "dims": [2, 1], "vector": [[1, 0]]}',
    b'{"kind": "density", "dims": [2, 1], "matrix": [[[0.5, 0], [0, 0]], [[0.5, 0]]]}',
    None,  # no file at all
], ids=["not_utf8", "nested_deep", "long_integer", "integer_beyond_float", "dims_product_wraps",
        "dims_product_too_long_to_print", "top_level_not_object", "short_vector", "short_matrix_row",
        "missing_file"])
def test_report_malformed_file_exits_1_on_one_line(content, tmp_path):
    path = tmp_path / "bad.json"
    if content is not None:
        path.write_bytes(content)
    res = run_cli("report", str(path))
    assert res.returncode == 1
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith(f"twinfo: {path}: ")
    assert res.stderr.count("\n") == 1


def test_report_boolean_dims_exits_1(tmp_path):
    path = tmp_path / "bool_dims.json"
    path.write_text('{"kind": "density", "dims": [true, 2], "matrix": '
                    '[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}')
    res = run_cli("report", str(path))
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("twinfo: ")
    assert res.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["report", "discord"])
@pytest.mark.parametrize(
    "payload",
    [
        '{"kind": "density", "dims": [2, 1], "matrix": [[[0.5, 0], [NaN, 0]], [[0, 0], [0.5, 0]]]}',
        '{"kind": "pure", "dims": [2, 1], "vector": [[1, 0], [NaN, 0]]}',
    ],
    ids=["density", "pure"],
)
def test_non_finite_state_exits_2(command, payload, tmp_path):
    # The timeout turns a line search that never ends on NaN input into a failure.
    path = tmp_path / "nan.json"
    path.write_text(payload)
    res = run_cli(command, str(path), timeout=60)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("twinfo: ")
    assert "finite" in res.stderr
    assert res.stderr.count("\n") == 1


def test_missing_subcommand_exits_1():
    res = run_cli()
    assert res.returncode == 1


# ------------------------------------------------------------------ cmd_sweep


def test_sweep_clean_and_deterministic(tmp_path):
    args = ("sweep", "--dims", "2x2", "--samples", "40", "--seed", "1",
            "--out", str(tmp_path / "violations"))
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert "0 violations" in first.stderr
    summary = json.loads(first.stdout)
    assert summary["total_violations"] == 0
    assert summary["violation_files"] == []
    for check in summary["checks"].values():
        assert check["violations"] == 0
        assert check["evaluations"] > 0
    assert not (tmp_path / "violations").exists()


def test_sweep_zero_samples_usage_error(tmp_path):
    res = run_cli("sweep", "--samples", "0", "--out", str(tmp_path / "v"))
    assert res.returncode == 1


def test_sweep_rejects_big_dims(tmp_path):
    res = run_cli("sweep", "--dims", "9x2", "--out", str(tmp_path / "v"))
    assert res.returncode == 1


@pytest.mark.parametrize(
    "seed, dims, samples, tol, match",
    [
        (-1, (2, 2), 3, 1e-9, r"^seed must be >= 0, got -1$"),
        (1.5, (2, 2), 3, 1e-9, r"^seed must be an integer, got 1\.5$"),
        (True, (2, 2), 3, 1e-9, r"^seed must be an integer, got True$"),
        (1, (9, 2), 3, 1e-9, r"^dims sides must be <= 8, got 9x2$"),
        (1, (2, 9), 3, 1e-9, r"^dims sides must be <= 8, got 2x9$"),
        (1, (2, 2), 0, 1e-9, r"^samples must be >= 1, got 0$"),
        # A nan tolerance passes every margin, -inf fails every one.
        (1, (2, 2), 3, math.nan, r"^tol must be a number, got nan$"),
        (1, (2, 2), 3, -math.inf, r"^tol must be above -inf$"),
        # The first failed check wins: seed, sides, samples, then tol.
        (-1, (9, 9), 0, math.nan, "^seed"),
        (1, (9, 9), 0, math.nan, "^dims"),
        (1, (2, 2), 0, math.nan, "^samples"),
    ],
    ids=["seed", "float-seed", "bool-seed", "side-1", "side-2", "samples", "nan-tol", "minus-inf-tol", "seed-first",
         "sides-before-samples", "samples-before-tol"],
)
def test_sweep_records_rejects_bad_options_at_the_call(seed, dims, samples, tol, match):
    # No ``next``: the checks run when the records are asked for, not when the first is drawn.
    # A seed that is no integer, a bool included, is a TypeError, as in ``OptimizationConfig``.
    with pytest.raises(TypeError if isinstance(seed, (bool, float)) else ValueError, match=match):
        chains.sweep_records(T.Dims(*dims), seed, samples, tol)


def test_sweep_dumps_replayable_violations(tmp_path):
    # an impossible tolerance forces every check to violate
    out = tmp_path / "violations"
    res = run_cli(
        "sweep", "--samples", "3", "--seed", "2", "--tol", "-1", "--out", str(out)
    )
    assert res.returncode == 3
    summary = json.loads(res.stdout)
    assert summary["total_violations"] > 0
    assert summary["violation_files"]
    for name in summary["violation_files"]:
        kind, arr, dims = load_state_file(name)
        assert kind == "density"
        T.make_bipartite(arr, T.Dims(*dims))  # replayable as a valid state


def test_sweep_unwritable_out_exits_1_on_one_line(tmp_path):
    # --out names a file, so the first violation dump cannot make its directory.
    out = tmp_path / "taken"
    out.write_text("")
    res = run_cli("sweep", "--dims", "2x2", "--samples", "2", "--tol", "-1", "--out", str(out))
    assert res.returncode == 1
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("twinfo: --out: ")
    assert res.stderr.count("\n") == 1


def test_sweep_lindblad_rounding_is_not_a_violation(tmp_path, capsys):
    # At 2x2 the sampled incomplete observables are the identity, so the three
    # relative entropies of sample 1 are equal; their rounding (1.96e-9) is
    # amplified by the reference's smallest eigenvalue, 4.5e-8.
    out = tmp_path / "v"
    args = ["sweep", "--dims", "2x2", "--samples", "8", "--seed", "4041", "--out", str(out)]
    assert main(args) == 0
    lindblad = json.loads(capsys.readouterr().out)["checks"]["lindblad"]
    assert lindblad["violations"] == 0
    assert lindblad["worst_margin"] == 1.9643540127844972e-09
    assert not out.exists()


def test_relative_entropy_rounding_is_unbounded_for_a_singular_reference():
    assert chains._relative_entropy_rounding(0.0, 4) == math.inf
    assert chains._relative_entropy_rounding(-1e-17, 4) == math.inf
    assert chains._relative_entropy_rounding(0.5, 4) == 8 * np.finfo(float).eps / math.log(2)


def test_main_twice_in_one_process_prints_the_same_bytes(tmp_path, capsys):
    # The parser is built once per process; a run, or a usage error, leaves nothing in it.
    argvs = [["report", write_bell(tmp_path / "bell.json")],
             ["sweep", "--samples", "3", "--tol", "-1", "--out", str(tmp_path / "v")],
             ["sweep", "--samples", "x"]]
    runs = []
    for _ in range(2):
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            runs.append((code, *capsys.readouterr()))
    assert runs[:3] == runs[3:]
    assert [code for code, _, _ in runs[:3]] == [0, 3, 1]
    assert T.cli.build_parser() is T.cli.build_parser()


def _sweep_checks_reference(dims, samples, seed, tol=1e-9):
    """Evaluations, violations and worst margin of each sweep check, recomputed
    sample by sample with the public API and one Lüders application per channel
    use (ten a sample)."""
    checks = {
        name: {"evaluations": 0, "violations": 0, "worst_margin": 0.0}
        for name in ("chain", "relative_entropy_identity", "partial_trace_identities", "lindblad", "lieb")
    }

    def record(name, margin, bound=tol):
        check = checks[name]
        check["evaluations"] += 1
        check["violations"] += int(margin > bound)
        check["worst_margin"] = max(check["worst_margin"], margin)

    apply = T.luders_apply_subsystem
    for i in range(samples):
        rho_m = T.sample_random_density(dims, (i % dims.total) + 1, seed, stream=10 * i)
        state = T.make_bipartite(rho_m, dims)
        rho = np.ascontiguousarray(state.rho12.matrix)
        swapped = swap_sides(rho, dims.d1, dims.d2)
        s1 = T.von_neumann_entropy(state.rho1)
        s2 = T.von_neumann_entropy(state.rho2)
        mi = T.mutual_information(state)
        record("lieb", mi - 2.0 * min(s1, s2))
        record("relative_entropy_identity", abs(mi - T.mutual_information_via_relative(state)))
        for k in range(2):
            u1 = np.ascontiguousarray(T.sample_random_unitary(dims.d1, seed, stream=10 * i + 1 + k))
            u2 = np.ascontiguousarray(T.sample_random_unitary(dims.d2, seed, stream=10 * i + 3 + k))
            jmi = float(joint_mutual_info(rho, u1, u2))
            g1 = float(info_gain_side1(rho, u1, dims.d2))
            g2 = float(info_gain_side1(swapped, u2, dims.d1))
            record("chain", max(-jmi, jmi - g1, jmi - g2, g1 - min(mi, s2), g2 - min(mi, s1)))
        obs_a = T.SubsystemObservable(
            T.sample_random_observable(dims.d1, seed, stream=10 * i + 5, complete=False), 1
        )
        obs_b = T.SubsystemObservable(
            T.sample_random_observable(dims.d2, seed, stream=10 * i + 6, complete=False), 2
        )
        t_ab = apply(obs_a, apply(obs_b, state))
        res_1 = np.linalg.norm(
            T.partial_trace(t_ab.rho12.matrix, dims, keep=1) - apply(obs_a, state).rho1.matrix
        )
        res_2 = np.linalg.norm(
            T.partial_trace(t_ab.rho12.matrix, dims, keep=2) - apply(obs_b, state).rho2.matrix
        )
        record("partial_trace_identities", max(float(res_1), float(res_2)), 1e-10)
        ref = T.make_bipartite(T.sample_random_density(dims, dims.total, seed, stream=10 * i + 7), dims)
        before = T.relative_entropy(state.rho12, ref.rho12)
        after_one = T.relative_entropy(apply(obs_a, state).rho12, apply(obs_a, ref).rho12)
        after_two = T.relative_entropy(
            apply(obs_b, apply(obs_a, state)).rho12, apply(obs_b, apply(obs_a, ref)).rho12
        )
        # Rounding of log2 ref, amplified by its smallest eigenvalue, is no violation.
        lam_min = float(np.linalg.eigvalsh(ref.rho12.matrix)[0])
        allowance = dims.total * np.finfo(float).eps / (lam_min * math.log(2))
        record("lindblad", max(after_one - before, after_two - after_one), tol + allowance)
    return checks


@pytest.mark.parametrize(
    "dims, seed",
    [
        ((2, 3), 3),  # pure samples: the product of the reductions is rank-deficient
        ((3, 3), 5),
        ((5, 5), 1),  # 13 samples: chunks of 6, 6 and 1
        ((8, 8), 2),  # chunks of 1
        ((1, 3), 0),  # one outcome on side 1
        ((4, 1), 0),  # a one-dimensional side 2
    ],
)
def test_sweep_margins_equal_reference_loop(dims, seed, tmp_path, capsys):
    samples = {(5, 5): 13, (8, 8): 3}.get(dims, 8)
    args = ["sweep", "--dims", "x".join(map(str, dims)), "--samples", str(samples),
            "--seed", str(seed), "--out", str(tmp_path / "v")]
    assert main(args) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    reference = _sweep_checks_reference(T.Dims(*dims), samples, seed)
    assert checks == reference
    tally = {name: chains.Tally() for name in chains.CHECKS}
    for _, _, _, records in chains.sweep_records(T.Dims(*dims), seed, samples, 1e-9):
        for name, margin, bound in records:
            tally[name].record(margin, bound)
    assert {name: vars(t) for name, t in tally.items()} == reference


def _sweep_records_per_stage(dims, seed, samples, tol):
    """``chains.sweep_records`` as separate calls per stage and per input: the
    states and references drawn apart, six Lüders sums, four relative-entropy
    calls, and the chain's bases and the observables drawn apart."""
    d1, d2, n = dims.d1, dims.d2, dims.total
    streams = [10 * i for i in samples]
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
             tol + chains._relative_entropy_rounding(float(ref_spectrum[j, 0]), n)),
        ]


@pytest.mark.parametrize("dims, seed, samples", [
    ((2, 3), 3, 8),  # the rank-1 sample's product of reductions takes the per-row relative entropy
    ((3, 3), 5, 8),
    ((1, 3), 0, 8),  # one outcome on side 1
    ((8, 8), 2, 2),  # chunks of one sample; the reference runs both at once
    ((4, 1), 1, 8),  # side 2 draws no cuts, but its cut streams are still taken in turn
    ((3, 3), 4, 60),  # chunks of 50 samples: the second chunk keys its own streams
])
def test_sweep_records_equal_per_stage_calls_bitwise(dims, seed, samples):
    dims = T.Dims(*dims)
    got = list(chains.sweep_records(dims, seed, samples, 1e-9))
    want = list(_sweep_records_per_stage(dims, seed, range(samples), 1e-9))
    assert [g[0] for g in got] == [w[0] for w in want] == list(range(samples))
    for (_, rho, ref, records), (_, rho_w, ref_w, records_w) in zip(got, want):
        assert rho.tobytes() == rho_w.tobytes() and ref.tobytes() == ref_w.tobytes()
        assert [(c, float(m).hex(), b) for c, m, b in records] == [
            (c, float(m).hex(), b) for c, m, b in records_w]


# Bell states by case: 0 is (|00> + |11>)/sqrt2, 1 is (|01> - |10>)/sqrt2.
BELL_AMPLITUDES = {0: "[1, 0, 0, 1]", 1: "[0, 1, -1, 0]"}


@pytest.mark.parametrize("bell_case", [0, 1])
def test_numpy_fallback_backend_matches(bell_case):
    """A fresh process runs the numpy backend and gets the Bell-state values:
    I(1:2) = 2 bits and discord 1 bit."""
    script = (
        "import numpy as np, twinfo as T;"
        f"phi = np.array({BELL_AMPLITUDES[bell_case]}, dtype=complex) / np.sqrt(2);"
        "bell = T.bipartite_from_pure(phi, T.Dims(2, 2));"
        "cfg = T.OptimizationConfig(restarts=2, seed=0);"
        "print(T.BACKEND);"
        "print(repr(T.mutual_information(bell)));"
        "print(repr(T.quantum_discord(bell, '1to2', cfg)))"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    backend, mi, discord = res.stdout.strip().splitlines()
    assert backend == "numpy"
    assert float(mi) == pytest.approx(2.0, abs=1e-10)
    assert float(discord) == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------- cmd_discord


def test_discord_pure_state(tmp_path):
    phi = T.sample_random_pure(T.Dims(2, 2), seed=62)
    path = write_pure(tmp_path / "pure.json", phi, [2, 2])
    res = run_cli("discord", path, "--restarts", "4", "--seed", "0")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    block = report["optimization"]
    s1 = T.entanglement_entropy(phi, T.Dims(2, 2))
    assert block["quantum_discord"] == pytest.approx(s1, abs=1e-6)
    assert block["restarts_agreeing"] >= 1
    assert block["converged"] is True
    assert block["grad_norm"] < 1e-6
    assert block["evaluations"] >= 4


def test_discord_dephased_state(tmp_path):
    phi = T.sample_random_pure(T.Dims(2, 2), seed=63)
    state = T.dephase_in_schmidt_basis(phi, T.Dims(2, 2))
    path = tmp_path / "dephased.json"
    write_state_file(path, "density", state.rho12.matrix, [2, 2])
    res = run_cli("discord", str(path), "--restarts", "4")
    assert res.returncode == 0
    assert abs(json.loads(res.stdout)["optimization"]["quantum_discord"]) < 1e-6


def test_discord_product_state(tmp_path):
    r1 = np.diag([0.2, 0.8]).astype(complex)
    r2 = np.diag([0.55, 0.45]).astype(complex)
    path = tmp_path / "prod.json"
    write_state_file(path, "density", T.tensor_product(r1, r2), [2, 2])
    res = run_cli("discord", str(path), "--restarts", "3", "--direction", "2to1")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert 0.0 <= report["optimization"]["quantum_discord"] < 1e-6
    assert abs(report["state"]["mutual_information"]) < 1e-9


@pytest.mark.parametrize("direction", ["1to2", "2to1"])
def test_discord_clamps_round_off_at_zero(direction, tmp_path):
    # On this product state the ascent's supremum exceeds I = 0 by round-off.
    product = T.tensor_product(np.diag([0.7, 0.3]), np.diag([0.6, 0.4])).astype(complex)
    path = tmp_path / "prod.json"
    write_state_file(path, "density", product, [2, 2])
    res = run_cli("discord", str(path), "--restarts", "3", "--direction", direction)
    assert res.returncode == 0
    assert json.loads(res.stdout)["optimization"]["quantum_discord"] >= 0.0
    cfg = T.OptimizationConfig(restarts=3)
    assert T.quantum_discord(T.make_bipartite(product, T.Dims(2, 2)), direction, cfg) >= 0.0


def test_discord_summary_counts_grid_as_candidate(tmp_path):
    # The qubit grid oracle is one candidate beside the restarts; on a
    # Werner state every candidate reaches the same value.
    phi = bell_vector()
    rho = 0.5 * np.outer(phi, phi.conj()) + 0.5 * np.eye(4) / 4
    path = tmp_path / "werner.json"
    write_state_file(path, "density", rho, [2, 2])
    gridded = run_cli("discord", str(path), "--restarts", "4", "--grid-refine")
    assert gridded.returncode == 0
    assert gridded.stderr.strip().endswith("[5/5 restarts agree]")
    assert json.loads(gridded.stdout)["optimization"]["restarts_agreeing"] == 5
    plain = run_cli("discord", str(path), "--restarts", "4")
    assert plain.stderr.strip().endswith("[4/4 restarts agree]")
    # A qutrit measured side runs no grid, even with --grid-refine.
    qutrit = tmp_path / "mixed2x3.json"
    write_state_file(qutrit, "density", T.sample_random_density(T.Dims(2, 3), 6, seed=61), [2, 3])
    res = run_cli("discord", str(qutrit), "--restarts", "4", "--grid-refine", "--direction", "2to1")
    assert res.returncode == 0
    assert re.search(r"\[[1-4]/4 restarts agree\]$", res.stderr.strip())


# ------------------------------------------------------------ usage errors


@pytest.mark.parametrize(
    "args",
    [
        ("discord", "{bell}", "--restarts", "0"),
        ("discord", "{bell}", "--restarts", "-2"),
        ("sweep", "--tol", "nan", "--samples", "2", "--out", "{out}"),
        ("twins", "{bell}", "{z}", "{z}", "--tol", "NaN"),
        ("sweep", "--seed", "-1", "--samples", "2", "--out", "{out}"),
        ("discord", "{bell}", "--seed", "-1", "--restarts", "3"),
        ("discord", "{bell}", "--seed", "-1", "--restarts", "2"),
        ("sweep", "--dims", "2x0", "--samples", "2", "--out", "{out}"),
        ("sweep", "--dims", "0x3", "--samples", "2", "--out", "{out}"),
        ("sweep", "--dims", "ax2", "--samples", "2", "--out", "{out}"),
        ("sweep", "--tol=-inf", "--samples", "2", "--out", "{out}"),
        ("twins", "{bell}", "{z}", "{z}", "--tol=-inf"),
        # Outside (0, 1) every column pairs (tol >= 1) or no residual passes (tol <= 0).
        ("twins", "{bell}", "{z}", "{z}", "--tol", "0"),
        ("twins", "{bell}", "{z}", "{z}", "--tol", "1"),
        ("twins", "{bell}", "{z}", "{z}", "--tol", "2"),
        ("twins", "{bell}", "{z}", "{z}", "--tol", "inf"),
    ],
)
def test_bad_numeric_options_are_usage_errors(args, tmp_path):
    paths = {
        "bell": write_bell(tmp_path / "bell.json"),
        "z": write_observable(tmp_path / "z.json", SIGMA_Z),
        "out": str(tmp_path / "v"),
    }
    res = run_cli(*(a.format(**paths) for a in args))
    assert res.returncode == 1
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("twinfo: ")
    assert res.stderr.count("\n") == 1
    assert not (tmp_path / "v").exists()


# ------------------------------------------------------------------ cmd_twins


def test_twins_bell_zz(tmp_path):
    state_path = write_bell(tmp_path / "bell.json")
    obs_path = write_observable(tmp_path / "z.json", SIGMA_Z)
    res = run_cli("twins", state_path, obs_path, obs_path)
    assert res.returncode == 0
    report = json.loads(res.stdout)["report"]
    assert report["verdict"] is True
    assert report["complete"] is True
    assert report["strong_algebraic_residual"] < 1e-10


def test_twins_bell_zx_exits_4(tmp_path):
    state_path = write_bell(tmp_path / "bell.json")
    z_path = write_observable(tmp_path / "z.json", SIGMA_Z)
    x_path = write_observable(tmp_path / "x.json", SIGMA_X)
    res = run_cli("twins", state_path, z_path, x_path)
    assert res.returncode == 4
    report = json.loads(res.stdout)["report"]
    assert report["verdict"] is False
    for key in ("residual_a", "residual_b", "residual_c", "residual_d"):
        assert 0.1 < report[key] < 1.5
    assert report["pairing"] is None


def test_twins_condition_mismatch_exits_5_on_one_line(tmp_path, monkeypatch, capsys):
    # A corrupted outcome table makes the twin conditions disagree (as in test_twins).
    true_table = T.twins.coincidence_table
    monkeypatch.setattr(T.twins, "coincidence_table",
                        lambda *args: true_table(*args) + np.array([[-0.05, 0.05], [0.05, -0.05]]))
    state_path = write_bell(tmp_path / "bell.json")
    z_path = write_observable(tmp_path / "z.json", SIGMA_Z)
    assert main(["twins", state_path, z_path, z_path]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("twinfo: internal consistency error: twin conditions disagree")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_twins_round_trip_constructed_pair(tmp_path):
    dims = T.Dims(2, 3)
    phi = T.sample_random_pure(dims, seed=64)
    a1, b2 = T.construct_pure_twins(phi, dims)
    state_path = write_pure(tmp_path / "phi.json", phi, [2, 3])
    a_path = write_observable(tmp_path / "a.json", a1.observable.matrix())
    b_path = write_observable(tmp_path / "b.json", b2.observable.matrix())
    res = run_cli("twins", state_path, a_path, b_path)
    assert res.returncode == 0
    assert json.loads(res.stdout)["report"]["verdict"] is True


def test_twins_tiny_weight_outcome_exits_4(tmp_path):
    # sqrt(1 - e)|00> + sqrt(e)|1>|+> with Z on both sides is not a twin
    # pair; its outcome of weight e must not read as an internal error.
    e = 1e-9
    phi = np.sqrt(1.0 - e) * np.array([1, 0, 0, 0]) + np.sqrt(e / 2.0) * np.array([0, 0, 1, 1])
    state_path = write_pure(tmp_path / "phi.json", phi.astype(complex), [2, 2])
    z_path = write_observable(tmp_path / "z.json", SIGMA_Z)
    res = run_cli("twins", state_path, z_path, z_path)
    assert res.returncode == 4
    assert json.loads(res.stdout)["report"]["verdict"] is False


def test_twins_near_twin_small_weight_outcome_exits_0(tmp_path):
    # sqrt(1 - w)|00> + sqrt(w)|11> + delta|01> with Z on both sides is a twin
    # pair within tolerance; its residuals must not read as an internal error.
    w, delta = 0.01, 2e-9
    phi = np.array([np.sqrt(1.0 - w), delta, 0.0, np.sqrt(w)], dtype=complex)
    state_path = write_pure(tmp_path / "phi.json", phi, [2, 2])
    z_path = write_observable(tmp_path / "z.json", SIGMA_Z)
    res = run_cli("twins", state_path, z_path, z_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["report"]["verdict"] is True


def test_twins_slightly_negative_density_is_not_an_internal_error(tmp_path):
    # diag(1 + e, -e, 0, 0) passes validation; with Z on both sides it is a
    # twin pair, and the negative eigenvalue must not read as exit 5.
    e = 1e-11
    state_path = tmp_path / "rho.json"
    write_state_file(state_path, "density", np.diag([1.0 + e, -e, 0.0, 0.0]).astype(complex), [2, 2])
    z_path = write_observable(tmp_path / "z.json", SIGMA_Z)
    res = run_cli("twins", str(state_path), z_path, z_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["report"]["verdict"] is True


def test_twins_near_twin_beyond_tol_exits_4(tmp_path):
    # A pure state 7.7e-7 away from one with Schmidt twins fails (b) and (d)
    # while (a) and (c) pass: a false verdict, not an internal error (exit 5).
    dims = T.Dims(3, 4)
    phi = T.sample_random_pure(dims, seed=0)
    psi = phi + 7.7e-7 * T.sample_random_pure(dims, seed=0, stream=1)
    a1, b2 = T.construct_pure_twins(phi, dims)
    state_path = write_pure(tmp_path / "psi.json", psi / np.linalg.norm(psi), [3, 4])
    a_path = write_observable(tmp_path / "a.json", a1.observable.matrix())
    b_path = write_observable(tmp_path / "b.json", b2.observable.matrix())
    res = run_cli("twins", state_path, a_path, b_path)
    assert res.returncode == 4, res.stderr
    assert json.loads(res.stdout)["report"]["verdict"] is False


def test_twins_dimension_mismatch_exits_2(tmp_path):
    state_path = write_bell(tmp_path / "bell.json")
    bad = write_observable(tmp_path / "bad.json", np.eye(3, dtype=complex))
    res = run_cli("twins", state_path, bad, bad)
    assert res.returncode == 2


@pytest.mark.parametrize("entry", ["NaN", "Infinity"])
def test_twins_non_finite_observable_exits_2(entry, tmp_path):
    # The Hermitian check compares a NaN norm, so it would misname this as "hermitian".
    state_path = write_bell(tmp_path / "bell.json")
    z_path = write_observable(tmp_path / "z.json", SIGMA_Z)
    bad = tmp_path / "nan_obs.json"
    bad.write_text('{"kind": "observable", "dims": [2], '
                   f'"matrix": [[[1, 0], [{entry}, 0]], [[{entry}, 0], [-1, 0]]]}}')
    res = run_cli("twins", state_path, str(bad), z_path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == (f"twinfo: validation failed (finite): {bad}: "
                          "observable matrix has a non-finite entry\n")


# Finite entries whose Hermitian part or difference from the adjoint overflows.
OVERFLOWING_OBSERVABLES = [
    ([[1e308, 0.0], [0.0, -1e308]], "finite"),
    ([[0.5, 1e308], [1e308, 0.5]], "finite"),
    ([[0.5, 1e308], [-1e308, 0.5]], "hermitian"),
]


@pytest.mark.parametrize("m, invariant", OVERFLOWING_OBSERVABLES, ids=["diagonal", "symmetric", "skew"])
def test_twins_overflowing_observable_exits_2(m, invariant, tmp_path):
    state_path = write_bell(tmp_path / "bell.json")
    z_path = write_observable(tmp_path / "z.json", SIGMA_Z)
    bad = write_observable(tmp_path / "huge.json", np.array(m, dtype=complex))
    res = run_cli("twins", state_path, bad, z_path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith(f"twinfo: validation failed ({invariant}): {bad}: ")
    assert res.stderr.count("\n") == 1
    assert "Warning" not in res.stderr


# ---------------------------------------------------------------- cmd_schmidt


def test_schmidt_bell(tmp_path):
    path = write_pure(tmp_path / "bell.json", bell_vector(), [2, 2])
    res = run_cli("schmidt", path)
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["coefficients"] == pytest.approx([2**-0.5, 2**-0.5], abs=1e-12)
    assert data["reconstruction_residual"] < 1e-12


def test_schmidt_product_pure(tmp_path):
    phi = np.zeros(4, dtype=complex)
    phi[2] = 1.0
    path = write_pure(tmp_path / "prod.json", phi, [2, 2])
    res = run_cli("schmidt", path)
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["coefficients"] == pytest.approx([1.0], abs=1e-12)


def test_schmidt_mixed_state_exits_2(tmp_path):
    path = tmp_path / "mixed.json"
    write_state_file(path, "density", np.eye(4, dtype=complex) / 4, [2, 2])
    res = run_cli("schmidt", str(path))
    assert res.returncode == 2
    assert "purity" in res.stderr


def test_schmidt_density_pure_state(tmp_path):
    path = write_bell(tmp_path / "bell_density.json")
    res = run_cli("schmidt", path)
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["coefficients"] == pytest.approx([2**-0.5, 2**-0.5], abs=1e-8)
