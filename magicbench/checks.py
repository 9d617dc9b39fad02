"""Correctness checks on every operation's output, run outside the timed region.

Each checker raises ``CheckError`` on the first violated condition and
otherwise returns the output's F_2 / flat_bound(n, 2).  Three kinds of check:

* against magicforge's dense statevector oracle, which shares no code with
  the closed form, the transfer or the optimizer: CSV magnitudes within
  1e-10, F_alpha within 1e-9 relative, and the optimizer's f_after values
  reproduced from the state its returned blocks build, within 1e-9 relative;
* against properties every output must have: sum |a|^2 = 2^n, a(I) = 1,
  flat_bound(n, alpha) <= F_alpha <= 2^n, M_alpha >= 0, layer 0 starting from
  F_2 = 2^n, f_after <= f_before;
* at n <= 4, against the Kronecker-product computation in this file, which
  builds the state and every Pauli operator as dense matrices.

No check compares against a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
from functools import reduce
from pathlib import Path

import numpy as np

from magicforge.diagonal_gates import PhasePolynomial, RotationVector
from magicforge.oracle import (
    apply_diagonal,
    apply_gates,
    apply_rotation,
    oracle_spectrum,
    statevector,
)
from magicforge.spectrum import flat_bound
from magicforge.stabilizer import StabilizerTableau, plus_tableau

MAGNITUDE_TOL = 1e-10
RELATIVE_TOL = 1e-9
ROUNDING = 1e-12  # relative slack for comparisons that are exact in real arithmetic
KRON_MAX_QUBITS = 4


class CheckError(AssertionError):
    """An output violates a correctness condition."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def f_of(values: np.ndarray, alpha: int) -> float:
    return math.fsum((np.abs(values) ** (2 * alpha)).tolist())


def check_properties(n: int, values: np.ndarray, what: str) -> None:
    """Norm, identity entry and the F_alpha bounds of one full spectrum."""
    norm = math.fsum((np.abs(values) ** 2).tolist())
    require(abs(norm - 2.0 ** n) <= 1e-9, f"{what}: sum |a|^2 = {norm!r}, expected 2^{n}")
    require(abs(values[0] - 1.0) <= MAGNITUDE_TOL, f"{what}: a(I) = {values[0]!r}")
    for alpha in (2, 3):
        check_f_bounds(n, alpha, f_of(values, alpha), what)


def check_f_bounds(n: int, alpha: int, f: float, what: str) -> None:
    lo, hi = flat_bound(n, alpha), 2.0 ** n
    require(lo * (1 - ROUNDING) <= f <= hi * (1 + ROUNDING),
            f"{what}: F_{alpha} = {f!r} outside [{lo!r}, {hi!r}]")


def close(a: float, b: float, rel: float = RELATIVE_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------- dense oracle

def _tableau(obj: dict | None, n: int) -> StabilizerTableau:
    return StabilizerTableau.from_json(obj) if obj else plus_tableau(n)


def oracle_circuit_spectrum(circuit: dict) -> np.ndarray:
    """Signed spectrum of a circuit JSON by the statevector oracle."""
    n = circuit["n"]
    st = statevector(_tableau(circuit.get("initial"), n))
    for layer in circuit["layers"]:
        (kind, body), = layer.items()
        if kind == "clifford":
            st = apply_gates(st, [tuple(g) for g in body])
        elif kind == "sqr":
            st = apply_rotation(st, RotationVector.from_json(body))
        else:
            st = apply_diagonal(st, PhasePolynomial.from_json({"n": n, **body}))
    return oracle_spectrum(st).values


def oracle_layer_spectra(tableau: dict, layers: list[dict]) -> list[np.ndarray]:
    """Oracle spectrum after each optimized block (Clifford, then rotations)."""
    st = statevector(StabilizerTableau.from_json(tableau))
    out = []
    for layer in layers:
        st = apply_gates(st, [tuple(g) for g in layer["clifford"]])
        st = apply_rotation(st, RotationVector.continuous(layer["w"]))
        out.append(oracle_spectrum(st).values)
    return out


# ------------------------------------------------------ Kronecker reference, n <= 4

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1, -1]).astype(complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.diag([1, 1j])
_P0, _P1 = np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)
_PAULI = {(0, 0): _I, (1, 0): _X, (0, 1): _Z, (1, 1): _Y}
_ONE_QUBIT = {"H": _H, "S": _S, "X": _X, "Z": _Z}


def kron_on(n: int, factors: dict[int, np.ndarray]) -> np.ndarray:
    """Tensor product with factors[j] on qubit j (0-based), identity elsewhere.

    Basis index bit j is qubit j + 1, so qubit n is the leftmost kron factor.
    """
    return reduce(np.kron, [factors.get(j, _I) for j in reversed(range(n))])


def _gate_matrix(n: int, gate: list) -> np.ndarray:
    name, qs = gate[0], [int(q) for q in gate[1:]]
    if name in _ONE_QUBIT:
        return kron_on(n, {qs[0]: _ONE_QUBIT[name]})
    a, b = qs
    target = _X if name == "CX" else _Z
    return kron_on(n, {a: _P0}) + kron_on(n, {a: _P1, b: target})


def _phase_matrix(n: int, gate: dict) -> np.ndarray:
    theta = np.zeros(1 << n)
    for t in gate["terms"]:
        qubits = [j for j, ch in enumerate(t["a"]) if ch == "1"]
        for b in range(1 << n):
            if all((b >> j) & 1 for j in qubits):
                theta[b] += t["c"] / 2.0 ** t["m"]
    return np.diag(np.exp(2j * np.pi * theta))


def _rotation_matrix(w: list[float]) -> np.ndarray:
    return kron_on(len(w), {j: np.diag([1, np.exp(2j * np.pi * wj)]) for j, wj in enumerate(w)})


def kron_pauli(n: int, v: int) -> np.ndarray:
    """i^(x.z) X^x Z^z for spectrum index v = x * 2^n + z."""
    x, z = v >> n, v & ((1 << n) - 1)
    return kron_on(n, {j: _PAULI[(x >> j) & 1, (z >> j) & 1] for j in range(n)})


def kron_state(tableau: dict) -> np.ndarray:
    """The stabilized state: the largest column of prod (1 + g)/2, normalized."""
    n = tableau["n"]
    proj = np.eye(1 << n, dtype=complex)
    for text in tableau["generators"]:
        sign = -1.0 if text[0] == "-" else 1.0
        g = sign * kron_on(n, {j: {"I": _I, "X": _X, "Y": _Y, "Z": _Z}[ch]
                               for j, ch in enumerate(text[1:])})
        proj = proj @ (np.eye(1 << n) + g) / 2
    col = proj[:, int(np.argmax(np.linalg.norm(proj, axis=0)))]
    return col / np.linalg.norm(col)


def kron_spectrum(psi: np.ndarray, n: int) -> np.ndarray:
    return np.array([np.vdot(psi, kron_pauli(n, v) @ psi).real for v in range(1 << (2 * n))])


def kron_circuit_state(circuit: dict) -> np.ndarray:
    n = circuit["n"]
    psi = kron_state(circuit.get("initial") or {"n": n, "generators": [
        "+" + "".join("X" if j == i else "I" for j in range(n)) for i in range(n)]})
    for layer in circuit["layers"]:
        (kind, body), = layer.items()
        if kind == "clifford":
            for gate in body:
                psi = _gate_matrix(n, gate) @ psi
        elif kind == "sqr":
            psi = _rotation_matrix(body["w"]) @ psi
        else:
            psi = _phase_matrix(n, body) @ psi
    return psi


# ------------------------------------------------------------------- checkers

def read_spectrum_csv(path: Path, n: int) -> np.ndarray:
    """Complex entries of a spectrum CSV, after checking row order and abs2."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    require(lines[0] == "x_bits,z_bits,re,im,abs2", f"{path.name}: header {lines[0]!r}")
    rows = lines[1:]
    size = 1 << n
    require(len(rows) == size * size, f"{path.name}: {len(rows)} rows, expected {size * size}")
    labels = [format(v, f"0{n}b")[::-1] + "," for v in range(size)]
    for v, row in enumerate(rows):
        if not row.startswith(labels[v >> n] + labels[v & (size - 1)]):
            raise CheckError(f"{path.name}: row {v} is {row!r}")
    nums = np.loadtxt(rows, delimiter=",", usecols=(2, 3, 4), ndmin=2)
    values = nums[:, 0] + 1j * nums[:, 1]
    require(np.allclose(nums[:, 2], np.abs(values) ** 2, rtol=0, atol=MAGNITUDE_TOL),
            f"{path.name}: abs2 column disagrees with re, im")
    return values


def check_spectrum(op) -> float:
    """``spectrum`` output: closed-form CSV and oracle CSV."""
    circuit = json.loads(op.input.read_text())
    n = circuit["n"]
    primary_path, oracle_path = op.output_files()
    primary = read_spectrum_csv(primary_path, n)
    written_oracle = read_spectrum_csv(oracle_path, n)
    truth = oracle_circuit_spectrum(circuit)
    dev = float(np.max(np.abs(np.abs(primary) - np.abs(truth))))
    require(dev <= MAGNITUDE_TOL, f"op {op.index}: |a| deviates from the oracle by {dev!r}")
    dev = float(np.max(np.abs(written_oracle - truth)))
    require(dev <= MAGNITUDE_TOL, f"op {op.index}: oracle CSV deviates by {dev!r}")
    check_properties(n, primary, f"op {op.index}")
    if n <= KRON_MAX_QUBITS:
        ref = kron_spectrum(kron_circuit_state(circuit), n)
        dev = float(np.max(np.abs(np.abs(primary) - np.abs(ref))))
        require(dev <= MAGNITUDE_TOL, f"op {op.index}: |a| deviates from Kronecker by {dev!r}")
    return f_of(primary, 2) / flat_bound(n, 2)


def check_magic(op) -> float:
    """``magic`` output: F_alpha, M_alpha and the reported bounds."""
    circuit = json.loads(op.input.read_text())
    payload = json.loads(op.output.read_text())
    n = circuit["n"]
    require(payload["n"] == n and payload["method"] == "transfer",
            f"op {op.index}: n={payload['n']}, method={payload['method']!r}")
    truth = oracle_circuit_spectrum(circuit)
    ref = kron_spectrum(kron_circuit_state(circuit), n) if n <= KRON_MAX_QUBITS else None
    require(sorted(r["alpha"] for r in payload["results"]) == [2, 3],
            f"op {op.index}: alphas {[r['alpha'] for r in payload['results']]}")
    f2 = None
    for res in payload["results"]:
        alpha, f = res["alpha"], res["F_alpha"]
        want = f_of(truth, alpha)
        require(close(f, want), f"op {op.index}: F_{alpha} = {f!r}, oracle {want!r}")
        if ref is not None:
            require(close(f, f_of(ref, alpha)), f"op {op.index}: F_{alpha} off Kronecker")
        check_f_bounds(n, alpha, f, f"op {op.index}")
        require(res["flat_bound"] == flat_bound(n, alpha) and res["stabilizer_max"] == 2.0 ** n,
                f"op {op.index}: reported bounds {res['flat_bound']!r}, {res['stabilizer_max']!r}")
        m_want = math.log2(f * 2.0 ** (-n * alpha)) / (1 - alpha) - n
        require(res["M_alpha"] >= 0.0 and abs(res["M_alpha"] - m_want) <= RELATIVE_TOL,
                f"op {op.index}: M_{alpha} = {res['M_alpha']!r}, from F {m_want!r}")
        if alpha == 2:
            f2 = f
    # a pure state has at least 2^n nonzero entries, since each |a| <= 1
    require(2 ** n <= payload["support"] <= 4 ** n and 0.0 <= payload["nullity"] <= n,
            f"op {op.index}: support {payload['support']}, nullity {payload['nullity']!r}")
    return f2 / flat_bound(n, 2)


def pipeline_json(op, results) -> str:
    """The optimize operation's output: every returned block and its figures."""
    layers = [{
        "clifford": [list(g) for g in r.block.clifford.gates],
        "w": list(r.block.w.values),
        "f_before": r.f_before,
        "f_after": r.f_after,
        "iterations": r.iterations,
    } for r in results]
    return json.dumps({"n": op.n, "config": op.config, "layers": layers}, sort_keys=True) + "\n"


def check_optimize(op) -> float:
    """``run_pipeline`` output: each f_after reproduced from the returned blocks."""
    tableau = json.loads(op.input.read_text())
    layers = json.loads(op.output.read_text())["layers"]
    n = op.n
    require(len(layers) >= 1, f"op {op.index}: no layers")
    require(layers[0]["f_before"] == 2.0 ** n,
            f"op {op.index}: layer 0 starts from F_2 = {layers[0]['f_before']!r}")
    spectra = oracle_layer_spectra(tableau, layers)
    psi = kron_state(tableau) if n <= KRON_MAX_QUBITS else None
    for k, (layer, values) in enumerate(zip(layers, spectra)):
        what = f"op {op.index} layer {k}"
        f = layer["f_after"]
        require(f <= layer["f_before"] * (1 + ROUNDING),
                f"{what}: f_after {f!r} above f_before {layer['f_before']!r}")
        if k:
            require(close(layer["f_before"], layers[k - 1]["f_after"], ROUNDING),
                    f"{what}: f_before is not the previous layer's f_after")
        require(layer["iterations"] >= 1, f"{what}: {layer['iterations']} iterations")
        check_properties(n, values, what)
        require(close(f, f_of(values, 2)), f"{what}: f_after {f!r}, oracle {f_of(values, 2)!r}")
        if psi is not None:
            for gate in layer["clifford"]:
                psi = _gate_matrix(n, gate) @ psi
            psi = _rotation_matrix(layer["w"]) @ psi
            require(close(f, f_of(kron_spectrum(psi, n), 2)), f"{what}: f_after off Kronecker")
    return layers[-1]["f_after"] / flat_bound(n, 2)


CHECKERS = {"spectrum": check_spectrum, "magic": check_magic, "optimize": check_optimize}
