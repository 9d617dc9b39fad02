"""Command line interface.

Subcommands: spectrum, magic, optimize, verify, zero-magic, nogo, support.
Every output (JSON or CSV) embeds the run manifest: tool version, command,
input paths, the effective options and, for the commands that draw random
numbers (optimize, verify, nogo), the seed.  Outputs contain no
timestamps, so identical manifests produce byte-identical files.  File
outputs are written atomically: all of a command's files go to temporary
files in their target directories before any is renamed into place, and
`spectrum -o FILE` renames FILE last.  `nogo` reads circuit JSON.

Exit codes: 0 success, 1 verification or search failure, 2 input/validation
error or an unwritable -o path.  Failures print a JSON object on stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import tempfile
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .diagonal_gates import RotationVector, random_polynomial
from .errors import CapacityError, MagicforgeError, SearchError, ValidationError
from .oracle import apply_diagonal, apply_gates, apply_rotation, oracle_spectrum, statevector
from .optimizer import config_from_dict, run_pipeline
from .spectrum import (
    MAX_SPECTRUM_QUBITS,
    PauliSpectrum,
    f_alpha,
    flat_bound,
    nullity,
    shallow_spectrum,
    spectrum_csv_rows,
    sre,
    stabilizer_max,
    support_size,
)
from .stabilizer import StabilizerTableau, canonicalize, plus_tableau, random_stabilizer
from .theorems import construct_zero_magic, nogo_witness, support_ceiling
from .transfer import (
    LayerBlock,
    ParsedCircuit,
    _layer_to_json,
    apply_block,
    circuit_from_json,
    initial_spectrum,
    random_clifford,
)

_TOLERANCE_VERIFY = 1e-10


class VerificationFailure(MagicforgeError):
    """A CLI-level check did not pass; maps to exit code 1."""


def _manifest(command: str, inputs: list[str], options: dict, seed: int | None = None) -> dict:
    """The run manifest; only the commands that draw random numbers give a seed."""
    manifest = {"tool": "magicforge", "version": __version__, "command": command,
                "inputs": inputs, "options": options}
    return manifest if seed is None else {**manifest, "seed": seed}


@functools.cache
def _new_file_mode() -> int:
    """0o666 less the process umask: the mode ``open(path, "w")`` gives a new
    file.  Reading the umask means setting it, so it is read once."""
    umask = os.umask(0o022)
    os.umask(umask)
    return 0o666 & ~umask


def _atomic_write(path: str | None, pieces: Iterable[str], *more: tuple[str, Iterable]) -> None:
    """Write the pieces in order, to ``path`` or to standard output, drawing
    each from the iterable only when it is written; no joined copy of them
    is made.  The (path, pieces) pairs of ``more`` go to files too.  Every
    file is written to a temporary file, and only then are they renamed into
    place, ``path`` last.  Files get the mode a plain ``open(path, "w")``
    gives, not `tempfile.mkstemp`'s 0600.  If anything raises, the temporary
    files go and ``path`` keeps its old bytes.  A file that cannot be created
    or renamed into place is bad input: ValidationError."""
    if path is None:
        sys.stdout.writelines(pieces)
        return
    files = [(path, pieces), *more]
    temps: list[str] = []
    try:
        for target, body in files:
            try:
                fd, tmp = tempfile.mkstemp(prefix=".magicforge.",
                                           dir=os.path.dirname(os.path.abspath(target)))
            except OSError as exc:
                raise ValidationError(f"cannot write {target}: {exc}") from exc
            temps.append(tmp)
            with os.fdopen(fd, "w") as fh:
                fh.writelines(body)
                os.fchmod(fh.fileno(), _new_file_mode())
        for (target, _), tmp in reversed(list(zip(files, temps))):
            try:
                os.replace(tmp, target)
            except OSError as exc:
                raise ValidationError(f"cannot write {target}: {exc}") from exc
    except BaseException:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_pieces(manifest: dict, header: list[str], body: Iterable[str],
                extra_comments: list[str] = ()) -> Iterator[str]:
    """The comment lines and header, then the pieces of ``body``: a CSV file
    for `_atomic_write`; no field holds a comma, quote or newline."""
    comments = "".join("# " + line + "\n" for line in extra_comments)
    manifest_line = "# manifest: " + json.dumps(manifest, sort_keys=True) + "\n"
    return itertools.chain((manifest_line + comments + ",".join(header) + "\n",), body)


def _load_json(path: str) -> dict:
    """Read a JSON input file; every command takes an object at the top level."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{path} must hold a JSON object, got {type(obj).__name__}")
    return obj


def _oracle_run(parsed: ParsedCircuit):
    st = statevector(parsed.initial)
    for kind, obj in parsed.layers:
        if kind == "clifford":
            st = apply_gates(st, obj.gates)
        elif kind == "sqr":
            st = apply_rotation(st, obj)
        else:
            st = apply_diagonal(st, obj)
    return st


def _method(parsed: ParsedCircuit) -> str:
    """"shallow" for Clifford layers then exactly one final gate layer (the
    paper's ansatz 1), "transfer" for every other circuit; both run the fold."""
    kinds = [kind for kind, _ in parsed.layers]
    shallow = kinds[-1:] == ["gate"] and set(kinds[:-1]) <= {"clifford"}
    return "shallow" if shallow else "transfer"


def _spectrum_csv(s: PauliSpectrum, manifest: dict, comments: list[str]) -> Iterator[str]:
    """The CSV pieces, built when the first is drawn: one spectrum's at a time."""
    yield from _csv_pieces(
        manifest, ["x_bits", "z_bits", "re", "im", "abs2"], spectrum_csv_rows(s), comments
    )


def _cmd_spectrum(args) -> int:
    parsed = circuit_from_json(_load_json(args.circuit))
    manifest = _manifest("spectrum", [args.circuit], {})
    spec = parsed.spectrum()
    oracle_spec = oracle_spectrum(_oracle_run(parsed))
    dev = float(np.max(np.abs(spec.values - oracle_spec.values)))
    comments = [f"source: {_method(parsed)}", f"max_abs_deviation_vs_oracle: {dev!r}"]
    # every check has run by here: the pieces below only format, block by block
    oracle = () if args.output is None else (
        (args.output + ".oracle.csv", _spectrum_csv(oracle_spec, manifest, ["source: oracle"])),)
    _atomic_write(args.output, _spectrum_csv(spec, manifest, comments), *oracle)
    return 0


def _cmd_magic(args) -> int:
    parsed = circuit_from_json(_load_json(args.circuit))
    alphas = sorted(set(args.alpha))
    manifest = _manifest("magic", [args.circuit], {"alpha": alphas})
    spec = parsed.spectrum()
    results = []
    for a in alphas:
        results.append(
            {
                "alpha": a,
                "n": parsed.n,
                "F_alpha": f_alpha(spec, a),
                "M_alpha": sre(spec, a),
                "flat_bound": flat_bound(parsed.n, a),
                "stabilizer_max": stabilizer_max(parsed.n),
            }
        )
    payload = {
        "manifest": manifest,
        "n": parsed.n,
        "method": _method(parsed),
        "results": results,
        "nullity": nullity(spec),
        "support": support_size(spec),
    }
    _atomic_write(args.output, [_json_text(payload)])
    return 0


def _cmd_optimize(args) -> int:
    tab = StabilizerTableau.from_json(_load_json(args.tableau))
    cfg_dict = _load_json(args.config) if args.config else {}
    if "seed" in cfg_dict:
        raise ValidationError(f"{args.config}: the optimizer seed is set with --seed only")
    cfg_dict["seed"] = args.seed
    config = config_from_dict(cfg_dict)
    # each given key as the config read it, so 2.0 and 2 give one manifest
    read = {key: getattr(config, key) for key in cfg_dict}
    manifest = _manifest("optimize", [args.tableau] + ([args.config] if args.config else []),
                         {"layers": args.layers, "config": read}, args.seed)
    results = run_pipeline(tab, args.layers, config)
    rows = [
        (i, repr(res.f_before), repr(res.f_after),
         support_size(res.spectrum_after), repr(nullity(res.spectrum_after)))
        for i, res in enumerate(results)
    ]
    body = [",".join(map(str, row)) + "\n" for row in rows]
    pieces = _csv_pieces(manifest, ["layer", "f_before", "f_after", "support", "nullity"], body)
    _atomic_write(args.output, pieces)
    return 0


def _verify_case(n: int, seed_parts: tuple) -> float:
    rng = np.random.default_rng(list(seed_parts))
    tab = random_stabilizer(n, int(rng.integers(1 << 30)))
    gate = random_polynomial(n, rng)
    spec = shallow_spectrum(canonicalize(tab), gate)
    witness = oracle_spectrum(apply_diagonal(statevector(tab), gate))
    draw = {"clifford": lambda: random_clifford(n, rng), "gate": lambda: random_polynomial(n, rng),
            "sqr": lambda: RotationVector.continuous(rng.uniform(0.0, 1.0, n))}
    kinds = rng.permutation(["clifford", "sqr", "gate", "clifford"]).tolist()
    mixed = ParsedCircuit(n, tab, tuple((kind, draw[kind]()) for kind in kinds))
    mixed_witness = oracle_spectrum(_oracle_run(mixed))
    return float(max(np.max(np.abs(spec.values - witness.values)),
                     np.max(np.abs(mixed.spectrum().values - mixed_witness.values))))


def _cmd_verify(args) -> int:
    if args.n_max > MAX_SPECTRUM_QUBITS:
        raise CapacityError(f"verify cap is n={MAX_SPECTRUM_QUBITS}, got --n-max {args.n_max}")
    options = {"n_max": args.n_max, "cases": args.cases, "tolerance": _TOLERANCE_VERIFY}
    manifest = _manifest("verify", [], options, args.seed)
    devs = [
        _verify_case(n, (args.seed, n, i))
        for n in range(1, args.n_max + 1) for i in range(args.cases)
    ]
    worst = max(devs)
    passed = worst <= _TOLERANCE_VERIFY
    payload = {
        "manifest": manifest,
        "cases_per_n": args.cases,
        "n_values": list(range(1, args.n_max + 1)),
        "max_abs_deviation": worst,
        "tolerance": _TOLERANCE_VERIFY,
        "passed": passed,
    }
    _atomic_write(args.output, [_json_text(payload)])
    if not passed:
        raise VerificationFailure(
            f"closed form deviates from the oracle by {worst!r} > {_TOLERANCE_VERIFY}"
        )
    return 0


def _cmd_zero_magic(args) -> int:
    tab = StabilizerTableau.from_json(_load_json(args.tableau))
    manifest = _manifest("zero-magic", [args.tableau], {"k": args.k})
    cert = construct_zero_magic(tab, args.k)
    payload = {
        "manifest": manifest,
        "k": cert.k,
        "level": cert.level,
        "gate": cert.gate.to_json(),
        "tableau": cert.tableau.to_json(),
        "f_alpha": {str(a): v for a, v in sorted(cert.f_alpha_values.items())},
        "nullity": cert.nullity_after,
        "stabilizer_confirmed": cert.stabilizer_confirmed,
    }
    _atomic_write(args.output, [_json_text(payload)])
    return 0


def _cmd_nogo(args) -> int:
    obj = _load_json(args.circuit)
    if "initial" in obj:
        raise ValidationError(f"{args.circuit}: nogo draws its own input states, "
                              "so its circuit has no 'initial'")
    parsed = circuit_from_json(obj)
    manifest = _manifest("nogo", [args.circuit], {"alpha": args.alpha, "trials": args.trials},
                         args.seed)
    wit = nogo_witness(parsed.layers, alpha=args.alpha, trials=args.trials, seed=args.seed)

    def layers_json(layers):
        return [{kind: _layer_to_json(kind, obj)} for kind, obj in layers]

    def state_payload(ws):
        return {
            "tableau": ws.tableau.to_json(),
            "pre_layers": layers_json(ws.pre_layers),
            "f_before": ws.f_before,
            "f_after": ws.f_after,
            "delta": ws.delta,
        }

    payload = {
        "manifest": manifest,
        "alpha": wit.alpha,
        "n": parsed.n,
        "layers": layers_json(wit.layers),
        "increase": state_payload(wit.increase),
        "decrease": state_payload(wit.decrease),
        "trials_used": wit.trials_used,
    }
    _atomic_write(args.output, [_json_text(payload)])
    return 0


def _cmd_support(args) -> int:
    w = RotationVector.from_json(_load_json(args.rotation))
    if w.n > MAX_SPECTRUM_QUBITS:
        raise CapacityError(f"support cap is n={MAX_SPECTRUM_QUBITS}, got n={w.n}")
    manifest = _manifest("support", [args.rotation], {})
    ceiling = support_ceiling(w)
    layer = LayerBlock(w.n, None, w)
    counted = support_size(apply_block(initial_spectrum(plus_tableau(w.n)), layer))
    payload = {
        "manifest": manifest,
        "n": w.n,
        "ceiling": ceiling,
        "counted": counted,
    }
    _atomic_write(args.output, [_json_text(payload)])
    return 0


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {seed}")
    return seed


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="magicforge",
        description="Magic spectra, bounds and optimization for Clifford + diagonal circuits",
    )
    parser.add_argument("--version", action="version", version=f"magicforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        if seeded:  # only the commands that draw random numbers
            p.add_argument("--seed", type=_seed, default=0, help="single seed for all randomness")
        p.add_argument("-o", "--output", default=None, help="output path (default: stdout)")

    p = sub.add_parser("spectrum", help="exact spectrum and oracle check as CSV")
    p.add_argument("circuit", help="circuit JSON path")
    common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("magic", help="F_alpha, M_alpha, nullity, support, bounds as JSON")
    p.add_argument("circuit", help="circuit JSON path")
    p.add_argument("--alpha", type=int, nargs="+", default=[2])
    common(p)
    p.set_defaults(func=_cmd_magic)

    p = sub.add_parser("optimize", help="greedy per-layer angle optimization; trajectory CSV")
    p.add_argument("tableau", help="initial stabilizer tableau JSON path")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--config", default=None, help="optimizer config JSON path")
    common(p, seeded=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("verify", help="random closed-form vs oracle sweep")
    p.add_argument("--n-max", type=_positive_int, default=5, dest="n_max")
    p.add_argument("--cases", type=_positive_int, default=200, help="cases per qubit count")
    common(p, seeded=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("zero-magic", help="level-k gate that adds no magic to a state")
    p.add_argument("tableau", help="stabilizer tableau JSON path")
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_zero_magic)

    p = sub.add_parser("nogo", help="witness that one layer sequence raises and lowers F_alpha")
    p.add_argument("circuit", help="circuit JSON path: 'clifford' and 'sqr' layers, no 'initial'")
    p.add_argument("--alpha", type=int, default=2)
    p.add_argument("--trials", type=_positive_int, default=200)
    common(p, seeded=True)
    p.set_defaults(func=_cmd_nogo)

    p = sub.add_parser("support", help="rotation-layer support ceiling vs attained count")
    p.add_argument("rotation", help="rotation JSON path ({'m','k'} or {'w'})")
    common(p)
    p.set_defaults(func=_cmd_support)

    return parser


def run_command(argv=None) -> int:
    """Parse argv, dispatch, and map failures onto the documented exit codes."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SearchError, VerificationFailure) as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "kind": type(exc).__name__}) + "\n")
        return 1
    except ValidationError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "kind": type(exc).__name__}) + "\n")
        return 2


# console-script entry point
main = run_command


if __name__ == "__main__":
    sys.exit(run_command())
