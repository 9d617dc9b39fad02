"""End-to-end command line behavior: files, manifests, exit codes."""

import hashlib
import importlib.util
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import magicforge
from magicforge.cli import (
    _atomic_write,
    _build_parser,
    _new_file_mode,
    _oracle_run,
    main,
)
from magicforge.diagonal_gates import RotationVector, random_polynomial
from magicforge.oracle import oracle_spectrum
from magicforge.optimizer import config_from_dict, run_pipeline
from magicforge.spectrum import f_alpha, nullity, support_size
from magicforge.stabilizer import StabilizerTableau, plus_tableau, random_stabilizer
from magicforge.transfer import (
    CliffordOp,
    LayerBlock,
    _layer_to_json,
    circuit_from_json,
    random_clifford,
)

from helpers import csv_writer_text, graph_gate_circuit_json


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "circ.json"
    path.write_text(json.dumps({
        "n": 1,
        "layers": [{"gate": {"n": 1, "terms": [{"m": 3, "a": "1", "c": 1}]}}],
    }))
    return str(path)


@pytest.fixture
def tableau_file(tmp_path):
    path = tmp_path / "tab.json"
    path.write_text(json.dumps({"n": 1, "generators": ["+X"]}))
    return str(path)


@pytest.fixture
def nogo_file(tmp_path):
    # one Clifford + rotation block, as nogo reads it: a circuit without 'initial'
    path = tmp_path / "block.json"
    path.write_text(json.dumps({
        "n": 1, "layers": [{"clifford": [["H", 0]]}, {"sqr": {"m": 3, "k": [1]}}],
    }))
    return str(path)


def mixed_circuit_json(n, seed):
    """Random stabilizer -> Clifford -> rotations -> gate -> Clifford."""
    rng = np.random.default_rng(seed)
    cliffords = [[list(g) for g in random_clifford(n, rng).gates] for _ in range(2)]
    return {
        "n": n,
        "initial": random_stabilizer(n, int(rng.integers(1 << 30))).to_json(),
        "layers": [
            {"clifford": cliffords[0]},
            {"sqr": {"w": rng.uniform(0.0, 1.0, n).tolist()}},
            {"gate": random_polynomial(n, rng).to_json()},
            {"clifford": cliffords[1]},
        ],
    }


def deviation_comment(path):
    prefix = "# max_abs_deviation_vs_oracle: "
    (line,) = [line for line in Path(path).read_text().splitlines() if line.startswith(prefix)]
    return float(line[len(prefix):])


def read_manifest_line(path):
    with open(path) as fh:
        first = fh.readline()
    assert first.startswith("# manifest: ")
    return json.loads(first[len("# manifest: "):])


class TestSpectrum:
    def test_writes_primary_and_oracle_files(self, circuit_file, tmp_path):
        out = str(tmp_path / "spec.csv")
        assert main(["spectrum", circuit_file, "-o", out]) == 0
        man = read_manifest_line(out)
        assert man["command"] == "spectrum" and man["tool"] == "magicforge"
        oracle_man = read_manifest_line(out + ".oracle.csv")
        assert oracle_man["command"] == "spectrum"
        body = Path(out).read_text()
        assert "x_bits,z_bits,re,im,abs2" in body
        assert "source: shallow" in body
        assert "source: oracle" in Path(out + ".oracle.csv").read_text()

    def test_deterministic_bytes(self, circuit_file, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["spectrum", circuit_file, "-o", a])
        main(["spectrum", circuit_file, "-o", b])
        assert Path(a).read_text() == Path(b).read_text()

    def test_gate_before_clifford_runs_the_fold(self, tmp_path):
        # a gate that is not the last layer: the primary file still comes from the fold
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "n": 2,
            "layers": [
                {"gate": {"n": 2, "terms": [{"m": 2, "a": "11", "c": 1}]}},
                {"clifford": [["H", 0]]},
            ],
        }))
        out = str(tmp_path / "spec.csv")
        assert main(["spectrum", str(path), "-o", out]) == 0
        assert "# source: transfer" in Path(out).read_text().splitlines()
        assert deviation_comment(out) <= 1e-10

    def test_mixed_circuit_at_the_cap(self, tmp_path):
        # stabilizer -> Clifford -> rotations -> gate -> Clifford at n = 8
        path = tmp_path / "c.json"
        path.write_text(json.dumps(mixed_circuit_json(8, 3)))
        out = str(tmp_path / "spec.csv")
        assert main(["spectrum", str(path), "-o", out]) == 0
        assert "# source: transfer" in Path(out).read_text().splitlines()
        assert deviation_comment(out) <= 1e-10

    def test_atomic_write_pieces(self, tmp_path, capsys):
        # the pieces land in order, in the file and on standard output alike
        pieces = ("# manifest: {}\n", "x,y\n", "0,1\n" * 1000)
        out = tmp_path / "pieces.csv"
        _atomic_write(str(out), iter(pieces))
        assert out.read_bytes() == "".join(pieces).encode()
        _atomic_write(None, iter(pieces))
        assert capsys.readouterr().out == "".join(pieces)

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        # a piece that cannot be written stops the write before the rename
        out = tmp_path / "broken.csv"
        with pytest.raises(TypeError):
            _atomic_write(str(out), ["header\n", b"not text"])
        assert list(tmp_path.iterdir()) == []

    def test_atomic_write_failing_body_keeps_the_target(self, tmp_path):
        # a body that raises after its first piece: no temp file, old bytes kept
        out = tmp_path / "spec.csv"
        out.write_bytes(b"old bytes\n")

        def body():
            yield "# manifest: {}\n"
            raise MemoryError("body failed after its first piece")

        with pytest.raises(MemoryError):
            _atomic_write(str(out), body())
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_bytes() == b"old bytes\n"

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_outputs_get_the_mode_of_a_plain_open(self, umask, circuit_file, tmp_path):
        out = tmp_path / "spec.csv"
        old = os.umask(umask)
        _new_file_mode.cache_clear()
        try:
            with open(tmp_path / "plain.txt", "w"):
                pass
            assert main(["spectrum", circuit_file, "-o", str(out)]) == 0
        finally:
            os.umask(old)
            _new_file_mode.cache_clear()
        want = stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)
        assert want == 0o666 & ~umask
        for path in (out, Path(str(out) + ".oracle.csv")):
            assert stat.S_IMODE(path.stat().st_mode) == want

    def test_stdout_holds_the_file_bytes(self, tmp_path, capsys):
        # at n = 6 the body goes out as 4 pieces of 16 sectors each
        path = tmp_path / "c.json"
        path.write_text(json.dumps(mixed_circuit_json(6, 2)))
        out = tmp_path / "spec.csv"
        assert main(["spectrum", str(path), "-o", str(out)]) == 0
        assert main(["spectrum", str(path)]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_stdout_is_one_csv(self, tmp_path, capsys):
        # without -o only the primary CSV is written; the oracle check stays a comment
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "n": 2,
            "layers": [{"gate": {"n": 2, "terms": [{"m": 3, "a": "11", "c": 1}]}}],
        }))
        assert main(["spectrum", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("# manifest: ") for line in lines) == 1
        assert "# source: shallow" in lines
        assert any(line.startswith("# max_abs_deviation_vs_oracle: ") for line in lines)
        rows = [line for line in lines if not line.startswith("#")]
        assert rows[0] == "x_bits,z_bits,re,im,abs2"
        assert len(rows) == 1 + 4**2


class TestMagic:
    def test_json_payload(self, circuit_file, tmp_path):
        out = str(tmp_path / "magic.json")
        assert main(["magic", circuit_file, "--alpha", "2", "3", "-o", out]) == 0
        data = json.loads(Path(out).read_text())
        assert data["n"] == 1 and data["method"] == "shallow"
        by_alpha = {r["alpha"]: r for r in data["results"]}
        assert abs(by_alpha[2]["F_alpha"] - 1.5) < 1e-12
        assert abs(by_alpha[3]["F_alpha"] - 1.25) < 1e-12
        assert abs(by_alpha[2]["M_alpha"] - math.log2(4 / 1.5) + 1) < 1e-12
        assert abs(by_alpha[2]["flat_bound"] - 1.5) < 1e-12
        assert data["support"] == 3
        assert "manifest" in data

    def test_stdout_mode(self, circuit_file, capsys):
        assert main(["magic", circuit_file]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["results"][0]["alpha"] == 2

    @pytest.mark.parametrize("kinds, method", [
        ([], "transfer"),
        (["gate"], "shallow"),
        (["clifford", "clifford", "gate"], "shallow"),
        (["sqr", "gate"], "transfer"),
        (["gate", "gate"], "transfer"),
        (["clifford", "sqr"], "transfer"),
    ])
    def test_method_names_the_shape(self, kinds, method, tmp_path, capsys):
        layer = {"clifford": {"clifford": [["H", 0]]}, "sqr": {"sqr": {"w": [0.1]}},
                 "gate": {"gate": {"terms": [{"m": 3, "a": "1", "c": 1}]}}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 1, "layers": [layer[k] for k in kinds]}))
        assert main(["magic", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == method

    def test_each_moment_summed_once(self, tmp_path, monkeypatch):
        # F_2 and F_3 are one compensated sum each; M_alpha and the norm check add none
        path, out = tmp_path / "c.json", str(tmp_path / "magic.json")
        path.write_text(json.dumps(mixed_circuit_json(6, 5)))
        calls = []
        real = math.fsum
        monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or real(xs))
        assert main(["magic", str(path), "--alpha", "2", "3", "-o", out]) == 0
        assert len(calls) == 2
        by_alpha = {r["alpha"]: r for r in json.loads(Path(out).read_text())["results"]}
        for a in (2, 3):
            f = by_alpha[a]["F_alpha"]
            assert by_alpha[a]["M_alpha"] == math.log2(f * 2.0 ** (-6 * a)) / (1 - a) - 6

    @pytest.mark.parametrize("angle", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_angle_exits_2(self, angle, tmp_path, capsys):
        # Python's json module reads these literals; F_alpha must never be written as NaN
        path = tmp_path / "c.json"
        path.write_text('{"n": 2, "layers": [{"sqr": {"w": [%s, 0.1]}}]}' % angle)
        assert main(["magic", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["kind"] == "ValidationError"

    @pytest.mark.parametrize("alpha", ["300", str(10**20)])
    def test_alpha_past_the_normal_range(self, alpha, tmp_path):
        path, out = tmp_path / "c.json", str(tmp_path / "magic.json")
        path.write_text(json.dumps({"n": 4, "layers": [{"sqr": {"w": [0.1, 0.2, 0.3, 0.05]}}]}))
        assert main(["magic", str(path), "--alpha", alpha, "-o", out]) == 0
        (result,) = json.loads(Path(out).read_text())["results"]
        f, a = result["F_alpha"], int(alpha)
        assert abs(result["M_alpha"] - (math.log2(f) - 4) / (1 - a)) <= 1e-15

    def test_mixed_circuit_never_calls_the_oracle(self, tmp_path, monkeypatch):
        body = mixed_circuit_json(6, 4)
        want = f_alpha(oracle_spectrum(_oracle_run(circuit_from_json(body))), 2)

        def no_oracle(*args, **kwargs):
            raise AssertionError("magic ran the oracle")

        monkeypatch.setattr("magicforge.cli.oracle_spectrum", no_oracle)
        path, out = tmp_path / "c.json", str(tmp_path / "magic.json")
        path.write_text(json.dumps(body))
        assert main(["magic", str(path), "-o", out]) == 0
        data = json.loads(Path(out).read_text())
        assert data["method"] == "transfer"
        assert abs(data["results"][0]["F_alpha"] - want) <= 1e-10


class TestCapacity:
    @pytest.mark.parametrize("command", ["magic", "spectrum"])
    @pytest.mark.parametrize("shape", ["gate-clifford", "clifford", "clifford-gate"])
    def test_cap_plus_one_before_any_dense_allocation(self, command, shape, tmp_path,
                                                      capsys):
        n = 9
        gate = {"gate": {"terms": [{"m": 3, "a": "1" * n, "c": 1}]}}
        clifford = {"clifford": [["H", 0], ["CX", 0, n - 1]]}
        layers = {"gate-clifford": [gate, clifford], "clifford": [clifford],
                  "clifford-gate": [clifford, gate]}[shape]
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": n, "layers": layers}))
        tracemalloc.start()
        try:
            code = main([command, str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "CapacityError" and err["error"].startswith("circuit spectrum cap")
        # one float64 entry per label would take 8 * 4**n bytes
        assert peak < 8 * 4**n

    def test_spectrum_at_the_cap_stays_below_4_mib(self, tmp_path):
        # a graph state and a level-4 gate at n = 8, two CSVs of 4**8 rows: the
        # peak is set by the float spectra, not by a whole CSV body as text
        path = tmp_path / "c.json"
        path.write_text(json.dumps(graph_gate_circuit_json(8, 5)))
        argv = ["spectrum", str(path), "-o", str(tmp_path / "spec.csv")]
        assert main(argv) == 0  # warm: caches and lazy imports
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4 * 2**20


    def test_optimize_cap_plus_one_before_any_dense_allocation(self, tmp_path, capsys):
        n = 9
        path = tmp_path / "tab.json"
        path.write_text(json.dumps(plus_tableau(n).to_json()))
        tracemalloc.start()
        try:
            code = main(["optimize", str(path), "--layers", "2"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "CapacityError"
        assert peak < 8 * 4**n

    @pytest.mark.parametrize("command", ["nogo", "zero-magic"])
    def test_theorem_commands_cap_plus_one_before_any_dense_allocation(self, command, tmp_path,
                                                                      capsys):
        n = 9
        path = tmp_path / "in.json"
        if command == "nogo":
            block = {"n": n, "layers": [{"clifford": [["H", 0]]}, {"sqr": {"m": 3, "k": [1] * n}}]}
            path.write_text(json.dumps(block))
            argv = ["nogo", str(path)]
        else:
            path.write_text(json.dumps(plus_tableau(n).to_json()))
            argv = ["zero-magic", str(path), "--k", "3"]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "CapacityError"
        # one float64 entry per label would take 8 * 4**n bytes
        assert peak < 8 * 4**n


class TestOptimize:
    def test_trajectory_csv(self, tableau_file, tmp_path):
        out = str(tmp_path / "traj.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"restarts": 4}))
        code = main([
            "optimize", tableau_file, "--layers", "2",
            "--config", str(cfg), "-o", out,
        ])
        assert code == 0
        lines = [l for l in Path(out).read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "layer,f_before,f_after,support,nullity"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[1]) == 2.0
        assert float(first[2]) <= 1.5 + 1e-6

    def test_trajectory_bytes_match_csv_writer(self, tableau_file, tmp_path):
        out = str(tmp_path / "traj.csv")
        assert main(["optimize", tableau_file, "--layers", "2", "--seed", "3", "-o", out]) == 0
        tab = StabilizerTableau.from_json(json.loads(Path(tableau_file).read_text()))
        results = run_pipeline(tab, 2, config_from_dict({"seed": 3}))
        rows = [["layer", "f_before", "f_after", "support", "nullity"]] + [
            (i, repr(r.f_before), repr(r.f_after), support_size(r.spectrum_after),
             repr(nullity(r.spectrum_after)))
            for i, r in enumerate(results)
        ]
        manifest_line, body = Path(out).read_text().split("\n", 1)
        assert manifest_line.startswith("# manifest: ")
        assert body == csv_writer_text(rows)

    def test_bad_config_key_exits_2(self, tableau_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = main(["optimize", tableau_file, "--layers", "1", "--config", str(cfg)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "ValidationError"

    @pytest.mark.parametrize("config", [{"alpha": "abc"}, {"restarts": "x"}, {"seed": -1},
                                        {"step": float("nan")}, {"tol": float("inf")},
                                        {"step": True}, {"tol": True}, {"tol": "1e-3"}])
    def test_bad_config_value_exits_2(self, config, tableau_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main(["optimize", tableau_file, "--layers", "1", "--config", str(cfg)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "ValidationError"

    @pytest.mark.parametrize("config", [{"restarts": 2.5}, {"max_iters": 2.5},
                                        {"clifford_pool": 2.5}, {"seed": 1.5},
                                        {"restarts": True}, {"seed": False}])
    def test_non_integer_count_exits_2(self, config, tableau_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main(["optimize", tableau_file, "--layers", "1", "--config", str(cfg)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "ValidationError"

    def test_config_seed_exits_2(self, tableau_file, tmp_path, capsys):
        # one seed source: a config-file seed would silently override --seed
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "restarts": 1}))
        out = tmp_path / "traj.csv"
        code = main(["optimize", tableau_file, "--layers", "1", "--seed", "3",
                     "--config", str(cfg), "-o", str(out)])
        assert code == 2 and not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "ValidationError" and "--seed" in err["error"]

    def test_whole_float_counts_run_as_integers(self, tableau_file, tmp_path):
        # whole files, manifest line included: counts as int, step and tol as float
        files = []
        for counts in ({"restarts": 2.0, "max_iters": 3.0, "clifford_pool": 4.0, "tol": 1},
                       {"restarts": 2, "max_iters": 3, "clifford_pool": 4, "tol": 1.0}):
            cfg, out = tmp_path / "cfg.json", tmp_path / "traj.csv"
            cfg.write_text(json.dumps(counts))
            assert main(["optimize", tableau_file, "--layers", "2", "--config", str(cfg),
                         "-o", str(out)]) == 0
            files.append(out.read_text())
        assert files[0] == files[1]
        assert '"restarts": 2,' in files[0] and '"tol": 1.0' in files[0]

    def test_whole_float_alpha_accepted(self, tableau_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 2.0, "restarts": 1}))
        out = str(tmp_path / "traj.csv")
        assert main(["optimize", tableau_file, "--layers", "1", "--config", str(cfg),
                     "-o", out]) == 0
        alpha = config_from_dict({"alpha": 2.0}).alpha
        assert alpha == 2 and type(alpha) is int


class TestVerify:
    def test_small_sweep_passes(self, tmp_path):
        out = str(tmp_path / "verify.json")
        code = main(["verify", "--n-max", "2", "--cases", "5", "-o", out])
        assert code == 0
        data = json.loads(Path(out).read_text())
        assert data["passed"] is True
        assert data["max_abs_deviation"] <= data["tolerance"]

    def test_traced_sweep_counts_the_shallow_phase_evaluations(self, capsys):
        # the benchmark's tracer reads r off the tableau that verify hands to
        # shallow_spectrum, canonicalize's result: the one traced path that
        # reads a canonical tableau, which no benchmark workload runs
        path = Path(__file__).resolve().parents[1] / "magicbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("magicbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.begin_op(0)
            code = magicforge.cli.run_command(["verify", "--n-max", "4", "--cases", "2"])
        finally:
            tracer.uninstall()
        assert code == 0 and json.loads(capsys.readouterr().out)["passed"] is True
        assert {"canonicalize", "shallow_spectrum"} <= {s.name for s in tracer.spans}
        assert tracer.layer_metrics(1)["spectrum.phase_evals"] > 0

    def test_cap_checked_before_any_case(self, monkeypatch, capsys):
        def no_case(*args, **kwargs):
            raise AssertionError("a case ran before the cap check")

        monkeypatch.setattr("magicforge.cli._verify_case", no_case)
        assert main(["verify", "--n-max", "9", "--cases", "1"]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "CapacityError"


class TestZeroMagic:
    def test_certificate_payload(self, tmp_path):
        tab = tmp_path / "t.json"
        tab.write_text(json.dumps({"n": 3, "generators": ["+ZII", "+IXI", "+IIX"]}))
        out = str(tmp_path / "cert.json")
        assert main(["zero-magic", str(tab), "--k", "3", "-o", out]) == 0
        data = json.loads(Path(out).read_text())
        assert data["level"] == 3
        assert data["stabilizer_confirmed"] is True
        assert abs(data["f_alpha"]["2"] - 8.0) < 1e-9

    def test_impossible_k_exits_2(self, tmp_path, capsys):
        tab = tmp_path / "t.json"
        tab.write_text(json.dumps({"n": 2, "generators": ["+XI", "+IX"]}))
        assert main(["zero-magic", str(tab), "--k", "3"]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "ValidationError"

    @pytest.mark.parametrize("generators, k, digest", [
        (["-XXXZ", "+ZIZZ", "-ZIZI", "-ZZII"], 3,
         "cf729c4492784e38ece7de2a7aec8df7bda2fd9ec081d8cf9150401829a43070"),
        (["+IYXZIX", "-IIIZII", "-XIYIZZ", "-XIYZIZ", "-YIXZII", "-YZXIIZ"], 4,
         "c8195e461f579946bd4764cfa813c0f5fa981cf74552d00254cfce709c6ca98f"),
        (["+XXYXXYZX", "+XZXYXYYI", "+YYYZIIYI", "-XXIIIXYI", "+XZIZYYIZ", "-ZYZIYIYZ",
          "-IIXZXYZX", "-XZZXZZYY"], 5,
         "81a45e9643f61bf5d9859bdd0737b82ff32f48f35d83cfe9e7fa378b077ca0f3"),
    ], ids=["n4", "n6", "n8"])
    def test_gate_json_is_pinned(self, generators, k, digest, tmp_path):
        # the gate depends on which frame gates canonical_frame picks: a
        # reduction that picks others changes this JSON, so it is pinned
        # (sha256 of the sorted-key JSON of the gate)
        tab = {"n": len(generators), "generators": generators}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(tab))
        out = tmp_path / "cert.json"
        assert main(["zero-magic", str(path), "--k", str(k), "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["tableau"] == tab and data["level"] == k
        text = json.dumps(data["gate"], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


class TestNogo:
    def test_witness_payload(self, nogo_file, tmp_path):
        out = str(tmp_path / "wit.json")
        assert main(["nogo", nogo_file, "-o", out]) == 0
        data = json.loads(Path(out).read_text())
        assert data["increase"]["delta"] > 1e-6
        assert data["decrease"]["delta"] < -1e-6
        assert data["n"] == 1
        assert data["layers"] == [{"clifford": [["H", 0]]}, {"sqr": {"w": [0.125]}}]
        # the dragged-back state's preparation is the inverse sequence
        assert data["increase"]["pre_layers"] == [{"sqr": {"w": [0.875]}},
                                                  {"clifford": [["H", 0]]}]

    def test_clifford_block_exits_2(self, tmp_path, capsys):
        path = _write_json(tmp_path / "b.json", {"n": 1, "layers": [{"clifford": [["H", 0]]}]})
        assert main(["nogo", path]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "ValidationError"

    @pytest.mark.parametrize("n", range(1, 9))
    def test_block_json_round_trip(self, n):
        # a block's layers, written with _layer_to_json, read back from
        # circuit JSON as the same layers, an empty Clifford included
        rng = np.random.default_rng([5, n])
        cliffords = [None, CliffordOp(n, ()), random_clifford(n, rng)]
        rotations = [None, RotationVector.continuous(rng.uniform(0.0, 1.0, n)),
                     RotationVector.dyadic([int(k) for k in rng.integers(0, 16, n)], 4)]
        for cliff in cliffords:
            for w in rotations:
                block = LayerBlock(n, cliff, w)
                layers = [{kind: _layer_to_json(kind, obj)} for kind, obj in block.layers]
                text = json.dumps({"n": n, "layers": layers}, sort_keys=True)
                assert circuit_from_json(json.loads(text)).layers == block.layers

    @pytest.mark.parametrize("block", [
        {"n": 2, "clifford": [["H", "a"]]},
        {"n": 2, "clifford": [["H", 1.9]]},
        {"n": 2, "clifford": [["H", "1"]]},
        {"n": 2, "clifford": [["CX", True, 0]]},
        {"n": 2, "clifford": [["CZ", 0, 1.5]]},
        {"n": 1, "sqr": {"m": 3, "k": [1.5]}},
        {"n": 1, "sqr": {"m": 3.9, "k": [1]}},
        {"n": 1, "sqr": {"m": True, "k": [1]}},
        {"n": 2, "sqr": {"m": 3, "k": [1]}},
    ], ids=["qubit-name", "qubit-float", "qubit-string", "qubit-bool", "qubit-second",
            "rotation-k", "rotation-m", "rotation-m-bool", "rotation-length"])
    def test_malformed_block_body_exits_2(self, block, tmp_path, capsys):
        # the bodies that fail in a magic circuit fail the same way in nogo's
        layers = [{kind: block[kind]} for kind in ("clifford", "sqr") if kind in block]
        if "sqr" not in block:
            layers.append({"sqr": {"w": [0.125, 0.25]}})
        path = _write_json(tmp_path / "b.json", {"n": block["n"], "layers": layers})
        assert main(["nogo", path]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "ValidationError"

    def test_unknown_block_key_exits_2(self, tmp_path, capsys):
        # an old block file is no circuit: its keys are named, with the new form
        path = _write_json(tmp_path / "b.json",
                           {"n": 1, "clifford": [["H", 0]], "sqr": {"m": 3, "k": [1]}})
        assert main(["nogo", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "unknown circuit JSON keys: ['clifford', 'sqr']; a circuit has "
                                "'n', 'initial' and 'layers', each layer one of "
                                "{'clifford': ...}, {'sqr': ...} and {'gate': ...}",
                       "kind": "ValidationError"}

    @pytest.mark.parametrize("body", [
        {"n": 2, "layers": [{"sqr": {"w": [0.125, 0.25]}},
                            {"gate": {"terms": [{"m": 3, "a": "10", "c": 1}]}}]},
        {"n": 2, "initial": {"n": 2, "generators": ["+XI", "+IX"]},
         "layers": [{"sqr": {"w": [0.125, 0.25]}}]},
        {"n": 2, "layers": []},
        {"n": 2},
        {"n": 2, "layers": [{"clifford": [["H", 0]]}, {"sqr": {"w": [0.25, 0.5]}}]},
    ], ids=["gate-layer", "initial", "no-layers", "layers-absent", "clifford-angles"])
    def test_not_a_clifford_rotation_sequence_exits_2(self, body, tmp_path, capsys):
        # an old block file and mixed sizes are the block tests' cases above
        path = _write_json(tmp_path / "c.json", body)
        assert main(["nogo", path]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "ValidationError"

    def test_two_block_sequence_replays_through_magic(self, tmp_path):
        # n = 3, two Clifford + rotation blocks; magic on each witness state's
        # circuit gives f_before, and with the sequence appended f_after
        rng = np.random.default_rng([52, 3])
        layers = [{"clifford": _layer_to_json("clifford", random_clifford(3, rng))},
                  {"sqr": {"m": 3, "k": [1, 0, 3]}},
                  {"clifford": _layer_to_json("clifford", random_clifford(3, rng))},
                  {"sqr": {"w": [float(v) for v in rng.uniform(0, 1, 3)]}}]
        path = _write_json(tmp_path / "seq.json", {"n": 3, "layers": layers})
        out = tmp_path / "wit.json"
        assert main(["nogo", path, "--seed", "4", "-o", str(out)]) == 0
        wit = json.loads(out.read_text())
        assert wit["n"] == 3 and len(wit["layers"]) == 4
        assert wit["increase"]["delta"] > 1e-6 and wit["decrease"]["delta"] < -1e-6
        for key in ("increase", "decrease"):
            ws = wit[key]
            for field, seq in (("f_before", ws["pre_layers"]),
                               ("f_after", ws["pre_layers"] + wit["layers"])):
                circ = _write_json(tmp_path / "replay.json",
                                   {"n": 3, "initial": ws["tableau"], "layers": seq})
                res = tmp_path / "magic.json"
                assert main(["magic", circ, "-o", str(res)]) == 0
                (result,) = json.loads(res.read_text())["results"]
                assert abs(result["F_alpha"] - ws[field]) <= 1e-10, (key, field)


class TestSupport:
    def test_counts(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"m": 3, "k": [1, 3]}))
        out = str(tmp_path / "s.json")
        assert main(["support", str(path), "-o", out]) == 0
        data = json.loads(Path(out).read_text())
        assert data["n"] == 2 and data["ceiling"] == 9 and data["counted"] == 9

    def test_clifford_angles(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"m": 2, "k": [0, 1]}))
        assert main(["support", str(path)]) == 0

    @pytest.mark.parametrize("n", [9, 16, 20])
    def test_cap_checked_before_canonicalize(self, n, monkeypatch, tmp_path, capsys):
        def no_canonicalize(*args, **kwargs):
            raise AssertionError("canonicalize ran before the cap check")

        for name in ("canonicalize", "initial_spectrum"):
            monkeypatch.setattr(f"magicforge.cli.{name}", no_canonicalize)
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"m": 3, "k": [1] * n}))
        assert main(["support", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "CapacityError" and err["error"].startswith("support cap")

    def test_wrapped_rotation_exits_2(self, tmp_path, capsys):
        # one spelling: the rotation body itself, not a circuit layer's {'sqr': ...}
        path = _write_json(tmp_path / "w.json", {"sqr": {"m": 3, "k": [1, 3]}})
        assert main(["support", path]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "rotation JSON needs either {'m','k'} or {'w'}", "kind": "ValidationError"}


class TestErrors:
    @pytest.mark.parametrize("command", ["support", "magic"])
    @pytest.mark.parametrize("w, n, message", [
        ([], 1, "1..32 angles"),
        (["0.125", True], 2, "real numbers"),
        ([0.125, True], 2, "real numbers"),
        ("0.125", 5, "real numbers"),
    ], ids=["none", "str", "bool", "text"])
    def test_rotation_without_real_angles_exits_2(self, command, w, n, message, tmp_path,
                                                  capsys):
        path = tmp_path / "in.json"
        body = {"w": w} if command == "support" else {"n": n, "layers": [{"sqr": {"w": w}}]}
        path.write_text(json.dumps(body))
        assert main([command, str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "ValidationError" and message in err["error"]

    @pytest.mark.parametrize("command", ["magic", "spectrum"])
    def test_output_into_a_missing_directory_exits_2(self, command, circuit_file, tmp_path,
                                                      capsys):
        out = tmp_path / "missing" / "out"
        assert main([command, circuit_file, "-o", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "ValidationError"
        assert err["error"].startswith(f"cannot write {out}: ")
        assert not out.parent.exists()

    def test_output_onto_a_directory_exits_2_and_leaves_no_temp_file(self, circuit_file,
                                                                      tmp_path, capsys):
        # the rename fails: the temporary file goes, the directory stays empty
        out = tmp_path / "out"
        out.mkdir()
        assert main(["magic", circuit_file, "-o", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "ValidationError"
        assert err["error"].startswith(f"cannot write {out}: ")
        assert sorted(tmp_path.iterdir()) == sorted([Path(circuit_file), out])
        assert list(out.iterdir()) == []

    def test_spectrum_oracle_path_onto_a_directory_keeps_the_primary(self, circuit_file,
                                                                     tmp_path, capsys):
        # both files are written before either is renamed, the oracle's
        # first: its failed rename leaves the old primary and no temp file
        out = tmp_path / "out.csv"
        out.write_bytes(b"old bytes\n")
        (tmp_path / "out.csv.oracle.csv").mkdir()
        assert main(["spectrum", circuit_file, "-o", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"].startswith(f"cannot write {out}.oracle.csv: ")
        assert out.read_bytes() == b"old bytes\n"
        assert not [p for p in tmp_path.rglob("*") if p.name.startswith(".magicforge.")]

    @pytest.mark.parametrize("body, extra", [
        ({"n": 1, "clifford": [["H", 0]], "sqr": {"m": 3, "k": [1]}}, ["clifford", "sqr"]),
        ({"n": 2, "layer": [{"gate": {"terms": [{"m": 3, "a": "11", "c": 1}]}}]}, ["layer"]),
    ], ids=["block-file", "misspelt-layers"])
    def test_unknown_circuit_key_exits_2(self, body, extra, tmp_path, capsys):
        # read with the key dropped, each would be the empty circuit, F_2 = 2^n
        path = tmp_path / "c.json"
        path.write_text(json.dumps(body))
        assert main(["magic", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "ValidationError"
        assert err["error"].startswith(f"unknown circuit JSON keys: {extra}; a circuit has ")

    def test_missing_file_exits_2(self, capsys):
        assert main(["magic", "/nonexistent/x.json"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "ValidationError"

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["magic", str(path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command, body", [
        ("magic", {"n": "abc", "layers": []}),
        ("magic", {"n": 1, "initial": {"n": "abc", "generators": ["+Z"]}, "layers": []}),
        ("magic", {"n": 1, "layers": [{"gate": {"terms": [{"m": "x", "a": "1", "c": 1}]}}]}),
        ("magic", {"n": 1, "layers": [{"clifford": [["H", "a"]]}]}),
        ("nogo", {"n": "abc", "layers": [{"sqr": {"m": 3, "k": [1]}}]}),
    ])
    def test_non_integer_field_exits_2(self, command, body, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(body))
        assert main([command, str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "ValidationError"

    @pytest.mark.parametrize("command, body", [
        ("support", {"m": 3, "k": [1.5]}),
        ("support", {"m": 3.9, "k": [1]}),
        ("support", {"m": True, "k": [1]}),
        ("magic", {"n": 2.7, "layers": []}),
        ("magic", {"n": True, "layers": []}),
        ("magic", {"n": 1, "layers": [{"gate": {"n": 1.5, "terms": [{"m": 2, "a": "1", "c": 1}]}}]}),
        ("magic", {"n": 1, "layers": [{"gate": {"terms": [{"m": 2.5, "a": "1", "c": 1}]}}]}),
        ("magic", {"n": 1, "layers": [{"gate": {"terms": [{"m": 2, "a": "1", "c": 1.7}]}}]}),
        ("nogo", {"n": 1.5, "layers": [{"sqr": {"w": [0.125]}}]}),
        ("magic", {"n": 2, "layers": [{"clifford": [["H", 1.9]]}]}),
        ("magic", {"n": 2, "layers": [{"clifford": [["H", "1"]]}]}),
        ("magic", {"n": 2, "layers": [{"clifford": [["CX", True, 0]]}]}),
        ("magic", {"n": 2, "layers": [{"clifford": [["CZ", 0, 1.5]]}]}),
        ("nogo", {"n": 2, "layers": [{"clifford": [["H", 1.9]]}, {"sqr": {"w": [0.125, 0.25]}}]}),
        ("magic", {"n": 1, "initial": {"n": 1.9, "generators": ["+X"]}, "layers": []}),
    ], ids=["rotation-k", "rotation-m", "rotation-m-bool", "circuit-n", "circuit-n-bool",
            "gate-n", "gate-m", "gate-c", "block-n", "qubit-float", "qubit-string",
            "qubit-bool", "qubit-second", "block-qubit", "initial-n"])
    def test_non_whole_number_exits_2(self, command, body, tmp_path, capsys):
        # a JSON number that is not whole is rejected, not truncated
        path = tmp_path / "in.json"
        path.write_text(json.dumps(body))
        assert main([command, str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "ValidationError"

    @pytest.mark.parametrize("n", [True, 1.9], ids=["bool", "float"])
    def test_non_whole_tableau_n_exits_2(self, n, tmp_path, capsys):
        # read as n = 1, the tableau {"+X"} would be |+>
        path = tmp_path / "tab.json"
        path.write_text(json.dumps({"n": n, "generators": ["+X"]}))
        assert main(["optimize", str(path), "--layers", "1"]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "ValidationError"

    def test_whole_floats_are_read_as_integers(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"m": 3.0, "k": [1.0, 3]}))
        out = str(tmp_path / "s.json")
        assert main(["support", str(path), "-o", out]) == 0
        data = json.loads(Path(out).read_text())
        assert data["n"] == 2 and data["ceiling"] == 9 and data["counted"] == 9

    @pytest.mark.parametrize("body", [
        {"n": 1, "layers": 5},
        {"n": 1, "layers": [{"clifford": 5}]},
        {"n": 1, "layers": [{"clifford": [5]}]},
        {"n": 1, "layers": [{"clifford": [[]]}]},
        {"n": 1, "layers": [{"gate": 5}]},
    ])
    def test_malformed_circuit_exits_2(self, body, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(body))
        assert main(["magic", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "ValidationError"

    @pytest.mark.parametrize("command", ["magic", "spectrum"])
    def test_rotation_as_gate_exits_2(self, command, tmp_path, capsys):
        # a rotation is its own 'sqr' layer; as a gate body it is named, not run
        path = _write_json(tmp_path / "c.json",
                           {"n": 2, "layers": [{"gate": {"sqr": {"w": [0.125, 0.5]}}}]})
        out = tmp_path / "out"
        assert main([command, path, "-o", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "unknown gate JSON keys: ['sqr']; a gate has 'n' and 'terms', and a "
                     "rotation is its own {'sqr': {...}} circuit layer",
            "kind": "ValidationError"}
        assert not out.exists()

    @pytest.mark.parametrize("command", ["support", "optimize"])
    def test_non_object_json_exits_2(self, command, tableau_file, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        argv = {
            "support": ["support", str(path)],
            "optimize": ["optimize", tableau_file, "--layers", "1", "--config", str(path)],
        }[command]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "ValidationError"

    @pytest.mark.parametrize("argv", [
        ["verify", "--n-max", "0"],
        ["verify", "--cases", "-2"],
        ["nogo", "BLOCK", "--trials", "0"],
    ])
    def test_non_positive_count_exits_2(self, argv, nogo_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([nogo_file if arg == "BLOCK" else arg for arg in argv])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_negative_seed_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "-1"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_seed_on_a_command_without_randomness_exits_2(self, circuit_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["magic", circuit_file, "--seed", "1"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_empty_tableau_exits_2(self, tmp_path, capsys):
        path = tmp_path / "tab.json"
        path.write_text(json.dumps({"n": 0, "generators": []}))
        assert main(["optimize", str(path), "--layers", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "ValidationError" and "n=0" in err["error"]

    def test_internal_value_error_is_not_bad_input(self, circuit_file, monkeypatch):
        # a fault inside the program is a crash, not exit code 2
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr("magicforge.cli.f_alpha", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["magic", circuit_file])

    def test_optimizer_fault_is_not_bad_input(self, tableau_file, monkeypatch):
        # a RuntimeError inside the optimizer is a program fault: it propagates
        def broken(a):
            raise RuntimeError("internal fault")

        monkeypatch.setattr("magicforge.optimizer._best_turn", broken)
        with pytest.raises(RuntimeError, match="internal fault"):
            main(["optimize", tableau_file, "--layers", "1"])

    def test_frame_reduction_fault_is_not_bad_input(self, tmp_path, monkeypatch):
        # a frame fold that moves nothing leaves the rows unreduced: a program fault
        tab = random_stabilizer(4, 0)
        assert tab.r == 2
        path = tmp_path / "tab4.json"
        path.write_text(json.dumps(tab.to_json()))
        monkeypatch.setattr("magicforge.stabilizer._fold", lambda n, rows, gates: list(rows))
        with pytest.raises(RuntimeError, match="frame reduction failed"):
            main(["zero-magic", str(path), "--k", "3", "-o", str(tmp_path / "out.json")])

    @pytest.mark.parametrize("attr, stand_in, message", [
        ("hierarchy_level", lambda f: 2, "conjugated gate has level"),
        ("nullity", lambda s: 1.0, "oracle rejected the certificate"),
    ], ids=["level", "oracle"])
    def test_certificate_fault_is_not_bad_input(self, attr, stand_in, message, tmp_path,
                                                monkeypatch):
        # a zero-magic construction that fails its own checks is a program fault
        path = tmp_path / "tab4.json"
        path.write_text(json.dumps(random_stabilizer(4, 0).to_json()))
        monkeypatch.setattr(f"magicforge.theorems.{attr}", stand_in)
        with pytest.raises(RuntimeError, match=message):
            main(["zero-magic", str(path), "--k", "3", "-o", str(tmp_path / "out.json")])

    @pytest.mark.parametrize("command, kernel, body", [
        ("magic", "rotate_layer", {"n": 1, "layers": [{"sqr": {"w": [0.1]}}]}),
        ("spectrum", "phase_layer",
         {"n": 1, "layers": [{"gate": {"terms": [{"m": 3, "a": "1", "c": 1}]}}]}),
        ("support", "rotate_layer", {"w": [0.1, 0.3]}),
    ], ids=["magic-rotation", "spectrum-gate", "support-rotation"])
    def test_fold_fault_is_not_bad_input(self, command, kernel, body, tmp_path, monkeypatch):
        # a layer kernel that breaks the norm leaves a computed spectrum that
        # fails its check: a program fault, not exit code 2
        original = getattr(magicforge.transfer, kernel)
        monkeypatch.setattr(f"magicforge.transfer.{kernel}", lambda *args: 1.01 * original(*args))
        path = tmp_path / "in.json"
        path.write_text(json.dumps(body))
        with pytest.raises(RuntimeError, match="fold output failed its check: spectrum norm"):
            main([command, str(path), "-o", str(tmp_path / "out")])

    def test_oracle_fault_is_not_bad_input(self, tmp_path, monkeypatch):
        # an oracle gate that breaks the norm leaves a computed state that
        # fails its check: a program fault, not exit code 2
        monkeypatch.setattr("magicforge.oracle._SQRT_HALF", 0.8)
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"n": 1, "layers": [{"clifford": [["H", 0]]}]}))
        with pytest.raises(RuntimeError, match="oracle output failed its check: state not norm"):
            main(["spectrum", str(path), "-o", str(tmp_path / "out.csv")])


class TestParser:
    def test_consecutive_commands_share_one_parser(self, circuit_file, tmp_path):
        _build_parser.cache_clear()
        outs = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        assert main(["magic", circuit_file, "--alpha", "3", "-o", outs[0]]) == 0
        assert main(["magic", circuit_file, "-o", outs[1]]) == 0
        assert _build_parser.cache_info().misses == 1
        first, second = (json.loads(Path(out).read_text()) for out in outs)
        assert [r["alpha"] for r in first["results"]] == [3]
        assert first["manifest"]["options"] == {"alpha": [3]}
        assert [r["alpha"] for r in second["results"]] == [2]
        assert second["manifest"]["options"] == {"alpha": [2]}

    def test_only_commands_that_draw_random_numbers_record_a_seed(
            self, circuit_file, tableau_file, nogo_file, tmp_path):
        tab3 = tmp_path / "t3.json"
        tab3.write_text(json.dumps({"n": 3, "generators": ["+ZII", "+IXI", "+IIX"]}))
        rot = tmp_path / "w.json"
        rot.write_text(json.dumps({"m": 3, "k": [1, 3]}))
        runs = {
            "spectrum": [circuit_file], "magic": [circuit_file], "support": [str(rot)],
            "zero-magic": [str(tab3), "--k", "3"], "optimize": [tableau_file, "--layers", "1"],
            "verify": ["--n-max", "1", "--cases", "1"], "nogo": [nogo_file],
        }
        seeded = {}
        for command, args in runs.items():
            out = tmp_path / f"{command}.out"
            assert main([command, *args, "-o", str(out)]) == 0
            text = out.read_text()
            manifest = (read_manifest_line(out) if text.startswith("# manifest: ")
                        else json.loads(text)["manifest"])
            seeded[command] = "seed" in manifest
        assert seeded == {"spectrum": False, "magic": False, "support": False,
                          "zero-magic": False, "optimize": True, "verify": True, "nogo": True}


class TestEntryPoint:
    def test_console_script(self):
        # run from the directory holding the imported package, so the child finds it too
        proc = subprocess.run(
            [sys.executable, "-m", "magicforge.cli", "--version"],
            capture_output=True, text=True, cwd=Path(magicforge.__file__).parents[1],
        )
        assert proc.returncode == 0
        assert "magicforge" in proc.stdout

    def test_output_does_not_depend_on_blas_threads(self, tmp_path):
        # the fold's rotation layers are small matrix products; one OpenBLAS
        # thread and the default threads must give the same bytes
        n, rng = 8, np.random.default_rng(43)
        layers = []
        for _ in range(3):
            layers.append({"clifford": [list(g) for g in random_clifford(n, rng).gates]})
            layers.append({"sqr": RotationVector.continuous(tuple(rng.uniform(0, 1, n))).to_json()})
        circ = tmp_path / "circ.json"
        circ.write_text(json.dumps({"n": n, "layers": layers}))
        outputs = []
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run(
                [sys.executable, "-m", "magicforge.cli", "magic", str(circ), "--alpha", "2", "3"],
                capture_output=True, cwd=Path(magicforge.__file__).parents[1], env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_main_aliases_run_command(self):
        from magicforge.cli import run_command

        assert main is run_command
