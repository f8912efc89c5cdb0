"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads
from sphmark import codec, harmonics, so3

HERE = os.path.dirname(os.path.abspath(__file__))


def test_tracer_restores_every_attribute():
    before = [(m, dict(vars(m))) for n, m in list(sys.modules.items())
              if m is not None and n.split(".")[0] == "sphmark"]
    sig_before = dict(vars(codec.SignatureSet))
    orig_sht = harmonics.forward_sht
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harmonics.forward_sht is not orig_sht
        # re-exports point at the same wrapper as the defining module
        import sphmark
        assert sphmark.forward_sht is harmonics.forward_sht
        assert isinstance(vars(codec.SignatureSet)["load"], classmethod)
        assert vars(codec.SignatureSet)["load"] is not sig_before["load"]
    finally:
        tracer.restore()
    for m, snapshot in before:
        now = vars(m)
        changed = [k for k in snapshot if now.get(k) is not snapshot[k]]
        assert changed == [], (m.__name__, changed)
    assert dict(vars(codec.SignatureSet)) == sig_before
    assert harmonics.forward_sht is orig_sht


def test_spans_nest_and_are_recorded_only_inside_ops():
    c = harmonics.synth_random_bandlimited(4, seed=1)
    R = so3.random_rotation(0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        so3.rotate_coeffs(c, R)
        assert tracer.spans == []
        tracer.op = 7
        so3.rotate_coeffs(c, R)
        tracer.op = None
    finally:
        tracer.restore()
    names = [s[0] for s in tracer.spans]
    assert names.count("so3.rotate_coeffs") == 1
    assert names.count("so3.wigner_D") == 5
    assert names.count("so3.little_d") == 5
    for name, start, end, parent, op in tracer.spans:
        assert op == 7 and end >= start
        want = {"so3.rotate_coeffs": None, "so3.wigner_D": "so3.rotate_coeffs",
                "so3.little_d": "so3.wigner_D"}[name]
        assert (parent < 0 if want is None
                else tracer.spans[parent][0] == want)


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, 0],
             ["b", 1.0, 4.0, 0, 0],
             ["c", 2.0, 3.0, 1, 0],
             ["b", 5.0, 7.0, 0, 0],
             ["a", 20.0, 21.0, -1, 1]]
    totals = tracing.layer_totals(spans)
    assert totals["a"] == [2, pytest.approx(6.0)]   # (10 - 3 - 2) + 1
    assert totals["b"] == [2, pytest.approx(4.0)]   # (3 - 1) + 2
    assert totals["c"] == [1, pytest.approx(1.0)]
    assert sum(t[1] for t in totals.values()) == pytest.approx(11.0)


def test_per_layer_coverage_and_overhead():
    spans = [["cli.main", 0.0, 2.0, -1, 0], ["codec.embed", 0.5, 1.5, 0, 0]]
    m = run.per_layer(spans, traced_s=[2.5], plain_s=[1.0, 1.0])
    assert set(m) == ({n + ".calls_per_op" for n in tracing.SPAN_NAMES}
                      | {n + ".self_ms_per_op" for n in tracing.SPAN_NAMES}
                      | {"trace.coverage", "trace.overhead"})
    assert m["cli.main.self_ms_per_op"] == pytest.approx(1000.0)
    assert m["codec.embed.calls_per_op"] == 1.0
    assert m["so3.little_d.calls_per_op"] == 0.0
    assert m["trace.coverage"] == pytest.approx(2.0 / 2.5)
    assert m["trace.overhead"] == pytest.approx((1 / 2.5) / (2 / 2.0))


def test_benchmark_json_lists_the_metrics_run_prints():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for kind, units in (("end_to_end", run.END_TO_END),
                        ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[kind]} == units
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_p90_only_with_ten_samples_beyond_it():
    s = run.timing_summary([float(i) for i in range(99)])
    assert s["n"] == 99 and "p90" not in s and s["p50"] == 49.0
    s = run.timing_summary([float(i) for i in range(100)])
    assert s["n"] == 100 and s["p50"] == 49.5
    assert s["p90"] == pytest.approx(89.1)


def test_generated_inputs_follow_the_seed():
    def specs(seed):
        return ([workloads.embed_spec(seed, 1, i, 64) for i in range(4)],
                workloads.attack_specs(seed),
                [workloads.rotation_seed(seed, i) for i in range(4)],
                [workloads.algebra_seed(seed, i) for i in range(4)])
    assert specs(3) == specs(3)
    assert specs(3) != specs(4)
    embeds = specs(3)[0]
    assert len({e["key"] for e in embeds}) == len(embeds)
    assert all(0 <= int(e["key"]) < 2 ** 64 for e in embeds)


def test_robustness_check_fails_an_op_on_a_bad_decode_or_attack(tmp_path):
    with open(tmp_path / "pool.json", "w") as fh:
        json.dump({"stegos": [{"payload": "0000000f"}],
                   "inputs": [{"payload": "0000000f", "stego": 0}],
                   "quality": {}}, fh)
    for name, hex_text in (("ok", "0000000f"), ("wrong", "0000000e")):
        with open(tmp_path / (name + ".json"), "w") as fh:
            json.dump({"payload_hex": hex_text}, fh)
    good = {"attack": 0, "bits": "0" * 28 + "1111",
            "invariant_cosine": 0.99, "invariant_residual": 1e-13}
    bad = dict(good, attack=1, bits="1" * 32, invariant_residual=1e-6)

    def out(report, rows):
        return {"input": 0, "report": str(tmp_path / report), "stego": 0,
                "attacks": rows}
    records = [{"i": 0, "error": None, "out": out("ok.json", [good, good])},
               {"i": 1, "error": None, "out": out("ok.json", [good, bad])},
               {"i": 2, "error": None, "out": out("wrong.json", [good])},
               {"i": 3, "error": "Traceback ...", "out": None}]
    failed, quality, messages = workloads.check_ops(
        "robustness", 1, str(tmp_path), records)
    assert failed == [1, 2, 3]
    assert "attack 1" in messages[0]
    assert "decoded to 0000000e" in messages[1]
    assert quality["bit_accuracy"] == [1.0, 1.0, 1.0, 0.125, 1.0]
    assert len(quality["invariant_residual"]) == 5


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_generated_pool_is_byte_identical_for_a_seed(tmp_path):
    digests = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        pool = workloads.generate_pool(5, str(d))
        digests.append((pool["quality"],
                        [_digest(str(d / f)) for f in
                         ("pool0.ppm", "pool0.sig.bin", "pool0.sig.json",
                          "rot0.ppm")]))
    assert digests[0] == digests[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "embed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
