"""The two sphmark workloads: inputs from a seed, the timed op, the checks.

Every workload is a closed loop with one caller, as every sphmark user
waits for each result.  Each one puts its time in different modules, so a
later optimisation has one workload that exercises it and one that does
not:

* ``embed``      one ``sphmark embed`` (``cli.main``) per op on a fresh
                 H=64 ``synth:`` cover with a random payload and a fresh
                 64-bit key.  Almost all of it is ``codec.make_signature``.
* ``robustness`` one verification and one ``sphmark bench`` row per op,
                 on an H=256 stego that input generation embedded: first
                 ``sphmark extract --image --side`` of a rotated copy of it
                 (the read path: PPM read, side-file load, one SHT, one
                 feature evaluation), then each of nine attacks on the
                 stego, ``extract_nonblind``, the full-triplet bispectrum
                 cosine against the clean stego, and the algebraic check
                 (``rotate_coeffs`` by a random rotation, then the
                 invariant residual): the inner loops of ``sphmark bench``
                 and ``sphmark invariance``.  No signature is derived.

The read path was once a workload of its own; it rides in the robustness
op so that each workload can run longer within the benchmark's time.

Importing this module imports sphmark; nothing else happens at import.
"""

import json
import math
import os

import numpy as np

from sphmark import (attacks, cli, codec, coupling, grid, harmonics, metrics,
                     so3)


EMBED_H = 64          # the paper's working scale
POOL_H = 256          # panoramas read by robustness
POOL_STEGOS = 1       # stegos embedded per robustness run
ROTATED_INPUTS = 4    # rotated copies of each pool stego it verifies
K_BITS = 32           # payload bits of the default codec config

# acceptance floors the output checks enforce
MIN_PSNR_DB = 35.0
MIN_SSIM = 0.98
MAX_INVARIANT_RESIDUAL = 1e-9

# independent random streams derived from the workload seed
_EMBED, _POOL, _ROTATE, _ATTACK, _ALGEBRA, _POOL_ALGEBRA = range(1, 7)


def _rng(seed, stream, i):
    return np.random.default_rng([seed, stream, i])


def _draw_int(seed, stream, i, high=2 ** 31):
    return int(_rng(seed, stream, i).integers(high))


def embed_spec(seed, stream, i, h):
    """Inputs of one embed: synthetic cover seed, payload hex, 64-bit key."""
    rng = _rng(seed, stream, i)
    return {"cover_seed": int(rng.integers(2 ** 31)), "h": h,
            "payload": "%08x" % int(rng.integers(2 ** 32)),
            "key": str(int(rng.integers(2 ** 64, dtype=np.uint64)))}


def embed_argv(spec, base):
    return ["embed", "--cover", "synth:seed=%d,h=%d" % (spec["cover_seed"],
                                                         spec["h"]),
            "--key", spec["key"], "--payload", spec["payload"],
            "--out", base + ".ppm", "--report", base + ".json"]


def rotation_seed(seed, i):
    """Seed of the random rotation applied to rotated input i."""
    return _draw_int(seed, _ROTATE, i)


def algebra_seed(seed, i):
    """Seed of the rotation in the algebraic check of op or image i."""
    return _draw_int(seed, _ALGEBRA, i)


def attack_specs(seed):
    """The ``sphmark bench`` default attacks plus one composition.

    Copied rather than read from ``cli.DEFAULT_ATTACKS`` so the workload
    stays fixed when the program's defaults change; the seeded attacks
    take their seeds from the workload seed.
    """
    s = [_draw_int(seed, _ATTACK, i, 10_000) for i in range(4)]
    return ["rotate:seed=%d" % s[0], "blur:sigma=3,k=7",
            "blur_spectral:sigma=0.05", "noise:std=0.05,seed=%d" % s[1],
            "resize:scale=0.5", "jpeg:q=60", "brightness:f=1.1",
            "contrast:f=1.2",
            "mixed:[rotate:seed=%d;blur:sigma=2,k=7;noise:std=0.02,seed=%d]"
            % (s[2], s[3])]


def payload_bits(hex_text):
    v = int(hex_text, 16)
    return np.array([(v >> (K_BITS - 1 - i)) & 1 for i in range(K_BITS)])


def _psnr(a, b):
    return float(10.0 * math.log10(1.0 / float(np.mean((a - b) ** 2))))


def full_triplets(l_max):
    return coupling.admissible_triplets(range(l_max + 1), l_max)


def invariant_residual(v, v_rot):
    """Worst relative change of an invariant vector under a rotation."""
    return float(np.max(np.abs(v_rot.values - v.values)
                        / (1.0 + np.abs(v.values))))


def algebraic_check(c, v, trips, seed):
    R = so3.random_rotation(seed)
    return invariant_residual(
        v, coupling.bispectrum_vector(so3.rotate_coeffs(c, R), trips))


def warm(workload):
    """Build every lazy table the workload's op needs, through one call of
    the public entry points it uses (SHT plan, feature bank, 3j tables)."""
    cfg = codec.CodecConfig()
    x = harmonics.make_cover(0, H=EMBED_H if workload == "embed" else POOL_H)
    codec.compute_features(x, cfg)
    if workload == "robustness":
        coupling.bispectrum_vector(harmonics.forward_sht(x, cfg.l_max),
                                   full_triplets(cfg.l_max))


def check_stego(spec, base, seed_rot):
    """Output check of one embed; returns (ok, quality, message).

    The stego must decode to its payload with its own side files and meet
    the acceptance fidelity floors.  Quality also records the invariant
    cosine of stego against cover and the algebraic residual of the stego.
    """
    stego = grid.read_ppm(base + ".ppm")
    side = codec.SignatureSet.load(base)
    bits, _ = codec.extract_nonblind(stego, side)
    cover = harmonics.make_cover(spec["cover_seed"], H=spec["h"])
    l_max = side.config.l_max
    trips = full_triplets(l_max)
    c = harmonics.forward_sht(stego, l_max)
    v = coupling.bispectrum_vector(c, trips)
    v_cover = coupling.bispectrum_vector(harmonics.forward_sht(cover, l_max),
                                         trips)
    q = {"psnr_db": _psnr(cover, stego), "ssim": metrics.ssim(cover, stego),
         "bit_accuracy": float(np.mean(bits == payload_bits(spec["payload"]))),
         "invariant_cosine": metrics.bispectrum_cosine(v_cover, v),
         "invariant_residual": algebraic_check(c, v, trips, seed_rot)}
    faults = []
    if q["bit_accuracy"] != 1.0:
        faults.append("decoded %.4f of the payload bits" % q["bit_accuracy"])
    if q["psnr_db"] < MIN_PSNR_DB:
        faults.append("psnr %.2f dB < %g" % (q["psnr_db"], MIN_PSNR_DB))
    if q["ssim"] < MIN_SSIM:
        faults.append("ssim %.4f < %g" % (q["ssim"], MIN_SSIM))
    if q["invariant_residual"] > MAX_INVARIANT_RESIDUAL:
        faults.append("invariant residual %.2e" % q["invariant_residual"])
    return not faults, q, "; ".join(faults)


# ------------------------------------------------------------ input pool

def generate_pool(seed, workdir):
    """Embed the H=256 stegos a robustness run reads.

    Each stego is made with ``sphmark embed`` and passes the embed output
    check.  Each is also rotated ``ROTATED_INPUTS`` times with
    ``so3.rotate_image``; the invariant cosine of every rotated input
    against its stego, and its algebraic residual, are recorded here.
    Writes ``pool.json`` into ``workdir`` and returns its contents.
    """
    stegos, inputs = [], []
    quality = {"psnr_db": [], "ssim": []}
    for j in range(POOL_STEGOS):
        spec = embed_spec(seed, _POOL, j, POOL_H)
        base = os.path.join(workdir, "pool%d" % j)
        rc = cli.main(embed_argv(spec, base))
        if rc != 0:
            raise RuntimeError("pool embed %d: sphmark embed exited %d"
                               % (j, rc))
        ok, q, msg = check_stego(spec, base, _draw_int(seed, _POOL_ALGEBRA, j))
        if not ok:
            raise RuntimeError("pool stego %d failed its check: %s" % (j, msg))
        quality["psnr_db"].append(q["psnr_db"])
        quality["ssim"].append(q["ssim"])
        stegos.append({"image": base + ".ppm", "side": base,
                       "payload": spec["payload"]})
    quality["invariant_cosine"] = []
    quality["invariant_residual"] = []
    l_max = codec.CodecConfig().l_max
    trips = full_triplets(l_max)
    for j, st in enumerate(stegos):
        x = grid.read_ppm(st["image"])
        v0 = coupling.bispectrum_vector(harmonics.forward_sht(x, l_max), trips)
        for r in range(ROTATED_INPUTS):
            n = len(inputs)
            path = os.path.join(workdir, "rot%d.ppm" % n)
            R = so3.random_rotation(rotation_seed(seed, n))
            grid.write_ppm(path, so3.rotate_image(x, R))
            y = grid.read_ppm(path)
            c = harmonics.forward_sht(y, l_max)
            v = coupling.bispectrum_vector(c, trips)
            quality["invariant_cosine"].append(metrics.bispectrum_cosine(v0, v))
            quality["invariant_residual"].append(
                algebraic_check(c, v, trips, algebra_seed(seed, n)))
            inputs.append(dict(st, image=path, stego=j))
    pool = {"stegos": stegos, "inputs": inputs, "quality": quality}
    with open(os.path.join(workdir, "pool.json"), "w") as fh:
        json.dump(pool, fh)
    return pool


def load_pool(workdir):
    with open(os.path.join(workdir, "pool.json")) as fh:
        return json.load(fh)


# ------------------------------------------------------------ timed ops
#
# op(i) returns a small JSON-able record that check_ops() checks later, in
# another process, so that neither the check's work nor its memory lands in
# the workload's timings or peak RSS.

class Embed:
    def __init__(self, seed, workdir):
        self.seed, self.dir = seed, workdir
        self.round_size = 1

    def prepare(self):
        warm("embed")

    def op(self, i):
        base = os.path.join(self.dir, "e%d" % i)
        rc = cli.main(embed_argv(embed_spec(self.seed, _EMBED, i, EMBED_H),
                                 base))
        if rc != 0:
            raise RuntimeError("sphmark embed exited %d" % rc)
        return {"base": base}


class Robustness:
    """One op verifies a rotated stego through the CLI, then runs one
    ``sphmark bench`` row: every attack on the clean stego."""

    def __init__(self, seed, workdir):
        self.seed, self.dir = seed, workdir

    def prepare(self):
        warm("robustness")
        self.attacks = attack_specs(self.seed)
        pool = load_pool(self.dir)
        self.inputs = pool["inputs"]
        self.stegos = []
        for st in pool["stegos"]:
            x = grid.read_ppm(st["image"])
            side = codec.SignatureSet.load(st["side"])
            self.l_max = side.config.l_max
            self.trips = full_triplets(self.l_max)
            v0 = coupling.bispectrum_vector(
                harmonics.forward_sht(x, self.l_max), self.trips)
            self.stegos.append((x, side, v0))
        self.round_size = 1

    def op(self, i):
        k = i % len(self.inputs)
        inp = self.inputs[k]
        report = os.path.join(self.dir, "x%d.json" % i)
        rc = cli.main(["extract", "--image", inp["image"], "--side",
                       inp["side"], "--report", report])
        if rc != 0:
            raise RuntimeError("sphmark extract exited %d" % rc)
        j = inp["stego"]
        x, side, v0 = self.stegos[j]
        rows = []
        for a, spec in enumerate(self.attacks):
            hit = attacks.apply_attack(x, spec)
            bits, _ = codec.extract_nonblind(hit, side)
            c = harmonics.forward_sht(hit, self.l_max)
            v = coupling.bispectrum_vector(c, self.trips)
            rows.append({"attack": a,
                         "bits": "".join(str(int(b)) for b in bits),
                         "invariant_cosine": metrics.bispectrum_cosine(v0, v),
                         "invariant_residual": algebraic_check(
                             c, v, self.trips,
                             algebra_seed(self.seed,
                                          i * len(self.attacks) + a))})
        return {"input": k, "report": report, "stego": j, "attacks": rows}


WORKLOAD_CLASSES = {"embed": Embed, "robustness": Robustness}


# ------------------------------------------------------------ checks

def check_ops(workload, seed, workdir, records):
    """Check every op record; returns (failed op indices, quality, messages).

    An op fails if it raised or if its output check fails.  Quality holds
    per-image lists: psnr_db, ssim, bit_accuracy, invariant_cosine and
    invariant_residual.
    """
    pool = load_pool(workdir) if workload != "embed" else None
    quality = dict(pool["quality"]) if pool else {}
    failed, messages = [], []

    def add(name, value):
        quality.setdefault(name, []).append(value)

    for rec in records:
        i, out = rec["i"], rec["out"]
        fault = rec["error"]
        if fault is None and workload == "embed":
            spec = embed_spec(seed, _EMBED, i, EMBED_H)
            ok, q, msg = check_stego(spec, out["base"], algebra_seed(seed, i))
            for name, value in q.items():
                add(name, value)
            fault = None if ok else msg
        elif fault is None:
            embedded = pool["inputs"][out["input"]]["payload"]
            with open(out["report"]) as fh:
                got = json.load(fh)["payload_hex"]
            if got != embedded:
                fault = "rotated input %d decoded to %s, embedded %s" % (
                    out["input"], got, embedded)
            want = payload_bits(pool["stegos"][out["stego"]]["payload"])
            for row in out["attacks"]:
                bits = np.array([int(ch) for ch in row["bits"]])
                add("bit_accuracy", float(np.mean(bits == want)))
                add("invariant_cosine", row["invariant_cosine"])
                add("invariant_residual", row["invariant_residual"])
                if row["invariant_residual"] > MAX_INVARIANT_RESIDUAL:
                    fault = ("attack %d: invariant residual %.2e"
                             % (row["attack"], row["invariant_residual"]))
        if fault is not None:
            failed.append(i)
            messages.append("op %d: %s" % (i, fault))
    return failed, quality, messages


def summarize_quality(quality):
    """End-to-end quality guards from per-image lists.

    The algebraic residual is reported as ``invariant_digits.min``,
    -log10 of the worst residual (floored at 1e-16): residuals sit near
    1e-13 and scatter by factors, while their digit count is steady.
    """
    out = {}
    if quality.get("psnr_db"):
        out["psnr_db.min"] = min(quality["psnr_db"])
    if quality.get("ssim"):
        out["ssim.min"] = min(quality["ssim"])
    if quality.get("bit_accuracy"):
        out["bit_accuracy.mean"] = float(np.mean(quality["bit_accuracy"]))
    if quality.get("invariant_cosine"):
        out["invariant_cosine.min"] = min(quality["invariant_cosine"])
    if quality.get("invariant_residual"):
        out["invariant_digits.min"] = -math.log10(
            max(max(quality["invariant_residual"]), 1e-16))
    return out
