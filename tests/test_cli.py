"""End-to-end command-line tests, run in-process through cli.main(); the
import guard runs embed and extract in a fresh interpreter."""

import argparse
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import sphmark
from sphmark import attacks, cli, codec, decoder, grid, harmonics

KEY = "123456789"
PAYLOAD = "12345678"  # 8 hex chars = 32 bits = default k


def _ns(**over):
    """argparse.Namespace with every config-relevant attribute present."""
    base = dict(config=None, l_max=None, k=None, alpha=None, groups=None,
                channels=None, mask_floor=None, l_embed=None,
                no_geometric_mask=False, no_texture_mask=False,
                no_compensation=False)
    base.update(over)
    return argparse.Namespace(**base)


@pytest.fixture(scope="module")
def emb(tmp_path_factory):
    d = tmp_path_factory.mktemp("emb")
    out = str(d / "stego.ppm")
    rep = str(d / "embed.json")
    rc = cli.main(["embed", "--cover", "synth:seed=5", "--key", KEY,
                   "--payload", PAYLOAD, "--out", out, "--report", rep])
    assert rc == 0
    return {"dir": d, "out": out, "report": rep,
            "side": out[:-4]}  # .sig.json/.sig.bin basename


def test_version(capsys, emb):
    with pytest.raises(SystemExit) as ei:
        cli.main(["--version"])
    assert ei.value.code == 0
    assert capsys.readouterr().out == "sphmark %s\n" % sphmark.__version__
    rep = json.loads(open(emb["report"]).read())
    assert rep["tool"]["version"] == sphmark.__version__


def test_embed_outputs_exist(emb):
    d = emb["dir"]
    assert (d / "stego.ppm").exists()
    assert (d / "stego.sig.json").exists()
    assert (d / "stego.sig.bin").exists()
    img = grid.read_ppm(emb["out"])
    assert img.shape == (64, 128, 3)


def test_embed_report(emb):
    rep = json.loads(open(emb["report"]).read())
    for k in ("command", "config", "key_fingerprint", "payload_hex",
              "alpha_used", "psnr_db", "ssim", "stego", "side", "warnings",
              "tool"):
        assert k in rep
    assert rep["command"] == "embed"
    assert rep["payload_hex"] == PAYLOAD
    assert rep["psnr_db"] > 30.0
    assert rep["warnings"] == []
    # key never stored, only a hash fingerprint
    want = hashlib.sha256(KEY.encode()).hexdigest()[:8]
    assert rep["key_fingerprint"] == want
    assert KEY not in open(emb["report"]).read()


def test_report_is_canonical_json(emb):
    text = open(emb["report"]).read()
    rep = json.loads(text)
    assert text == json.dumps(rep, sort_keys=True, indent=2) + "\n"


def test_extract_round_trip(emb, tmp_path, capsys):
    rep_path = str(tmp_path / "ext.json")
    rc = cli.main(["extract", "--image", emb["out"], "--side", emb["side"],
                   "--report", rep_path])
    assert rc == 0
    rep = json.loads(open(rep_path).read())
    assert rep["mode"] == "nonblind"
    assert rep["payload_hex"] == PAYLOAD
    assert rep["mean_abs_stat"] > cli.LOW_CONFIDENCE
    assert rep["warnings"] == []
    assert len(rep["stats"]) == 32
    out = capsys.readouterr().out
    assert "payload %s" % PAYLOAD in out


def test_side_file_with_retired_loop_count_loads(emb, tmp_path, capsys):
    # side files written while the mask compensation was a fixed-point
    # loop carry its step count in their config; extract reads them as before
    meta = json.loads(open(emb["side"] + ".sig.json").read())
    assert "compensation_iterations" not in meta["config"]
    meta["config"]["compensation_iterations"] = 8
    old = tmp_path / "old"
    (tmp_path / "old.sig.json").write_text(json.dumps(meta, sort_keys=True, indent=2))
    (tmp_path / "old.sig.bin").write_bytes(open(emb["side"] + ".sig.bin", "rb").read())
    sig, ref = codec.SignatureSet.load(str(old)), codec.SignatureSet.load(emb["side"])
    assert sig.config == ref.config and sig.alpha == ref.alpha
    assert np.array_equal(sig.directions, ref.directions)
    reports = []
    for side in (emb["side"], str(old)):
        rep = tmp_path / "ext.json"
        assert cli.main(["extract", "--image", emb["out"], "--side", side,
                         "--report", str(rep)]) == 0
        reports.append(rep.read_text())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["payload_hex"] == PAYLOAD
    capsys.readouterr()
    # a --config file that names it is refused, naming the file and the key
    cfg = tmp_path / "loop.json"
    cfg.write_text('{"compensation_iterations": 8}')
    assert cli.main(["embed", "--cover", "synth:4", "--key", "1", "--payload",
                     PAYLOAD, "--config", str(cfg), "--out",
                     str(tmp_path / "x.ppm")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: unknown config keys: compensation_iterations"
                          % cfg)
    assert not (tmp_path / "x.ppm").exists()


def test_extract_key_rederivation_matches(emb, tmp_path):
    rep_path = str(tmp_path / "ext.json")
    rc = cli.main(["extract", "--image", emb["out"], "--side", emb["side"],
                   "--key", KEY, "--report", rep_path])
    assert rc == 0
    assert json.loads(open(rep_path).read())["payload_hex"] == PAYLOAD


def test_extract_wrong_key_garbles(emb, tmp_path):
    rep_path = str(tmp_path / "ext.json")
    rc = cli.main(["extract", "--image", emb["out"], "--side", emb["side"],
                   "--key", "42", "--report", rep_path])
    assert rc == 0
    rep = json.loads(open(rep_path).read())
    assert rep["payload_hex"] != PAYLOAD


def test_extract_unmarked_cover_warns(emb, tmp_path, capsys):
    # the exact cover the signature was built from: stats are all zero
    rep_path = str(tmp_path / "ext.json")
    rc = cli.main(["extract", "--image", "synth:seed=5", "--side",
                   emb["side"], "--report", rep_path])
    assert rc == 0
    rep = json.loads(open(rep_path).read())
    assert rep["mean_abs_stat"] < cli.LOW_CONFIDENCE
    assert any("low confidence" in w for w in rep["warnings"])
    assert "low confidence" in capsys.readouterr().err


def test_reruns_are_byte_identical(tmp_path, monkeypatch):
    outs = {}
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        monkeypatch.chdir(d)
        rc = cli.main(["embed", "--cover", "synth:seed=5", "--key", KEY,
                       "--payload", PAYLOAD, "--out", "stego.ppm",
                       "--report", "embed.json"])
        assert rc == 0
        outs[sub] = {p: (d / p).read_bytes()
                     for p in ("stego.ppm", "stego.sig.json",
                               "stego.sig.bin", "embed.json")}
    assert outs["a"] == outs["b"]


def test_parser_reuse_matches_fresh_parsers(tmp_path, monkeypatch, capsys):
    # the second embed drops the first one's --alpha: a value left behind
    # in the shared parser would show in its report
    seq = [(["embed", "--cover", "synth:seed=5", "--key", KEY, "--payload",
             PAYLOAD, "--alpha", "0.2", "--out", "a.ppm", "--report", "a.json"],
            "a.json"),
           (["extract", "--image", "a.ppm", "--side", "a", "--report", "x.json"],
            "x.json"),
           (["extract", "--image", "a.ppm", "--bogus"], None),
           (["embed", "--cover", "synth:seed=6", "--key", "7", "--payload",
             PAYLOAD, "--out", "b.ppm", "--report", "b.json"], "b.json")]
    runs = {}
    for mode in ("fresh", "reused"):
        d = tmp_path / mode
        d.mkdir()
        monkeypatch.chdir(d)
        runs[mode] = []
        for argv, report in seq:
            if mode == "fresh":
                cli.build_parser.cache_clear()
            rc = cli.main(argv)
            err = capsys.readouterr().err
            runs[mode].append((rc, (d / report).read_bytes() if report else err))
    assert [r[0] for r in runs["reused"]] == [0, 0, 1, 0]
    assert runs["reused"] == runs["fresh"]
    assert cli.build_parser() is cli.build_parser()


def test_embed_refuses_cover_without_embed_degree_energy(tmp_path, capsys):
    # a flat cover, and a latitude ramp odd about the equator (only odd
    # degrees besides the mean), carry nothing on degrees 6, 8 and 14
    H = 64
    ramp = (64 + 2 * np.arange(H)) / 255.0     # row r + row H-1-r = 254/255
    for name, img in (("flat", np.full((H, 2 * H, 3), 0.5)),
                      ("ramp", np.repeat(ramp[:, None, None], 2 * H, 1)
                       * np.ones(3))):
        cover = tmp_path / (name + ".ppm")
        grid.write_ppm(str(cover), img)
        out = tmp_path / (name + "-stego.ppm")
        assert cli.main(["embed", "--cover", str(cover), "--key", "1",
                         "--payload", PAYLOAD, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "no energy on the embed degrees 6, 8, 14" in err
        assert sorted(p.name for p in tmp_path.iterdir()
                      if p.name.startswith(name + "-stego")) == []


def test_embed_refuses_ill_conditioned_mask_compensation(tmp_path, capsys):
    # make_cover(300) flat at 0.5 outside the cap theta < 0.4, embedded at
    # mask floor 0: exit 1 with the condition number, and no stego written
    x = harmonics.make_cover(300)
    theta, _ = grid.grid_angles(64)
    x[theta >= 0.4] = 0.5
    cover = tmp_path / "cap.ppm"
    grid.write_ppm(str(cover), x)
    out = tmp_path / "stego.ppm"
    assert cli.main(["embed", "--cover", str(cover), "--key", "777",
                     "--payload", PAYLOAD, "--mask-floor", "0",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.search(r"error: mask compensation is ill-conditioned: "
                     r"cond\(A\) = \d\.\d+e\+11 at mask_floor=0;", err), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cap.ppm"]


_FRESH_PROCESS = """
import json, sys
import numpy as np
import sphmark.cli
from sphmark import attacks, cli, grid

d = sys.argv[1]
rc = [cli.main(["embed", "--cover", "synth:seed=5,h=64", "--key", "99",
                "--payload", "0a1b2c3d", "--out", d + "/stego.ppm",
                "--report", d + "/embed.json"]),
      cli.main(["extract", "--image", d + "/stego.ppm", "--side", d + "/stego",
                "--report", d + "/extract.json"])]
x = grid.read_ppm(d + "/stego.ppm")
np.save(d + "/blur.npy", attacks.apply_attack(x, "blur:sigma=3,k=7"))
np.save(d + "/jpeg.npy", attacks.apply_attack(x, "jpeg:q=60"))
rc.append(cli.main(["bench", "--covers", "1", "--report", d + "/bench.json"]))
with open(d + "/modules.json", "w") as fh:
    json.dump({"rc": rc, "scipy": sorted(m for m in sys.modules
                                         if m.split(".")[0] == "scipy")}, fh)
"""


def test_embed_and_extract_load_no_scipy(tmp_path):
    # a fresh interpreter, as each sphmark command is: importing the CLI,
    # one embed, one extract, the blur and JPEG attacks and a bench over
    # the default attacks load no scipy module, and the attacks there
    # match in-process results
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", _FRESH_PROCESS, str(tmp_path)],
                   env=env, check=True, capture_output=True, timeout=300)
    with open(tmp_path / "modules.json") as fh:
        got = json.load(fh)
    assert got["rc"] == [0, 0, 0]
    assert got["scipy"] == []
    x = grid.read_ppm(str(tmp_path / "stego.ppm"))
    assert np.array_equal(np.load(tmp_path / "blur.npy"),
                          attacks.apply_attack(x, "blur:sigma=3,k=7"))
    assert np.array_equal(np.load(tmp_path / "jpeg.npy"),
                          attacks.apply_attack(x, "jpeg:q=60"))


def test_load_image_synth_forms():
    ref = harmonics.make_cover(7)
    assert np.array_equal(cli.load_image("synth:7"), ref)
    assert np.array_equal(cli.load_image("synth:seed=7"), ref)
    small = cli.load_image("synth:seed=2,h=32,std=0.2")
    assert small.shape == (32, 64, 3)
    assert np.array_equal(small, harmonics.make_cover(2, H=32, img_std=0.2))
    assert cli.load_image("synth:").shape == (64, 128, 3)  # all defaults
    with pytest.raises(ValueError, match="^synth: unknown parameter 'foo'"):
        cli.load_image("synth:foo=1")
    # a malformed value names its parameter; a std that is not finite and
    # positive would give a non-finite or inverted cover
    for spec, name in (("h=abc", "h"), ("h=1.5", "h"), ("h=0", "h"),
                       ("seed=-1", "seed"), ("-1", "seed"), ("seed=", "seed"),
                       ("std=nan", "std"), ("std=inf", "std"), ("std=-1", "std"),
                       ("std=0", "std"), ("std=abc", "std")):
        with pytest.raises(ValueError, match="^synth: %s must be " % name):
            cli.load_image("synth:" + spec)
    with pytest.raises(ValueError, match="unsupported image path"):
        cli.load_image("cover.png")


def test_build_config_file_then_flags(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"alpha": 0.05, "k": 16}))
    # file alone
    cfg = cli.build_config(_ns(config=str(cfgp)))
    assert cfg.alpha == 0.05 and cfg.k == 16
    # flags override the file
    cfg = cli.build_config(_ns(config=str(cfgp), alpha=0.2))
    assert cfg.alpha == 0.2 and cfg.k == 16
    # list + switch style flags
    cfg = cli.build_config(_ns(l_embed="6,8", no_texture_mask=True,
                               no_compensation=True))
    assert cfg.L_embed == (6, 8)
    assert not cfg.use_texture_mask and not cfg.mask_compensation
    assert cfg.use_geometric_mask  # untouched default


def test_l_embed_flag_error_names_the_flag(tmp_path, capsys):
    # a degree that is not an integer is refused, not truncated, and the
    # error says which flag held it
    for bad in ("6.5,8", "6,x", "6,,8"):
        assert cli.main(["embed", "--cover", "synth:4", "--key", "1",
                         "--payload", PAYLOAD, "--l-embed", bad,
                         "--out", str(tmp_path / "x.ppm")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --l-embed ") and repr(bad) in err
    assert not (tmp_path / "x.ppm").exists()


@pytest.mark.parametrize("bad", ["abc", "1.5", "010", "-1", str(2 ** 64),
                                 "0x1" + "0" * 16])
def test_key_flag_error_names_the_flag(bad, emb, tmp_path, capsys):
    # a key that does not parse or lies outside [0, 2^64) is refused with
    # the flag and its accepted form; "010" stays refused, not octal
    out, rep = tmp_path / "x.ppm", tmp_path / "r.json"
    for argv in (["embed", "--cover", "synth:4", "--payload", PAYLOAD,
                  "--out", str(out)],
                 ["extract", "--image", emb["out"], "--side", emb["side"],
                  "--report", str(rep)]):
        assert cli.main(argv + ["--key", bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --key must be an integer in [0, 2^64), "
                              "decimal or 0x hex, got %r" % bad)
    assert not list(tmp_path.iterdir())  # no stego, side file or report


def test_embed_with_config_file(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"k": 16}))
    rep_path = str(tmp_path / "r.json")
    rc = cli.main(["embed", "--cover", "synth:seed=5", "--key", "9",
                   "--payload", "beef", "--out", str(tmp_path / "s.ppm"),
                   "--config", str(cfgp), "--alpha", "0.2",
                   "--report", rep_path])
    assert rc == 0
    rep = json.loads(open(rep_path).read())
    assert rep["config"]["k"] == 16
    assert rep["config"]["alpha"] == 0.2
    assert len(rep["payload_hex"]) == 4


def test_attack_cmd(tmp_path):
    out = str(tmp_path / "hit.ppm")
    rep_path = str(tmp_path / "r.json")
    rc = cli.main(["attack", "--image", "synth:seed=4", "--spec",
                   "brightness:f=1.1", "--out", out, "--report", rep_path])
    assert rc == 0
    assert grid.read_ppm(out).shape == (64, 128, 3)
    rep = json.loads(open(rep_path).read())
    assert isinstance(rep["psnr_db_vs_input"], float)
    # resize goes down and back up, so the raster keeps its shape and the
    # report still carries a (degraded) psnr
    rc = cli.main(["attack", "--image", "synth:seed=4,h=32", "--spec",
                   "resize:scale=0.5", "--out", out, "--report", rep_path])
    assert rc == 0
    rep = json.loads(open(rep_path).read())
    assert 0.0 < rep["psnr_db_vs_input"] < 45.0


def test_invariance_cmd(tmp_path):
    csv = str(tmp_path / "inv.csv")
    rep_path = str(tmp_path / "inv.json")
    rc = cli.main(["invariance", "--cover", "synth:seed=3", "--key", "9",
                   "--angles", "1.0,2.0", "--axes", "2",
                   "--n-rotations", "3", "--csv", csv,
                   "--report", rep_path])
    assert rc == 0
    lines = open(csv).read().splitlines()
    assert lines[0] == "angle_rad,mean_accuracy"
    assert len(lines) == 3
    got = [tuple(float(t) for t in ln.split(",")) for ln in lines[1:]]
    assert [a for a, _ in got] == [1.0, 2.0]
    rep = json.loads(open(rep_path).read())
    assert rep["algebraic_pass"] is True
    assert rep["max_invariant_residual"] <= 1e-9
    assert [r["mean_accuracy"] for r in rep["angles"]] == [1.0, 1.0]
    assert rep["flat_profile_pass"] is True


def test_bench_cmd_deterministic(tmp_path, monkeypatch):
    argv = ["bench", "--covers", "1", "--key", "5",
            "--attacks", "brightness:f=1.1;noise:std=0.05,seed=7",
            "--csv", "bench.csv", "--report", "bench.json"]
    outs = {}
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        monkeypatch.chdir(d)
        assert cli.main(list(argv)) == 0
        outs[sub] = {p: (d / p).read_bytes()
                     for p in ("bench.csv", "bench.json")}
    assert outs["a"] == outs["b"]
    rep = json.loads(outs["a"]["bench.json"].decode())
    assert len(rep["attacks"]) == 2
    assert rep["embedding_quality"]["mean_psnr_db"] > 30.0
    for row in rep["attacks"]:
        assert 0.0 <= row["mean_bit_accuracy"] <= 1.0
        assert row["mean_invariant_cosine"] > 0.9
    lines = outs["a"]["bench.csv"].decode().splitlines()
    assert lines[0].startswith("attack,mean_bit_accuracy")
    assert len(lines) == 3
    # commas inside the spec are escaped so the csv stays parseable
    assert lines[2].startswith("noise:std=0.05 seed=7,")


def test_train_decoder_and_blind_extract(tmp_path):
    ckpt = str(tmp_path / "dec.json")
    curve = str(tmp_path / "curve.csv")
    rep_path = str(tmp_path / "train.json")
    rc = cli.main(["train-decoder", "--k", "8", "--n", "24", "--epochs",
                   "60", "--out", ckpt, "--curve", curve,
                   "--report", rep_path])
    assert rc == 0
    dec = decoder.LinearDecoder.load(ckpt)
    rep = json.loads(open(rep_path).read())
    for k in ("train_accuracy", "holdout_accuracy", "best_epoch",
              "final_loss", "checkpoint"):
        assert k in rep
    assert open(curve).read().splitlines()[0] == "epoch,loss,train_accuracy"
    # blind mode: decoder checkpoint instead of side data
    erep = str(tmp_path / "blind.json")
    rc = cli.main(["extract", "--image", "synth:seed=6", "--decoder", ckpt,
                   "--k", "8", "--report", erep])
    assert rc == 0
    out = json.loads(open(erep).read())
    assert out["mode"] == "blind"
    assert len(out["bits"]) == 8
    _ = dec  # checkpoint round-trips through the public loader


def test_ablate_cmd(tmp_path):
    rep_path = str(tmp_path / "abl.json")
    rc = cli.main(["ablate", "--ks", "8", "--n", "24",
                   "--report", rep_path])
    assert rc == 0
    rep = json.loads(open(rep_path).read())
    entry = rep["runs"]["8"]
    assert set(entry) == {"bispectral", "power", "holdout_gap"}
    assert entry["bispectral"]["n_features"] > entry["power"]["n_features"]


def test_exit_code_usage_errors(tmp_path, capsys):
    assert cli.main(["embed", "--nope"]) == 1
    assert cli.main(["embed"]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err
    # attack grammar problems are validation errors, not crashes
    assert cli.main(["attack", "--image", "synth:4", "--spec", "bogus:x=1",
                     "--out", str(tmp_path / "x.ppm")]) == 1
    # invalid payload / key text
    assert cli.main(["embed", "--cover", "synth:4", "--key", "1",
                     "--payload", "zz", "--out",
                     str(tmp_path / "x.ppm")]) == 1
    assert cli.main(["embed", "--cover", "synth:4", "--key", "0x",
                     "--payload", PAYLOAD, "--out",
                     str(tmp_path / "x.ppm")]) == 1
    # extract needs side data or a decoder
    assert cli.main(["extract", "--image", "synth:4"]) == 1
    # a malformed side file is a validation error that names the file
    (tmp_path / "bad.sig.json").write_text(
        '{"format": "sphmark-signature", "version": 2, "alpha": 0.1}')
    (tmp_path / "bad.sig.bin").write_bytes(b"SPHS\x02")
    assert cli.main(["extract", "--image", "synth:4",
                     "--side", str(tmp_path / "bad")]) == 1
    assert str(tmp_path / "bad.sig.json") in capsys.readouterr().err
    # a version-1 side file is refused, with a message to re-embed
    (tmp_path / "v1.sig.json").write_text(
        '{"format": "sphmark-signature", "version": 1, "alpha": 0.1}')
    assert cli.main(["extract", "--image", "synth:4",
                     "--side", str(tmp_path / "v1")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % (tmp_path / "v1.sig.json"))
    assert "version 1" in err and "re-embed" in err
    # so is a --config file that is not JSON, not a JSON object, or holds
    # a wrong-typed or unknown field, or a value CodecConfig rejects
    for name, text in (("broken.json", "{not json"), ("list.json", "[1, 2]"),
                       ("typed.json", '{"k": "abc"}'), ("bool.json", '{"k": true}'),
                       ("unknown.json", '{"bogus": 1}'),
                       ("k0.json", '{"k": 0}'), ("groups.json", '{"groups": 5}')):
        cfg = tmp_path / name
        cfg.write_text(text)
        assert cli.main(["embed", "--cover", "synth:4", "--key", "1",
                         "--payload", PAYLOAD, "--config", str(cfg),
                         "--out", str(tmp_path / "x.ppm")]) == 1
        assert capsys.readouterr().err.startswith("error: %s: " % cfg)
    # a bad flag override names no file
    assert cli.main(["embed", "--cover", "synth:4", "--key", "1", "--payload",
                     PAYLOAD, "--k", "0", "--out", str(tmp_path / "x.ppm")]) == 1
    assert capsys.readouterr().err.startswith("error: k must be >= 1")
    # a cover below the sampling minimum H >= 4*l_max is refused
    assert cli.main(["embed", "--cover", "synth:seed=1,h=32", "--key", "1",
                     "--payload", PAYLOAD, "--out", str(tmp_path / "x.ppm")]) == 1
    err = capsys.readouterr().err
    assert "H=32" in err and "4*l_max=64" in err and "l_max=16" in err
    assert not (tmp_path / "x.ppm").exists()


@pytest.mark.parametrize("spec, param", [
    ("resize:scale=inf", "scale"), ("jpeg:q=1e400", "q"),
    ("blur:k=1e400", "k"), ("lowpass:lc=1e400", "lc"),
    ("rotate:seed=1e400", "seed"), ("mixed:[jpeg:q=inf]", "q"),
    ("blur_spectral:lmax=16.5", "lmax"), ("rotate:seed=1.5", "seed"),
    ("blur:sigma=0", "sigma")])
def test_malformed_attack_parameter_exits_1_at_its_position(spec, param,
                                                            tmp_path, capsys):
    out = tmp_path / "x.ppm"
    assert cli.main(["attack", "--image", "synth:4", "--spec", spec,
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid value ")
    assert "(at position %d)" % spec.rindex(param + "=") in err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["rotate:q=nan,0,0,1", "rotate:q=1e400,0,0,0",
                                  "rotate:zyz=nan,0,0"])
def test_non_finite_rotation_attack_exits_1(spec, tmp_path, capsys):
    # refused as a rotation, not later as a NaN image
    out = tmp_path / "x.ppm"
    assert cli.main(["attack", "--image", "synth:seed=4,h=16", "--spec", spec,
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: rotation components must be finite")
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--k", "16", "--l-max", "20"], ["--config", "c.json"],
    ["--l-embed", "6,8,14"], ["--alpha", "0.1"], ["--groups", "4"],
    ["--channels", "3"], ["--mask-floor", "0.3"], ["--no-geometric-mask"],
    ["--no-texture-mask"], ["--no-compensation"]])
def test_extract_side_refuses_config_flags(flags, emb, capsys):
    # the side file's config decodes; a flag that would be ignored is refused
    assert cli.main(["extract", "--image", emb["out"], "--side", emb["side"],
                     *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --")
    assert err.endswith(" not used with --side: the side file holds the "
                        "codec config\n")
    named = err[len("error: "):err.index(" not used")].split(", ")
    assert sorted(named) == sorted(f for f in flags if f.startswith("--"))


@pytest.mark.parametrize("flags", [["--side", "s"], ["--key", "5"],
                                   ["--side", "s", "--key", "5"]])
def test_extract_decoder_refuses_side_and_key(flags, capsys):
    assert cli.main(["extract", "--image", "synth:4", "--decoder", "d.json",
                     *flags]) == 1
    named = ", ".join(f for f in flags if f.startswith("--"))
    assert capsys.readouterr().err.startswith("error: %s not used with --decoder"
                                              % named)


def test_exit_code_io_errors(tmp_path):
    assert cli.main(["attack", "--image", str(tmp_path / "missing.ppm"),
                     "--spec", "brightness:f=1.1",
                     "--out", str(tmp_path / "x.ppm")]) == 2
    assert cli.main(["extract", "--image", "synth:5", "--side",
                     str(tmp_path / "missing")]) == 2


def test_exit_code_symmetry(tmp_path, monkeypatch):
    def boom(*a, **kw):
        raise harmonics.SymmetryError("synthetic failure")
    monkeypatch.setattr(codec, "embed", boom)
    rc = cli.main(["embed", "--cover", "synth:4", "--key", "1",
                   "--payload", PAYLOAD, "--out", str(tmp_path / "x.ppm")])
    assert rc == 3
