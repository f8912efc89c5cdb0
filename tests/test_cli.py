"""End-to-end command-line tests, run in-process through cli.main()."""

import argparse
import hashlib
import json

import numpy as np
import pytest

from sphmark import cli, codec, decoder, grid, harmonics

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


def test_version(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["--version"])
    assert ei.value.code == 0
    assert "sphmark 0.1.0" in capsys.readouterr().out


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


def test_load_image_synth_forms():
    ref = harmonics.make_cover(7)
    assert np.array_equal(cli.load_image("synth:7"), ref)
    assert np.array_equal(cli.load_image("synth:seed=7"), ref)
    small = cli.load_image("synth:seed=2,h=32,std=0.2")
    assert small.shape == (32, 64, 3)
    assert np.array_equal(small, harmonics.make_cover(2, H=32, img_std=0.2))
    assert cli.load_image("synth:").shape == (64, 128, 3)  # all defaults
    with pytest.raises(ValueError, match="unknown synth parameter"):
        cli.load_image("synth:foo=1")
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
        '{"format": "sphmark-signature", "version": 1, "alpha": 0.1}')
    (tmp_path / "bad.sig.bin").write_bytes(b"SPHS\x01")
    assert cli.main(["extract", "--image", "synth:4",
                     "--side", str(tmp_path / "bad")]) == 1
    assert str(tmp_path / "bad.sig.json") in capsys.readouterr().err
    # so is a --config file that is not JSON, or not a JSON object
    for name, text in (("broken.json", "{not json"), ("list.json", "[1, 2]")):
        cfg = tmp_path / name
        cfg.write_text(text)
        assert cli.main(["embed", "--cover", "synth:4", "--key", "1",
                         "--payload", PAYLOAD, "--config", str(cfg),
                         "--out", str(tmp_path / "x.ppm")]) == 1
        assert capsys.readouterr().err.startswith("error: %s: " % cfg)


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
