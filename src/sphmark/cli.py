"""Command-line interface.

Exit codes: 0 success, 1 validation or usage error, 2 file I/O error,
3 spectral symmetry violation.  Set SPHMARK_THREADS to cap BLAS/OpenMP
parallelism.  Images are 8-bit binary PPM; "synth:seed=S,h=H,std=V"
generates a deterministic synthetic cover in place of a file path.
"""

import argparse
import functools
import hashlib
import json
import sys

import numpy as np

from . import (__version__, attacks, codec, coupling, decoder, grid, harmonics,
               metrics, so3)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract wants 1
    def error(self, message):
        raise _UsageError("%s\nusage: %s" % (message, self.format_usage()))


# ------------------------------------------------------------ common helpers

def load_image(path):
    p = str(path)
    if p.startswith("synth:"):
        kv = {"seed": 0, "h": 64, "std": 0.24}
        body = p[len("synth:"):]
        if body:
            for tok in body.split(","):
                if "=" in tok:
                    kk, vv = tok.split("=", 1)
                    if kk not in kv:
                        raise ValueError("unknown synth parameter %r" % kk)
                    kv[kk] = float(vv) if kk == "std" else int(vv)
                else:
                    kv["seed"] = int(tok)
        return harmonics.make_cover(kv["seed"], H=kv["h"], img_std=kv["std"])
    if not p.endswith(".ppm"):
        raise ValueError("unsupported image path %r (use .ppm or synth:...)" % p)
    return grid.read_ppm(p)


def _key_of(args):
    key = int(args.key, 0) if isinstance(args.key, str) else int(args.key)
    return codec.check_key(key)


def _key_fingerprint(key):
    return hashlib.sha256(str(int(key)).encode()).hexdigest()[:8]


def build_config(args):
    base = codec.config_to_dict(codec.CodecConfig())
    if getattr(args, "config", None):
        with open(args.config) as fh:
            try:
                loaded = json.load(fh)  # a syntax error is a ValueError
                codec.check_config_fields(loaded)
                base.update(loaded)
                codec.CodecConfig(**base)  # the file's values, before the flags
            except ValueError as e:
                raise ValueError("%s: %s" % (args.config, e))
    flag_map = {"l_max": "l_max", "k": "k", "alpha": "alpha",
                "groups": "groups", "channels": "channels",
                "mask_floor": "mask_floor"}
    for attr, field in flag_map.items():
        v = getattr(args, attr, None)
        if v is not None:
            base[field] = v
    if getattr(args, "l_embed", None):
        base["L_embed"] = [int(t) for t in args.l_embed.split(",")]
    if getattr(args, "no_geometric_mask", False):
        base["use_geometric_mask"] = False
    if getattr(args, "no_texture_mask", False):
        base["use_texture_mask"] = False
    if getattr(args, "no_compensation", False):
        base["mask_compensation"] = False
    return codec.config_from_dict(base)


def write_report(args, report):
    report = dict(report)
    report.setdefault("tool", {"name": "sphmark", "version": __version__})
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if getattr(args, "report", None):
        with open(args.report, "w") as fh:
            fh.write(text)
    return report


def _refuse_flags(args, dests, why):
    """ValueError naming every flag among dests (flag --a-b for dest a_b)
    that the command line set."""
    given = ["--" + d.replace("_", "-") for d in dests
             if getattr(args, d) not in (None, False)]
    if given:
        raise ValueError("%s %s" % (", ".join(given), why))


_CONFIG_DESTS = ("config", "l_max", "l_embed", "k", "alpha", "groups",
                 "channels", "mask_floor", "no_geometric_mask",
                 "no_texture_mask", "no_compensation")


def _config_flags(p):
    p.add_argument("--config", help="JSON file with flat codec-config keys")
    p.add_argument("--l-max", dest="l_max", type=int)
    p.add_argument("--l-embed", dest="l_embed",
                   help="comma-separated embed degrees, e.g. 6,8,14")
    p.add_argument("--k", type=int, help="payload bits")
    p.add_argument("--alpha", type=float,
                   help="strength as a multiple of cover RMS on the embed degrees")
    p.add_argument("--groups", type=int)
    p.add_argument("--channels", type=int)
    p.add_argument("--mask-floor", dest="mask_floor", type=float)
    p.add_argument("--no-geometric-mask", action="store_true")
    p.add_argument("--no-texture-mask", action="store_true")
    p.add_argument("--no-compensation", action="store_true")


LOW_CONFIDENCE = 0.25  # mean |matched-filter stat| below this is suspect


# ------------------------------------------------------------ commands

def cmd_embed(args):
    cfg = build_config(args)
    key = _key_of(args)
    cover = load_image(args.cover)
    bits = codec.parse_payload(args.payload, cfg.k)
    import warnings as _warnings
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        stego, side = codec.embed(cover, bits, key, cfg)
    notes = [str(w.message) for w in caught]
    grid.write_ppm(args.out, stego)
    side_base = args.side or (args.out[:-4] if args.out.endswith(".ppm")
                              else args.out)
    side.save(side_base)
    rep = {
        "command": "embed",
        "config": codec.config_to_dict(cfg),
        "key_fingerprint": _key_fingerprint(key),
        "payload_hex": codec.format_payload(bits),
        "alpha_used": side.alpha,
        "psnr_db": metrics.psnr(cover, stego),
        "ssim": metrics.ssim(cover, stego),
        "stego": args.out,
        "side": [side_base + ".sig.json", side_base + ".sig.bin"],
        "warnings": notes,
    }
    write_report(args, rep)
    print("embedded %d bits (payload %s)" % (cfg.k, rep["payload_hex"]))
    print("psnr %.2f dB  ssim %.4f  alpha %.3g" % (rep["psnr_db"], rep["ssim"],
                                                   side.alpha))
    for n in notes:
        print("warning: %s" % n, file=sys.stderr)
    return 0


def cmd_extract(args):
    if args.decoder:
        _refuse_flags(args, ("side", "key"), "not used with --decoder: blind "
                      "mode decodes with the checkpoint alone")
    elif not args.side:
        raise ValueError("extract needs --side (or --decoder for blind mode)")
    else:
        _refuse_flags(args, _CONFIG_DESTS, "not used with --side: the side "
                      "file holds the codec config")
    img = load_image(args.image)
    if args.decoder:
        dec = decoder.LinearDecoder.load(args.decoder)
        cfg = build_config(args)
        feats = codec.compute_features(img, cfg)
        probs = dec.probabilities(feats)
        bits = (probs > 0.5).astype(np.int64)
        stats = (2.0 * probs - 1.0).tolist()
        mode = "blind"
        mean_stat = float(np.abs(np.asarray(stats)).mean())
        cfg_dict = codec.config_to_dict(cfg)
    else:
        side = codec.SignatureSet.load(args.side)
        key = _key_of(args) if args.key is not None else None
        bits, st = codec.extract_nonblind(img, side, key=key)
        stats = st.tolist()
        mode = "nonblind"
        mean_stat = float(np.abs(st).mean())
        cfg_dict = codec.config_to_dict(side.config)
    rep = {
        "command": "extract",
        "mode": mode,
        "config": cfg_dict,
        "payload_hex": codec.format_payload(bits),
        "bits": "".join(str(int(b)) for b in bits),
        "stats": stats,
        "mean_abs_stat": mean_stat,
        "warnings": [],
    }
    if mean_stat < LOW_CONFIDENCE:
        rep["warnings"].append(
            "low confidence: mean |stat| %.3f < %.2f; wrong key, wrong side "
            "data, or no watermark" % (mean_stat, LOW_CONFIDENCE))
    write_report(args, rep)
    print("payload %s" % rep["payload_hex"])
    print("bits    %s" % rep["bits"])
    print("mean |stat| %.3f" % mean_stat)
    for n in rep["warnings"]:
        print("warning: %s" % n, file=sys.stderr)
    return 0


def cmd_attack(args):
    img = load_image(args.image)
    spec = attacks.parse_attack(args.spec)
    out = attacks.apply_attack(img, spec)
    grid.write_ppm(args.out, out)
    rep = {"command": "attack", "spec": args.spec, "input": args.image,
           "output": args.out,
           "psnr_db_vs_input": metrics.psnr(img, out)
           if out.shape == img.shape else None}
    write_report(args, rep)
    print("attacked -> %s (psnr vs input: %s)"
          % (args.out, "%.2f" % rep["psnr_db_vs_input"]
             if rep["psnr_db_vs_input"] is not None else "n/a"))
    return 0


def cmd_invariance(args):
    cfg = build_config(args)
    key = _key_of(args)
    cover = load_image(args.cover)
    bits = (codec.parse_payload(args.payload, cfg.k) if args.payload
            else codec.random_payload(args.payload_seed, cfg.k))
    stego, side = codec.embed(cover, bits, key, cfg)
    angles = [float(t) for t in args.angles.split(",")]
    rows = []
    for ang in angles:
        accs = []
        for ax in range(args.axes):
            rng = np.random.default_rng(10_000 + ax)
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            R = so3.Rotation.from_axis_angle(v, ang)
            got, _ = codec.extract_nonblind(so3.rotate_image(stego, R), side)
            accs.append(metrics.bit_accuracy(got, bits))
        rows.append((ang, float(np.mean(accs))))
    # algebraic invariance of the coefficient-domain pipeline
    trips = coupling.admissible_triplets(cfg.L_embed, cfg.l_max)
    c = harmonics.forward_sht(stego, cfg.l_max)
    base = coupling.bispectrum_vector(c, trips).values
    worst = 0.0
    for i in range(args.n_rotations):
        R = so3.random_rotation(20_000 + i)
        v = coupling.bispectrum_vector(so3.rotate_coeffs(c, R), trips).values
        worst = max(worst, float(np.max(np.abs(v - base) / (1 + np.abs(base)))))
    spread = max(r[1] for r in rows) - min(r[1] for r in rows)
    rep = {
        "command": "invariance",
        "config": codec.config_to_dict(cfg),
        "key_fingerprint": _key_fingerprint(key),
        "angles": [{"angle_rad": a, "mean_accuracy": m} for a, m in rows],
        "accuracy_spread": spread,
        "n_rotations_algebraic": args.n_rotations,
        "max_invariant_residual": worst,
        "algebraic_pass": bool(worst <= 1e-9),
        "flat_profile_pass": bool(spread <= 0.01),
    }
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("angle_rad,mean_accuracy\n")
            for a, m in rows:
                fh.write("%.12g,%.12g\n" % (a, m))
    write_report(args, rep)
    for a, m in rows:
        print("angle %.3f rad: mean accuracy %.4f" % (a, m))
    print("accuracy spread %.4f; algebraic residual %.2e"
          % (spread, worst))
    return 0


DEFAULT_ATTACKS = ("rotate:seed=1;blur:sigma=3,k=7;blur_spectral:sigma=0.05;"
                   "noise:std=0.05,seed=7;resize:scale=0.5;jpeg:q=60;"
                   "brightness:f=1.1;contrast:f=1.2")


def cmd_bench(args):
    cfg = build_config(args)
    key = _key_of(args)
    specs = [s for s in args.attacks.split(";") if s.strip()]
    parsed = [attacks.parse_attack(s) for s in specs]
    full_trips = coupling.admissible_triplets(range(cfg.l_max + 1), cfg.l_max)
    per_attack = {s: [] for s in specs}
    cos_rows = {s: [] for s in specs}
    quality = []
    for i in range(args.covers):
        cover = harmonics.make_cover(args.seed + i)
        bits = codec.random_payload(args.payload_seed + i, cfg.k)
        stego, side = codec.embed(cover, bits, key, cfg)
        quality.append((metrics.psnr(cover, stego), metrics.ssim(cover, stego)))
        v0 = coupling.bispectrum_vector(
            harmonics.forward_sht(stego, cfg.l_max), full_trips)
        for s, spec in zip(specs, parsed):
            hit = attacks.apply_attack(stego, spec)
            got, _ = codec.extract_nonblind(hit, side)
            per_attack[s].append(metrics.bit_accuracy(got, bits))
            va = coupling.bispectrum_vector(
                harmonics.forward_sht(hit, cfg.l_max), full_trips)
            cos_rows[s].append(metrics.bispectrum_cosine(v0, va))
    alpha_curve = []
    for a in [float(t) for t in args.alphas.split(",")] if args.alphas else []:
        acfg = codec.config_from_dict(
            dict(codec.config_to_dict(cfg), alpha=a))
        cov0 = harmonics.make_cover(args.seed)
        st0, _ = codec.embed(cov0, codec.random_payload(args.payload_seed,
                                                        cfg.k), key, acfg)
        alpha_curve.append({"alpha": a, "psnr_db": metrics.psnr(cov0, st0)})
    rep = {
        "command": "bench",
        "config": codec.config_to_dict(cfg),
        "key_fingerprint": _key_fingerprint(key),
        "covers": args.covers,
        "embedding_quality": {
            "mean_psnr_db": float(np.mean([q[0] for q in quality])),
            "min_psnr_db": float(np.min([q[0] for q in quality])),
            "mean_ssim": float(np.mean([q[1] for q in quality])),
            "min_ssim": float(np.min([q[1] for q in quality])),
        },
        "attacks": [{
            "spec": s,
            "mean_bit_accuracy": float(np.mean(per_attack[s])),
            "min_bit_accuracy": float(np.min(per_attack[s])),
            "mean_invariant_cosine": float(np.mean(cos_rows[s])),
            "min_invariant_cosine": float(np.min(cos_rows[s])),
        } for s in specs],
        "alpha_curve": alpha_curve,
    }
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("attack,mean_bit_accuracy,min_bit_accuracy,"
                     "mean_invariant_cosine,min_invariant_cosine\n")
            for s in specs:
                fh.write("%s,%.12g,%.12g,%.12g,%.12g\n"
                         % (s.replace(",", " "), np.mean(per_attack[s]),
                            np.min(per_attack[s]), np.mean(cos_rows[s]),
                            np.min(cos_rows[s])))
    write_report(args, rep)
    print("embedding: psnr %.2f dB ssim %.4f (means over %d covers)"
          % (rep["embedding_quality"]["mean_psnr_db"],
             rep["embedding_quality"]["mean_ssim"], args.covers))
    for row in rep["attacks"]:
        print("%-40s acc %.4f  cosine %.4f"
              % (row["spec"], row["mean_bit_accuracy"],
                 row["mean_invariant_cosine"]))
    return 0


def cmd_train_decoder(args):
    Xb, _, Y = decoder.make_ablation_dataset(
        args.k, n=args.n, cover_seed=args.cover_seed, key=_key_of(args),
        payload_seed=args.payload_seed)
    ntr = int(round(0.75 * args.n))
    tc = decoder.TrainConfig(lr=args.lr, epochs=args.epochs, cube=True)
    run = decoder.train(Xb[:ntr], Y[:ntr], tc)
    dec = run.decoder
    acc_tr = float((dec.decode(Xb[:ntr]) == Y[:ntr]).mean())
    acc_te = float((dec.decode(Xb[ntr:]) == Y[ntr:]).mean())
    dec.save(args.out)
    if args.curve:
        run.to_csv(args.curve)
    rep = {
        "command": "train-decoder",
        "config": codec.config_to_dict(codec.CodecConfig(k=args.k)),
        "k": args.k, "n": args.n, "epochs": args.epochs, "lr": args.lr,
        "train_accuracy": acc_tr, "holdout_accuracy": acc_te,
        "best_epoch": run.best_epoch, "final_loss": run.losses[-1],
        "checkpoint": args.out,
    }
    write_report(args, rep)
    print("k=%d: train acc %.4f holdout acc %.4f -> %s"
          % (args.k, acc_tr, acc_te, args.out))
    return 0


def cmd_ablate(args):
    ks = [int(t) for t in args.ks.split(",")]
    rep = decoder.ablate_power_spectrum(ks=ks, n=args.n)
    rep = {"command": "ablate",
           "config": codec.config_to_dict(codec.CodecConfig()), **rep}
    write_report(args, rep)
    for k in ks:
        e = rep["runs"][str(k)]
        print("k=%-3d third-order %.4f power %.4f gap %.4f"
              % (k, e["bispectral"]["holdout_accuracy"],
                 e["power"]["holdout_accuracy"], e["holdout_gap"]))
    return 0


# ------------------------------------------------------------ wiring

# parsing leaves the parser unchanged, so one per process serves every call
@functools.lru_cache(maxsize=None)
def build_parser():
    p = _Parser(prog="sphmark",
                description="rotation-invariant watermarking for "
                            "equirectangular images")
    p.add_argument("--version", action="version",
                   version="sphmark " + __version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    e = sub.add_parser("embed", help="embed a payload into a cover")
    e.add_argument("--cover", required=True)
    e.add_argument("--key", required=True)
    e.add_argument("--payload", required=True,
                   help="k bits or hex (0x optional)")
    e.add_argument("--out", required=True, help="stego PPM path")
    e.add_argument("--side", help="basename for the .sig.json/.sig.bin pair")
    e.add_argument("--report", help="JSON report path")
    _config_flags(e)
    e.set_defaults(fn=cmd_embed)

    x = sub.add_parser("extract", help="recover the payload")
    x.add_argument("--image", required=True)
    x.add_argument("--side", help="signature basename from embed")
    x.add_argument("--key", help="re-derive directions under this key")
    x.add_argument("--decoder", help="decoder checkpoint for blind mode")
    x.add_argument("--report")
    _config_flags(x)
    x.set_defaults(fn=cmd_extract)

    a = sub.add_parser("attack", help="apply a distortion pipeline")
    a.add_argument("--image", required=True)
    a.add_argument("--spec", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--report")
    a.set_defaults(fn=cmd_attack)

    iv = sub.add_parser("invariance", help="rotation sweep + algebraic check")
    iv.add_argument("--cover", default="synth:seed=300")
    iv.add_argument("--key", default="777")
    iv.add_argument("--payload")
    iv.add_argument("--payload-seed", dest="payload_seed", type=int, default=9)
    iv.add_argument("--angles", default="0.5,1.0,1.5,2.0,2.5,3.0")
    iv.add_argument("--axes", type=int, default=8)
    iv.add_argument("--n-rotations", dest="n_rotations", type=int, default=100)
    iv.add_argument("--csv")
    iv.add_argument("--report")
    _config_flags(iv)
    iv.set_defaults(fn=cmd_invariance)

    b = sub.add_parser("bench", help="distortion grid over synthetic covers")
    b.add_argument("--covers", type=int, default=5)
    b.add_argument("--seed", type=int, default=300)
    b.add_argument("--payload-seed", dest="payload_seed", type=int, default=50)
    b.add_argument("--key", default="777")
    b.add_argument("--attacks", default=DEFAULT_ATTACKS,
                   help="semicolon-separated attack specs")
    b.add_argument("--alphas", help="comma list for the strength/psnr curve")
    b.add_argument("--csv")
    b.add_argument("--report")
    _config_flags(b)
    b.set_defaults(fn=cmd_bench)

    t = sub.add_parser("train-decoder", help="fit a blind linear decoder")
    t.add_argument("--k", type=int, default=32)
    t.add_argument("--n", type=int, default=600)
    t.add_argument("--epochs", type=int, default=400)
    t.add_argument("--lr", type=float, default=1.0)
    t.add_argument("--key", default="4242")
    t.add_argument("--cover-seed", dest="cover_seed", type=int, default=7003)
    t.add_argument("--payload-seed", dest="payload_seed", type=int, default=123)
    t.add_argument("--out", required=True, help="decoder checkpoint JSON")
    t.add_argument("--curve", help="loss-curve CSV path")
    t.add_argument("--report")
    t.set_defaults(fn=cmd_train_decoder)

    ab = sub.add_parser("ablate",
                        help="third-order vs power feature comparison")
    ab.add_argument("--ks", default="16,32")
    ab.add_argument("--n", type=int, default=600)
    ab.add_argument("--report")
    ab.set_defaults(fn=cmd_ablate)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except _UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except harmonics.SymmetryError as e:
        print("symmetry error: %s" % e, file=sys.stderr)
        return 3
    except OSError as e:
        print("i/o error: %s" % e, file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
