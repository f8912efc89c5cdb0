"""Trainable linear decoders over invariant features.

Blind decoding maps a feature vector to k payload-bit probabilities with
a per-bit logistic model.  Also hosts the feature-family ablation that
pits third-order invariant features against per-degree power features on
identical training data.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import codec, coupling, harmonics


def cube_root(v):
    """Signed cube root; tames the cubic scaling of third-order features."""
    v = np.asarray(v, float)
    return np.sign(v) * np.abs(v) ** (1.0 / 3.0)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def bce_loss(p, bits):
    """Mean binary cross-entropy over all bits; p is clipped to (0, 1)."""
    p = np.clip(np.asarray(p, float), 1e-7, 1.0 - 1e-7)
    w = np.asarray(bits, float)
    if p.shape != w.shape:
        raise ValueError("probability/bit shapes differ")
    return float(-np.mean(w * np.log(p) + (1.0 - w) * np.log(1.0 - p)))


# ------------------------------------------------------------ linear model

@dataclass
class LinearDecoder:
    weights: np.ndarray          # (k, F)
    bias: np.ndarray             # (k,)
    mean: np.ndarray             # (F,) feature normalization
    scale: np.ndarray            # (F,)
    cube: bool = True            # apply cube_root before normalization

    def __post_init__(self):
        self.weights = np.asarray(self.weights, float)
        self.bias = np.asarray(self.bias, float)
        self.mean = np.asarray(self.mean, float)
        self.scale = np.asarray(self.scale, float)
        k, F = self.weights.shape
        if (self.bias.shape != (k,) or self.mean.shape != (F,)
                or self.scale.shape != (F,)):
            raise ValueError("decoder parameter shapes are inconsistent")

    @property
    def k(self):
        return self.weights.shape[0]

    @property
    def n_features(self):
        return self.weights.shape[1]

    def normalize(self, f):
        f = np.asarray(f, float)
        if f.shape[-1] != self.n_features:
            raise ValueError("feature length %d, decoder expects %d"
                             % (f.shape[-1], self.n_features))
        z = cube_root(f) if self.cube else f
        return (z - self.mean) / self.scale

    def probabilities(self, f):
        return _sigmoid(self.normalize(f) @ self.weights.T + self.bias)

    def decode(self, f):
        """Bits from features; exact 0.5 resolves to 0."""
        return (self.probabilities(f) > 0.5).astype(np.int64)

    def save(self, path):
        obj = {"format": "sphmark-decoder", "version": 1,
               "k": int(self.k), "n_features": int(self.n_features),
               "cube": bool(self.cube),
               "mean": self.mean.tolist(), "scale": self.scale.tolist(),
               "weights": self.weights.tolist(), "bias": self.bias.tolist()}
        with open(path, "w") as fh:
            json.dump(obj, fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                obj = json.load(fh)  # a syntax error is a ValueError
            if (not isinstance(obj, dict) or obj.get("format") != "sphmark-decoder"
                    or obj.get("version") != 1):
                raise ValueError("not a recognized decoder checkpoint")
            dec = cls(*(obj[f] for f in ("weights", "bias", "mean", "scale")),
                      bool(obj["cube"]))
        except KeyError as e:
            raise ValueError("%s: missing field %s" % (path, e))
        except (TypeError, ValueError) as e:
            raise ValueError("%s: %s" % (path, e))
        if dec.k != obj.get("k") or dec.n_features != obj.get("n_features"):
            raise ValueError("%s: decoder checkpoint shape mismatch" % path)
        return dec


def decoder_gradients(dec, X, Y):
    """Analytic gradient of the mean BCE wrt (weights, bias)."""
    Z = dec.normalize(X)
    Y = np.asarray(Y, float)
    n, k = Y.shape
    p = _sigmoid(Z @ dec.weights.T + dec.bias)
    gl = (p - Y) / (n * k)
    return gl.T @ Z, gl.sum(axis=0)


def gradient_check(dec, X, Y, eps=1e-5, n_checks=200, seed=0):
    """Max |analytic - central difference| over randomly probed entries."""
    if not 1e-6 <= eps <= 1e-3:
        raise ValueError("eps must lie in [1e-6, 1e-3]")
    gW, gb = decoder_gradients(dec, X, Y)
    Z = dec.normalize(X)
    Y = np.asarray(Y, float)

    def loss(W, b):
        return bce_loss(_sigmoid(Z @ W.T + b), Y)

    rng = np.random.default_rng(seed)
    k, F = dec.weights.shape
    worst = 0.0
    for _ in range(n_checks):
        if rng.random() < 0.9:
            i, j = int(rng.integers(k)), int(rng.integers(F))
            Wp = dec.weights.copy(); Wp[i, j] += eps
            Wm = dec.weights.copy(); Wm[i, j] -= eps
            num = (loss(Wp, dec.bias) - loss(Wm, dec.bias)) / (2 * eps)
            worst = max(worst, abs(num - gW[i, j]))
        else:
            i = int(rng.integers(k))
            bp = dec.bias.copy(); bp[i] += eps
            bm = dec.bias.copy(); bm[i] -= eps
            num = (loss(dec.weights, bp) - loss(dec.weights, bm)) / (2 * eps)
            worst = max(worst, abs(num - gb[i]))
    return worst


# ------------------------------------------------------------ training

MOMENTUM = 0.9


@dataclass
class TrainConfig:
    lr: float = 1e-2
    epochs: int = 200
    cube: bool = True

    def __post_init__(self):
        if self.lr <= 0 or self.epochs < 1:
            raise ValueError("bad training configuration")


@dataclass
class TrainRun:
    config: TrainConfig
    losses: list = field(default_factory=list)       # per epoch, full data
    accuracies: list = field(default_factory=list)   # per epoch, full data
    best_epoch: int = -1
    decoder: LinearDecoder = None

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("epoch,loss,train_accuracy\n")
            for e, (lo, ac) in enumerate(zip(self.losses, self.accuracies)):
                fh.write("%d,%.12g,%.12g\n" % (e, lo, ac))


def train(X, Y, cfg=None):
    """Fit a LinearDecoder by full-batch momentum gradient descent on BCE.

    Deterministic for a fixed config; keeps the lowest-loss epoch's
    parameters.  Raises RuntimeError if the loss diverges."""
    cfg = cfg or TrainConfig()
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError("X must be (n, F) and Y (n, k) with matching n")
    n, F = X.shape
    k = Y.shape[1]
    if n < 2:
        raise ValueError("training needs at least 2 samples")
    Xc = cube_root(X) if cfg.cube else X
    mu = Xc.mean(axis=0)
    sd = Xc.std(axis=0) + 1e-12
    Z = (Xc - mu) / sd

    W = np.zeros((k, F))
    b = np.zeros(k)
    vW = np.zeros_like(W)
    vb = np.zeros_like(b)
    run = TrainRun(config=cfg)
    best = (np.inf, None, None)
    for epoch in range(cfg.epochs):
        gl = (_sigmoid(Z @ W.T + b) - Y) / (n * k)
        vW = MOMENTUM * vW - cfg.lr * (gl.T @ Z)
        vb = MOMENTUM * vb - cfg.lr * gl.sum(axis=0)
        W += vW
        b += vb
        p = _sigmoid(Z @ W.T + b)
        loss = bce_loss(p, Y)
        acc = float(((p > 0.5) == (Y > 0.5)).mean())
        run.losses.append(loss)
        run.accuracies.append(acc)
        if not np.isfinite(loss) or loss > 1e3:
            raise RuntimeError(
                "training diverged at epoch %d: loss=%r, lr=%g, |W|max=%g"
                % (epoch, loss, cfg.lr, float(np.abs(W).max())))
        if loss < best[0]:
            best = (loss, W.copy(), b.copy())
            run.best_epoch = epoch
    run.decoder = LinearDecoder(best[1], best[2], mu, sd, cfg.cube)
    return run


# ------------------------------------------------------------ ablation

def make_ablation_dataset(k, n=600, cover_seed=7003, key=4242,
                          payload_seed=123, l_max=16, L_embed=(6, 8, 14)):
    """Coefficient-domain embeds on one band-limited cover.

    Returns (X_bispectral, X_power, Y): third-order keyed features and
    per-degree power features of the same embedded coefficients."""
    cfg = codec.CodecConfig(l_max=l_max, L_embed=tuple(L_embed), k=k)
    cover = harmonics.make_cover(cover_seed)
    c = harmonics.forward_sht(cover, cfg.l_max)
    rng = np.random.default_rng(payload_seed)
    degrees = range(1, cfg.l_max + 1)
    Xb = np.empty((n, codec.feature_length(cfg)))
    Xp = None
    Y = np.empty((n, k), np.int64)
    for i in range(n):
        w = rng.integers(0, 2, k)
        ct = codec.embed_coefficients(c, w, key, cfg)
        Xb[i] = codec.features_from_coeffs(ct, cfg)
        pf = coupling.power_spectrum_features(ct, degrees)
        if Xp is None:
            Xp = np.empty((n, pf.size))
        Xp[i] = pf
        Y[i] = w
    return Xb, Xp, Y


def ablate_power_spectrum(ks=(16, 32), n=600, train_frac=0.75,
                          cover_seed=7003, key=4242, payload_seed=123,
                          epochs=400, lr=1.0):
    """Train both feature families per payload size on identical data.

    Full-batch training so the whole comparison is deterministic; the
    report carries train/holdout accuracy per family and their holdout
    gap for every k."""
    tc = TrainConfig(lr=lr, epochs=epochs, cube=True)
    report = {
        "protocol": {"n": n, "train_fraction": train_frac,
                     "cover_seed": cover_seed, "key": key,
                     "payload_seed": payload_seed, "epochs": epochs,
                     "lr": lr, "momentum": MOMENTUM},
        "runs": {},
    }
    for k in ks:
        Xb, Xp, Y = make_ablation_dataset(k, n=n, cover_seed=cover_seed,
                                          key=key, payload_seed=payload_seed)
        ntr = int(round(train_frac * n))
        entry = {}
        for name, X in (("bispectral", Xb), ("power", Xp)):
            run = train(X[:ntr], Y[:ntr], tc)
            dec = run.decoder
            acc_tr = float((dec.decode(X[:ntr]) == Y[:ntr]).mean())
            acc_te = float((dec.decode(X[ntr:]) == Y[ntr:]).mean())
            entry[name] = {"train_accuracy": acc_tr,
                           "holdout_accuracy": acc_te,
                           "final_loss": run.losses[-1],
                           "n_features": int(X.shape[1])}
        entry["holdout_gap"] = (entry["bispectral"]["holdout_accuracy"]
                                - entry["power"]["holdout_accuracy"])
        report["runs"][str(k)] = entry
    return report
