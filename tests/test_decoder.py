import json
import re

import numpy as np
import pytest

from sphmark import decoder
from sphmark.decoder import (
    LinearDecoder, TrainConfig, _sigmoid, bce_loss, cube_root,
    decoder_gradients, gradient_check, make_ablation_dataset, train,
)


def _toy_problem(n=64, F=6, k=3, seed=0, margin=2.0):
    # linearly separable by construction
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((k, F))
    X = rng.standard_normal((n, F))
    Y = (X @ W.T + 0.1 * rng.standard_normal((n, k)) > 0).astype(int)
    return X * margin, Y


def test_cube_root_signed():
    v = cube_root(np.array([-8.0, -1.0, 0.0, 27.0]))
    assert np.allclose(v, [-2, -1, 0, 3])


def test_bce_loss_reference_values():
    p = np.full((4, 3), 0.5)
    y = np.random.default_rng(0).integers(0, 2, (4, 3))
    assert bce_loss(p, y) == pytest.approx(np.log(2.0))
    # certainty on the right answer drives the loss to the clip floor
    assert bce_loss(y.astype(float), y) == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ValueError):
        bce_loss(np.zeros((2, 2)), np.zeros((2, 3)))


def test_decoder_shapes_and_tie_break():
    dec = LinearDecoder(np.zeros((2, 4)), np.zeros(2), np.zeros(4), np.ones(4))
    f = np.ones(4)
    assert np.allclose(dec.probabilities(f), 0.5)
    assert np.array_equal(dec.decode(f), [0, 0])     # p = 0.5 maps to 0
    with pytest.raises(ValueError):
        LinearDecoder(np.zeros((2, 4)), np.zeros(3), np.zeros(4), np.ones(4))
    with pytest.raises(ValueError):
        dec.probabilities(np.ones(5))


def test_decoder_save_load(tmp_path):
    rng = np.random.default_rng(1)
    dec = LinearDecoder(rng.standard_normal((3, 5)), rng.standard_normal(3),
                        rng.standard_normal(5), np.abs(rng.standard_normal(5)) + 1,
                        cube=False)
    p = tmp_path / "dec.json"
    dec.save(p)
    back = LinearDecoder.load(p)
    assert back.cube is False
    for a, b in [(back.weights, dec.weights), (back.bias, dec.bias),
                 (back.mean, dec.mean), (back.scale, dec.scale)]:
        assert np.array_equal(a, b)
    x = rng.standard_normal((4, 5))
    assert np.array_equal(back.decode(x), dec.decode(x))

    p2 = tmp_path / "bad.json"
    pat = re.escape(str(p2))
    p2.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValueError, match=pat + ": not a recognized decoder checkpoint"):
        LinearDecoder.load(p2)
    good = json.loads(p.read_text())
    for obj, fault in [({k: v for k, v in good.items() if k != "weights"},
                        "missing field 'weights'"),
                       (dict(good, bias="abc"), "could not convert string to float"),
                       (dict(good, weights=[1.0, 2.0]), "not enough values to unpack"),
                       (dict(good, k=4), "decoder checkpoint shape mismatch")]:
        p2.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=pat + ": " + fault):
            LinearDecoder.load(p2)
    p2.write_text("[1, 2")
    with pytest.raises(ValueError, match=pat + ": Expecting"):
        LinearDecoder.load(p2)


def test_gradient_check_passes_and_validates():
    X, Y = _toy_problem()
    rng = np.random.default_rng(3)
    dec = LinearDecoder(0.1 * rng.standard_normal((3, 6)),
                        0.1 * rng.standard_normal(3),
                        X.mean(axis=0), X.std(axis=0), cube=False)
    assert gradient_check(dec, X, Y, n_checks=50) < 1e-4
    with pytest.raises(ValueError):
        gradient_check(dec, X, Y, eps=1e-2)
    with pytest.raises(ValueError):
        gradient_check(dec, X, Y, eps=1e-7)


def test_gradients_match_finite_difference_densely():
    # every entry, not a random probe: small model keeps this cheap
    X, Y = _toy_problem(n=16, F=3, k=2, seed=5)
    dec = LinearDecoder(np.full((2, 3), 0.2), np.full(2, -0.1),
                        np.zeros(3), np.ones(3), cube=False)
    gW, gb = decoder_gradients(dec, X, Y)
    eps = 1e-6
    from sphmark.decoder import _sigmoid
    Z = dec.normalize(X)

    def loss(W, b):
        return bce_loss(_sigmoid(Z @ W.T + b), Y)

    for i in range(2):
        for j in range(3):
            Wp = dec.weights.copy(); Wp[i, j] += eps
            Wm = dec.weights.copy(); Wm[i, j] -= eps
            num = (loss(Wp, dec.bias) - loss(Wm, dec.bias)) / (2 * eps)
            assert abs(num - gW[i, j]) < 1e-8


def test_train_separable_problem():
    # raw-linear toy data: disable the cube-root front end
    X, Y = _toy_problem()
    run = train(X, Y, TrainConfig(lr=0.5, epochs=200, cube=False))
    assert run.accuracies[-1] == 1.0
    assert run.losses[-1] < run.losses[0]
    assert run.best_epoch >= 0
    assert (run.decoder.decode(X) == Y).mean() == 1.0


def test_train_determinism():
    X, Y = _toy_problem(seed=7)
    tc = TrainConfig(lr=0.3, epochs=40)
    a = train(X, Y, tc)
    b = train(X, Y, tc)
    assert a.losses == b.losses
    assert np.array_equal(a.decoder.weights, b.decoder.weights)


def test_train_validation_and_divergence():
    X, Y = _toy_problem()
    with pytest.raises(ValueError):
        train(X[:1], Y[:1])
    with pytest.raises(ValueError):
        train(X, Y[:-1])
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    # a non-finite loss must abort with diagnostics, not loop silently
    Xw = X.copy()
    Xw[0, 0] = np.nan
    with pytest.raises(RuntimeError, match="diverged"):
        train(Xw, Y, TrainConfig(lr=0.5, epochs=50, cube=False))


def test_best_epoch_snapshot():
    X, Y = _toy_problem(seed=13)
    run = train(X, Y, TrainConfig(lr=0.5, epochs=60))
    assert run.best_epoch == int(np.argmin(run.losses))


def test_train_permutation_isomorphism():
    # permuting feature columns permutes the learned weights identically
    X, Y = _toy_problem(seed=15)
    perm = np.random.default_rng(0).permutation(X.shape[1])
    tc = TrainConfig(lr=0.4, epochs=50)
    a = train(X, Y, tc).decoder
    b = train(X[:, perm], Y, tc).decoder
    assert np.allclose(b.weights, a.weights[:, perm], atol=1e-10)
    assert np.allclose(b.bias, a.bias, atol=1e-10)


def _train_two_pass(X, Y, cfg):
    # the loop train() replaced: each epoch recomputed the probabilities at
    # the parameters the previous epoch ended with; reference only
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    n, F = X.shape
    k = Y.shape[1]
    Xc = cube_root(X) if cfg.cube else X
    mu = Xc.mean(axis=0)
    Z = (Xc - mu) / (Xc.std(axis=0) + 1e-12)
    W, b = np.zeros((k, F)), np.zeros(k)
    vW, vb = np.zeros_like(W), np.zeros_like(b)
    losses, accs, best = [], [], (np.inf, None, None, -1)
    for epoch in range(cfg.epochs):
        gl = (_sigmoid(Z @ W.T + b) - Y) / (n * k)
        vW = decoder.MOMENTUM * vW - cfg.lr * (gl.T @ Z)
        vb = decoder.MOMENTUM * vb - cfg.lr * gl.sum(axis=0)
        W += vW
        b += vb
        p = _sigmoid(Z @ W.T + b)
        loss = bce_loss(p, Y)
        losses.append(loss)
        accs.append(float(((p > 0.5) == (Y > 0.5)).mean()))
        if not np.isfinite(loss) or loss > 1e3:
            raise RuntimeError("training diverged at epoch %d" % epoch)
        if loss < best[0]:
            best = (loss, W.copy(), b.copy(), epoch)
    return losses, accs, best


@pytest.mark.parametrize("cube", [True, False])
def test_one_pass_train_matches_two_pass_loop(cube):
    Xa, _, Ya = make_ablation_dataset(k=8, n=40)
    for X, Y, lr in ((Xa, Ya, 1.0), (*_toy_problem(seed=9), 0.4)):
        tc = TrainConfig(lr=lr, epochs=60, cube=cube)
        run = train(X, Y, tc)
        losses, accs, (_, W, b, best_epoch) = _train_two_pass(X, Y, tc)
        assert run.losses == losses and run.accuracies == accs
        assert run.best_epoch == best_epoch
        assert np.array_equal(run.decoder.weights, W)
        assert np.array_equal(run.decoder.bias, b)


@pytest.mark.parametrize("seed", [0, 3, "nan"])
def test_one_pass_train_diverges_at_the_two_pass_epoch(seed):
    # a step near the float maximum overflows the weights to inf, and
    # inf - inf = nan, after 17-24 epochs; a nan feature diverges at once
    X, Y = _toy_problem(seed=0 if seed == "nan" else seed)
    if seed == "nan":
        X[0, 0] = np.nan
    tc = TrainConfig(lr=1.7e308, epochs=100, cube=False)
    with np.errstate(all="ignore"):
        with pytest.raises(RuntimeError) as ref:
            _train_two_pass(X, Y, tc)
        epoch = re.search(r"epoch (\d+)", str(ref.value)).group(1)
        assert (epoch == "0") == (seed == "nan")
        with pytest.raises(RuntimeError, match="diverged at epoch %s:" % epoch):
            train(X, Y, tc)


def test_train_run_to_csv(tmp_path):
    X, Y = _toy_problem()
    run = train(X, Y, TrainConfig(lr=0.3, epochs=5))
    p = tmp_path / "curve.csv"
    run.to_csv(p)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "epoch,loss,train_accuracy"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(run.losses[0], rel=1e-10)


def test_ablation_dataset_shapes_and_determinism():
    Xb, Xp, Y = make_ablation_dataset(k=8, n=12)
    assert Xb.shape == (12, 8 * 153)
    assert Xp.shape == (12, 16 * 9)      # degrees 1..16, 9 reals each
    assert Y.shape == (12, 8)
    Xb2, Xp2, Y2 = make_ablation_dataset(k=8, n=12)
    assert np.array_equal(Xb, Xb2) and np.array_equal(Xp, Xp2)
    assert np.array_equal(Y, Y2)
    # payloads actually vary across rows
    assert np.unique(Y, axis=0).shape[0] > 1


def test_small_ablation_learns_from_bispectral_features():
    # miniature version of the k-ablation: tiny n, reduced epochs
    Xb, Xp, Y = make_ablation_dataset(k=8, n=80)
    tc = TrainConfig(lr=1.0, epochs=150)
    run = train(Xb[:60], Y[:60], tc)
    acc = (run.decoder.decode(Xb[60:]) == Y[60:]).mean()
    assert acc >= 0.95
