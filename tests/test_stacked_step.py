"""The stacked optimizer step: batch_forward, cross_entropy_loss over
sized samples and model_backward run several graphs as one pass. Checked
against an independent per-sample, per-filter reference over dense U (as
in gate 5), against the per-sample path and against central
differences."""

import numpy as np
import pytest
from scipy.special import expit

from gwmixer import (
    MixMode,
    SpectrumCache,
    TokenGraph,
    build_chain_graph,
    build_filter_bank,
    build_model,
    cross_entropy_loss,
    model_backward,
    model_forward,
    model_params,
    wavelet_mix,
    wavelet_mix_backward,
)
from gwmixer.blocks import batch_forward
from gwmixer.spectral import EigenStack
from gwmixer.training import _fd_check

REL = 1e-12
MODES = [MixMode.exact(), MixMode.truncated(3)]


def tree(rng, n):
    return TokenGraph(n, [(int(rng.integers(i)), i) for i in range(1, n)])


def mixed_graphs(seed=0):
    """Trees of different n, a chain, a graph with an isolated node (5) and
    the first tree again."""
    rng = np.random.default_rng(seed)
    first = tree(rng, 7)
    return [first, tree(rng, 11), build_chain_graph(9),
            TokenGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4)]), first]


def draw_batch(graphs, vocab, seed=0):
    """(ids, targets, mask) per graph, each mask scoring at least one row."""
    rng = np.random.default_rng(seed)
    out = []
    for g in graphs:
        mask = rng.random(g.n) < 0.6
        mask[rng.integers(g.n)] = True
        out.append((rng.integers(vocab, size=g.n), rng.integers(vocab, size=g.n), mask))
    return out


def stacked_step(model, graphs, batch, mode, cache):
    ids, targets, masks = zip(*batch)
    logits, tape = batch_forward(model, graphs, ids, mode, cache, return_tape=True)
    loss, grad_logits = cross_entropy_loss(logits, np.concatenate(targets),
                                           np.concatenate(masks), [g.n for g in graphs])
    return logits, loss, model_backward(model, tape, grad_logits)


def response(params, prefix, lam):
    """One filter on its own: (g(lam), tanh layer (m, H), y before the softplus)."""
    lam = np.clip(lam, 0.0, 2.0)
    t = np.tanh(np.outer(lam, params[prefix + "w1"]) + params[prefix + "b1"])
    y = t @ params[prefix + "w2"] + params[prefix + "b2"]
    return np.logaddexp(0.0, y), t, y


def reference_step(model, systems, batch):
    """Logits, mean loss and its gradients, one sample and one filter at a
    time over each sample's dense U, from the named parameters alone."""
    p = {name: arr.copy() for name, arr in model_params(model).items()}
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    n_layers, k = len(model.layers), model.layers[0].bank.k
    logits_all, losses = [], []
    for eig, (ids, targets, mask) in zip(systems, batch):
        u, lam = eig.u, eig.lam
        x = p["embed"][ids]
        tapes = []
        for layer in range(n_layers):
            bank, ffn = f"layers.{layer}.bank.", f"layers.{layer}.ffn."
            filters = [response(p, f"{bank}filters.{i}.", lam) for i in range(k)]
            mixed = sum((u @ (h[:, None] * (u.T @ x))) * p[bank + "alpha"][i]
                        for i, (h, _, _) in enumerate(filters))
            r = x + mixed
            pre = r @ p[ffn + "w1"] + p[ffn + "b1"]
            tapes.append((x, r, pre, filters))
            x = r + np.maximum(pre, 0.0) @ p[ffn + "w2"] + p[ffn + "b2"]
        logits = x @ p["readout"]
        logits_all.append(logits)
        rows = np.arange(len(ids))
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        losses.append(-logp[rows, targets][mask].sum() / mask.sum())
        d_logits = np.exp(logp)
        d_logits[rows, targets] -= 1.0
        d_logits *= mask[:, None] / (mask.sum() * len(batch))
        grads["readout"] += x.T @ d_logits
        d_x = d_logits @ p["readout"].T
        for layer in reversed(range(n_layers)):
            bank, ffn = f"layers.{layer}.bank.", f"layers.{layer}.ffn."
            x_in, r, pre, filters = tapes[layer]
            grads[ffn + "w2"] += np.maximum(pre, 0.0).T @ d_x
            grads[ffn + "b2"] += d_x.sum(axis=0)
            d_pre = (d_x @ p[ffn + "w2"].T) * (pre > 0.0)
            grads[ffn + "w1"] += r.T @ d_pre
            grads[ffn + "b1"] += d_pre.sum(axis=0)
            d_r = d_x + d_pre @ p[ffn + "w1"].T
            xhat, ghat = u.T @ x_in, u.T @ d_r
            d_x = d_r.copy()
            for i, (h, t, y) in enumerate(filters):
                f = f"{bank}filters.{i}."
                alpha = p[bank + "alpha"][i]
                d_x += (u @ (h[:, None] * ghat)) * alpha
                grads[bank + "alpha"][i] += h @ (xhat * ghat)
                d_y = ((xhat * ghat) @ alpha) * expit(y)
                grads[f + "b2"] += d_y.sum()
                grads[f + "w2"] += d_y @ t
                d_z = d_y[:, None] * p[f + "w2"] * (1.0 - t * t)
                grads[f + "b1"] += d_z.sum(axis=0)
                grads[f + "w1"] += np.clip(lam, 0.0, 2.0) @ d_z
        np.add.at(grads["embed"], ids, d_x)
    return np.concatenate(logits_all), float(np.mean(losses)), grads


def assert_rel(a, b, what, rel=REL):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape, what
    assert np.max(np.abs(a - b), initial=0.0) <= rel * max(np.max(np.abs(b), initial=0.0),
                                                           1e-300), what


@pytest.mark.parametrize("mode", MODES, ids=str)
def test_mixed_batch_matches_per_filter_reference(mode):
    graphs = mixed_graphs()
    model = build_model(8, 3, 2, 2, 13, seed=1)
    for layer in model.layers:  # alphas away from their constant start
        layer.bank.alpha[...] = np.random.default_rng(5).uniform(0.2, 1.0, layer.bank.alpha.shape)
    batch = draw_batch(graphs, 13)
    cache = SpectrumCache()
    logits, loss, grads = stacked_step(model, graphs, batch, mode, cache)
    systems = [cache.get_or_compute(g, mode) for g in graphs]
    ref_logits, ref_loss, ref_grads = reference_step(model, systems, batch)
    assert_rel(logits, ref_logits, "logits")
    assert loss == pytest.approx(ref_loss, rel=REL)
    assert list(grads) == list(ref_grads)
    for name in grads:
        assert_rel(grads[name], ref_grads[name], name)


@pytest.mark.parametrize("mode", MODES, ids=str)
def test_stacked_step_matches_the_per_sample_path(mode):
    graphs = mixed_graphs(1)
    model = build_model(8, 2, 2, 2, 11, seed=2)
    batch = draw_batch(graphs, 11, seed=1)
    cache = SpectrumCache()
    logits, loss, grads = stacked_step(model, graphs, batch, mode, cache)
    per_loss, total = [], {name: np.zeros_like(g) for name, g in grads.items()}
    rows = 0
    for g, (ids, targets, mask) in zip(graphs, batch):
        one, tape = model_forward(model, g, ids, mode, cache, return_tape=True)
        assert_rel(logits[rows:rows + g.n], one, "logits")
        rows += g.n
        sample_loss, grad_logits = cross_entropy_loss(one, targets, mask)
        per_loss.append(sample_loss)
        for name, grad in model_backward(model, tape, grad_logits).items():
            total[name] += grad / len(graphs)
    assert loss == pytest.approx(np.mean(per_loss), rel=REL)
    for name in grads:
        assert_rel(grads[name], total[name], name)


def test_step_loss_is_the_mean_of_the_per_sample_losses():
    graphs = mixed_graphs(2)
    model = build_model(8, 2, 1, 2, 11, seed=3)
    batch = draw_batch(graphs, 11, seed=2)
    ids, targets, masks = zip(*batch)
    logits, _ = batch_forward(model, graphs, ids, MixMode.exact())
    sizes = [g.n for g in graphs]
    loss, grad = cross_entropy_loss(logits, np.concatenate(targets), np.concatenate(masks), sizes)
    bounds = np.cumsum([0] + sizes)
    per = [cross_entropy_loss(logits[a:b], t, m) for a, b, t, m in
           zip(bounds[:-1], bounds[1:], targets, masks)]
    assert loss == sum(sample_loss for sample_loss, _ in per) / len(per)
    assert_rel(grad, np.concatenate([g for _, g in per]) / len(per), "grad_logits")


def test_central_differences_on_a_three_graph_batch():
    rng = np.random.default_rng(4)
    graphs = [tree(rng, 5), build_chain_graph(4), TokenGraph(4, [(0, 1), (1, 2)])]
    model = build_model(4, 2, 2, 2, 7, seed=4)
    batch = draw_batch(graphs, 7, seed=4)
    ids, targets, masks = zip(*batch)
    targets, masks = np.concatenate(targets), np.concatenate(masks)
    sizes = [g.n for g in graphs]
    cache = SpectrumCache()
    mode = MixMode.exact()

    def loss_fn():
        logits, _ = batch_forward(model, graphs, ids, mode, cache)
        return cross_entropy_loss(logits, targets, masks, sizes)[0]

    logits, tape = batch_forward(model, graphs, ids, mode, cache, return_tape=True)
    _, grad_logits = cross_entropy_loss(logits, targets, masks, sizes)
    analytic = model_backward(model, tape, grad_logits)
    entries = _fd_check(model_params(model), loss_fn, analytic, 1e-5)
    assert max(e.max_rel_err for e in entries) <= 1e-4


@pytest.mark.parametrize("mode", MODES, ids=str)
def test_mixing_a_stack_is_mixing_each_graph(mode):
    graphs = mixed_graphs(3)
    cache = SpectrumCache()
    systems = [cache.get_or_compute(g, mode) for g in graphs]
    stack = cache.operand(graphs, mode)
    assert isinstance(stack, EigenStack)
    assert all(a is b for a, b in zip(stack.systems, systems, strict=True))
    rng = np.random.default_rng(6)
    bank = build_filter_bank(3, 4, seed=6)
    x = rng.standard_normal((stack.n, 4))
    up = rng.standard_normal((stack.n, 4))
    y, tape = wavelet_mix(bank, stack, x, mode, return_tape=True)
    assert tape.operand is stack
    grad_x, grad_bank = wavelet_mix_backward(bank, tape, up)
    rows = np.cumsum([0] + [g.n for g in graphs])
    parts = []
    for eig, a, b in zip(systems, rows[:-1], rows[1:]):
        part_y, part_tape = wavelet_mix(bank, eig, x[a:b], mode, return_tape=True)
        part_x, part_bank = wavelet_mix_backward(bank, part_tape, up[a:b])
        assert_rel(y[a:b], part_y, "y")
        assert_rel(grad_x[a:b], part_x, "grad_x")
        parts.append(part_bank)
    for name in ("w1", "b1", "w2", "b2", "alpha"):
        assert_rel(getattr(grad_bank, name), sum(getattr(b, name) for b in parts), name)


def test_batch_checks_its_inputs():
    model = build_model(4, 2, 1, 2, 7, seed=0)
    chain = build_chain_graph(3)
    with pytest.raises(ValueError, match="one token id array per graph"):
        batch_forward(model, [chain, chain], [[0, 1, 2]], MixMode.exact())
    with pytest.raises(ValueError, match="need 3 token ids"):
        batch_forward(model, [chain, chain], [[0, 1, 2], [0, 1]], MixMode.exact())
    with pytest.raises(ValueError, match="vocabulary"):
        batch_forward(model, [chain, chain], [[0, 1, 2], [0, 1, 7]], MixMode.exact())
    logits = np.zeros((5, 4))
    targets = np.zeros(5, dtype=int)
    with pytest.raises(ValueError, match="mask scores no positions"):
        cross_entropy_loss(logits, targets, [True, True, True, False, False], [3, 2])
    for sizes in ([3, 3], [5, 0], [], [[5]]):
        with pytest.raises(ValueError, match="shape mismatch"):
            cross_entropy_loss(logits, targets, np.ones(5, dtype=bool), sizes)
