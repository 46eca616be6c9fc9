"""Mixing layers and the full sequence model.

A layer is wavelet mixing with a residual, then a two-layer ReLU feed
forward with a second residual (no normalization):

    m = mix(x);  r = x + m;  y = r + relu(r W1 + b1) W2 + b2

The model embeds token ids, stacks layers over one shared operand (a
spectrum or a ChebyshevOperator), and projects to vocabulary logits. A forward pass asked for a tape
records one (each mix's operand is on its MixTape alone); backward passes
take (parameters, tape, upstream) and replay it with hand-written gradients.
Without a tape, inference drops each layer's intermediates before the
next layer runs, and every layer does its arithmetic in the arrays it
already owns.

batch_forward runs the samples of an optimizer step as one pass: their
rows are stacked for the embedding gather, every layer (each mixing over
the one operand SpectrumCache.operand builds for all of them, see
filterbank) and the readout, and model_backward replays the stacked
tape (return_tape=True) into one set of gradients. model_forward is its
one-sample case.
"""

import json
from dataclasses import dataclass

import numpy as np

from .filterbank import (
    FilterBank,
    MixMode,
    MixTape,
    draw_filter_bank,
    named_bank_tensors,
    wavelet_mix,
    wavelet_mix_backward,
)
from .graphs import TokenGraph, require_int, require_int_array, require_real_array
from .serialize import dumps_canonical, write_text_atomic
from .spectral import ChebyshevOperator, EigenStack, EigenSystem, SpectrumCache

CHECKPOINT_VERSION = 2  # 2: the mix mode is one string, see _upgrade_v1_config


@dataclass
class FeedForward:
    w1: np.ndarray  # (d, f)
    b1: np.ndarray  # (f,)
    w2: np.ndarray  # (f, d)
    b2: np.ndarray  # (d,)


def build_feed_forward(d: int, mult: int, rng: np.random.Generator) -> FeedForward:
    f = d * mult
    bd = 1.0 / np.sqrt(d)
    bf = 1.0 / np.sqrt(f)
    return FeedForward(
        w1=rng.uniform(-bd, bd, (d, f)),
        b1=rng.uniform(-bd, bd, f),
        w2=rng.uniform(-bf, bf, (f, d)),
        b2=rng.uniform(-bf, bf, d),
    )


@dataclass
class WaveletLayer:
    bank: FilterBank
    ffn: FeedForward


@dataclass
class LayerTape:
    """Intermediates needed to run a layer backward; the mix's own tape
    records what it mixed over. layer_forward always makes one;
    batch_forward keeps it only when asked for a tape."""

    r: np.ndarray
    h: np.ndarray  # FFN hidden layer relu(r W1 + b1); h > 0 is the ReLU mask
    mix: MixTape | None  # None in chebyshev mode, which has no backward


def layer_forward(layer: WaveletLayer, operand: EigenSystem | EigenStack | ChebyshevOperator,
                  x: np.ndarray, mode: MixMode):
    """Returns (y, LayerTape). operand is what mode mixes over, as
    wavelet_mix takes it; when it covers several graphs, x holds their
    stacked rows and the FFN runs on all of them at once. The arithmetic
    runs in place in the arrays this call made (x, a real array, is only
    read), with the operands in the order of y = (r + h W2) + b2."""
    x = require_real_array("x", x)
    r, mix = wavelet_mix(layer.bank, operand, x, mode, return_tape=True)
    r += x  # the mix output is always a fresh array
    h = r @ layer.ffn.w1
    h += layer.ffn.b1
    np.maximum(h, 0.0, out=h)
    y = h @ layer.ffn.w2
    y += r
    y += layer.ffn.b2
    return y, LayerTape(r, h, mix)


def layer_backward(layer: WaveletLayer, tape: LayerTape, upstream: np.ndarray):
    """Gradients from the tape alone, the mix's over the operand its tape
    records: (grad_x, WaveletLayer of the gradients of the layer's
    arrays)."""
    ffn = layer.ffn
    d_pre = upstream @ ffn.w2.T
    d_pre *= tape.h > 0.0  # in place: one (rows, f) temporary less over a step's stacked rows
    grad_ffn = FeedForward(w1=tape.r.T @ d_pre, b1=d_pre.sum(axis=0),
                           w2=tape.h.T @ upstream, b2=upstream.sum(axis=0))
    d_r = upstream + d_pre @ ffn.w1.T
    grad_x, grad_bank = wavelet_mix_backward(layer.bank, tape.mix, d_r)
    return d_r + grad_x, WaveletLayer(grad_bank, grad_ffn)


@dataclass
class WaveletModel:
    embed: np.ndarray  # (vocab, d)
    layers: list
    readout: np.ndarray  # (d, vocab)

    @property
    def vocab(self) -> int:
        return self.embed.shape[0]

    @property
    def d(self) -> int:
        return self.embed.shape[1]


def build_model(d: int, k: int, layers: int, ffn_mult: int, vocab: int,
                seed: int = 0) -> WaveletModel:
    """Seeded construction from integer sizes (vocab >= 2, the others >= 1)
    and seed (>= 0), checked before anything is drawn. Draw order: embed,
    readout, then per layer the filter bank (filters in index order, alpha
    constant 1/K) and the FFN."""
    for name, value, low in (("d", d, 1), ("k", k, 1), ("layers", layers, 1),
                             ("ffn_mult", ffn_mult, 1), ("vocab", vocab, 2)):
        require_int(name, value, low)
    rng = np.random.default_rng(require_int("seed", seed, 0))
    bd = 1.0 / np.sqrt(d)
    embed = rng.uniform(-bd, bd, (vocab, d))
    readout = rng.uniform(-bd, bd, (d, vocab))
    stack = []
    for _ in range(layers):
        bank = draw_filter_bank(rng, k, d)
        stack.append(WaveletLayer(bank, build_feed_forward(d, ffn_mult, rng)))
    return WaveletModel(embed, stack, readout)


def model_params(model: WaveletModel) -> dict:
    """Named live views of every parameter tensor (mutating them mutates
    the model). Names are stable and double as checkpoint keys."""
    params = {"embed": model.embed, "readout": model.readout}
    for i, layer in enumerate(model.layers):
        params.update(named_bank_tensors(layer.bank, f"layers.{i}.bank."))
        for name in ("w1", "b1", "w2", "b2"):
            params[f"layers.{i}.ffn.{name}"] = getattr(layer.ffn, name)
    return params


@dataclass
class ModelTape:
    token_ids: np.ndarray
    layer_tapes: list
    h_final: np.ndarray


def batch_forward(model: WaveletModel, graphs, token_ids, mode: MixMode,
                  cache: SpectrumCache | None = None, return_tape: bool = False):
    """One forward pass over several samples: graphs[i] with token_ids[i],
    each an integer array (bool, float and string ids are a ValueError).
    Returns (logits, ModelTape) with return_tape, for model_backward, and
    (logits, None) without; the logits are the same. The rows of every
    sample are stacked in order. Without a tape, each layer's
    intermediates are dropped before the next layer runs, so inference
    holds only a layer's own arrays at a time. Every layer mixes over
    cache.operand(graphs, mode), built once per call (a fresh cache for
    this call when none is given)."""
    if len(graphs) != len(token_ids) or not graphs:
        raise ValueError(f"need one token id array per graph, got {len(token_ids)} "
                         f"for {len(graphs)} graphs")
    ids = []
    for graph, t in zip(graphs, token_ids):
        t = require_int_array("token ids", t)
        if t.ndim != 1 or len(t) != graph.n:
            raise ValueError(f"need {graph.n} token ids, got shape {t.shape}")
        ids.append(t)
    ids = np.concatenate(ids)
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= model.vocab:
        raise ValueError("token id out of vocabulary range")
    cache = cache if cache is not None else SpectrumCache()
    operand = cache.operand(graphs, mode)
    x = model.embed[ids]
    tapes = []
    for layer in model.layers:
        x, tape = layer_forward(layer, operand, x, mode)
        if return_tape:
            tapes.append(tape)
        del tape  # without a tape, the layer's intermediates go before the next layer runs
    logits = x @ model.readout
    return logits, (ModelTape(ids, tapes, x) if return_tape else None)


def model_forward(model: WaveletModel, graph: TokenGraph, token_ids,
                  mode: MixMode, cache: SpectrumCache | None = None,
                  return_tape: bool = False):
    """Embeds ids, runs the layer stack over the graph spectrum, projects
    to logits: the one-sample case of batch_forward. Returns (logits,
    ModelTape) with return_tape and (logits, None) without."""
    return batch_forward(model, (graph,), (token_ids,), mode, cache, return_tape)


def model_backward(model: WaveletModel, tape: ModelTape,
                   grad_logits: np.ndarray) -> dict:
    """Gradients for every named parameter, keyed and ordered like
    model_params, which names them. A batch_forward tape gives the
    gradient summed over its samples' rows."""
    grad_readout = tape.h_final.T @ grad_logits
    d_x = grad_logits @ model.readout.T
    grad_layers = [None] * len(model.layers)
    for i in reversed(range(len(model.layers))):
        d_x, grad_layers[i] = layer_backward(model.layers[i], tape.layer_tapes[i], d_x)
    grad_embed = np.zeros_like(model.embed)
    np.add.at(grad_embed, tape.token_ids, d_x)
    return model_params(WaveletModel(grad_embed, grad_layers, grad_readout))


def checkpoint_text(config: dict, params: dict) -> str:
    """Checkpoint JSON: {"version": 2, "config": {...}, "params": {...}}
    with sorted keys and floats at 17 significant digits, so equal state
    yields equal bytes. Each param must be a real array (require_real_array)."""
    params = {name: require_real_array(f"param {name!r}", arr) for name, arr in params.items()}
    return dumps_canonical({"version": CHECKPOINT_VERSION, "config": config, "params": params})


def save_checkpoint(path, config: dict, params: dict) -> None:
    """Write checkpoint_text atomically: a failed write leaves the
    previous file at path intact."""
    write_text_atomic(path, checkpoint_text(config, params))


def _upgrade_v1_config(config: dict) -> dict:
    """Version 1 spread the mix mode over mode, cheb_order and trunc_m
    (each 16 by default); version 2 holds it in one mode string."""
    config = dict(config)
    params = {"truncated": config.pop("trunc_m", 16), "chebyshev": config.pop("cheb_order", 16)}
    if config.get("mode") in params:
        config["mode"] += f":{params[config['mode']]}"
    return config


def load_checkpoint(path):
    """Returns (config, params) with params as finite float64 arrays. A
    version 1 checkpoint's config is upgraded to version 2; anything that
    is not a checkpoint of a known version raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint must be a JSON object, got {type(doc).__name__}")
    version = doc.get("version")
    if type(version) is not int or version not in (1, CHECKPOINT_VERSION):
        raise ValueError(f"unsupported checkpoint version {version!r}")
    for key in ("config", "params"):
        if key not in doc:
            raise ValueError(f"checkpoint has no {key!r} section")
        if not isinstance(doc[key], dict):
            raise ValueError(f"checkpoint {key!r} must be a JSON object, got {type(doc[key]).__name__}")
    params = {name: require_real_array(f"checkpoint param {name!r}", val, finite=True)
              for name, val in doc["params"].items()}
    return (_upgrade_v1_config(doc["config"]) if version == 1 else doc["config"]), params

