"""Command line harness.

Subcommands: train, eval, gradcheck, spectrum, bench, build-graph.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

import argparse
import json
import sys

from .bench import DEFAULT_MODES, DEFAULT_SIZES, bench_csv, bench_scaling
from .blocks import build_model, load_checkpoint
from .filterbank import build_filter_bank, spectrum_csv
from .graphs import graph_to_json, parse_conllu
from .serialize import write_text_atomic
from .spectral import SpectrumCache
from .training import TrainConfig, evaluate, grad_check, model_from_params, train_loop
from .tasks import check_mode, fixed_samples


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwmixer",
        description="Spectral graph-wavelet mixing: train, evaluate, and benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", required=True, help="path to train config JSON")
    p.add_argument("--out", required=True, help="output directory (metrics.csv, checkpoint.json)")

    p = sub.add_parser("eval", help="evaluate a checkpoint on held-out samples")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seed", type=int, default=1000, help="held-out stream seed")
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--mode", default=None,
                   help="override mix mode (exact | truncated:M | chebyshev:P)")

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--selector", default="model",
                   choices=["filter", "mix", "layer", "model"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)

    p = sub.add_parser("spectrum", help="write filter responses on [0,2] as CSV")
    p.set_defaults(usage_error=p.error)  # for the option rules argparse cannot state
    src = p.add_mutually_exclusive_group()
    src.add_argument("--checkpoint", help="read filters from a checkpoint")
    src.add_argument("--seed", type=int, default=0, help="seed for a fresh bank")
    p.add_argument("--layer", type=int, help="layer index (checkpoint source; default 0)")
    p.add_argument("--k", type=int, help="filter count (fresh bank; default 4)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="scaling benchmark with verified outputs")
    p.add_argument("--sizes", default=",".join(str(n) for n in DEFAULT_SIZES))
    p.add_argument("--d", type=int, default=32)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--modes", default=",".join(DEFAULT_MODES))
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the CSV here (default stdout)")

    p = sub.add_parser("build-graph", help="convert CoNLL-U parses to graph JSON lines")
    p.add_argument("--conllu", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sentence", type=int, default=None,
                   help="emit only this sentence index (default: all, one per line)")
    return parser


def _cmd_train(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        cfg = TrainConfig.from_dict(json.load(fh))
    model = build_model(cfg.d, cfg.k, cfg.layers, cfg.ffn_mult, cfg.vocab, cfg.seed)
    result = train_loop(model, cfg, out_dir=args.out)
    last = result.records[-1] if result.records else None
    print(f"trained {len(result.records)} steps"
          + (f", final loss {last.loss:.6f}" if last else ""))
    if result.final_val_loss is not None:
        print(f"final validation loss {result.final_val_loss:.6f}"
              + (" (stopped early)" if result.stopped_early else ""))
    print(f"wrote {args.out}/metrics.csv and {args.out}/checkpoint.json")
    return 0


def _cmd_eval(args) -> int:
    config, params = load_checkpoint(args.checkpoint)
    cfg = TrainConfig.from_dict({**config, "mode": args.mode} if args.mode else config)
    model = model_from_params(config, params)
    spec, mode = cfg.task_spec(), cfg.mix_mode()
    check_mode(spec, mode)
    samples = fixed_samples(spec, args.seed, args.samples, "eval")
    cache = SpectrumCache()
    loss, acc = evaluate(model, samples, mode, cache)
    print(f"samples {args.samples}  loss {loss:.6f}  token_accuracy {acc:.4f}")
    stats = cache.stats()
    print(f"spectrum cache: hits {stats.hits}  misses {stats.misses}  "
          f"evictions {stats.evictions}  bytes {stats.nbytes}", file=sys.stderr)
    return 0


def _cmd_gradcheck(args) -> int:
    report = grad_check(args.selector, seed=args.seed, step=args.step, tol=args.tol)
    for e in report.entries:
        print(f"{e.name:40s} rel_err {e.max_rel_err:.3e}")
    status = "PASS" if report.passed else "FAIL"
    print(f"{status}: max rel err {report.max_rel_err:.3e} (tol {report.tol:g})")
    return 0 if report.passed else 1


def _cmd_spectrum(args) -> int:
    if args.checkpoint is not None:
        config, params = load_checkpoint(args.checkpoint)
        model = model_from_params(config, params)
        layer = 0 if args.layer is None else args.layer
        if not 0 <= layer < len(model.layers):
            raise ValueError(f"layer {layer} out of range (model has {len(model.layers)})")
        bank = model.layers[layer].bank
    else:
        bank = build_filter_bank(4 if args.k is None else args.k, d=1, seed=args.seed)
    write_text_atomic(args.out, spectrum_csv(bank))
    print(f"wrote {args.out} ({bank.k} filters, 512 samples)")
    return 0


def _cmd_bench(args) -> int:
    entries = args.sizes.split(",")
    for entry in entries:
        if not (entry.isascii() and entry.isdigit()):
            raise ValueError(f"--sizes entry {entry!r} in {args.sizes!r} is not a decimal integer")
    sizes = [int(entry) for entry in entries]
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    records, slopes = bench_scaling(sizes, d=args.d, k=args.k, modes=modes,
                                    repeats=args.repeats, seed=args.seed)
    text = bench_csv(records, slopes)
    if args.out:
        write_text_atomic(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    for mode, slope in slopes.items():
        print(f"slope[{mode}] = {slope:.3f}")
    return 0


def _cmd_build_graph(args) -> int:
    with open(args.conllu, encoding="utf-8") as fh:
        graphs = parse_conllu(fh.read())
    if args.sentence is not None:
        if not 0 <= args.sentence < len(graphs):
            raise ValueError(f"sentence {args.sentence} out of range ({len(graphs)} parsed)")
        graphs = [graphs[args.sentence]]
    write_text_atomic(args.out, "".join(graph_to_json(g) + "\n" for g in graphs))
    print(f"wrote {len(graphs)} graph(s) to {args.out}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "spectrum": _cmd_spectrum,
    "bench": _cmd_bench,
    "build-graph": _cmd_build_graph,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "spectrum" and args.checkpoint is None and args.layer is not None:
            args.usage_error("argument --layer: not allowed without argument --checkpoint")
        if args.command == "spectrum" and args.checkpoint is not None and args.k is not None:
            args.usage_error("argument --k: not allowed with argument --checkpoint")
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
