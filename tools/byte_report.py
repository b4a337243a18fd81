"""Compare the bytes that two source trees of qusecnets compute.

    python3 tools/byte_report.py OLD_TREE NEW_TREE [--batches 1,2,63,64]
                                 [--trained-batches 48,64] [--keep DIR]

Each tree is a checkout holding src/qusecnets. The script runs the same
fixed-seed cases once under each tree, in a child process that imports
that tree's package, and prints for each group how many outputs are equal
and how many differ:

- conv arrays: every conv layer of four stacks (the default stack on
  28x28x1 and 32x32x3 inputs, a quarter-width stack and a tiny one) at
  each batch size, with random input, kernels and upstream. Ten arrays a
  layer: the forward, the full backward's three gradients and the
  input-only backward's input gradient, each computed twice: with the
  forward and the backwards on separate new BufferPools, and with all of
  them on one pool. Each backward writes its input gradient into a new
  array.
- model passes: an undefended, a CQ and a TQ n=4 z=5 model of each stack
  at each batch size, one training pass (probabilities, every gradient,
  the TQ quantizer delta) and one input-gradient pass (probabilities,
  input gradient, and the caller's images after it).
- trained files: a default-stack TQ n=4 z=5 model trained one epoch on
  140 random images at each trained batch size, its .qsn file, FGSM,
  C&W and JSMA .qsa files and an evaluate report of each.

Both children inherit this process's environment, so pin the BLAS
thread count (OPENBLAS_NUM_THREADS) before comparing. The exit status is
0 when every output is equal, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DEFAULT = (("conv", 64, 8), ("conv", 128, 6), ("conv", 128, 5), ("dense", 10))
STACKS = {
    "default": ((28, 28, 1), DEFAULT),
    "cifar": ((32, 32, 3), DEFAULT),
    "quarter": ((28, 28, 1), (("conv", 16, 8), ("conv", 32, 6), ("conv", 32, 5), ("dense", 10))),
    "tiny": ((8, 8, 1), (("conv", 4, 3), ("conv", 4, 2), ("conv", 4, 2), ("dense", 10))),
}
BATCHES = "1,2,3,8,16,31,32,48,63,64,65,128"
TRAINED_BATCHES = "48,63,64,65"


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _conv_cases(np, nn, batches) -> dict:
    out = {}
    for si, (name, (shape, stack)) in enumerate(STACKS.items()):
        for n in batches:
            rng = np.random.default_rng([si, n])
            h, w, cin = shape
            for li, (_, cout, k) in enumerate(s for s in stack if s[0] == "conv"):
                oh, ow = h - k + 1, w - k + 1
                x = rng.random((n, h, w, cin))
                kernels = rng.standard_normal((k, k, cin, cout)) * 0.1
                bias = rng.standard_normal(cout)
                up = rng.standard_normal((n, oh, ow, cout))
                pool = nn.BufferPool()
                arrays = {
                    "forward": nn.conv_forward_batch(x, kernels, bias, nn.BufferPool()),
                    "forward.pooled": nn.conv_forward_batch(x, kernels, bias, pool, "c"),
                }
                for tag, p in (("", nn.BufferPool()), (".pooled", pool)):
                    d_k, d_b, d_in = nn.conv_backward_batch(
                        nn.row_patches(x, k, p), kernels, up, x.shape, True, p, "c",
                        into=np.empty((h, n, w, cin)))
                    arrays.update({"d_kernels" + tag: d_k, "d_bias" + tag: d_b,
                                   "d_input" + tag: d_in})
                    _, _, d_in = nn.conv_backward_batch(
                        nn.row_patches(x, k, p, fill=False), kernels, up, x.shape, True, p,
                        "c", need_params=False, into=np.empty((h, n, w, cin)))
                    arrays["d_input.only" + tag] = d_in
                for tag, a in arrays.items():
                    out[f"{name}/n{n}/conv{li}/{tag}"] = _digest(a)
                h, w, cin = oh, ow, cout
    return out


def _training_pass(model, cache, d_logits):
    """(gradients by name, quantizer delta) of a training pass, unapplied.

    A tree whose backward_batch takes a step hook hands the gradients to
    it; an older one returns them in a dict.
    """
    if "step" not in inspect.signature(model.backward_batch).parameters:
        return model.backward_batch(cache, d_logits)
    grads = {}
    return grads, model.backward_batch(cache, d_logits, grads.__setitem__)


def _model_passes(np, qmodel, batches) -> dict:
    out = {}
    for si, (name, (shape, stack)) in enumerate(STACKS.items()):
        for defense in ("none", "cq", "tq"):
            config = qmodel.ModelConfig(input_shape=shape, defense=defense, levels=4,
                                        steepness=5.0, architecture=stack, seed=si,
                                        loss="cross_entropy")
            model = qmodel.build_model(config)
            for n in batches:
                rng = np.random.default_rng([si, n, 1])
                x, labels = rng.random((n,) + shape), rng.integers(0, 10, n)
                probs, cache = model.forward_batch(x, keep_cache=True)
                _, d_logits = model.loss_and_grad_batch(probs, labels)
                grads, delta = _training_pass(model, cache, d_logits)
                deltas = () if delta is None else (delta,)
                out[f"{name}/{defense}/n{n}/training"] = _digest(
                    probs, *(grads[k] for k in sorted(grads)), *deltas)
                probs, d_raw = model.input_gradient_batch(x, labels)
                out[f"{name}/{defense}/n{n}/input_gradient"] = _digest(probs, d_raw, x)
    return out


def _trained_files(np, batches, where: Path) -> dict:
    from qusecnets.attacks import AttackSpec, generate_batch
    from qusecnets.data import Dataset
    from qusecnets.evaluate import evaluate
    from qusecnets.model import ModelConfig, build_model, train
    from qusecnets.serial import save_adversarial_batch, save_weights

    rng = np.random.default_rng(0)
    data = Dataset(rng.random((140, 28, 28, 1)), rng.integers(0, 10, 140), "synthetic", "train")
    specs = {"fgsm": (AttackSpec("fgsm", epsilon=0.1), 16),
             "cw_l2": (AttackSpec("cw_l2", iterations=5), 4),
             "jsma": (AttackSpec("jsma", gamma=0.02), 2)}
    files = []
    for n in batches:
        model = build_model(ModelConfig(defense="tq", levels=4, steepness=5.0, seed=0,
                                        loss="cross_entropy"))
        train(model, data, epochs=1, batch_size=n, lr=0.01, seed=0)
        files.append(where / f"b{n}.qsn")
        save_weights(model, files[-1])
        for kind, (spec, count) in specs.items():
            part = data.subset(count)
            batch = generate_batch(model, part.images, part.labels, spec)
            files.append(where / f"b{n}.{kind}.qsa")
            save_adversarial_batch(batch, files[-1])
            files.append(where / f"b{n}.{kind}.json")
            files[-1].write_text(evaluate(model, part, adversarial=batch).to_json())
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def emit(tree: Path, out: Path, batches, trained_batches) -> None:
    """In a child: compute every case with tree's package and write out/hashes.json."""
    sys.path.insert(0, str(tree / "src"))
    import numpy as np

    import qusecnets
    from qusecnets import model as qmodel
    from qusecnets import nn

    if not Path(qusecnets.__file__).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"imported {qusecnets.__file__}, not the package under {tree}")
    (out / "trained").mkdir(parents=True, exist_ok=True)
    hashes = {"conv arrays": _conv_cases(np, nn, batches),
              "model passes": _model_passes(np, qmodel, batches),
              "trained files": _trained_files(np, trained_batches, out / "trained")}
    (out / "hashes.json").write_text(json.dumps(hashes, indent=1))


def _ints(text: str) -> list:
    return [int(v) for v in text.split(",") if v]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs=2, type=Path, metavar="TREE")
    parser.add_argument("--batches", default=BATCHES,
                        help="batch sizes of the conv and model cases (default %(default)s)")
    parser.add_argument("--trained-batches", default=TRAINED_BATCHES,
                        help="training batch sizes of the trained files (default %(default)s)")
    parser.add_argument("--keep", type=Path, default=None,
                        help="write each tree's outputs under this directory and keep them")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    batches, trained_batches = _ints(args.batches), _ints(args.trained_batches)
    if args.emit:  # trees are (tree, output directory)
        emit(args.trees[0], args.trees[1], batches, trained_batches)
        return 0
    with tempfile.TemporaryDirectory() as scratch:
        root = args.keep or Path(scratch)
        results = []
        for i, tree in enumerate(args.trees):
            out = root / f"tree{i}"
            subprocess.run([sys.executable, __file__, "--emit", str(tree), str(out),
                            "--batches", args.batches,
                            "--trained-batches", args.trained_batches],
                           check=True, env=dict(os.environ))
            results.append(json.loads((out / "hashes.json").read_text()))
    old, new = results
    differ_total = 0
    for group in old:
        a, b = old[group], new[group]
        differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        differ_total += len(differ)
        print(f"{group}: {len(a.keys() | b.keys()) - len(differ)} equal, {len(differ)} differ")
        for key in differ[:10]:
            print(f"  differs: {key}")
    return 1 if differ_total else 0


if __name__ == "__main__":
    sys.exit(main())
