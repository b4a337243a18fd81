"""Compare the traced memory peaks of two source trees of qusecnets.

    python3 tools/peak_report.py OLD_TREE NEW_TREE [--tiny]

Each tree is a checkout holding src/qusecnets. The script runs three
passes once under each tree, in a child process that imports that tree's
package, and prints the tracemalloc peak of each, in MiB:

- tq-28x28x1-b64-step: one training step of a default-stack TQ n=4 z=5
  model at batch 64 on 28x28x1 images, as in the train_tq workload;
- cq-32x32x3-b8-step: one training step of a default-stack CQ n=2 model
  at batch 8 on 32x32x3 images, as in the jsma_cifar set-up;
- quarter-cq-28x28x1-b64-input: one input-gradient pass of a
  quarter-stack CQ n=2 model at batch 64 on 28x28x1 images, as in the
  sweep_fgsm workload's FGSM.

These are the passes that set each workload's peak memory. Each builds a
new model inside the trace, so its parameters count and its scratch pool
starts empty; the images are made before the trace starts. --tiny runs
every pass on an 8x8x1 three-conv stack, to check the script runs.

Live bytes are what tracemalloc counts, so the peaks do not move with
where the allocator places pages or with BLAS thread buffers, as peak
RSS does. The exit status is 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

DEFAULT = (("conv", 64, 8), ("conv", 128, 6), ("conv", 128, 5), ("dense", 10))
QUARTER = (("conv", 16, 8), ("conv", 32, 6), ("conv", 32, 5), ("dense", 10))
TINY = (("conv", 4, 3), ("conv", 4, 2), ("conv", 4, 2), ("dense", 10))
# name -> (input shape, architecture, defense, levels, steepness, batch, pass)
PASSES = {
    "tq-28x28x1-b64-step": ((28, 28, 1), DEFAULT, "tq", 4, 5.0, 64, "step"),
    "cq-32x32x3-b8-step": ((32, 32, 3), DEFAULT, "cq", 2, 50.0, 8, "step"),
    "quarter-cq-28x28x1-b64-input": ((28, 28, 1), QUARTER, "cq", 2, 50.0, 64, "input"),
}


def emit(tree: Path, tiny: bool) -> dict:
    """In a child: each pass's traced peak in bytes under tree's package."""
    sys.path.insert(0, str(tree / "src"))
    import tracemalloc

    import numpy as np

    import qusecnets
    from qusecnets.data import Dataset
    from qusecnets.model import ModelConfig, build_model, train

    if not Path(qusecnets.__file__).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"imported {qusecnets.__file__}, not the package under {tree}")
    peaks = {}
    for name, (shape, stack, defense, levels, steepness, n, kind) in PASSES.items():
        if tiny:
            shape, stack = (8, 8, 1), TINY
        rng = np.random.default_rng(0)
        data = Dataset(rng.random((n,) + shape), rng.integers(0, 10, n), "synthetic", "train")
        tracemalloc.start()
        try:
            model = build_model(ModelConfig(input_shape=shape, defense=defense, levels=levels,
                                            steepness=steepness, architecture=stack,
                                            loss="cross_entropy"))
            if kind == "step":
                train(model, data, epochs=1, batch_size=n, lr=0.01)
            else:
                model.input_gradient_batch(data.images, data.labels)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, metavar="TREE")
    parser.add_argument("--tiny", action="store_true",
                        help="run every pass on an 8x8x1 three-conv stack")
    parser.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit is not None:
        print(json.dumps(emit(args.emit, args.tiny)))
        return 0
    if len(args.trees) != 2:
        parser.error("give two trees, OLD_TREE and NEW_TREE")
    old, new = (json.loads(subprocess.run(
        [sys.executable, __file__, "--emit", str(tree)] + ["--tiny"] * args.tiny,
        check=True, capture_output=True, text=True).stdout) for tree in args.trees)
    print(f"{'pass':<30} {'old MiB':>9} {'new MiB':>9} {'change':>9}")
    for name in PASSES:
        a, b = old[name] / 2**20, new[name] / 2**20
        print(f"{name:<30} {a:9.2f} {b:9.2f} {b - a:+9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
