"""Command-line interface: train | attack | evaluate | sweep | report.

Exit codes: 0 success, 1 usage error, 2 data/model error, and 128 + the
signal number when SIGTERM or SIGINT stops the command. Every run appends
one JSON line to the run log ($QSN_RUN_LOG, default ./qsn_runs.jsonl), a
crash or a stop included: time, argv, status, error_type (null on success,
the signal's name on a stop), duration_s, peak_rss_mb and the package
version.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time
from dataclasses import replace

import click

from . import __version__
from .attacks import ATTACK_KINDS, AttackSpec, generate_batch
from .data import SPLITS, Dataset, load_cifar10, load_mnist
from .errors import BadConfigError, DataError
from .evaluate import EvalReport, evaluate
from .model import DEFENSES, LOSSES, ModelConfig, build_model, train
from .serial import (
    load_adversarial_batch,
    load_weights,
    save_adversarial_batch,
    save_weights,
)
from .sweep import ModelCache, sweep, sweep_to_csv

RUN_LOG_ENV = "QSN_RUN_LOG"
DEFAULT_RUN_LOG = "qsn_runs.jsonl"

LOADERS = {"mnist": load_mnist, "cifar10": load_cifar10}
DATASETS = click.Choice(list(LOADERS))


def _load_split(dataset, data_dir, split, count):
    ds = LOADERS[dataset](data_dir, split=split)
    return ds.subset(count) if count else ds


def _echo_report(report: EvalReport):
    click.echo(f"clean accuracy:        {report.clean_accuracy:.4f}")
    if report.adv_accuracy is not None:
        click.echo(f"adversarial accuracy:  {report.adv_accuracy:.4f}")
        click.echo(f"perturbation l2 mean:  {report.l2_mean:.4f}")
        click.echo(f"perturbation linf max: {report.linf_max:.4f}")
        click.echo(f"perturbation l0 mean:  {report.l0_mean:.4f}")


@click.group(name="qusecnets")
def group():
    """Input-quantization defense: training, attacks, and evaluation."""


# options named after the ModelConfig / AttackSpec field they set reach the
# command in **fields, which builds the config or spec with them

@group.command(name="train")
@click.option("--dataset", type=DATASETS, default="mnist", show_default=True)
@click.option("--data-dir", type=click.Path(), default=None,
              help="Dataset directory (default: $QSN_DATA_DIR/<dataset>).")
@click.option("--defense", type=click.Choice(DEFENSES), default=ModelConfig.defense,
              show_default=True)
@click.option("--levels", type=int, default=ModelConfig.levels, show_default=True,
              help="Quantization level count n.")
@click.option("--z", "steepness", type=float, default=ModelConfig.steepness,
              show_default=True, help="Sigmoid steepness.")
@click.option("--per-pixel-thresholds", is_flag=True,
              default=ModelConfig.per_pixel_thresholds,
              help="One threshold vector per pixel instead of a shared one.")
@click.option("--loss", type=click.Choice(LOSSES), default=ModelConfig.loss, show_default=True)
@click.option("--seed", type=int, default=ModelConfig.seed, show_default=True)
@click.option("--epochs", type=int, default=5, show_default=True)
@click.option("--batch-size", type=int, default=64, show_default=True)
@click.option("--lr", type=float, default=0.01, show_default=True)
@click.option("--train-count", type=int, default=10000, show_default=True,
              help="Leading training records to use (0 = all).")
@click.option("--out", type=click.Path(), required=True, help="Weight file to write.")
def cmd_train(dataset, data_dir, epochs, batch_size, lr, train_count, out, **fields):
    """Train a model (optionally defended) and save its weights."""
    config = ModelConfig(**fields)  # checks the options before the data loads
    train_set = _load_split(dataset, data_dir, "train", train_count)
    config = replace(config, input_shape=train_set.images.shape[1:])
    model = build_model(config)

    def log(stats):
        drift = "n/a" if stats.threshold_drift is None else f"{stats.threshold_drift:.6f}"
        click.echo(f"epoch {stats.epoch}: loss {stats.loss:.6f} accuracy {stats.accuracy:.4f} "
                   f"time {stats.seconds:.2f} s threshold drift {drift}")

    train(model, train_set, epochs=epochs, batch_size=batch_size, lr=lr,
          seed=config.seed, log=log)
    save_weights(model, out)
    click.echo(f"saved weights to {out}")


@group.command(name="attack")
@click.option("--model", "model_path", type=click.Path(), required=True)
@click.option("--method", type=click.Choice(ATTACK_KINDS), required=True)
@click.option("--epsilon", type=float, default=AttackSpec.epsilon, show_default=True)
@click.option("--iterations", type=int, default=AttackSpec.iterations, show_default=True)
@click.option("--targeted/--untargeted", default=AttackSpec.targeted,
              help="Default: targeted for jsma (which only runs targeted), "
                   "untargeted otherwise. fgsm runs untargeted only.")
@click.option("--kappa", type=float, default=AttackSpec.kappa, show_default=True)
@click.option("--const", "c", type=float, default=AttackSpec.c, show_default=True,
              help="C&W trade-off constant.")
@click.option("--theta", type=float, default=AttackSpec.theta, show_default=True)
@click.option("--gamma", type=float, default=AttackSpec.gamma, show_default=True)
@click.option("--dataset", type=DATASETS, default="mnist", show_default=True)
@click.option("--data-dir", type=click.Path(), default=None)
@click.option("--split", type=click.Choice(SPLITS), default="test",
              show_default=True)
@click.option("--count", type=int, default=1000, show_default=True,
              help="Leading records to attack (0 = all).")
@click.option("--out", type=click.Path(), required=True,
              help="Adversarial batch file to write.")
def cmd_attack(model_path, method, dataset, data_dir, split, count, out, **fields):
    """Generate adversarial examples against a saved model."""
    spec = AttackSpec(kind=method, **fields)
    model = load_weights(model_path)
    ds = _load_split(dataset, data_dir, split, count)
    batch = generate_batch(model, ds.images, ds.labels, spec)
    save_adversarial_batch(batch, out)
    click.echo(f"saved {len(ds)} adversarial examples to {out}")


@group.command(name="evaluate")
@click.option("--model", "model_path", type=click.Path(), required=True)
@click.option("--inputs", type=click.Path(), default=None,
              help="Adversarial batch (.qsa); clean set is its originals.")
@click.option("--dataset", type=DATASETS, default="mnist", show_default=True)
@click.option("--data-dir", type=click.Path(), default=None)
@click.option("--split", type=click.Choice(SPLITS), default="test",
              show_default=True)
@click.option("--count", type=int, default=1000, show_default=True,
              help="Leading records when evaluating clean (0 = all).")
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="Write the report JSON here.")
def cmd_evaluate(model_path, inputs, dataset, data_dir, split, count, report_path):
    """Evaluate a model on clean data or on a saved adversarial batch."""
    model = load_weights(model_path)
    if inputs is not None:
        batch = load_adversarial_batch(inputs)
        ds = Dataset(batch.originals, batch.labels, dataset, split)
        report = evaluate(model, ds, adversarial=batch)
    else:
        ds = _load_split(dataset, data_dir, split, count)
        report = evaluate(model, ds)
    _echo_report(report)
    if report_path is not None:
        with open(report_path, "w") as f:
            f.write(report.to_json())
        click.echo(f"wrote report to {report_path}")


@group.command(name="sweep")
@click.option("--dataset", type=DATASETS, default="mnist", show_default=True)
@click.option("--data-dir", type=click.Path(), default=None)
@click.option("--defense", type=click.Choice([d for d in DEFENSES if d != "none"]),
              default="cq", show_default=True)
@click.option("--levels", default="2,3,4,6", show_default=True,
              help="Comma-separated level counts.")
@click.option("--epsilons", default="0.1,0.2,0.3", show_default=True,
              help="Comma-separated epsilon values.")
@click.option("--method", type=click.Choice(ATTACK_KINDS), default="fgsm", show_default=True)
@click.option("--z", "steepness", type=float, default=ModelConfig.steepness,
              show_default=True)
@click.option("--loss", type=click.Choice(LOSSES), default=ModelConfig.loss, show_default=True)
@click.option("--seed", type=int, default=ModelConfig.seed, show_default=True)
@click.option("--epochs", type=int, default=5, show_default=True)
@click.option("--train-count", type=int, default=10000, show_default=True)
@click.option("--test-count", type=int, default=1000, show_default=True)
@click.option("--cache-dir", type=click.Path(), default=None,
              help="Reuse trained models across sweeps.")
@click.option("--out", type=click.Path(), required=True, help="CSV to write.")
def cmd_sweep(dataset, data_dir, levels, epsilons, method, epochs, train_count,
              test_count, cache_dir, out, **fields):
    """Cross-product of level counts and epsilons for one attack."""
    try:
        level_list = [int(v) for v in levels.split(",") if v]
        eps_list = [float(v) for v in epsilons.split(",") if v]
    except ValueError as e:
        raise click.UsageError(f"bad --levels/--epsilons: {e}")
    base = ModelConfig(**fields)  # checks the options before the data loads
    train_set = _load_split(dataset, data_dir, "train", train_count)
    test_set = _load_split(dataset, data_dir, "test", test_count)
    base = replace(base, input_shape=train_set.images.shape[1:])
    result = sweep(base, level_list, eps_list, method, train_set, test_set,
                   epochs=epochs, train_seed=base.seed, cache=ModelCache(cache_dir))
    sweep_to_csv(result, out)
    click.echo(f"wrote {len(result.rows)} rows to {out}; "
               f"recommended levels: {result.recommended_levels}")


@group.command(name="report")
@click.argument("report_path", type=click.Path())
def cmd_report(report_path):
    """Pretty-print a saved report JSON."""
    with open(report_path, "rb") as f:
        data = f.read()
    try:
        report = EvalReport.from_json(data.decode("utf-8"))
    except (UnicodeDecodeError, BadConfigError) as e:
        raise BadConfigError(f"{report_path}: not a valid report file ({e})") from e
    _echo_report(report)
    cfg = report.config
    click.echo(f"defense: {cfg.get('defense')} levels={cfg.get('levels')} "
               f"z={cfg.get('steepness')}")
    if cfg.get("attack"):
        a = cfg["attack"]
        click.echo(f"attack: {a.get('kind')} epsilon={a.get('epsilon')} "
                   f"iterations={a.get('iterations')}")
    per_class = ", ".join("-" if v is None else f"{v:.2f}"
                          for v in report.per_class_accuracy)
    click.echo(f"per-class accuracy: [{per_class}]")


def _append_run_log(argv, status: int, error_type: str | None, duration_s: float):
    path = os.environ.get(RUN_LOG_ENV, DEFAULT_RUN_LOG)
    line = json.dumps({
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "argv": list(argv),
        "status": status,
        "error_type": error_type,
        "duration_s": round(duration_s, 3),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "version": __version__,
    }, sort_keys=True)
    try:
        with open(path, "a") as f:
            f.write(line + "\n")
    except OSError:
        pass  # logging must never break the run


class Stopped(BaseException):
    """A signal that main() raises as an exception, so cli() logs the run."""

    def __init__(self, signum: int):
        super().__init__(signum)
        self.signum = signum


def cli(argv) -> int:
    """Run one CLI invocation; returns the process exit code.

    The run-log line is written whatever happens; an exception that is
    not a usage or data error is logged with status 1, then re-raised.
    A Stopped is logged under its signal's name with status 128 + signum.
    """
    argv = list(argv)
    start = time.monotonic()
    status, error_type = 1, None
    try:
        group.main(args=argv, standalone_mode=False)
        status = 0
    except click.ClickException as e:
        e.show(file=sys.stderr)
        error_type = type(e).__name__
    except click.exceptions.Abort as e:
        error_type = type(e).__name__
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        status, error_type = 2, type(e).__name__
    except Stopped as e:
        status, error_type = 128 + e.signum, signal.Signals(e.signum).name
        print(f"stopped by {error_type}", file=sys.stderr)
    except Exception as e:
        error_type = type(e).__name__
        raise
    finally:
        _append_run_log(argv, status, error_type, time.monotonic() - start)
    return status


def main():
    """The console command: SIGTERM and SIGINT raise Stopped, so the run is logged.

    Python's default SIGTERM action ends the process without unwinding,
    and click turns a KeyboardInterrupt into a bare Abort. A signal the
    process was started ignoring stays ignored.
    """
    def stop(signum, frame):
        raise Stopped(signum)

    for signum in (signal.SIGTERM, signal.SIGINT):
        if signal.getsignal(signum) is not signal.SIG_IGN:
            signal.signal(signum, stop)
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
