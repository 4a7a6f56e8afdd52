"""Command-line front end.

Subcommands: train, evaluate, homophily, oracle-check, ablate, synth.
Run settings come from an optional key=value config file plus flags;
flags win. Both are derived from RunConfig's fields: the key is the
field's name, the flag is that name in kebab case (`em_rounds` is
`--em-rounds`), and a flag's text is read as the config line's value is.
A bool field's flag takes no value: `--<key>` turns on a setting that is
off by default, `--no-<key>` turns off one that is on. An empty value
leaves `split_seed` unset, so each run seed draws its own split; set to
N, it gives every seed, and `evaluate`, the split drawn from N. A prefix
that no other flag shares names a flag too (`--coeff` is
`--coefficient-mode`). The settings are all checked when they are built,
before a command reads data or writes a file. Exit codes: 0 success, 1
configuration error, 2 runtime failure, 3 self-check failure.
"""

import argparse
import dataclasses
import sys
from dataclasses import dataclass, fields, make_dataclass
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (Dataset, Split, check_ratio_fractions, generate_synthetic,
                   load_dataset, load_split_file, planetoid_split, ratio_split,
                   row_normalize_features, save_generic)
from .errors import ConfigError, EnumerationLimitError, StructuralInputError
from .gcn import forward
from .graph import homophily_beta, normalized_adjacency_operator
from .oracle import MAX_CONFIGS
from .selfcheck import run_selfchecks
from .training import Proposal, TrainConfig, evaluate, final_sweep_cap, predict, train

_SPLIT_KINDS = ("planetoid", "ratio", "file")


@dataclass
class _RunSettings:
    """The settings of a run that TrainConfig does not hold; see RunConfig."""

    dataset: str = ""
    split: str = "planetoid"
    per_class: int = 20
    num_val: int = 500
    num_test: int = 1000
    train_frac: float = 0.2
    val_frac: float = 0.2
    test_frac: float = 0.6
    split_seed: int | None = None
    row_normalize: bool = True
    seeds: tuple = (0,)
    out: str = "runs"
    quiet: bool = False

    def __post_init__(self):
        if self.split not in _SPLIT_KINDS:
            raise ConfigError(f"split must be one of {_SPLIT_KINDS}, got {self.split!r}")
        for name in ("train_frac", "val_frac", "test_frac"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.split == "ratio":
            check_ratio_fractions(self.train_frac, self.val_frac, self.test_frac)
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        for name, value in (("per_class", self.per_class), ("num_val", self.num_val),
                            ("num_test", self.num_test), ("split_seed", self.split_seed),
                            ("seeds", min(self.seeds))):
            if value is not None and value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value}")
        # each seed names its own report and checkpoint, so a repeat would overwrite one
        repeated = next((s for i, s in enumerate(self.seeds) if s in self.seeds[:i]), None)
        if repeated is not None:
            raise ConfigError(f"seeds must be distinct, got {repeated} more than once")
        # built once here, so a bad train setting fails before any file is touched
        self._train = TrainConfig(**{name: getattr(self, name) for name in _TRAIN_KEYS})

    def train_config(self, seed) -> TrainConfig:
        return dataclasses.replace(self._train, seed=seed)

    def to_text(self) -> str:
        return "".join(f"{f.name} = {_text(getattr(self, f.name))}\n"
                       for f in sorted(fields(self), key=lambda f: f.name))

    @classmethod
    def from_text(cls, text):
        values, first_lines = {}, {}
        types = {f.name: f for f in fields(cls)}
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"config line {line_no}: expected `key = value`")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in types:
                raise ConfigError(f"config line {line_no}: unknown key {key!r}")
            if key in first_lines:
                raise ConfigError(f"config line {line_no}: {key} set again "
                                  f"(first on line {first_lines[key]})")
            first_lines[key] = line_no
            try:
                values[key] = _parse_value(types[key], value)
            except ConfigError as exc:
                raise ConfigError(f"config line {line_no}: {exc}") from None
        return cls(**values)

    @classmethod
    def from_file(cls, path):
        return cls.from_text(Path(path).read_text(encoding="utf-8"))


# every TrainConfig field but the seed, with its default, is a run setting;
# the run's `seeds` supply the seed
_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig) if f.name != "seed")
RunConfig = make_dataclass(
    "RunConfig", [(f.name, f.type, f.default) for f in fields(TrainConfig)
                  if f.name in _TRAIN_KEYS],
    bases=(_RunSettings,))
RunConfig.__doc__ = "Every setting of a run: the key=value config file and the flags."
RunConfig.__module__ = __name__


def _text(value):
    """A setting's value as a config line writes it; an unset one is empty."""
    if value is None:
        return ""
    return ",".join(str(s) for s in value) if isinstance(value, tuple) else str(value)


def _parse_value(f, text):
    """The value of setting `f` from its text, in a config line or a flag."""
    kind = int if f.type == int | None else f.type
    if kind is not f.type and not text:
        return None                     # an empty text leaves an optional int unset
    if kind is tuple:
        return _int_list(text, f.name)
    if kind is bool:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"bad boolean value {text!r} for {f.name}")
    if kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            noun = "an int" if kind is int else "a float"
            raise ConfigError(f"{f.name} expects {noun}, got {text!r}") from None
    return text


def _int_list(text, name):
    try:
        return tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise ConfigError(f"{name} expects comma-separated ints, got {text!r}") from None


def _require_at_least(lowest, **values):
    for flag, value in values.items():
        if value < lowest:
            raise ConfigError(f"--{flag.replace('_', '-')} must be at least {lowest}, "
                              f"got {value}")


def _make_split(ds: Dataset, cfg: RunConfig, seed) -> Split:
    split_seed = seed if cfg.split_seed is None else cfg.split_seed
    if cfg.split == "planetoid":
        return planetoid_split(ds, cfg.per_class, cfg.num_val, cfg.num_test,
                               seed=split_seed)
    if cfg.split == "ratio":
        return ratio_split(ds, cfg.train_frac, cfg.val_frac, cfg.test_frac,
                           seed=split_seed)
    path = Path(cfg.dataset) / "split.tsv"
    if not path.exists():
        raise ConfigError(f"--split file requires {path}")
    return load_split_file(path, num_nodes=ds.graph.num_nodes)


def _checked_splits(ds: Dataset, cfg: RunConfig):
    """(seed, split) for every run seed; each split must hold train and test nodes."""
    splits = []
    for seed in cfg.seeds:
        split = _make_split(ds, cfg, seed)
        for name in ("train", "test"):
            if not len(getattr(split, name)):
                raise ConfigError(f"seed {seed}: the split has no {name} nodes")
        splits.append((seed, split))
    return splits


def _load_prepared(cfg: RunConfig) -> Dataset:
    if not cfg.dataset:
        raise ConfigError("missing required setting: dataset")
    ds = load_dataset(cfg.dataset)
    return row_normalize_features(ds) if cfg.row_normalize else ds


def _say(cfg, *parts):
    if not cfg.quiet:
        print(*parts)


def _aggregate_lines(rows):
    accs = np.array([acc for _, acc in rows])
    lines = ["seed\ttest_accuracy"]
    lines += [f"{seed}\t{acc!r}" for seed, acc in rows]
    lines.append(f"mean\t{float(accs.mean())!r}")
    lines.append(f"stddev\t{float(accs.std(ddof=0))!r}")
    return "\n".join(lines) + "\n"


def cmd_train(cfg: RunConfig) -> int:
    ds = _load_prepared(cfg)
    splits = _checked_splits(ds, cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "effective_config.txt").write_text(cfg.to_text(), encoding="utf-8")
    rows = []
    for seed, split in splits:
        result = train(ds, split, cfg.train_config(seed))
        result.report.write(out / f"report_seed{seed}.txt")
        save_checkpoint(out / f"checkpoint_seed{seed}.bin",
                        result.params, result.pairwise)
        rows.append((seed, result.report.test_accuracy))
        _say(cfg, f"seed {seed}: test accuracy {result.report.test_accuracy:.4f} "
                  f"(best phase {result.report.best_phase})")
    (out / "aggregate.tsv").write_text(_aggregate_lines(rows), encoding="utf-8")
    accs = [acc for _, acc in rows]
    _say(cfg, f"mean test accuracy over {len(accs)} seed(s): {np.mean(accs):.4f} "
              f"+/- {np.std(accs):.4f}")
    return 0


def _check_checkpoint_fits(path, ds: Dataset, params, pp):
    """The checkpoint must read this dataset's features and score its classes and edges."""
    if params.w0.shape[0] != ds.num_features:
        raise StructuralInputError(f"{path}: W0 has {params.w0.shape[0]} rows but the "
                                   f"dataset has {ds.num_features} features")
    if params.w1.shape[1] != ds.num_classes:
        raise StructuralInputError(f"{path}: W1 has {params.w1.shape[1]} classes but the "
                                   f"dataset has {ds.num_classes}")
    if pp.mode == "edge" and len(pp.alpha) != ds.graph.num_edges:
        raise StructuralInputError(f"{path}: {len(pp.alpha)} edge coefficients but the "
                                   f"graph has {ds.graph.num_edges} edges")


def cmd_evaluate(cfg: RunConfig, checkpoint_path) -> int:
    ds = _load_prepared(cfg)
    split = _make_split(ds, cfg, cfg.seeds[0])
    if not len(split.val) and not len(split.test):
        raise ConfigError(f"seed {cfg.seeds[0]}: the split has no validation or test nodes")
    params, pp = load_checkpoint(checkpoint_path)
    _check_checkpoint_fits(checkpoint_path, ds, params, pp)
    scores, _ = forward(params, ds.features, normalized_adjacency_operator(ds.graph))
    unlabeled = np.setdiff1d(np.arange(ds.graph.num_nodes), split.train)
    q = Proposal.from_scores(scores, unlabeled, ds.graph.num_nodes)
    predictions = predict(scores, pp, q, ds.graph, ds.labels, split.train,
                          final_sweep_cap(cfg.e_sweeps), cfg.e_tolerance)
    for name, ids in (("val", split.val), ("test", split.test)):
        if len(ids):
            print(f"{name} accuracy: {evaluate(predictions, ds.labels, ids):.4f}")
    return 0


def cmd_homophily(cfg: RunConfig) -> int:
    ds = _load_prepared(cfg)
    beta = homophily_beta(ds.graph, ds.labels)    # an edgeless graph fails before any line
    print(f"nodes: {ds.graph.num_nodes}")
    print(f"edges (unique undirected): {ds.graph.num_edges}")
    if ds.num_citation_rows is not None:
        print(f"citation rows: {ds.num_citation_rows}")
    print(f"features: {ds.num_features}")
    print(f"classes: {ds.num_classes}")
    print(f"homophily beta: {beta:.4f}")
    return 0


def cmd_oracle_check(sizes, trials, seed, num_classes, max_configs) -> int:
    if not sizes:
        raise ConfigError("--sizes needs at least one instance size")
    _require_at_least(1, sizes=min(sizes), trials=trials, max_configs=max_configs)
    _require_at_least(0, seed=seed)
    # with one class every objective is constant, so no gradient can be checked
    _require_at_least(2, classes=num_classes)
    try:
        results = run_selfchecks(sizes, trials, seed, num_classes, max_configs)
    except EnumerationLimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  worst {r.worst:.3e}  tol {r.threshold:.0e}  {status}")
        ok &= r.passed
    return 0 if ok else 3


def cmd_ablate(cfg: RunConfig) -> int:
    ds = _load_prepared(cfg)
    splits = _checked_splits(ds, cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["coefficient\tredistribution\tmean\tstddev\tper_seed"]
    for mode in ("none", "layer", "edge"):
        for scheme in ("average", "center"):
            accs = []
            for seed, split in splits:
                tc = dataclasses.replace(cfg.train_config(seed),
                                         coefficient_mode=mode, redistribution=scheme)
                accs.append(train(ds, split, tc).report.test_accuracy)
            accs = np.array(accs)
            per_seed = ",".join(repr(a) for a in accs.tolist())
            lines.append(f"{mode}\t{scheme}\t{float(accs.mean())!r}"
                         f"\t{float(accs.std(ddof=0))!r}\t{per_seed}")
            _say(cfg, f"{mode:<6} {scheme:<8} mean {accs.mean():.4f} "
                      f"+/- {accs.std(ddof=0):.4f}")
    (out / "ablation.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def cmd_synth(out_dir, num_nodes, num_classes, edges_per_node, target,
              feature_dim, noise, seed) -> int:
    _require_at_least(1, nodes=num_nodes, classes=num_classes)
    _require_at_least(0, edges_per_node=edges_per_node, seed=seed)
    ds = generate_synthetic(num_nodes, num_classes, edges_per_node, target,
                            feature_dim, noise, seed)
    save_generic(ds, out_dir)
    beta = homophily_beta(ds.graph, ds.labels) if ds.graph.num_edges else float("nan")
    print(f"wrote {out_dir}: {ds.graph.num_nodes} nodes, {ds.graph.num_edges} edges, "
          f"beta {beta:.4f}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_run_flags(p):
    p.add_argument("--config", help="key=value settings file")
    for f in fields(RunConfig):
        flag = ("--no-" if f.type is bool and f.default else "--") + f.name.replace("_", "-")
        if f.type is bool:
            p.add_argument(flag, dest=f.name, action="store_const", const=str(not f.default),
                           default=argparse.SUPPRESS, help=f"{f.name} = {not f.default}")
        else:
            p.add_argument(flag, dest=f.name, default=argparse.SUPPRESS,
                           help=f"default: {_text(f.default) or 'none'}")


def _build_config(args) -> RunConfig:
    """The config file's settings (or the defaults), overridden by every flag given.

    A run flag stores its text under its setting's name only when it is
    given, and that text is read as a config line's value is.
    """
    given = vars(args)
    overrides = {f.name: _parse_value(f, given[f.name])
                 for f in fields(RunConfig) if f.name in given}
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    return dataclasses.replace(cfg, **overrides)


def main(argv=None) -> int:
    parser = _Parser(prog="mrfgcn")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("train", "ablate"):
        _add_run_flags(sub.add_parser(name))

    p_eval = sub.add_parser("evaluate")
    _add_run_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True)

    p_homo = sub.add_parser("homophily")
    _add_run_flags(p_homo)

    p_oracle = sub.add_parser("oracle-check")
    p_oracle.add_argument("--sizes", default="4,6,8",
                          help="comma-separated instance node counts")
    p_oracle.add_argument("--trials", type=int, default=20)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--classes", type=int, default=3)
    p_oracle.add_argument("--max-configs", type=int, default=MAX_CONFIGS)

    p_synth = sub.add_parser("synth")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--nodes", type=int, default=1000)
    p_synth.add_argument("--classes", type=int, default=5)
    p_synth.add_argument("--edges-per-node", type=int, default=4)
    p_synth.add_argument("--target", type=float, default=0.5,
                         help="homophily target in [0, 1]")
    p_synth.add_argument("--feature-dim", type=int, default=16)
    p_synth.add_argument("--noise", type=float, default=0.2)
    p_synth.add_argument("--seed", type=int, default=0)

    try:
        args = parser.parse_args(argv)
        # an overflow, nan or division by zero stops the command at once, with
        # one message, instead of warning and running on with inf or nan
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if args.command == "train":
                return cmd_train(_build_config(args))
            if args.command == "ablate":
                return cmd_ablate(_build_config(args))
            if args.command == "evaluate":
                return cmd_evaluate(_build_config(args), args.checkpoint)
            if args.command == "homophily":
                return cmd_homophily(_build_config(args))
            if args.command == "oracle-check":
                return cmd_oracle_check(_int_list(args.sizes, "--sizes"), args.trials,
                                        args.seed, args.classes, args.max_configs)
            if args.command == "synth":
                return cmd_synth(args.out, args.nodes, args.classes, args.edges_per_node,
                                 args.target, args.feature_dim, args.noise, args.seed)
            raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError, MemoryError, FloatingPointError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
