"""Command-line entry point: experiment stages and artifact inspection."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import fileio
from .config import METHODS, ExperimentConfig, load_config
from .experiment import StageError, render_field, run_experiment
from .renderers import pm_operators


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None,
                   help="JSON config file (may be partial; overrides the preset)")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override every seed in the config")
    p.add_argument("--scale", choices=("full", "desk"), default=None,
                   help="preset the config scale (default: full)")
    p.add_argument("--family", choices=("circular", "linear"), default=None,
                   help="array family for the preset")


def _config_from(args) -> ExperimentConfig:
    cfg = load_config(args.config, scale=args.scale, family=args.family)
    if args.seed is not None:
        cfg = replace(cfg, source_seed=args.seed,
                      decimation_seed=args.seed + 1, train_seed=args.seed + 2)
        cfg.validate()
    return cfg


def _cmd_stages(args) -> int:
    manifest = run_experiment(_config_from(args), args.out, until=args.until)
    for rel in sorted(f["path"] for f in manifest.files):
        print(rel)
    return 0


def _cmd_render(args) -> int:
    cfg = _config_from(args)
    source = tuple(float(v) for v in args.source.split(","))
    if len(source) != 2:
        raise ValueError("--source expects 'x,y'")
    written = render_field(cfg, args.out, [args.method], source, args.frequency,
                           pm_operators(cfg.array(), cfg.control_points(),
                                        cfg.freq_grid(), cfg.lam))
    for rel in written:
        print(rel)
    return 0


def _cmd_inspect(args) -> int:
    path = Path(args.file)
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == fileio.MAGIC_DATASET:
        ds, header = fileio.load_dataset(path)
        print(f"dataset: {header['n_train']} train / {header['n_val']} val / "
              f"{header['n_test']} test records, L={header['l_active']}, "
              f"K={header['k']}, I={header['i_cp']}")
        if args.record is not None:
            recs = ds.all_records
            if not 0 <= args.record < len(recs):
                raise ValueError(f"record index out of range [0, {len(recs)})")
            rec = recs[args.record]
            out = Path(args.out) if args.out else path.parent
            out.mkdir(parents=True, exist_ok=True)
            tpath = out / f"record{args.record}_tensor.csv"
            ppath = out / f"record{args.record}_pressures.csv"
            rows = [",".join(repr(float(v)) for v in row) for row in rec.tensor]
            fileio.write_text(tpath, "\n".join(rows) + "\n")
            lines = [",".join(f"{float(v.real)!r}{float(v.imag):+}j"
                              for v in row)
                     for row in rec.pressures]
            fileio.write_text(ppath, "\n".join(lines) + "\n")
            print(f"source {rec.source_id} at {rec.source.position.tolist()}")
            print(f"wrote {tpath} and {ppath}")
    elif magic == fileio.MAGIC_MODEL:
        params = fileio.load_checkpoint(path)
        print(f"model checkpoint: input {params.rows}x{params.cols}, "
              f"{len(params.layers)} layers, {params.param_count()} "
              f"{params.dtype} parameters")
        for i, sp in enumerate(params.layers):
            act = "linear" if params.slopes[i] is None else "prelu"
            print(f"  layer {i}: {sp.kind} {sp.in_ch}->{sp.out_ch} "
                  f"k({sp.kh}x{sp.kw}) s({sp.sh}x{sp.sw}) {act}")
    else:
        raise ValueError(f"{path}: unrecognised file magic {magic!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfsynth",
        description="Soundfield synthesis through irregular loudspeaker "
                    "arrays: model-based and pressure-matching rendering "
                    "with a learned driving-signal compensator.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, until, text in (
            ("run", "render", "run every stage (dataset, train, evaluate, "
                              "render)"),
            ("gen-dataset", "dataset", "generate and persist the dataset"),
            ("train", "train", "train the compensation network "
                               "(the config's methods must include cnn)"),
            ("evaluate", "sweep", "run the metric sweeps")):
        p = sub.add_parser(name, help=text)
        _add_common(p)
        p.set_defaults(func=_cmd_stages, until=until)

    p = sub.add_parser("render", help="render one field comparison")
    _add_common(p)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--source", required=True, help="source position 'x,y'")
    p.add_argument("--frequency", type=float, required=True,
                   help="snapped to the nearest grid frequency")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("inspect", help="describe a binary artifact")
    p.add_argument("file", type=Path)
    p.add_argument("--record", type=int, default=None,
                   help="dataset record index to dump as CSV")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
