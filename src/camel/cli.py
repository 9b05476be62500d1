"""Command-line surface: numerical validation commands, data generation,
training, and evaluation, plus the run-config and checkpoint formats.

Commands (see README for the config key reference):

    camel gradcheck     finite-difference oracle table over all primitives
    camel toychain      chain-rule comparison on the conjugating toy map
    camel bench-lemma1  derivative cost of the two differentiation routes
    camel gen           write a synthetic frame file
    camel train         episodic training with checkpoints and metrics CSV
    camel eval          fine-tune/classify held-out episodes from a checkpoint

Exit codes: 0 success, 1 validation failure, 2 non-finite loss in training
or eval fine-tuning, or a non-finite toychain trajectory, 3 I/O,
configuration or command-line usage error.

Every key=value line, from a config file, a --set option, a flag
(``--first-order`` is the line ``first_order=true``, read after every
--set line) or a checkpoint header, goes through :func:`read_settings`
and one key table built from the config dataclasses.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import struct
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .ctensor import CTensor
from .layers import ArchConfig, ConfigError, init_params, param_shapes
from .meta import (
    DivergenceError,
    HistoryRow,
    MetaConfig,
    ParamSet,
    TrainState,
    check_way_count,
    evaluate,
    train_camel,
)
from .signals import (
    FramePool,
    episode_stream,
    generate_pool,
    load_frames,
    read_exact,
    save_frames,
    scenario_split,
)
from .wirtinger import Tape, backward, complex_gradient

_C = np.complex128

CAML_MAGIC = b"CAML"
CAML_VERSION = 1


class CheckpointError(ValueError):
    pass


class ArchMismatchError(CheckpointError):
    pass


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


MAX_SNR_POINTS = 10_000
"""The most SNR values a grid may have: 10k cells of each scheme's frames
are far more than any pool needs, and the bound stops a step too small to
reach snr_hi from exhausting memory."""


@dataclass
class DataConfig:
    """Episode-source settings: either a frame file or on-the-fly synthesis."""

    schemes: list[str] = field(default_factory=lambda: ["BPSK", "QPSK", "8PSK", "PAM4",
                                                        "QAM16", "CPFSK", "GFSK"])
    snr_lo: float = 10.0
    snr_hi: float = 18.0
    snr_step: float = 2.0
    frames_per_cell: int = 40
    sps: int = 4
    frames: str | None = None
    scenario: str | None = None
    eval_episodes: int = 200

    def __post_init__(self):
        if self.eval_episodes < 1:
            raise ConfigError(f"eval_episodes must be at least 1, got {self.eval_episodes}")
        self.snr_grid()

    def snr_grid(self) -> list[float]:
        """snr_lo, snr_lo + snr_step, ... up to snr_hi, at most
        ``MAX_SNR_POINTS`` of them; a step that leaves the SNR where it was
        is a ConfigError."""
        if self.snr_step <= 0:
            raise ConfigError("snr_step must be positive")
        grid = []
        snr = self.snr_lo
        while snr <= self.snr_hi + 1e-9:
            if len(grid) == MAX_SNR_POINTS:
                raise ConfigError(f"snr_lo={self.snr_lo!r} to snr_hi={self.snr_hi!r} in steps of "
                                  f"{self.snr_step!r} gives more than {MAX_SNR_POINTS} SNR points")
            grid.append(round(snr, 9))
            nxt = snr + self.snr_step
            if nxt == snr:
                raise ConfigError(f"snr_step={self.snr_step!r} does not advance the SNR from {snr!r}")
            snr = nxt
        return grid


@dataclass
class RunConfig:
    arch: ArchConfig
    meta: MetaConfig
    data: DataConfig
    explicit: set = field(default_factory=set)


# config key -> (dataclass, annotation)
_KEYS = {f.name: (cls, str(f.type))
         for cls in (ArchConfig, MetaConfig, DataConfig) for f in dataclasses.fields(cls)}
_ARCH_KEYS = {k: v for k, v in _KEYS.items() if v[0] is ArchConfig}


def _coerce(ftype: str, value: str):
    if "bool" in ftype:
        return _parse_bool(value)
    if "int" in ftype:
        return int(value)
    if "float" in ftype:
        number = float(value)
        if not math.isfinite(number):
            raise ValueError(f"expected a finite number, got {value!r}")
        return number
    if "list" in ftype:
        return [s.strip() for s in value.split(",") if s.strip()]
    if "| None" in ftype:
        return value or None
    return value


def read_settings(lines, source: str, keys=_KEYS) -> dict:
    """Read key=value lines into key -> typed value; '#' starts a comment,
    blank lines are skipped and a later line overrides an earlier one.
    A malformed line, a key outside ``keys`` or a value of the wrong type
    is a ConfigError naming the source, the line and the key."""
    values: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected key=value, got {raw.strip()!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in keys:
            raise ConfigError(f"{where}: unknown key {key!r}")
        try:
            values[key] = _coerce(keys[key][1], value)
        except ValueError as exc:
            raise ConfigError(f"{where}: key {key!r}: {exc}") from exc
    return values


def parse_config(lines, source: str = "<config>") -> RunConfig:
    """Parse key=value lines (see :func:`read_settings`) into a RunConfig."""
    return _build_config(read_settings(lines, source), source)


def _build_config(values: dict, source: str) -> RunConfig:
    kw: dict[type, dict] = {ArchConfig: {"n_classes": 5}, MetaConfig: {}, DataConfig: {}}
    for key, value in values.items():
        kw[_KEYS[key][0]][key] = value
    try:
        return RunConfig(arch=ArchConfig(**kw[ArchConfig]), meta=MetaConfig(**kw[MetaConfig]),
                         data=DataConfig(**kw[DataConfig]), explicit=set(values))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(path: str | None, overrides: list[str] | None = None) -> RunConfig:
    """The config file at ``path`` (none: every default), then the
    ``overrides`` lines, which errors locate as "command line:N".  An error
    in the combined config names both sources, "<path> + command line"."""
    values: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            values = read_settings(fh, path)
    values.update(read_settings(overrides or [], "command line"))
    return _build_config(values, (path or "<defaults>") + (" + command line" if overrides else ""))


def _run_config(args) -> RunConfig:
    """The config file, then every --set line, then every flag's line."""
    return load_config(args.config, args.set + args.flags)


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    arch: ArchConfig
    theta: ParamSet
    iteration: int
    rng_state: dict
    history: list[HistoryRow]


def _arch_to_lines(arch: ArchConfig) -> str:
    out = []
    for f in dataclasses.fields(ArchConfig):
        v = getattr(arch, f.name)
        if isinstance(v, bool):
            s = "true" if v else "false"
        elif isinstance(v, float):
            s = repr(v)
        else:
            s = str(v)
        out.append(f"{f.name}={s}")
    return "\n".join(out)


# a checkpoint header: the arch lines, then the iteration and the episode
# stream's rng state
_HEADER_KEYS = {**_ARCH_KEYS, "iteration": (Checkpoint, "int"), "rng_state": (Checkpoint, "str")}


def _read_header(lines: list[str], path: str) -> tuple[ArchConfig, int, dict]:
    try:
        values = read_settings(lines, f"checkpoint {path} header", _HEADER_KEYS)
        iteration, rng_text = values.pop("iteration"), values.pop("rng_state")
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {path} header lacks {exc}") from exc
    except ConfigError as exc:
        raise CheckpointError(str(exc)) from exc
    rng_state = _rng_state_from_json(rng_text, path)
    try:
        return ArchConfig(**values), iteration, rng_state
    except (ValueError, TypeError) as exc:
        raise CheckpointError(f"bad checkpoint architecture: {exc}") from exc


def _rng_state_to_json(state: dict) -> str:
    def clean(obj):
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, np.ndarray):
            return {"__nd__": obj.dtype.str, "data": [int(x) for x in obj.ravel()]}
        if isinstance(obj, (np.integer,)):
            return int(obj)
        return obj

    return json.dumps(clean(state), sort_keys=True)


def _rng_state_from_json(text: str, path: str) -> dict:
    """The rng state in a header's JSON text; it must be a state of the
    episode stream's generator, Philox, or it is a CheckpointError."""

    def restore(obj):
        if isinstance(obj, dict):
            if "__nd__" in obj:
                # Philox keeps its state in uint64 arrays; np.dtype must not parse other text
                if obj["__nd__"] != "<u8":
                    raise ValueError(f"array type {obj['__nd__']!r} is not '<u8'")
                return np.array(obj["data"], dtype="<u8")
            return {k: restore(v) for k, v in obj.items()}
        return obj

    try:
        rng_state = restore(json.loads(text))
        if not isinstance(rng_state, dict):
            raise ValueError("not a JSON object")
        np.random.Philox(0).state = rng_state
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} header: key 'rng_state': {exc}") from exc
    return rng_state


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    """Write a CAML file, once its parameters and rng state pass the checks
    of :func:`load_checkpoint`: no file is written that loading refuses."""
    _check_params(ckpt.arch, ckpt.theta)
    rng_text = _rng_state_to_json(ckpt.rng_state)
    _rng_state_from_json(rng_text, path)
    header = (_arch_to_lines(ckpt.arch)
              + f"\niteration={ckpt.iteration}"
              + f"\nrng_state={rng_text}\n")
    hist_blob = metrics_csv(ckpt.history).encode("utf-8")
    header_blob = header.encode("utf-8")

    with open(path, "wb") as fh:
        fh.write(CAML_MAGIC)
        fh.write(struct.pack("<I", CAML_VERSION))
        fh.write(struct.pack("<I", len(header_blob)))
        fh.write(header_blob)
        fh.write(struct.pack("<I", len(ckpt.theta)))
        for name, t in ckpt.theta.items():
            raw = name.encode("utf-8")
            arr = t.numpy()
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(arr.astype("<c16").tobytes())
        fh.write(struct.pack("<Q", len(hist_blob)))
        fh.write(hist_blob)


def _check_params(arch: ArchConfig, tensors: Mapping[str, CTensor]) -> None:
    """The tensors must be exactly the parameters of ``arch``, by name and
    shape, and finite."""
    want = param_shapes(arch)
    missing = [k for k in want if k not in tensors]
    if missing:
        raise CheckpointError(f"checkpoint lacks parameter(s) {', '.join(missing)}")
    extra = [k for k in tensors if k not in want]
    if extra:
        raise CheckpointError(f"checkpoint has parameter(s) {', '.join(extra)} "
                              "that the architecture does not define")
    for name, t in tensors.items():
        if t.shape != want[name]:
            raise CheckpointError(f"parameter {name} has shape {t.shape}, "
                                  f"the architecture needs {want[name]}")
        if not np.all(np.isfinite(t.numpy())):
            raise CheckpointError(f"parameter {name} holds non-finite values")


def load_checkpoint(path: str) -> Checkpoint:
    """Read a CAML file; its parameters are checked against its architecture."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CAML_MAGIC:
            raise CheckpointError(f"bad magic {magic!r}, expected {CAML_MAGIC!r}")
        read = partial(read_exact, fh, source="checkpoint", error=CheckpointError)
        (version,) = struct.unpack("<I", read(4, "version"))
        if version != CAML_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (hlen,) = struct.unpack("<I", read(4, "header length"))
        header = read(hlen, "header").decode("utf-8", "replace")
        arch, iteration, rng_state = _read_header(header.splitlines(), path)

        (n_params,) = struct.unpack("<I", read(4, "parameter count"))
        tensors: dict[str, CTensor] = {}
        for _ in range(n_params):
            (nlen,) = struct.unpack("<H", read(2, "parameter name length"))
            name = read(nlen, "parameter name").decode("utf-8", "replace")
            if name in tensors:
                raise CheckpointError(f"checkpoint {path} repeats parameter {name}")
            (rank,) = struct.unpack("<I", read(4, "parameter rank"))
            if rank > 3:  # no parameter of the network has more axes than a conv kernel
                raise CheckpointError(f"checkpoint {path}: parameter {name} has rank {rank}")
            dims = struct.unpack(f"<{rank}I", read(4 * rank, "parameter dims"))
            # math.prod does not wrap, so dims too large for the file fail in read
            arr = np.frombuffer(read(16 * math.prod(dims), f"parameter {name}"), dtype="<c16").reshape(dims)
            tensors[name] = CTensor._wrap(arr.astype(_C))
        _check_params(arch, tensors)
        (hlen2,) = struct.unpack("<Q", read(8, "history length"))
        hist_text = read(hlen2, "history").decode("utf-8", "replace")
        history = []
        for lineno, line in enumerate(hist_text.splitlines()[1:], start=2):
            try:
                it, loss, acc = line.split(",")
                history.append(HistoryRow(int(it), float(loss), float(acc)))
            except ValueError as exc:
                raise CheckpointError(f"checkpoint {path}: history line {lineno} "
                                      f"{line!r}: {exc}") from exc
        return Checkpoint(arch, ParamSet(tensors), iteration, rng_state, history)


# ---------------------------------------------------------------------------
# shared run plumbing
# ---------------------------------------------------------------------------

def _rng(seed_seq) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_seq))


def _streams(seed: int) -> dict[str, np.random.SeedSequence]:
    names = ("data", "episodes", "init", "eval", "split")
    return dict(zip(names, np.random.SeedSequence(seed).spawn(len(names))))


def build_pool(cfg: RunConfig, rng: np.random.Generator) -> FramePool:
    if cfg.data.frames:
        pool = load_frames(cfg.data.frames)
        n = cfg.arch.frame_len
        for k, frame in enumerate(pool.frames):
            if frame.samples.size != n:
                raise ConfigError(f"frame file {cfg.data.frames}: frame {k} has {frame.samples.size} "
                                  f"samples, expected frame_len = {n}")
        return pool
    return generate_pool(cfg.data.schemes, cfg.data.snr_grid(), cfg.data.frames_per_cell,
                         cfg.arch.frame_len, cfg.data.sps, rng)


def _train_test_pools(cfg: RunConfig, streams) -> tuple[FramePool, FramePool]:
    pool = build_pool(cfg, _rng(streams["data"]))
    if cfg.data.scenario:
        return scenario_split(pool, cfg.data.scenario, _rng(streams["split"]))
    eval_pool = build_pool(cfg, _rng(streams["eval"])) if not cfg.data.frames else pool
    return pool, eval_pool


def metrics_csv(history: list[HistoryRow]) -> str:
    lines = ["iteration,meta_loss,query_acc"]
    for row in history:
        lines.append(f"{row.iteration},{row.meta_loss!r},{row.query_acc!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gradcheck(args) -> int:
    from .gradcheck import default_cases, run_suite  # the oracles load only for the commands that run them

    cases = default_cases()
    results = run_suite(cases, instances=args.instances, seed=args.seed)
    width = max(len(r.name) for r in results)
    print(f"{'op':<{width}}  max rel err  status")
    for r in results:
        print(f"{r.name:<{width}}  {r.max_err:11.3e}  {'ok' if r.ok else 'FAIL'}")
    bad = [r.name for r in results if not r.ok]
    if bad:
        print(f"gradcheck FAILED for: {', '.join(bad)}")
        return 1
    print(f"gradcheck passed: {len(results)} ops, {args.instances} instances each")
    return 0


def _toy_step(x: complex, naive: bool) -> tuple[float, complex]:
    """The toy map J = |exp(-(x*)^2)| at x, and its gradient 2 dJ/dx* under
    the single-term (holomorphic-only) rule if ``naive``, else the two-term
    rule."""
    g = Tape()
    xl = g.leaf(np.asarray(x, dtype=_C))
    u = g.conj(xl)
    j = g.cabs(g.exp(g.neg(g.mul(u, u))))
    grad = complex_gradient(g, j, xl, backward(g, j, naive=naive))
    return float(g.raw(j).real), complex(grad.item())


def toychain_run(steps: int, lr: float, x0: complex = 0.5 + 0.5j):
    """Gradient descent on the toy map with the two-term chain rule versus
    the single-term (holomorphic-only) rule.  Returns per-step rows
    (step, J_complex, J_naive, |naive gradient|).  Raises
    FloatingPointError, naming the rule and the step, where a loss or a
    gradient is not finite."""
    rows = []
    xs = {"two-term": complex(x0), "single-term": complex(x0)}
    for step in range(steps + 1):
        got = {}
        for rule, x in xs.items():
            j, grad = got[rule] = _toy_step(x, naive=rule == "single-term")
            if not (math.isfinite(j) and math.isfinite(abs(grad))):
                raise FloatingPointError(f"the {rule} trajectory is not finite at step {step}")
        (jc, _), (jn, grad_n) = got["two-term"], got["single-term"]
        rows.append((step, jc, jn, abs(grad_n)))
        xs = {rule: x - lr * got[rule][1] for rule, x in xs.items()}
    return rows


def cmd_toychain(args) -> int:
    try:
        with np.errstate(all="ignore"):
            rows = toychain_run(args.steps, args.lr)
    except FloatingPointError as exc:
        print(f"toychain failed: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("step,loss_complex_rule,loss_naive_rule,naive_grad_norm\n")
            for step, jc, jn, gn in rows:
                fh.write(f"{step},{jc!r},{jn!r},{gn!r}\n")
    j0, j_last = rows[0][1], rows[-1][1]
    max_naive = max(r[3] for r in rows)
    naive_drift = max(abs(r[2] - rows[0][2]) for r in rows)
    print(f"start J = {j0:.6f}")
    print(f"two-term chain rule: J after {args.steps} steps = {j_last:.6f} "
          f"({100 * (1 - j_last / j0):.1f}% reduction)")
    print(f"single-term rule:    gradient norm max = {max_naive:.3e}, "
          f"J drift = {naive_drift:.3e} (stuck)")
    if args.out:
        print(f"trajectories written to {args.out}")
    return 0


def cmd_bench_lemma1(args) -> int:
    from .gradcheck import make_analytic_chain, opcount_compare

    rng = np.random.default_rng(args.seed)
    chain = make_analytic_chain(args.m, args.depth, rng)
    count_cd, count_iq, d_cd, d_iq = opcount_compare(chain, args.m)
    dev = float(np.max(np.abs(d_cd - d_iq), initial=0.0))
    ratio = count_iq / count_cd
    print(f"m={args.m} depth={args.depth}")
    print(f"complex-derivative route: {count_cd} multiply-accumulates")
    print(f"stacked-real route:       {count_iq} multiply-accumulates")
    print(f"ratio = {ratio}")
    print(f"max derivative deviation between routes = {dev:.3e}")
    return 0


def cmd_gen(args) -> int:
    cfg = _run_config(args)
    rng = _rng(_streams(cfg.meta.seed)["data"])
    pool = generate_pool(cfg.data.schemes, cfg.data.snr_grid(), cfg.data.frames_per_cell,
                         cfg.arch.frame_len, cfg.data.sps, rng)
    save_frames(args.out, pool)
    print(f"wrote {len(pool.frames)} frames ({len(pool.schemes)} schemes) to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _run_config(args)
    check_way_count(cfg.arch.n_classes, cfg.meta.n_way, "the config sets")
    streams = _streams(cfg.meta.seed)
    train_pool, _ = _train_test_pools(cfg, streams)

    episode_rng = _rng(streams["episodes"])
    state = None
    theta0 = None
    if args.resume:
        ckpt = load_checkpoint(args.resume)
        if ckpt.arch != cfg.arch:
            raise ArchMismatchError("resume checkpoint architecture differs from the configured one")
        episode_rng.bit_generator.state = ckpt.rng_state
        state = TrainState(theta=ckpt.theta, iteration=ckpt.iteration, history=list(ckpt.history))
    else:
        theta0 = ParamSet(init_params(cfg.arch, _rng(streams["init"])))

    os.makedirs(args.out, exist_ok=True)
    ckpt_path = os.path.join(args.out, "checkpoint.caml")
    metrics_path = os.path.join(args.out, "metrics.csv")
    episodes = episode_stream(train_pool, cfg.meta.n_way, cfg.meta.k_shot, cfg.meta.q_size,
                              episode_rng)

    def write_ckpt(st: TrainState) -> None:
        save_checkpoint(ckpt_path, Checkpoint(cfg.arch, st.theta, st.iteration,
                                              episode_rng.bit_generator.state, st.history))

    def on_iteration(st: TrainState) -> None:
        if cfg.meta.checkpoint_every > 0 and st.iteration % cfg.meta.checkpoint_every == 0:
            write_ckpt(st)

    try:
        # a loss that turns non-finite is a divergence, detected and reported below
        with np.errstate(all="ignore"):
            state = train_camel(cfg.meta, cfg.arch, episodes, theta0=theta0, state=state,
                                on_iteration=on_iteration)
    except DivergenceError as exc:
        write_ckpt(exc.state)
        with open(metrics_path, "w", encoding="utf-8") as fh:
            fh.write(metrics_csv(exc.state.history))
        print(f"training diverged: {exc}", file=sys.stderr)
        print(f"last good checkpoint: {ckpt_path}", file=sys.stderr)
        return 2

    write_ckpt(state)
    with open(metrics_path, "w", encoding="utf-8") as fh:
        fh.write(metrics_csv(state.history))
    last = state.history[-1] if state.history else None
    tail = f", final meta-loss {last.meta_loss:.4f}, query acc {last.query_acc:.3f}" if last else ""
    print(f"trained {state.iteration} iterations{tail}")
    print(f"checkpoint: {ckpt_path}")
    print(f"metrics:    {metrics_path}")
    return 0


def cmd_eval(args) -> int:
    cfg = _run_config(args)
    ckpt = load_checkpoint(args.checkpoint)
    for key in sorted(cfg.explicit & _ARCH_KEYS.keys()):
        if getattr(cfg.arch, key) != getattr(ckpt.arch, key):
            raise ArchMismatchError(
                f"config sets {key}={getattr(cfg.arch, key)!r} but the checkpoint "
                f"was trained with {key}={getattr(ckpt.arch, key)!r}")
    cfg.arch = ckpt.arch
    check_way_count(ckpt.arch.n_classes, cfg.meta.n_way, "the checkpoint has")

    streams = _streams(cfg.meta.seed)
    _, test_pool = _train_test_pools(cfg, streams)
    e_rng = _rng(streams["eval"].spawn(1)[0])
    episodes = list(itertools.islice(
        episode_stream(test_pool, cfg.meta.n_way, cfg.meta.k_shot, cfg.meta.q_size, e_rng),
        cfg.data.eval_episodes))
    try:
        # evaluate raises FloatingPointError on a non-finite loss or log-prob
        with np.errstate(all="ignore"):
            report = evaluate(ckpt.theta, episodes, cfg.meta, cfg.arch)
    except FloatingPointError as exc:
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return 2
    print(f"accuracy {report.accuracy:.4f} ± {report.ci95:.4f} "
          f"(95% CI over {len(episodes)} episodes)")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        conf_path = os.path.join(args.out, "confusion.csv")
        with open(conf_path, "w", encoding="utf-8") as fh:
            n = report.confusion.shape[0]
            fh.write("actual\\predicted," + ",".join(f"class{i}" for i in range(n)) + "\n")
            for i in range(n):
                fh.write(f"class{i}," + ",".join(repr(float(x)) for x in report.confusion[i]) + "\n")
        print(f"confusion matrix: {conf_path}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_config_args(p) -> None:
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    # a flag stands for a config line, read after every --set line
    p.add_argument("--seed", dest="flags", action="append", default=[], type="seed={}".format,
                   metavar="N", help="same as --set seed=N")


def _number(kind: type, low, strict: bool = False):
    """An argparse type: a finite ``kind`` (int or float) >= ``low``, or
    > ``low`` if ``strict``."""
    def number(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not ((value > low if strict else value >= low) and value < math.inf):  # nan fails both
            raise argparse.ArgumentTypeError(f"expected {'an integer' if kind is int else 'a finite number'} "
                                             f"{'>' if strict else '>='} {low}, got {text!r}")
        return value
    return number


class _Parser(argparse.ArgumentParser):
    """A usage error is a ConfigError, which exits 3 like any bad input
    (argparse's own exit code, 2, is the code of a non-finite loss).  The
    subcommand parsers are built from the same class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="camel", description="complex-valued attentional meta-learning toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference oracle suite")
    p.add_argument("--instances", type=_number(int, 1), default=20)
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("toychain", help="two-term vs single-term chain rule on the toy map")
    p.add_argument("--steps", type=_number(int, 0), default=200)
    p.add_argument("--lr", type=_number(float, 0, strict=True), default=0.05)
    p.add_argument("--out", default=None, help="CSV path for both loss trajectories")
    p.set_defaults(fn=cmd_toychain)

    p = sub.add_parser("bench-lemma1", help="derivative cost of the two differentiation routes")
    p.add_argument("--m", type=_number(int, 1), default=8)
    p.add_argument("--depth", type=_number(int, 1), default=1)
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.set_defaults(fn=cmd_bench_lemma1)

    p = sub.add_parser("gen", help="write a synthetic frame file")
    _add_config_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="episodic training")
    _add_config_args(p)
    p.add_argument("--out", default="run", help="output directory")
    p.add_argument("--iterations", dest="flags", action="append", type="iterations={}".format,
                   metavar="N", help="same as --set iterations=N")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--first-order", dest="flags", action="append_const", const="first_order=true",
                   help="drop both curvature terms of the outer gradient (first_order=true)")
    p.add_argument("--no-attention", dest="flags", action="append_const",
                   const="use_attention=false", help="ablation: skip the attention block "
                   "(use_attention=false)")
    p.add_argument("--real-valued", dest="flags", action="append_const", const="real_input=true",
                   help="ablation: real weights over stacked I/Q channels (real_input=true)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on held-out episodes")
    _add_config_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--episodes", dest="flags", action="append", type="eval_episodes={}".format,
                   metavar="N", help="same as --set eval_episodes=N")
    p.add_argument("--out", default=None, help="directory for the confusion matrix CSV")
    p.set_defaults(fn=cmd_eval)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (OSError, ValueError) as exc:
        # ConfigError, CheckpointError and FrameFormatError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
