import json
import math
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from camel.cli import (
    _KEYS,
    MAX_SNR_POINTS,
    Checkpoint,
    CheckpointError,
    ConfigError,
    _run_config,
    build_parser,
    load_checkpoint,
    load_config,
    main,
    metrics_csv,
    parse_config,
    save_checkpoint,
    toychain_run,
)
from camel.ctensor import CTensor
from camel.gradcheck import FD_STEP, GradCase, run_case, run_suite
import camel
import camel.cli
from camel import layers
from camel.layers import ArchConfig, init_params
from camel.meta import HistoryRow, ParamSet
from camel.signals import generate_pool, save_frames
from camel.wirtinger import g_sum

from conftest import rand_complex, traced_peak


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_parse_config_defaults_and_overrides():
    cfg = parse_config(["inner_lr = 0.2", "n_classes=3", "# comment", "", "schemes=BPSK,QPSK"])
    assert cfg.meta.inner_lr == 0.2
    assert cfg.arch.n_classes == 3
    assert cfg.data.schemes == ["BPSK", "QPSK"]
    assert cfg.meta.outer_lr == 0.001  # documented default
    assert cfg.meta.inner_steps == 5
    assert cfg.meta.outer_optimizer == "sgd"


def test_parse_config_unknown_key_names_key_and_line():
    with pytest.raises(ConfigError, match=r"cfg:3.*learning_rate"):
        parse_config(["n_classes=2", "", "learning_rate=0.1"], source="cfg")


def test_parse_config_bad_value_names_key():
    with pytest.raises(ConfigError, match="inner_lr"):
        parse_config(["inner_lr=fast"])


def test_parse_config_missing_equals():
    with pytest.raises(ConfigError, match="key=value"):
        parse_config(["just a line"])


def test_load_config_with_set_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("n_classes=4\ninner_lr=0.3\n")
    cfg = load_config(str(p), ["inner_lr=0.7"])
    assert cfg.arch.n_classes == 4
    assert cfg.meta.inner_lr == 0.7


def test_config_error_is_one_class():
    assert ConfigError is layers.ConfigError
    with pytest.raises(ConfigError, match="n_heads"):
        parse_config(["attn_dim=6", "n_heads=4"])


@pytest.mark.parametrize("key", ["adaptive_grad_lipschitz", "adaptive_hess_lipschitz",
                                 "adaptive_probe_tasks", "adaptive_probe_batch"])
def test_retired_adaptive_keys_are_unknown(tmp_path, capsys, key):
    lines = ["inner_lr=0.1", f"{key}=4"]
    with pytest.raises(ConfigError, match=rf"cfg:2: unknown key '{key}'"):
        parse_config(lines, source="cfg")
    p = tmp_path / "retired.cfg"
    p.write_text("\n".join(lines) + "\n")
    assert main(["gen", "--config", str(p), "--out", str(tmp_path / "pool.csig")]) == 3
    assert f"retired.cfg:2: unknown key '{key}'" in capsys.readouterr().err
    assert main(["gen", "--set", lines[0], "--set", lines[1],
                 "--out", str(tmp_path / "pool.csig")]) == 3
    assert f"command line:2: unknown key '{key}'" in capsys.readouterr().err


def test_readme_key_reference_lists_every_config_key():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Run configuration\n", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for heading in ("Architecture keys", "Training keys", "Data keys"):
        paragraph = section.split(f"\n{heading}", 1)[1].split("\n\n", 1)[0]
        documented |= set(re.findall(r"`(\w+)`\s+\(", paragraph))
    assert documented == set(_KEYS)


@pytest.mark.parametrize("key", ["seed", "inner_lr"])
def test_bad_value_names_key_and_line(tmp_path, capsys, key):
    with pytest.raises(ConfigError, match=rf"cfg:2: key '{key}'"):
        parse_config(["n_classes=3", f"{key}=abc"], source="cfg")
    p = tmp_path / "bad.cfg"
    p.write_text(f"n_classes=3\n{key}=abc\n")
    assert main(["gen", "--config", str(p), "--out", str(tmp_path / "pool.csig")]) == 3
    assert f"bad.cfg:2: key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
def test_non_finite_float_values_are_config_errors(tmp_path, capsys, value):
    # an infinite snr_hi would make the SNR grid endless
    with pytest.raises(ConfigError, match="cfg:1: key 'snr_hi': expected a finite number"):
        parse_config([f"snr_hi={value}"], source="cfg")
    assert main(["gen", "--set", f"snr_hi={value}", "--out", str(tmp_path / "pool.csig")]) == 3
    assert "command line:1: key 'snr_hi'" in capsys.readouterr().err


def _old_snr_grid(lo, hi, step):
    # the grid loop as it was before it checked its step
    grid, snr = [], lo
    while snr <= hi + 1e-9:
        grid.append(round(snr, 9))
        snr += step
    return grid


@pytest.mark.parametrize("lo, hi, step", [(10.0, 18.0, 2.0), (0.0, 1.0, 0.1), (-20.0, 30.0, 0.7),
                                          (5.0, 5.0, 1.0), (5.0, 4.0, 1.0), (0.0, 9999.0, 1.0)])
def test_snr_grid_is_unchanged_where_it_terminated(lo, hi, step):
    grid = parse_config([f"snr_lo={lo!r}", f"snr_hi={hi!r}", f"snr_step={step!r}"]).data.snr_grid()
    assert repr(grid) == repr(_old_snr_grid(lo, hi, step))


@pytest.mark.parametrize("lines, message", [
    (["snr_step=1e-300"], "does not advance the SNR from 10.0"),
    # the step moves snr_lo but not the SNR two units of the last place past it
    (["snr_lo=9007199254740991", "snr_hi=9007199254741002", "snr_step=0.75"],
     "does not advance the SNR from 9007199254740992.0"),
    (["snr_step=1e-6"], f"more than {MAX_SNR_POINTS} SNR points"),
    (["snr_lo=0", f"snr_hi={MAX_SNR_POINTS}", "snr_step=1"], f"more than {MAX_SNR_POINTS} SNR points"),
], ids=["below_float_spacing", "stalls_past_lo", "too_many_points", "one_too_many"])
def test_snr_grid_that_would_not_end_is_a_config_error(tmp_path, capsys, lines, message):
    # each case would fill memory if the grid were built; tracemalloc shows it never is
    def parse_and_generate():
        with pytest.raises(ConfigError, match=message):
            parse_config(lines, source="cfg")
        assert main(["gen", *(a for line in lines for a in ("--set", line)),
                     "--out", str(tmp_path / "pool.csig")]) == 3

    peak = traced_peak(parse_and_generate)
    assert message in capsys.readouterr().err
    assert not (tmp_path / "pool.csig").exists()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("flag, line, other", [
    (["--seed", "7"], "seed=7", "seed=8"),
    (["--iterations", "3"], "iterations=3", "iterations=4"),
    (["--first-order"], "first_order=true", "first_order=false"),
    (["--no-attention"], "use_attention=false", "use_attention=true"),
    (["--real-valued"], "real_input=true", "real_input=false"),
], ids=["seed", "iterations", "first_order", "no_attention", "real_valued"])
def test_each_flag_is_its_set_line(tiny_cfg_path, flag, line, other):
    def run_config(*argv):
        return _run_config(build_parser().parse_args(["train", "--config", tiny_cfg_path, *argv]))

    by_flag = run_config(*flag)
    assert by_flag == run_config("--set", line)
    assert by_flag != run_config("--set", other)
    # a flag is read after every --set line, wherever it stands
    assert run_config(*flag, "--set", other) == by_flag


@pytest.mark.parametrize("flag, value, message", [("--iterations", "-1", "iterations must be >= 0"),
                                                 ("--iterations", "x",
                                                  "command line:1: key 'iterations'"),
                                                 ("--seed", "x", "command line:1: key 'seed'")],
                         ids=["negative_iterations", "iterations_not_int", "seed_not_int"])
def test_flags_pass_the_config_checks(tmp_path, tiny_cfg_path, capsys, flag, value, message):
    out = tmp_path / "r"
    assert main(["train", "--config", tiny_cfg_path, flag, value, "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not os.path.exists(out / "checkpoint.caml")


def test_config_error_names_the_command_line_when_a_value_came_from_there(tmp_path, tiny_cfg_path, capsys):
    # the file never sets eval_episodes=0; --episodes does
    assert main(["eval", "--config", tiny_cfg_path, "--checkpoint", str(tmp_path / "c.caml"),
                 "--episodes", "0"]) == 3
    assert (f"error: {tiny_cfg_path} + command line: eval_episodes must be at least 1, got 0"
            in capsys.readouterr().err)
    p = tmp_path / "zero.cfg"
    p.write_text("eval_episodes = 0\n")
    assert main(["eval", "--config", str(p), "--checkpoint", str(tmp_path / "c.caml")]) == 3
    assert f"error: {p}: eval_episodes must be at least 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _checkpoint(rng) -> Checkpoint:
    arch = ArchConfig(n_classes=3, frame_len=16, conv_channels=2, conv_stride=2,
                      attn_dim=2, n_heads=1, fc_hidden=4)
    theta = ParamSet(init_params(arch, rng))
    rng_state = np.random.Generator(np.random.Philox(42)).bit_generator.state
    history = [HistoryRow(0, 1.25, 0.5), HistoryRow(1, 1.0 / 3.0, float("nan"))]
    return Checkpoint(arch, theta, 2, rng_state, history)


def test_checkpoint_roundtrip_byte_identical(tmp_path, rng):
    ck = _checkpoint(rng)
    head_b = ck.theta["head.b"].numpy().copy()
    head_b[0] = complex(-0.0, 1.0)  # loading keeps the sign of a zero
    ck.theta = ParamSet({**ck.theta, "head.b": CTensor._wrap(head_b)})
    p1, p2 = tmp_path / "a.caml", tmp_path / "b.caml"
    save_checkpoint(str(p1), ck)
    save_checkpoint(str(p2), load_checkpoint(str(p1)))
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_restores_everything(tmp_path, rng):
    ck = _checkpoint(rng)
    p = tmp_path / "c.caml"
    save_checkpoint(str(p), ck)
    back = load_checkpoint(str(p))
    assert back.arch == ck.arch
    assert back.iteration == 2
    assert list(back.theta) == list(ck.theta)
    for k in ck.theta:
        assert np.array_equal(back.theta[k].numpy(), ck.theta[k].numpy())
    assert back.history[0].meta_loss == 1.25
    assert back.history[1].meta_loss == 1.0 / 3.0
    g1 = np.random.Generator(np.random.Philox(1))
    g1.bit_generator.state = back.rng_state
    g2 = np.random.Generator(np.random.Philox(42))
    assert np.array_equal(g1.standard_normal(8), g2.standard_normal(8))


def test_checkpoint_bad_magic(tmp_path, rng):
    p = tmp_path / "bad.caml"
    save_checkpoint(str(p), _checkpoint(rng))
    raw = bytearray(p.read_bytes())
    raw[:4] = b"LMAC"
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(str(p))


def test_checkpoint_truncated(tmp_path, rng):
    p = tmp_path / "t.caml"
    save_checkpoint(str(p), _checkpoint(rng))
    p.write_bytes(p.read_bytes()[:-3])
    with pytest.raises(CheckpointError, match="ended"):
        load_checkpoint(str(p))


def test_checkpoint_history_length_beyond_the_file_exits_3(tmp_path, rng, capsys):
    ck = _checkpoint(rng)
    p = tmp_path / "h.caml"
    save_checkpoint(str(p), ck)
    raw = bytearray(p.read_bytes())
    at = len(raw) - len(metrics_csv(ck.history).encode("utf-8")) - 8
    raw[at:at + 8] = struct.pack("<Q", 2**64 - 1)
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="ended while reading history"):
        load_checkpoint(str(p))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(p), "--episodes", "1"]) == 3
    assert "history" in capsys.readouterr().err


def test_checkpoint_header_reads_through_the_config_reader(tmp_path, rng):
    p = tmp_path / "hdr.caml"
    save_checkpoint(str(p), _checkpoint(rng))
    raw = p.read_bytes()
    for old, new, message in [(b"frame_len=16", b"frame_len=1x", r"header:2: key 'frame_len'"),
                              (b"n_heads=1", b"n_hoads=1", r"header:8: unknown key 'n_hoads'"),
                              (b"n_heads=1", b"n_heads=3", "not divisible"),
                              (b"frame_len=16", b"frame_len=02", "longer than input length"),
                              (b"frame_len=16", b"frame_len=\xff6", r"header:2: key 'frame_len'")]:
        assert raw.count(old) == 1
        p.write_bytes(raw.replace(old, new))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(str(p))


@pytest.mark.parametrize("old, new, where", [(b"iteration=2", b"iteration=x",
                                               r"header:\d+: key 'iteration'"),
                                              (b"rng_state={", b"rng_state=[", "key 'rng_state'"),
                                              (b'"buffer_pos"', b'"buffer_pas"', "key 'rng_state'"),
                                              (b"\n0,1.25,0.5\n", b"\n0,1.2x,0.5\n",
                                               "history line 2 '0,1.2x,0.5'"),
                                              (b"\n0,1.25,0.5\n", b"\n0;1.25,0.5\n",
                                               "history line 2 '0;1.25,0.5'")],
                         ids=["iteration", "rng-json", "rng-philox", "history-value", "history-fields"])
def test_checkpoint_bad_iteration_or_history_row_names_the_line(tmp_path, rng, capsys,
                                                                 old, new, where):
    p = tmp_path / "bad.caml"
    save_checkpoint(str(p), _checkpoint(rng))
    raw = p.read_bytes()
    assert raw.count(old) == 1
    p.write_bytes(raw.replace(old, new))
    with pytest.raises(CheckpointError, match=where) as info:
        load_checkpoint(str(p))
    assert str(p) in str(info.value)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(p), "--episodes", "1"]) == 3
    err = capsys.readouterr().err
    assert str(p) in err and len(err.strip().splitlines()) == 1


def test_checkpoint_parameter_rank_beyond_a_kernel_is_a_checkpoint_error(tmp_path, rng):
    p = tmp_path / "rank.caml"
    save_checkpoint(str(p), _checkpoint(rng))
    raw = p.read_bytes()
    old = struct.pack("<H", 7) + b"conv0.A" + struct.pack("<I", 3)
    assert raw.count(old) == 1
    p.write_bytes(raw.replace(old, struct.pack("<H", 7) + b"conv0.A" + struct.pack("<I", 257)))
    with pytest.raises(CheckpointError, match="parameter conv0.A has rank 257"):
        load_checkpoint(str(p))


def test_checkpoint_parameter_dims_past_int64_are_a_checkpoint_error(tmp_path, rng, capsys):
    # 2^31 * 2^31 * 4 elements wrap to 0 in int64; counted exactly, they
    # are more than the file holds
    p = tmp_path / "dims.caml"
    save_checkpoint(str(p), _checkpoint(rng))
    raw = p.read_bytes()
    head = struct.pack("<H", 7) + b"conv0.A" + struct.pack("<I", 3)
    at = raw.index(head) + len(head)
    p.write_bytes(raw[:at] + struct.pack("<3I", 2**31, 2**31, 4) + raw[at + 12:])
    with pytest.raises(CheckpointError, match="ended while reading parameter conv0.A"):
        load_checkpoint(str(p))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(p), "--episodes", "1"]) == 3
    assert "parameter conv0.A" in capsys.readouterr().err


def _refused_on_save_and_load(tmp_path, ck, state, match):
    """Saving ``ck`` with rng state ``state`` fails before any file exists;
    a good file whose header line is edited to that state fails to load
    with the same error."""
    p = tmp_path / "rng.caml"
    save_checkpoint(str(p), ck)
    raw = p.read_bytes()
    p.unlink()
    ck.rng_state = state
    with pytest.raises(CheckpointError, match=match):
        save_checkpoint(str(p), ck)
    assert not p.exists()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = re.sub(rb"rng_state=[^\n]*", b"rng_state=" + json.dumps(state).encode(), raw[12:12 + hlen])
    p.write_bytes(raw[:8] + struct.pack("<I", len(header)) + header + raw[12 + hlen:])
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(str(p))


def test_checkpoint_rng_state_must_be_a_json_object(tmp_path, rng):
    _refused_on_save_and_load(tmp_path, _checkpoint(rng), [1, 2], "key 'rng_state': not a JSON object")


@pytest.mark.parametrize("state", [
    np.random.default_rng(0).bit_generator.state,  # a real PCG64 state used to be saved
    {"bit_generator": "PCG64"},
    {"bit_generator": "Philox", "buffer": {"__nd__": "<u8", "data": [10 ** 30]}},
    {"bit_generator": "Philox", "buffer": {"__nd__": "<u8"}},
    {"bit_generator": "Philox", "buffer": {"__nd__": "<u,", "data": [1]}},
], ids=["pcg64", "other-generator", "overflow", "no-data", "dtype-text"])
def test_checkpoint_rng_state_must_fit_the_episode_generator(tmp_path, rng, state):
    _refused_on_save_and_load(tmp_path, _checkpoint(rng), state, "key 'rng_state'")


# ---------------------------------------------------------------------------
# toychain and gradcheck internals
# ---------------------------------------------------------------------------

def test_toychain_naive_rule_is_stuck():
    rows = toychain_run(steps=50, lr=0.05)
    assert rows[0][1] == rows[0][2]  # identical start
    assert all(r[3] == 0.0 for r in rows)  # naive gradient exactly zero
    naive = [r[2] for r in rows]
    assert max(abs(v - naive[0]) for v in naive) == 0.0
    complex_rule = [r[1] for r in rows]
    assert all(b < a for a, b in zip(complex_rule, complex_rule[1:]))


def test_toychain_single_term_zeros_come_from_the_conj_stage(monkeypatch):
    # negative control: with du/dz = 1 at the conj stage the single-term
    # gradient is finite and nonzero and its trajectory moves, so the zeros
    # above come from that stage's du/dz = 0, not from a constant
    (conj, _), *rest = camel.cli._TOY_STAGES
    monkeypatch.setattr(camel.cli, "_TOY_STAGES", ((conj, lambda z: 1.0), *rest))
    rows = toychain_run(steps=5, lr=0.05)
    assert all(math.isfinite(r[3]) and r[3] > 0 for r in rows)
    assert rows[-1][2] != rows[0][2]


def test_toychain_nonfinite_trajectory_exits_2(capsys):
    # lr 1e300 throws x far enough out that the next step's loss overflows
    assert main(["toychain", "--lr", "1e300", "--steps", "5"]) == 2
    err = capsys.readouterr().err
    assert "trajectory is not finite at step 1" in err and len(err.strip().splitlines()) == 1
    code, err = _camel_in_fresh_process("toychain", "--lr", "1e300")
    assert code == 2 and "RuntimeWarning" not in err and "at step 1" in err


def test_import_camel_and_cli_leave_the_oracles_unloaded():
    src = os.path.dirname(os.path.dirname(camel.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys, camel, camel.cli; loaded = 'camel.gradcheck' in sys.modules; "
             "camel.cr_check; print(loaded, 'camel.gradcheck' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


def test_gradcheck_negative_control_flags_corrupted_adjoint(rng):
    inputs = lambda r: {"x0": rand_complex(r, 3)}
    loss = lambda g, lv, r: g.re(g_sum(g, g.mul(lv["x0"], g.conj(lv["x0"]))))
    case = GradCase("conj-user", inputs, loss)
    assert run_suite([case], instances=2, seed=0)[0].ok

    # corrupt the conjugation adjoint rule, by a scale and by nan, and
    # expect the suite to flag it: the gradient of |x|^2 is x/2 through
    # each factor, so a factor f on the conj path is off by (f - 1)/2
    import camel.wirtinger as w

    original = w._PULLBACKS["conj"]
    for factor, max_err in ((1.001, pytest.approx(5e-4, rel=0.01)), (math.nan, math.inf)):
        def crooked(g, nid, c):
            return [(i, g.smul(p, factor)) for i, p in original(g, nid, c)]

        w._PULLBACKS["conj"] = crooked
        try:
            res = run_suite([GradCase("conj-corrupted", inputs, loss)], instances=2, seed=0)
            assert not res[0].ok and res[0].max_err == max_err
        finally:
            w._PULLBACKS["conj"] = original


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gradcheck_case_fails_where_the_loss_is_not_finite_at_a_differenced_point():
    # Re sum(1/x) at x = FD_STEP: the step to x - FD_STEP divides by zero
    inputs = lambda r: {"x0": np.full(2, FD_STEP + 0j)}
    loss = lambda g, lv, r: g.re(g_sum(g, g.div(g.const(np.ones(2)), lv["x0"])))
    res = run_case(GradCase("pole", inputs, loss), instances=1)
    assert res.max_err == math.inf and not res.ok


# ---------------------------------------------------------------------------
# command round trips (small budgets)
# ---------------------------------------------------------------------------

TINY_CFG = """
n_classes = 3
frame_len = 32
conv_channels = 2
conv_stride = 4
attn_dim = 2
n_heads = 1
fc_hidden = 4
n_way = 3
k_shot = 1
q_size = 2
inner_steps = 1
iterations = 4
outer_lr = 0.002
outer_optimizer = adam
early_stop = false
checkpoint_every = 2
frames_per_cell = 6
snr_lo = 10
snr_hi = 12
snr_step = 2
eval_episodes = 4
seed = 5
"""


@pytest.fixture
def tiny_cfg_path(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY_CFG)
    return str(p)


def test_cmd_gen_deterministic_and_loadable(tmp_path, tiny_cfg_path):
    out1 = tmp_path / "p1.csig"
    out2 = tmp_path / "p2.csig"
    assert main(["gen", "--config", tiny_cfg_path, "--out", str(out1)]) == 0
    assert main(["gen", "--config", tiny_cfg_path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    from camel.signals import load_frames
    pool = load_frames(str(out1))
    assert len(pool.frames) == 7 * 2 * 6  # schemes x snrs x frames_per_cell


def test_cmd_gen_zero_frames(tmp_path, tiny_cfg_path):
    out = tmp_path / "zero.csig"
    assert main(["gen", "--config", tiny_cfg_path, "--set", "frames_per_cell=0",
                 "--out", str(out)]) == 0
    from camel.signals import load_frames
    assert load_frames(str(out)).frames == []


def test_cmd_train_zero_iterations(tmp_path, tiny_cfg_path):
    out = tmp_path / "run0"
    assert main(["train", "--config", tiny_cfg_path, "--iterations", "0",
                 "--out", str(out)]) == 0
    ck = load_checkpoint(str(out / "checkpoint.caml"))
    assert ck.iteration == 0 and ck.history == []
    assert (out / "metrics.csv").read_text() == "iteration,meta_loss,query_acc\n"


def test_cmd_train_and_eval_roundtrip(tmp_path, tiny_cfg_path):
    out = tmp_path / "run"
    assert main(["train", "--config", tiny_cfg_path, "--out", str(out)]) == 0
    metrics = (out / "metrics.csv").read_text().strip().splitlines()
    assert metrics[0] == "iteration,meta_loss,query_acc"
    assert len(metrics) == 5
    assert [int(r.split(",")[0]) for r in metrics[1:]] == [0, 1, 2, 3]
    assert main(["eval", "--config", tiny_cfg_path,
                 "--checkpoint", str(out / "checkpoint.caml"),
                 "--episodes", "3", "--out", str(out)]) == 0
    conf = (out / "confusion.csv").read_text().strip().splitlines()
    rows = [list(map(float, r.split(",")[1:])) for r in conf[1:]]
    for row in rows:
        assert abs(sum(row) - 100.0) <= 1e-6


def test_cmd_train_resume_continues_history(tmp_path, tiny_cfg_path):
    half = tmp_path / "half"
    full = tmp_path / "full"
    assert main(["train", "--config", tiny_cfg_path, "--iterations", "2",
                 "--out", str(half)]) == 0
    assert main(["train", "--config", tiny_cfg_path, "--resume",
                 str(half / "checkpoint.caml"), "--out", str(full)]) == 0
    ck = load_checkpoint(str(full / "checkpoint.caml"))
    assert ck.iteration == 4
    assert [r.iteration for r in ck.history] == [0, 1, 2, 3]


def test_cmd_train_sgd_resume_bitwise(tmp_path, tiny_cfg_path):
    # with the stateless outer optimizer, resume reproduces the straight run
    args = ["--config", tiny_cfg_path, "--set", "outer_optimizer=sgd", "--set", "outer_lr=0.01"]
    a, b, c = (tmp_path / n for n in ("straight", "h1", "h2"))
    assert main(["train", *args, "--out", str(a)]) == 0
    assert main(["train", *args, "--iterations", "2", "--out", str(b)]) == 0
    assert main(["train", *args, "--resume", str(b / "checkpoint.caml"), "--out", str(c)]) == 0
    assert (a / "checkpoint.caml").read_bytes() == (c / "checkpoint.caml").read_bytes()


@pytest.mark.parametrize("split", [2, 3, 4, 5, 6, 9])
def test_cmd_train_sgd_resume_with_early_stop_bitwise(tmp_path, tiny_cfg_path, split):
    # the straight run stops early at iteration 6; split before it, at it
    # and after it, the resumed run stops there too and writes the same files
    args = ["--config", tiny_cfg_path, "--set", "outer_optimizer=sgd", "--set", "outer_lr=0.01",
            "--set", "early_stop=true", "--set", "plateau_patience=2", "--set", "plateau_tol=0.01",
            "--iterations", "12"]
    a, b, c = (tmp_path / n for n in ("straight", "h1", "h2"))
    assert main(["train", *args, "--out", str(a)]) == 0
    assert load_checkpoint(str(a / "checkpoint.caml")).iteration == 6
    assert main(["train", *args, "--iterations", str(split), "--out", str(b)]) == 0
    assert main(["train", *args, "--resume", str(b / "checkpoint.caml"), "--out", str(c)]) == 0
    for name in ("checkpoint.caml", "metrics.csv"):
        assert (a / name).read_bytes() == (c / name).read_bytes(), name


def test_cmd_eval_arch_mismatch_exits_3(tmp_path, tiny_cfg_path):
    out = tmp_path / "run"
    assert main(["train", "--config", tiny_cfg_path, "--iterations", "1",
                 "--out", str(out)]) == 0
    code = main(["eval", "--config", tiny_cfg_path, "--set", "conv_channels=4",
                 "--checkpoint", str(out / "checkpoint.caml"), "--episodes", "1"])
    assert code == 3


@pytest.mark.parametrize("n_way", [2, 4])
def test_cmd_train_rejects_a_way_count_other_than_the_class_count(tmp_path, tiny_cfg_path, capsys, n_way):
    out = tmp_path / "run"
    code = main(["train", "--config", tiny_cfg_path, "--set", f"n_way={n_way}", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3 and not out.exists()
    assert "n_classes=3" in err and f"n_way={n_way}" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("finetune", ["0", "2"])
def test_cmd_eval_rejects_a_way_count_other_than_the_checkpoint_class_count(tmp_path, tiny_cfg_path,
                                                                            capsys, finetune):
    out = tmp_path / "run"
    assert main(["train", "--config", tiny_cfg_path, "--iterations", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["eval", "--config", tiny_cfg_path, "--set", "n_way=4", "--set", f"finetune_steps={finetune}",
                 "--checkpoint", str(out / "checkpoint.caml"), "--episodes", "1",
                 "--out", str(tmp_path / "eval")])
    err = capsys.readouterr().err
    assert code == 3 and not (tmp_path / "eval").exists()
    assert "n_classes=3" in err and "n_way=4" in err and len(err.strip().splitlines()) == 1


def test_episodes_flag_is_its_set_line(tmp_path, tiny_cfg_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", tiny_cfg_path, "--iterations", "1", "--out", str(out)]) == 0
    evaluate = ["eval", "--config", tiny_cfg_path, "--checkpoint", str(out / "checkpoint.caml")]
    capsys.readouterr()
    reports = []
    for argv in (["--episodes", "3"], ["--set", "eval_episodes=3"]):
        assert main([*evaluate, *argv]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] and "over 3 episodes" in reports[0]
    for value in ("x", "0"):
        assert main([*evaluate, "--episodes", value]) == 3
        assert "eval_episodes" in capsys.readouterr().err


def _trained_checkpoint(tmp_path, tiny_cfg_path) -> str:
    out = tmp_path / "run"
    assert main(["train", "--config", tiny_cfg_path, "--iterations", "2",
                 "--out", str(out)]) == 0
    return str(out / "checkpoint.caml")


def _record(name: str, value) -> bytes:
    """One parameter as a CAML file stores it: name, rank, dims, then each
    entry's real and imaginary parts as little-endian float64."""
    arr = np.asarray(value, dtype="<c16")
    return (struct.pack("<H", len(name)) + name.encode() + struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape)
            + arr.tobytes())


def _edit_params(path, old: bytes, new: bytes, added: int = 0) -> None:
    """Replace the parameter bytes ``old`` of the CAML file at ``path`` by
    ``new`` and move its parameter count by ``added``: a file that
    ``save_checkpoint`` would refuse to write."""
    with open(path, "rb") as fh:
        raw = fh.read()
    at = 12 + struct.unpack("<I", raw[8:12])[0]  # magic, version, header length, header
    (count,) = struct.unpack("<I", raw[at:at + 4])
    assert raw.count(old) == 1
    with open(path, "wb") as fh:
        fh.write(raw[:at] + struct.pack("<I", count + added) + raw[at + 4:].replace(old, new))


def _drop_head_b(theta):
    return _record("head.b", theta["head.b"].numpy()), b"", -1


def _fc0_w_with(theta, value):
    arr = theta["fc0.W"].numpy()
    bad = arr.copy()
    bad[0, 0] = value
    return _record("fc0.W", arr), _record("fc0.W", bad), 0


def _nan_param(theta):
    return _fc0_w_with(theta, complex(np.nan, 0.0))


def _inf_param(theta):
    return _fc0_w_with(theta, complex(0.0, np.inf))  # refused with no numpy warning


def _repeated_head_b(theta):
    # a second entry would replace the first and still pass every name check
    head_b = theta["head.b"].numpy()
    return _record("head.b", head_b), _record("head.b", head_b) + _record("head.b", head_b + 1.0), 1


def _old_embedding(theta):
    # every checkpoint written while a pointwise embedding fed conv0 carries
    # it, and a conv0 kernel that reads its C channels
    c, c_in, k = theta["conv0.A"].shape
    old = _record("embed.A", np.ones((c, c_in, 1))) + _record("conv0.A", np.ones((c, c, k)))
    return _record("conv0.A", theta["conv0.A"].numpy()), old, 1


def _old_biases(theta):
    # every one written while the embedding, the convs and the FC blocks
    # had biases carries these three as well
    conv0, old, added = _old_embedding(theta)
    c, hidden = theta["conv0.gamma"].shape[0], theta["fc0.gamma"].shape[0]
    biases = [_record(name, np.ones(n)) for name, n in (("embed.b", c), ("conv0.b", c), ("fc0.b", hidden))]
    return conv0, old + b"".join(biases), added + 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("damage, message", [(_drop_head_b, "lacks parameter"),
                                             (_nan_param, "non-finite"),
                                             (_inf_param, "non-finite"),
                                             (_old_embedding, "does not define"),
                                             (_old_biases, "does not define"),
                                             (_repeated_head_b, "repeats parameter head.b")],
                         ids=["missing_head_b", "nan_param", "inf_param", "old_embedding", "old_biases",
                              "repeated_head_b"])
def test_cmd_eval_and_resume_reject_damaged_checkpoint(tmp_path, tiny_cfg_path, capsys,
                                                       damage, message):
    path = _trained_checkpoint(tmp_path, tiny_cfg_path)
    _edit_params(path, *damage(load_checkpoint(path).theta))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)
    capsys.readouterr()
    assert main(["eval", "--config", tiny_cfg_path, "--checkpoint", path, "--episodes", "1"]) == 3
    assert main(["train", "--config", tiny_cfg_path, "--resume", path,
                 "--out", str(tmp_path / "resumed")]) == 3
    err = capsys.readouterr().err
    assert err.count(message) == 2 and "Traceback" not in err
    assert not os.path.exists(tmp_path / "resumed" / "checkpoint.caml")


def test_checkpoint_wrong_shape_rejected(tmp_path, rng):
    ck = _checkpoint(rng)
    p = tmp_path / "s.caml"
    save_checkpoint(str(p), ck)
    _edit_params(p, _record("head.b", ck.theta["head.b"].numpy()), _record("head.b", rand_complex(rng, 4)))
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(str(p))


def test_checkpoint_repeated_parameter_names_it_and_the_file(tmp_path, rng):
    ck = _checkpoint(rng)
    p = tmp_path / "twice.caml"
    save_checkpoint(str(p), ck)
    _edit_params(p, *_repeated_head_b(ck.theta))
    with pytest.raises(CheckpointError, match="repeats parameter head.b") as info:
        load_checkpoint(str(p))
    assert str(p) in str(info.value)


@pytest.mark.parametrize("damage, message", [
    (lambda p: p.pop("head.b"), "lacks parameter"),
    (lambda p: p.update({"embed.b": CTensor.zeros((2,))}), "does not define"),
    (lambda p: p.update({"head.b": CTensor.zeros((4,))}), "shape"),
    (lambda p: p.update({"fc0.W": CTensor._wrap(np.full(p["fc0.W"].shape, complex(np.nan, 0.0)))}), "non-finite"),
    (lambda p: p.update({"fc0.W": CTensor._wrap(np.full(p["fc0.W"].shape, complex(0.0, np.inf)))}), "non-finite"),
], ids=["missing", "extra", "shape", "nan", "inf"])
def test_save_checkpoint_refuses_what_loading_refuses(tmp_path, rng, damage, message):
    ck = _checkpoint(rng)
    params = dict(ck.theta)
    damage(params)
    ck.theta = ParamSet(params)
    p = tmp_path / "c.caml"
    with pytest.raises(CheckpointError, match=message):
        save_checkpoint(str(p), ck)
    assert not p.exists()


def _blown_up_checkpoint(tmp_path, tiny_cfg_path) -> str:
    # finite, so the checkpoint saves and loads, but the forward pass overflows
    path = _trained_checkpoint(tmp_path, tiny_cfg_path)
    ck = load_checkpoint(path)
    ck.theta = ParamSet({name: CTensor(t.numpy() * 1e150) for name, t in ck.theta.items()})
    save_checkpoint(path, ck)
    return path


@pytest.mark.parametrize("finetune, message", [("10", "support loss is not finite"),
                                               ("0", "query log-probabilities are not finite")],
                         ids=["finetune", "no_finetune"])
def test_cmd_eval_nonfinite_loss_exits_2(tmp_path, tiny_cfg_path, capsys, finetune, message):
    path = _blown_up_checkpoint(tmp_path, tiny_cfg_path)
    load_checkpoint(path)
    capsys.readouterr()
    code = main(["eval", "--config", tiny_cfg_path, "--set", f"finetune_steps={finetune}",
                 "--checkpoint", path, "--episodes", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err and len(err.strip().splitlines()) == 1


def _camel_in_fresh_process(*argv) -> tuple[int, str]:
    """Exit code and standard error of the CLI in its own interpreter, where
    numpy warnings reach stderr as they do for a user."""
    src = os.path.dirname(os.path.dirname(camel.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", "import sys; from camel.cli import main; sys.exit(main())",
                           *argv], capture_output=True, text=True, env=env, timeout=300)
    return done.returncode, done.stderr


def test_nonfinite_train_and_eval_print_no_numpy_warnings(tmp_path, tiny_cfg_path):
    path = _blown_up_checkpoint(tmp_path, tiny_cfg_path)
    code, err = _camel_in_fresh_process("eval", "--config", tiny_cfg_path, "--checkpoint", path,
                                        "--episodes", "2")
    assert code == 2 and "RuntimeWarning" not in err and len(err.strip().splitlines()) == 1
    code, err = _camel_in_fresh_process("train", "--config", tiny_cfg_path,
                                        "--set", "outer_optimizer=sgd", "--set", "outer_lr=1e9",
                                        "--set", "iterations=50", "--out", str(tmp_path / "div"))
    assert code == 2 and "RuntimeWarning" not in err and "training diverged" in err


@pytest.mark.parametrize("argv, message", [(["eval"], "camel eval: the following arguments "
                                                     "are required: --checkpoint"),
                                           (["gradcheck", "--seed", "x"],
                                            "camel gradcheck: argument --seed: expected an integer >= 0"),
                                           (["bogus"], "camel: argument command: invalid choice")])
def test_usage_errors_exit_3(capsys, argv, message):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["toychain", "--steps", "-1"],
    ["toychain", "--lr", "nan"],
    ["toychain", "--lr", "inf"],
    ["toychain", "--lr", "0"],
    ["bench-lemma1", "--m", "0"],
    ["bench-lemma1", "--depth", "0"],
    ["bench-lemma1", "--depth", "-1"],
    ["gradcheck", "--instances", "0"],
    ["gradcheck", "--instances", "-1"],
    pytest.param(["gradcheck", "--seed", "-1"], id="gradcheck--seed-1"),
    pytest.param(["bench-lemma1", "--seed", "-1"], id="bench-lemma1--seed-1"),
], ids=lambda argv: "".join(argv[1:]))
def test_numeric_options_out_of_range_exit_3(capsys, argv):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"camel {argv[0]}: argument {argv[1]}: expected" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_usage_error_and_help_exit_codes_in_a_fresh_process():
    code, err = _camel_in_fresh_process("eval")
    assert code == 3 and "--checkpoint" in err
    code, err = _camel_in_fresh_process("--help")
    assert code == 0 and err == ""


def test_cmd_train_bad_frames_file_exits_3(tmp_path, tiny_cfg_path):
    bad = tmp_path / "bad.csig"
    bad.write_bytes(b"XXXX" + b"\x00" * 16)
    code = main(["train", "--config", tiny_cfg_path, "--set", f"frames={bad}",
                 "--out", str(tmp_path / "r")])
    assert code == 3


def test_cmd_train_frames_of_the_wrong_length_name_the_file_exits_3(tmp_path, tiny_cfg_path, capsys):
    # the first bad frame is frame 3 of the file, whichever frame an
    # episode would have drawn first
    pool = generate_pool(["BPSK", "QPSK"], [10.0], 3, 128, 4, np.random.default_rng(0))
    short = generate_pool(["BPSK"], [10.0], 1, 64, 4, np.random.default_rng(1)).frames[0]
    pool.frames[3] = short
    p = tmp_path / "p.csig"
    save_frames(str(p), pool)
    capsys.readouterr()
    code = main(["train", "--config", tiny_cfg_path, "--set", f"frames={p}", "--set", "frame_len=128",
                 "--out", str(tmp_path / "r")])
    assert code == 3
    assert f"error: frame file {p}: frame 3 has 64 samples, expected frame_len = 128" in capsys.readouterr().err


def test_cmd_train_divergence_exits_2(tmp_path, tiny_cfg_path):
    out = tmp_path / "div"
    code = main(["train", "--config", tiny_cfg_path, "--set", "outer_optimizer=sgd",
                 "--set", "outer_lr=1e9", "--set", "iterations=50", "--out", str(out)])
    assert code == 2
    assert os.path.exists(out / "checkpoint.caml")


def test_metrics_csv_format():
    rows = [HistoryRow(0, 0.5, 0.25), HistoryRow(1, 1.0 / 3.0, float("nan"))]
    text = metrics_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "iteration,meta_loss,query_acc"
    assert lines[1] == "0,0.5,0.25"
    assert float(lines[2].split(",")[1]) == 1.0 / 3.0


def test_train_and_eval_self_consistency(tmp_path):
    # with matching adaptation budgets, held-out evaluation lands near the
    # accuracy logged at train time
    cfg = tmp_path / "sc.cfg"
    cfg.write_text(TINY_CFG.replace("iterations = 4", "iterations = 120")
                           .replace("finetune_steps = 10", "finetune_steps = 1")
                   + "finetune_steps = 1\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    ck = load_checkpoint(str(out / "checkpoint.caml"))
    tail = [r.query_acc for r in ck.history[-40:]]
    train_acc = float(np.mean(tail))

    from camel.cli import _streams, _train_test_pools, _rng, load_config
    from camel.meta import evaluate
    from camel.signals import sample_episode

    run_cfg = load_config(str(cfg))
    streams = _streams(run_cfg.meta.seed)
    _, test_pool = _train_test_pools(run_cfg, streams)
    e_rng = _rng(streams["eval"].spawn(1)[0])
    eps = [sample_episode(test_pool, run_cfg.meta.n_way, run_cfg.meta.k_shot,
                          run_cfg.meta.q_size, e_rng) for _ in range(50)]
    rep = evaluate(ck.theta, eps, run_cfg.meta, ck.arch)
    spread = max(0.12, 3 * rep.ci95)
    assert abs(rep.accuracy - train_acc) <= spread, (
        f"eval {rep.accuracy:.3f} vs train-time {train_acc:.3f} beyond {spread:.3f}")
