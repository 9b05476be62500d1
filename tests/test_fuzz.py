"""Fuzz of everything camel reads from outside: config and --set lines,
the numeric options of the validation commands, CAML checkpoints and CSIG
frame files.

Each input must give a value or a typed error (ConfigError, CheckpointError,
FrameFormatError), and through ``main`` an exit code of 0, 2 or 3: never a
traceback, and never 1, the code of a numerical validation failure.  The
runs are derandomized and bounded, so the suite stays deterministic.
"""

import contextlib
import io
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from camel.cli import _KEYS, CheckpointError, ConfigError, load_checkpoint, main, parse_config, read_settings
from camel.signals import FrameFormatError, load_frames

from test_cli import TINY_CFG

FUZZ = settings(derandomize=True, deadline=None, max_examples=60,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
FUZZ_MAIN = settings(FUZZ, max_examples=30)

_VALUES = st.one_of(
    st.sampled_from(["", "0", "-1", "1", "2", "1e400", "nan", "-inf", "true", "no", "BPSK,QPSK",
                     "abs", "adam", "9" * 40, "0x10", "1_0", " 3 ", "none"]),
    st.integers(-10, 10).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=12),
)
_LINES = st.one_of(
    st.builds(lambda k, v: f"{k}={v}", st.sampled_from(sorted(_KEYS)), _VALUES),
    st.builds(lambda k, v: f"{k} = {v} # note", st.sampled_from(sorted(_KEYS)), _VALUES),
    st.text(max_size=30),
)


def _quiet(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _flips(blob: bytes):
    """A truncation of ``blob``, or ``blob`` with one bit flipped (half of
    the flips land in its first 256 bytes, where the headers are)."""
    n = len(blob)
    pos = st.one_of(st.integers(0, min(n, 256) - 1), st.integers(0, n - 1))
    return st.one_of(
        st.integers(0, n - 1).map(lambda k: blob[:k]),
        st.tuples(pos, st.integers(0, 7)).map(
            lambda t: blob[:t[0]] + bytes([blob[t[0]] ^ (1 << t[1])]) + blob[t[0] + 1:]),
    )


@pytest.fixture(scope="module")
def made(tmp_path_factory) -> dict[str, str]:
    """A config file, a frame file and the checkpoint of a 3-iteration run."""
    d = tmp_path_factory.mktemp("made")
    paths = {"cfg": str(d / "tiny.cfg"), "csig": str(d / "frames.csig"),
             "caml": str(d / "run" / "checkpoint.caml")}
    (d / "tiny.cfg").write_text(TINY_CFG + "finetune_steps = 1\n")
    assert _quiet(["gen", "--config", paths["cfg"], "--out", paths["csig"]]) == 0
    assert _quiet(["train", "--config", paths["cfg"], "--iterations", "3", "--out", str(d / "run")]) == 0
    return paths


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_damaged(tmp_path, name: str, blob: bytes) -> str:
    path = str(tmp_path / name)
    with open(path, "wb") as fh:
        fh.write(blob)
    return path


# ---------------------------------------------------------------------------
# config and --set lines
# ---------------------------------------------------------------------------

@FUZZ
@given(st.lists(_LINES, max_size=6))
def test_fuzz_config_lines_give_a_config_or_a_config_error(lines):
    try:
        read_settings(lines, "fuzz")
        parse_config(lines, "fuzz")
    except ConfigError:
        pass


@FUZZ_MAIN
@given(file_lines=st.lists(_LINES, max_size=4), set_lines=st.lists(_LINES, max_size=3))
def test_fuzz_config_and_set_lines_through_main_exit_3(tmp_path, file_lines, set_lines):
    # the checkpoint does not exist, so every run ends in exit 3: at the
    # config if it is bad, else at the missing file
    cfg = _write_damaged(tmp_path, "fuzz.cfg", "\n".join(file_lines).encode("utf-8", "surrogatepass"))
    argv = ["eval", "--config", cfg, "--checkpoint", str(tmp_path / "missing.caml")]
    for line in set_lines:
        argv += ["--set", line]
    assert _quiet(argv) == 3


# ---------------------------------------------------------------------------
# numeric options of the validation commands
# ---------------------------------------------------------------------------

def _option(most: int):
    """An option value: any text, but none that reads as an integer above
    ``most``, so that every run stays small."""
    def small(text: str) -> bool:
        try:
            return int(text) <= most
        except ValueError:
            return True

    return st.one_of(_VALUES, st.integers(-3, most).map(str)).filter(small)


@FUZZ_MAIN
@given(steps=_option(20), lr=_VALUES)
def test_fuzz_toychain_options_through_main(steps, lr):
    assert _quiet(["toychain", f"--steps={steps}", f"--lr={lr}"]) in (0, 3)


@FUZZ_MAIN
@given(m=_option(16), depth=_option(4))
def test_fuzz_bench_lemma1_options_through_main(m, depth):
    assert _quiet(["bench-lemma1", f"--m={m}", f"--depth={depth}"]) in (0, 3)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@FUZZ
@given(data=st.data())
def test_fuzz_damaged_checkpoint_loads_or_raises_checkpoint_error(tmp_path, made, data):
    blob = data.draw(_flips(_read(made["caml"])))
    try:
        load_checkpoint(_write_damaged(tmp_path, "bad.caml", blob))
    except CheckpointError:
        pass


@FUZZ_MAIN
@given(data=st.data(), command=st.sampled_from(["eval", "resume"]))
def test_fuzz_damaged_checkpoint_through_main(tmp_path, made, data, command):
    blob = data.draw(_flips(_read(made["caml"])))
    bad = _write_damaged(tmp_path, "bad.caml", blob)
    if command == "eval":
        argv = ["eval", "--config", made["cfg"], "--checkpoint", bad, "--episodes", "1"]
    else:
        argv = ["train", "--config", made["cfg"], "--resume", bad, "--iterations", "4",
                "--out", str(tmp_path / "resumed")]
    code = _quiet(argv)
    assert code in (0, 2, 3)
    if len(blob) < len(_read(made["caml"])):
        assert code == 3


# ---------------------------------------------------------------------------
# frame files
# ---------------------------------------------------------------------------

@FUZZ
@given(data=st.data())
def test_fuzz_damaged_frame_file_loads_or_raises_frame_format_error(tmp_path, made, data):
    blob = data.draw(_flips(_read(made["csig"])))
    try:
        load_frames(_write_damaged(tmp_path, "bad.csig", blob))
    except FrameFormatError:
        pass


@FUZZ_MAIN
@given(data=st.data())
def test_fuzz_damaged_frame_file_through_main(tmp_path, made, data):
    blob = data.draw(_flips(_read(made["csig"])))
    bad = _write_damaged(tmp_path, "bad.csig", blob)
    code = _quiet(["train", "--config", made["cfg"], "--set", f"frames={bad}", "--iterations", "1",
                   "--out", str(tmp_path / "run")])
    assert code in (0, 2, 3)
    if len(blob) < len(_read(made["csig"])):
        assert code == 3


_FAILING_FUZZ = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_a_failing_fuzz_reports_its_falsifying_example(tmp_path):
    # under the suite's pytest settings, where warnings are errors, a
    # failing Hypothesis test must end in its report, not an INTERNALERROR
    (tmp_path / "test_failing_fuzz.py").write_text(_FAILING_FUZZ)
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(pyproject), "--rootdir", str(tmp_path),
                          "-p", "no:cacheprovider", "test_failing_fuzz.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example: test_fails(" in run.stdout
    assert "1 failed" in run.stdout
