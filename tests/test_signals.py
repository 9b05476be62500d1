import hashlib
import math
import os
import struct

import numpy as np
import pytest

from camel import signals
from camel.ctensor import CTensor, NonFiniteError
from camel.signals import (
    BadMagicError,
    FrameFormatError,
    FramePool,
    ModulationError,
    SCHEME_NAMES,
    SCHEMES,
    SignalFrame,
    TruncatedFileError,
    UnknownSchemeError,
    _CONSTELLATIONS,
    add_awgn,
    episode_stream,
    generate_pool,
    load_frames,
    modulate,
    sample_episode,
    save_frames,
    scenario_split,
)

ALL_SCHEMES = list(SCHEME_NAMES)


# ---------------------------------------------------------------------------
# modulation
# ---------------------------------------------------------------------------

def test_bpsk_antipodal_mapping():
    f = modulate([0, 1], "BPSK", sps=1, frame_len=2)
    assert np.array_equal(f.samples.numpy(), np.array([1 + 0j, -1 + 0j]))


def test_qpsk_unit_magnitude(rng):
    f = modulate(None, "QPSK", sps=4, frame_len=64, rng=rng)
    assert np.max(np.abs(np.abs(f.samples.numpy()) - 1.0)) <= 1e-12


def test_qam16_empirical_power(rng):
    samples = np.concatenate([modulate(None, "QAM16", 1, 512, rng=rng).samples.numpy()
                              for _ in range(30)])
    power = np.mean(np.abs(samples) ** 2)
    assert 0.95 <= power <= 1.05


def test_constellation_schemes_emit_declared_points(rng):
    for name, points in _CONSTELLATIONS.items():
        f = modulate(None, name, sps=2, frame_len=32, rng=rng)
        for s in f.samples.numpy():
            assert np.min(np.abs(points - s)) <= 1e-12, f"{name} emitted off-grid point {s}"


def test_cpm_schemes_unit_envelope(rng):
    for name in ("CPFSK", "GFSK"):
        f = modulate(None, name, sps=8, frame_len=128, rng=rng)
        assert np.max(np.abs(np.abs(f.samples.numpy()) - 1.0)) <= 1e-12


def test_modulate_errors(rng):
    with pytest.raises(ModulationError, match="unsupported"):
        modulate([0, 1], "WBFM", sps=1, frame_len=2)
    with pytest.raises(ModulationError, match="bits"):
        modulate([0, 1], "QAM16", sps=1, frame_len=4)
    with pytest.raises(ModulationError, match="multiple"):
        modulate(None, "BPSK", sps=3, frame_len=8, rng=rng)


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

def test_awgn_vanishes_at_high_snr(rng):
    f = modulate(None, "QPSK", 4, 64, rng=rng)
    noisy = add_awgn(f, 300.0, rng)
    assert np.max(np.abs(noisy.samples.numpy() - f.samples.numpy())) <= 1e-12
    assert noisy.snr_db == 300.0


def test_awgn_power_and_circularity(rng):
    f = modulate(None, "8PSK", 4, 128, rng=rng)
    deltas = np.concatenate([(add_awgn(f, 0.0, rng).samples.numpy() - f.samples.numpy())
                             for _ in range(1000)])
    power = np.mean(np.abs(deltas) ** 2)
    assert 0.98 <= power <= 1.02
    re_var = np.var(deltas.real)
    im_var = np.var(deltas.imag)
    assert abs(re_var - power / 2) <= 0.02
    assert abs(im_var - power / 2) <= 0.02


@pytest.mark.parametrize("snr_db", [-10.0, 0.0, 10.0, 20.0])
def test_empirical_snr_within_half_db(rng, snr_db):
    num = den = 0.0
    for _ in range(1000):
        clean = modulate(None, "QPSK", 4, 64, rng=rng)
        noisy = add_awgn(clean, snr_db, rng)
        num += np.mean(np.abs(clean.samples.numpy()) ** 2)
        den += np.mean(np.abs(noisy.samples.numpy() - clean.samples.numpy()) ** 2)
    measured = 10.0 * math.log10(num / den)
    assert abs(measured - snr_db) <= 0.5


# ---------------------------------------------------------------------------
# pool
# ---------------------------------------------------------------------------

def _reference_pool(schemes, snr_grid, frames_per_cell, frame_len, sps, rng):
    """The per-frame loop: modulate, then add_awgn, frame after frame."""
    frames = []
    for name in schemes:
        for snr in snr_grid:
            for _ in range(frames_per_cell):
                noisy = add_awgn(modulate(None, name, sps, frame_len, rng), snr, rng)
                frames.append((noisy.samples.numpy().tobytes(), schemes.index(name), noisy.snr_db))
    return frames


@pytest.mark.parametrize("sps", [1, 2, 4, 8])
@pytest.mark.parametrize("frame_len", [32, 64, 128])
def test_generate_pool_matches_the_per_frame_loop(frame_len, sps):
    snrs = [-10.0, 0.0, 18.0]
    for frames_per_cell in (1, 40):
        seed = 1000 * frame_len + 10 * sps + frames_per_cell
        pool = generate_pool(ALL_SCHEMES, snrs, frames_per_cell, frame_len, sps,
                             np.random.Generator(np.random.Philox(seed)))
        want = _reference_pool(ALL_SCHEMES, snrs, frames_per_cell, frame_len, sps,
                               np.random.Generator(np.random.Philox(seed)))
        assert len(pool.frames) == len(want) == len(ALL_SCHEMES) * len(snrs) * frames_per_cell
        for f, (raw, label, snr) in zip(pool.frames, want):
            a = f.samples.numpy()
            assert a.tobytes() == raw and f.label == label and f.snr_db == snr
            assert f.samples.rank == 1 and a.shape == (frame_len,) and not a.flags.writeable


def test_generate_pool_keeps_the_pool_of_a_seed():
    """The 1400-frame pool of perfbench and criteria 6/7 (frame_len 64, sps 4,
    SNR 10-18 dB, Philox from the first child of seed 1) keeps its bytes."""
    data = np.random.SeedSequence(1).spawn(4)[0]
    pool = generate_pool(["BPSK", "QPSK", "8PSK", "PAM4", "QAM16", "CPFSK", "GFSK"],
                         [10.0, 12.0, 14.0, 16.0, 18.0], 40, 64, 4,
                         np.random.Generator(np.random.Philox(data)))
    h = hashlib.sha256()
    for f in pool.frames:
        h.update(f.samples.numpy().tobytes())
        h.update(f"{f.label},{f.snr_db!r};".encode())
    assert h.hexdigest() == "6e0e5f2cbdc865a67f8e3c7c881b0328ff735435bf6e45064725606e6e6506aa"


@pytest.mark.parametrize("schemes, frames_per_cell, frame_len, sps",
                         [(["BPSK", "WBFM"], 2, 32, 4), (ALL_SCHEMES, 2, 30, 4),
                          (ALL_SCHEMES, 2, 32, 0), (ALL_SCHEMES, -1, 32, 4)])
def test_generate_pool_rejects_bad_input_before_drawing(schemes, frames_per_cell, frame_len, sps):
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with pytest.raises(ModulationError):
        generate_pool(schemes, [0.0], frames_per_cell, frame_len, sps, rng)
    assert rng.bit_generator.state == before


def test_non_finite_frames_are_rejected(rng):
    with pytest.raises(NonFiniteError, match="QPSK"):
        generate_pool(["QPSK"], [float("nan")], 2, 32, 4, rng)
    with pytest.raises(NonFiniteError):
        add_awgn(modulate(None, "QPSK", 4, 32, rng), float("nan"), rng)


# ---------------------------------------------------------------------------
# episodes
# ---------------------------------------------------------------------------

def _pool(rng, frames_per_cell=10, snrs=(0.0, 10.0)):
    return generate_pool(ALL_SCHEMES, snrs, frames_per_cell, 32, 4, rng)


def test_sample_episode_counts_and_disjointness(rng):
    pool = _pool(rng)
    ep = sample_episode(pool, n_way=5, k_shot=2, q_size=3, rng=rng)
    assert len(ep.support) == 10 and len(ep.query) == 15
    sup_ids = {id(f.numpy()) for f, _ in ep.support}
    qry_ids = {id(f.numpy()) for f, _ in ep.query}
    assert not sup_ids & qry_ids
    labels = {y for _, y in ep.support}
    assert labels == set(range(5))


def test_sample_episode_seed_determinism(rng):
    pool = _pool(rng)
    e1 = sample_episode(pool, 5, 1, 2, np.random.default_rng(7))
    e2 = sample_episode(pool, 5, 1, 2, np.random.default_rng(7))
    for (f1, y1), (f2, y2) in zip(e1.support + e1.query, e2.support + e2.query):
        assert y1 == y2
        assert np.array_equal(f1.numpy(), f2.numpy())


def test_episode_stream_draws_what_sample_episode_draws(rng):
    pool = _pool(rng)
    stream = episode_stream(pool, 5, 1, 2, np.random.default_rng(7))
    calls_rng = np.random.default_rng(7)
    for _ in range(20):
        e1, e2 = next(stream), sample_episode(pool, 5, 1, 2, calls_rng)
        assert len(e1.support + e1.query) == len(e2.support + e2.query)
        for (f1, y1), (f2, y2) in zip(e1.support + e1.query, e2.support + e2.query):
            assert y1 == y2
            assert f1.numpy().tobytes() == f2.numpy().tobytes()


def test_sample_episode_insufficient_pool(rng):
    pool = _pool(rng, frames_per_cell=1, snrs=(0.0,))
    with pytest.raises(ValueError, match="needs"):
        sample_episode(pool, 5, 1, 2, rng)


def test_scheme_selection_near_uniform(rng):
    # frames tag their original scheme in the first sample
    n_schemes = 7
    pool = FramePool(schemes=[f"S{k}" for k in range(n_schemes)])
    for lab in range(n_schemes):
        for _ in range(4):
            pool.frames.append(SignalFrame(CTensor(np.full(4, lab + 1, dtype=complex)), lab, 0.0))
    draws = 10000
    counts = np.zeros(n_schemes)
    for _ in range(draws):
        ep = sample_episode(pool, 1, 1, 1, rng)
        counts[int(ep.support[0][0].numpy()[0].real) - 1] += 1
    p = 1.0 / n_schemes
    sigma = math.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(counts - draws * p) <= 3.5 * sigma)


# ---------------------------------------------------------------------------
# scenario splits
# ---------------------------------------------------------------------------

def test_snr_ge0_split_ratio(rng):
    pool = generate_pool(ALL_SCHEMES, [-10.0, 0.0, 10.0], 8, 32, 4, rng)
    train, test = scenario_split(pool, "snr_ge0", rng)
    eligible = [f for f in pool.frames if f.snr_db >= 0]
    assert len(train.frames) + len(test.frames) == len(eligible)
    assert abs(len(train.frames) - 3 * len(test.frames)) <= 3
    assert all(f.snr_db >= 0 for f in train.frames + test.frames)


def test_snr_eq0_split(rng):
    pool = generate_pool(ALL_SCHEMES, [-10.0, 0.0, 10.0], 8, 32, 4, rng)
    train, test = scenario_split(pool, "snr_eq0", rng)
    assert all(f.snr_db == 0 for f in train.frames + test.frames)


def test_p_o_split_test_contains_only_p_classes(rng):
    pool = generate_pool(ALL_SCHEMES, [0.0, 10.0], 20, 32, 4, rng)
    train, test = scenario_split(pool, "p_o", rng)
    test_labels = {f.label for f in test.frames}
    assert len(test_labels) == 5
    train_ids = {id(f) for f in train.frames}
    assert not train_ids & {id(f) for f in test.frames}
    p_total = sum(1 for f in pool.frames if f.label in test_labels and f.snr_db >= 0)
    assert abs(len(test.frames) - round(0.95 * p_total)) <= 1


def test_scenario_unknown_kind(rng):
    with pytest.raises(ValueError, match="unknown scenario"):
        scenario_split(_pool(rng), "holdout", rng)


# ---------------------------------------------------------------------------
# frame file format
# ---------------------------------------------------------------------------

def test_roundtrip_byte_identical(rng, tmp_path):
    pool = _pool(rng, frames_per_cell=3)
    samples = pool.frames[0].samples.numpy().copy()
    samples[:4] = [complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -0.0), 0.0]
    pool.frames.append(SignalFrame(CTensor(samples), 0, 0.0))  # loading keeps the sign of a zero
    p1, p2 = tmp_path / "a.csig", tmp_path / "b.csig"
    save_frames(str(p1), pool)
    save_frames(str(p2), load_frames(str(p1)))
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_file_bad_magic(tmp_path):
    p = tmp_path / "empty.csig"
    p.write_bytes(b"")
    with pytest.raises(BadMagicError):
        load_frames(str(p))


def test_corrupt_magic(tmp_path, rng):
    p = tmp_path / "bad.csig"
    save_frames(str(p), _pool(rng, frames_per_cell=1, snrs=(0.0,)))
    raw = bytearray(p.read_bytes())
    raw[:4] = b"SGIC"
    p.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        load_frames(str(p))


def test_truncated_file(tmp_path, rng):
    p = tmp_path / "trunc.csig"
    save_frames(str(p), _pool(rng, frames_per_cell=1, snrs=(0.0,)))
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) - 5])
    with pytest.raises(TruncatedFileError):
        load_frames(str(p))


def test_frame_file_with_bad_bytes_raises_a_frame_format_error(tmp_path):
    blob = b"CSIG" + struct.pack("<II", 1, 1) + struct.pack("<H", 4) + b"BPSK"
    blob += struct.pack("<Q", 1) + struct.pack("<IfI", 0, 5.0, 2) + struct.pack("<4f", 1.0, 0.0, np.nan, 1.0)
    p = tmp_path / "nan.csig"
    p.write_bytes(blob)
    with pytest.raises(FrameFormatError, match="frame 0 holds non-finite samples"):
        load_frames(str(p))
    p.write_bytes(blob.replace(b"BPSK", b"BP\xffK"))
    with pytest.raises(UnknownSchemeError):
        load_frames(str(p))


def test_unknown_scheme_name(tmp_path):
    p = tmp_path / "unk.csig"
    name = b"AM-DSB"
    blob = b"CSIG" + struct.pack("<II", 1, 1) + struct.pack("<H", len(name)) + name
    blob += struct.pack("<Q", 0)
    p.write_bytes(blob)
    with pytest.raises(UnknownSchemeError):
        load_frames(str(p))


def test_hand_built_two_frame_fixture(tmp_path):
    # two one-sample frames: (1+2j) at 5 dB for scheme 0 and (-3+4j) at -1 dB for scheme 1
    blob = b"CSIG" + struct.pack("<II", 1, 2)
    for name in (b"BPSK", b"QPSK"):
        blob += struct.pack("<H", len(name)) + name
    blob += struct.pack("<Q", 2)
    blob += struct.pack("<IfI", 0, 5.0, 1) + struct.pack("<ff", 1.0, 2.0)
    blob += struct.pack("<IfI", 1, -1.0, 1) + struct.pack("<ff", -3.0, 4.0)
    p = tmp_path / "fixture.csig"
    p.write_bytes(blob)
    pool = load_frames(str(p))
    assert pool.schemes == ["BPSK", "QPSK"]
    assert pool.frames[0].samples.numpy()[0] == 1 + 2j
    assert pool.frames[0].snr_db == 5.0 and pool.frames[0].label == 0
    assert pool.frames[1].samples.numpy()[0] == -3 + 4j
    assert pool.frames[1].label == 1 and pool.frames[1].snr_db == -1.0


def test_zero_frame_file_roundtrip(tmp_path):
    pool = FramePool(schemes=["BPSK"])
    p = tmp_path / "zero.csig"
    save_frames(str(p), pool)
    loaded = load_frames(str(p))
    assert loaded.schemes == ["BPSK"] and loaded.frames == []


class _ReadRecorder:
    """A binary file whose reads refuse to ask for more bytes than it holds."""

    def __init__(self, path, mode):
        self._fh = open(path, mode)
        self._size = os.path.getsize(path)

    def read(self, n=-1):
        assert n <= self._size, f"read of {n} bytes from a {self._size}-byte file"
        return self._fh.read(n)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def test_frame_length_beyond_the_file_is_a_truncation(tmp_path, monkeypatch):
    # frame_len 2^32-1 asks for 32 GiB of samples from a 38-byte file
    blob = b"CSIG" + struct.pack("<II", 1, 1) + struct.pack("<H", 4) + b"BPSK"
    blob += struct.pack("<Q", 1) + struct.pack("<IfI", 0, 5.0, 2**32 - 1)
    p = tmp_path / "huge.csig"
    p.write_bytes(blob)
    monkeypatch.setattr(signals, "open", _ReadRecorder, raising=False)
    with pytest.raises(TruncatedFileError, match="frame 0 samples"):
        load_frames(str(p))
