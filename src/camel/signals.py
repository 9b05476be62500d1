"""Synthetic modulated-signal generation, AWGN channel, episodic sampling,
and a binary frame-file format (with a loader for converted external data).

All stochastic operations take an explicit numpy Generator so every pool,
episode, and file is bit-reproducible from a seed.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ctensor import CTensor, NonFiniteError
from .meta import Episode

_C = np.complex128

CSIG_MAGIC = b"CSIG"
CSIG_VERSION = 1


class FrameFormatError(ValueError):
    """Base class for frame-file format problems."""


class BadMagicError(FrameFormatError):
    pass


class TruncatedFileError(FrameFormatError):
    pass


class UnknownSchemeError(FrameFormatError):
    pass


class ModulationError(ValueError):
    """Raised for unsupported schemes or insufficient bits."""


@dataclass(frozen=True)
class SchemeSpec:
    """One digital modulation scheme."""

    id: int
    name: str
    bits_per_symbol: int
    kind: str  # "constellation" or "cpm"


def _psk_points(order: int, offset: float = 0.0) -> np.ndarray:
    k = np.arange(order)
    return np.exp(1j * (2 * np.pi * k / order + offset))


def _normalize(points: np.ndarray) -> np.ndarray:
    return points / np.sqrt(np.mean(np.abs(points) ** 2))


# Constellations are unit average power by construction.
_CONSTELLATIONS: dict[str, np.ndarray] = {
    "BPSK": np.array([1.0 + 0.0j, -1.0 + 0.0j]),
    "QPSK": _normalize(np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])),
    "8PSK": _psk_points(8),
    "PAM4": _normalize(np.array([-3.0, -1.0, 1.0, 3.0], dtype=_C)),
    "QAM16": _normalize(np.array([(re + 1j * im) for re in (-3, -1, 1, 3) for im in (-3, -1, 1, 3)])),
}

_CPM_SCHEMES = ("CPFSK", "GFSK")

CPFSK_MOD_INDEX = 0.5
GFSK_BT = 0.35
GFSK_SPAN = 2  # Gaussian pulse support in symbols on each side

SCHEME_NAMES: tuple[str, ...] = tuple(sorted(_CONSTELLATIONS)) + _CPM_SCHEMES

SCHEMES: dict[str, SchemeSpec] = {}
for _i, _name in enumerate(SCHEME_NAMES):
    if _name in _CONSTELLATIONS:
        _bps = int(round(math.log2(len(_CONSTELLATIONS[_name]))))
        SCHEMES[_name] = SchemeSpec(_i, _name, _bps, "constellation")
    else:
        SCHEMES[_name] = SchemeSpec(_i, _name, 1, "cpm")


@dataclass(frozen=True)
class SignalFrame:
    """One frame of complex samples with its modulation label and SNR tag."""

    samples: CTensor
    label: int
    snr_db: float

    def __post_init__(self):
        if self.samples.rank != 1:
            raise ModulationError(f"frame samples must be rank-1, got rank {self.samples.rank}")


@dataclass
class FramePool:
    """Frames plus the scheme-name table their labels index into."""

    schemes: list[str]
    frames: list[SignalFrame] = field(default_factory=list)


# ---------------------------------------------------------------------------
# modulation
# ---------------------------------------------------------------------------

def _gfsk_pulse(sps: int) -> np.ndarray:
    """Gaussian-filtered rectangular frequency pulse, unit area."""
    sigma = math.sqrt(math.log(2.0)) / (2.0 * math.pi * GFSK_BT)  # in symbols
    t = (np.arange(2 * GFSK_SPAN * sps + 1) - GFSK_SPAN * sps) / sps
    gauss = np.exp(-0.5 * (t / sigma) ** 2)
    rect = np.ones(sps)
    pulse = np.convolve(gauss, rect)
    return pulse / pulse.sum()


def _scheme_spec(scheme: str, sps: int, frame_len: int) -> SchemeSpec:
    spec = SCHEMES.get(scheme)
    if spec is None:
        raise ModulationError(f"unsupported scheme {scheme!r}; known: {', '.join(SCHEME_NAMES)}")
    if sps < 1:
        raise ModulationError(f"sps must be positive, got {sps}")
    if frame_len % sps != 0:
        raise ModulationError(f"frame_len {frame_len} must be a multiple of sps {sps}")
    return spec


def _modulate_rows(bits: np.ndarray, spec: SchemeSpec, sps: int, frame_len: int) -> np.ndarray:
    """One frame of complex128 samples per row of ``bits`` (rows of
    exactly the bits a frame needs).

    Each row gets the arithmetic of a one-row call, so a frame does not
    depend on the rows modulated beside it."""
    rows, n_sym = bits.shape[0], frame_len // sps
    if spec.kind == "constellation":
        weights = 1 << np.arange(spec.bits_per_symbol)[::-1]
        symbols = _CONSTELLATIONS[spec.name][bits.reshape(rows, n_sym, spec.bits_per_symbol) @ weights]
        return np.repeat(symbols, sps, axis=1)
    nrz = 1.0 - 2.0 * bits.astype(np.float64)  # bit 0 -> +1, bit 1 -> -1
    if spec.name == "CPFSK":
        freq = np.repeat(nrz / sps, sps, axis=1)
    else:
        # row by row: np.convolve sums through a BLAS dot, whose rounding a
        # batched form need not reproduce
        pulse = _gfsk_pulse(sps)
        impulses = np.zeros((rows, frame_len))
        impulses[:, ::sps] = nrz
        freq = np.empty((rows, frame_len))
        for r in range(rows):
            freq[r] = np.convolve(impulses[r], pulse)[:frame_len]
    phase = np.pi * CPFSK_MOD_INDEX * np.cumsum(freq, axis=1)
    return np.exp(1j * phase)


def modulate(bits: Sequence[int] | None, scheme: str, sps: int = 8,
             frame_len: int = 128, rng: np.random.Generator | None = None) -> SignalFrame:
    """Map bits onto one frame of complex samples at unit average power.

    Constellation schemes repeat each symbol ``sps`` times (rectangular
    pulse); continuous-phase schemes integrate a frequency pulse so the
    envelope stays on the unit circle.  When ``bits`` is None they are
    drawn from ``rng``.
    """
    spec = _scheme_spec(scheme, sps, frame_len)
    need = frame_len // sps * spec.bits_per_symbol
    if bits is None:
        if rng is None:
            raise ModulationError("modulate needs bits or an rng to draw them")
        bits = rng.integers(0, 2, size=need)
    bits = np.asarray(bits, dtype=np.int64)
    if bits.size < need:
        raise ModulationError(f"{scheme} frame needs {need} bits, got {bits.size}")
    samples = _modulate_rows(bits[None, :need], spec, sps, frame_len)[0]
    return SignalFrame(CTensor(samples), spec.id, math.inf)


def _noise_scale(snr_db: float) -> float:
    """Standard deviation of each of I and Q for a unit-power frame."""
    return math.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)


def add_awgn(frame: SignalFrame, snr_db: float, rng: np.random.Generator) -> SignalFrame:
    """Add circular complex Gaussian noise with per-sample variance
    10^(-snr_db/10) (the frame is unit power) and record the SNR tag."""
    n = frame.samples.size
    noise = _noise_scale(snr_db) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return SignalFrame(CTensor(frame.samples.numpy() + noise), frame.label, float(snr_db))


def generate_pool(schemes: Sequence[str], snr_grid: Sequence[float], frames_per_cell: int,
                  frame_len: int, sps: int, rng: np.random.Generator) -> FramePool:
    """Pool with ``frames_per_cell`` noisy frames per (scheme, SNR) cell.

    Built one cell at a time from the draws of a per-frame
    :func:`modulate` then :func:`add_awgn` loop, in the same order, so a
    seed gives the same pool bytes as that loop.  Each cell's frames are
    read-only rows of one checked block."""
    specs = [_scheme_spec(s, sps, frame_len) for s in schemes]
    if frames_per_cell < 0:
        raise ModulationError(f"frames_per_cell must be >= 0, got {frames_per_cell}")
    pool = FramePool(schemes=list(schemes))
    for name, spec in zip(schemes, specs):
        label = pool.schemes.index(name)
        need = frame_len // sps * spec.bits_per_symbol
        for snr in snr_grid:
            bits = np.empty((frames_per_cell, need), dtype=np.int64)
            noise = np.empty((frames_per_cell, 2, frame_len))
            for i in range(frames_per_cell):
                bits[i] = rng.integers(0, 2, size=need)
                rng.standard_normal(out=noise[i])  # the real parts, then the imaginary parts
            block = (_modulate_rows(bits, spec, sps, frame_len)
                     + _noise_scale(snr) * (noise[:, 0] + 1j * noise[:, 1]))
            if not np.isfinite(block).all():
                raise NonFiniteError(f"{name} frames at {snr} dB SNR are not finite")
            block.flags.writeable = False
            pool.frames.extend(SignalFrame(CTensor._wrap(row), label, float(snr)) for row in block)
    return pool


# ---------------------------------------------------------------------------
# episodic sampling
# ---------------------------------------------------------------------------

def sample_episode(pool: FramePool, n_way: int, k_shot: int, q_size: int,
                   rng: np.random.Generator) -> Episode:
    """One episode: the first of :func:`episode_stream`, by the same draws."""
    return next(episode_stream(pool, n_way, k_shot, q_size, rng))


def episode_stream(pool: FramePool, n_way: int, k_shot: int, q_size: int,
                   rng: np.random.Generator):
    """Infinite iterator of episodes from a pool, grouped by label once.
    Each draws n_way distinct schemes and disjoint support/query frames;
    labels are remapped to 0..n_way-1 in drawn order."""
    per_label: dict[int, list[SignalFrame]] = {}
    for f in pool.frames:
        per_label.setdefault(f.label, []).append(f)
    eligible = [lab for lab, fs in per_label.items() if len(fs) >= k_shot + q_size]
    if len(eligible) < n_way:
        raise ValueError(f"pool has {len(eligible)} schemes with >= {k_shot + q_size} frames, "
                         f"needs {n_way}")
    labels = np.array(sorted(eligible))
    while True:
        support, query = [], []
        for new_label, lab in enumerate(rng.choice(labels, size=n_way, replace=False)):
            fs = per_label[int(lab)]
            idx = rng.choice(len(fs), size=k_shot + q_size, replace=False)
            for i in idx[:k_shot]:
                support.append((fs[int(i)].samples, new_label))
            for i in idx[k_shot:]:
                query.append((fs[int(i)].samples, new_label))
        yield Episode(tuple(support), tuple(query), n_way=n_way, k_shot=k_shot)


def scenario_split(pool: FramePool, kind: str, rng: np.random.Generator,
                   p_count: int = 5) -> tuple[FramePool, FramePool]:
    """The three ablation splits.

    snr_ge0: frames with SNR >= 0, 75% train / 25% test.
    snr_eq0: frames with SNR == 0, 75% train / 25% test.
    p_o:     choose ``p_count`` prediction schemes P (SNR >= 0 frames);
             train on all other-scheme frames plus 5% of P, test on the
             remaining 95% of P.
    """
    if kind in ("snr_ge0", "snr_eq0"):
        frames = [f for f in pool.frames
                  if (f.snr_db >= 0 if kind == "snr_ge0" else f.snr_db == 0)]
        if not frames:
            raise ValueError(f"pool has no frames for scenario {kind}")
        order = rng.permutation(len(frames))
        n_train = int(round(0.75 * len(frames)))
        train = [frames[i] for i in order[:n_train]]
        test = [frames[i] for i in order[n_train:]]
        return FramePool(pool.schemes, train), FramePool(pool.schemes, test)
    if kind == "p_o":
        labels = sorted({f.label for f in pool.frames})
        if len(labels) <= p_count:
            raise ValueError(f"p_o split needs more than {p_count} schemes, pool has {len(labels)}")
        p_set = set(int(x) for x in rng.choice(np.array(labels), size=p_count, replace=False))
        keep = [f for f in pool.frames if f.snr_db >= 0]
        p_frames = [f for f in keep if f.label in p_set]
        o_frames = [f for f in keep if f.label not in p_set]
        order = rng.permutation(len(p_frames))
        n_train_p = int(round(0.05 * len(p_frames)))
        train = o_frames + [p_frames[i] for i in order[:n_train_p]]
        test = [p_frames[i] for i in order[n_train_p:]]
        return FramePool(pool.schemes, train), FramePool(pool.schemes, test)
    raise ValueError(f"unknown scenario {kind!r}; choose snr_ge0, snr_eq0, or p_o")


# ---------------------------------------------------------------------------
# frame file format
# ---------------------------------------------------------------------------
#
# Little-endian layout:
#   magic "CSIG", version u32, n_schemes u32,
#   per scheme: name length u16, UTF-8 name,
#   n_frames u64,
#   per frame: scheme_id u32, snr_db f32, frame_len u32,
#              frame_len * (f32 I, f32 Q).

def save_frames(path: str, pool: FramePool) -> None:
    with open(path, "wb") as fh:
        fh.write(CSIG_MAGIC)
        fh.write(struct.pack("<II", CSIG_VERSION, len(pool.schemes)))
        for name in pool.schemes:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
        fh.write(struct.pack("<Q", len(pool.frames)))
        for f in pool.frames:
            s = f.samples.numpy()
            fh.write(struct.pack("<IfI", f.label, np.float32(f.snr_db), s.size))
            iq = np.empty(2 * s.size, dtype="<f4")
            iq[0::2] = s.real.astype(np.float32)
            iq[1::2] = s.imag.astype(np.float32)
            fh.write(iq.tobytes())


def read_exact(fh, n: int, what: str, source: str = "frame file",
               error: type[Exception] = TruncatedFileError) -> bytes:
    """``n`` bytes from ``fh``; raises ``error`` naming ``source`` and
    ``what`` when the file ends first.  A length read from the file is
    checked against the bytes left before anything is allocated for it."""
    if not 0 <= n <= os.fstat(fh.fileno()).st_size - fh.tell():
        raise error(f"{source} ended while reading {what}")
    return fh.read(n)


def load_frames(path: str) -> FramePool:
    """Load a frame file; I/Q float pairs become complex samples.

    Raises :class:`BadMagicError`, :class:`TruncatedFileError`,
    :class:`UnknownSchemeError`, or :class:`FrameFormatError` itself (a bad
    version, scheme id or sample) on malformed input.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CSIG_MAGIC:
            raise BadMagicError(f"bad magic {magic!r}, expected {CSIG_MAGIC!r}")
        version, n_schemes = struct.unpack("<II", read_exact(fh, 8, "header"))
        if version != CSIG_VERSION:
            raise FrameFormatError(f"unsupported frame file version {version}")
        schemes = []
        for _ in range(n_schemes):
            (ln,) = struct.unpack("<H", read_exact(fh, 2, "scheme name length"))
            name = read_exact(fh, ln, "scheme name").decode("utf-8", "replace")
            if name not in SCHEMES:
                raise UnknownSchemeError(f"unknown scheme name {name!r} in frame file")
            schemes.append(name)
        (n_frames,) = struct.unpack("<Q", read_exact(fh, 8, "frame count"))
        pool = FramePool(schemes=schemes)
        for k in range(n_frames):
            label, snr, flen = struct.unpack("<IfI", read_exact(fh, 12, f"frame {k} header"))
            if label >= len(schemes):
                raise FrameFormatError(f"frame {k} references scheme id {label} "
                                       f"outside the {len(schemes)}-entry table")
            iq = np.frombuffer(read_exact(fh, 8 * flen, f"frame {k} samples"), dtype="<f4")
            if not np.all(np.isfinite(iq)):
                raise FrameFormatError(f"frame {k} holds non-finite samples")
            samples = iq[0::2].astype(np.float64) + 1j * iq[1::2].astype(np.float64)
            pool.frames.append(SignalFrame(CTensor(samples), int(label), float(snr)))
        return pool
