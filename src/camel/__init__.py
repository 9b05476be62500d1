"""Complex-valued meta-learning toolkit.

Reverse-mode differentiation over complex tensors with one adjoint
channel (dL/dz*), complex-valued layers (convolution, fully connected,
softmax, attention, normalization), an exact second-order episodic
meta-learner, and synthetic modulated-signal data for desk-scale
experiments.
"""

from .ctensor import CTensor
from .layers import (
    ArchConfig,
    MhaParams,
    c_act,
    c_attention,
    c_mha,
    c_norm,
    c_softmax,
    cconv1d,
    cfc,
    init_params,
)
from .meta import (
    Episode,
    EpisodeTask,
    MetaConfig,
    ParamSet,
    QuadraticTask,
    evaluate,
    first_order_meta_gradient,
    inner_update,
    meta_gradient,
    meta_objective,
    outer_update,
    train_camel,
    train_meta,
)
from .signals import (
    FramePool,
    SignalFrame,
    add_awgn,
    generate_pool,
    load_frames,
    modulate,
    sample_episode,
    save_frames,
    scenario_split,
)
from .wirtinger import Tape, backward, complex_gradient, hvp

__version__ = "0.1.0"


def __getattr__(name: str):
    # the oracles load on first use: training and evaluation never need them
    if name in ("cr_check", "opcount_compare"):
        from . import gradcheck

        return getattr(gradcheck, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
