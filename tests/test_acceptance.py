"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.  The training-based criteria build everything from fixed seeds
and finish well inside their budgets on a desktop CPU.
"""

import math
import time

import numpy as np
import pytest

from camel.cli import load_checkpoint, main, toychain_run
from camel.ctensor import CTensor
from camel.gradcheck import default_cases, run_suite
from camel.layers import ArchConfig, c_act, cconv1d, cfc, init_params, param_count
from camel.meta import (
    Episode,
    EpisodeTask,
    MetaConfig,
    ParamSet,
    QuadraticTask,
    evaluate,
    meta_gradient,
    meta_objective,
    train_camel,
)
from camel.signals import (
    BadMagicError,
    generate_pool,
    load_frames,
    sample_episode,
    save_frames,
    episode_stream,
)
from camel.gradcheck import cr_check, make_analytic_chain, opcount_compare

from conftest import rand_complex, rand_off_zero

SCHEMES = ["BPSK", "QPSK", "8PSK", "PAM4", "QAM16", "CPFSK", "GFSK"]
SNR_GRID = [10.0, 12.0, 14.0, 16.0, 18.0]


def _desk_arch(**kw) -> ArchConfig:
    base = dict(n_classes=5, frame_len=64, conv_channels=8, conv_stride=4,
                attn_dim=8, n_heads=2, fc_hidden=32)
    base.update(kw)
    return ArchConfig(**base)


def _desk_meta(seed: int, iterations: int) -> MetaConfig:
    return MetaConfig(inner_lr=0.1, outer_lr=0.002, meta_batch=2, inner_steps=1,
                      finetune_steps=10, n_way=5, k_shot=1, q_size=5,
                      iterations=iterations, outer_optimizer="adam",
                      early_stop=False, seed=seed)


def _desk_run(seed: int, iterations: int, eval_episodes: int, arch_kw: dict,
              shared_eval: list | None = None):
    """Train one variant and evaluate it (and nothing else) deterministically;
    returns its report, its initial parameters and the evaluation episodes."""
    streams = np.random.SeedSequence(seed).spawn(4)
    rng_train = np.random.default_rng(streams[0])
    rng_eval = np.random.default_rng(streams[1])
    rng_init = np.random.default_rng(streams[2])
    arch = _desk_arch(**arch_kw)
    cfg = _desk_meta(seed, iterations)
    train_pool = generate_pool(SCHEMES, SNR_GRID, 40, arch.frame_len, 4, rng_train)
    theta0 = ParamSet(init_params(arch, rng_init))
    state = train_camel(cfg, arch, episode_stream(train_pool, 5, 1, 5, rng_train),
                        theta0=theta0)
    if shared_eval is None:
        eval_pool = generate_pool(SCHEMES, SNR_GRID, 40, arch.frame_len, 4, rng_eval)
        shared_eval = [sample_episode(eval_pool, 5, 1, 5, rng_eval)
                       for _ in range(eval_episodes)]
    return evaluate(state.theta, shared_eval, cfg, arch), theta0, shared_eval


# ---------------------------------------------------------------------------

def test_criterion_1_gradient_oracle_suite():
    t0 = time.perf_counter()
    results = run_suite(default_cases(), instances=20, seed=0)
    elapsed = time.perf_counter() - t0
    bad = [(r.name, r.max_err) for r in results if not r.ok]
    assert not bad, f"gradient oracle failures: {bad}"
    assert elapsed <= 120.0, f"suite took {elapsed:.1f}s, budget is 120s"
    worst = max(r.max_err for r in results)
    print(f"\n[criterion 1] PASS: {len(results)} ops x 20 instances vs central "
          f"finite differences, worst scaled error {worst:.2e} <= 1e-5, {elapsed:.1f}s")


def test_criterion_2_chain_rule_necessity():
    rows = toychain_run(steps=200, lr=0.05)
    naive_grads = [r[3] for r in rows]
    assert max(naive_grads) == 0.0, "single-term rule must yield exactly zero gradients"
    naive_losses = [r[2] for r in rows]
    assert max(abs(v - naive_losses[0]) for v in naive_losses) == 0.0
    j0, j_final = rows[0][1], rows[-1][1]
    assert j_final <= 0.5 * j0, f"two-term rule only reached {j_final / j0:.2%} of start"
    print(f"\n[criterion 2] PASS: single-term gradients identically zero; two-term "
          f"rule cut the toy objective to {j_final / j0:.1%} of its start in 200 steps")


def test_criterion_3_analyticity_checks(rng):
    a = CTensor(rand_complex(rng, 2, 2, 3))
    bias_c = CTensor(rand_complex(rng, 2))
    w = CTensor(rand_complex(rng, 4, 4))
    bias_f = CTensor(rand_complex(rng, 4))
    for _ in range(20):
        assert cr_check(lambda t: cconv1d(t, a, bias_c), CTensor(rand_complex(rng, 2, 6)), tol=1e-4)
        assert cr_check(lambda t: cfc(t, w, bias_f), CTensor(rand_complex(rng, 4)), tol=1e-4)
    assert not cr_check(lambda t: CTensor(np.conj(t.numpy())), CTensor(rand_complex(rng, 3)), tol=1e-4)
    assert not cr_check(lambda t: c_act(t, "crelu"), CTensor(np.array([0.6 - 0.7j, -0.4 + 0.8j])), tol=1e-4)
    assert not cr_check(lambda t: CTensor(np.abs(t.numpy()).astype(complex)),
                        CTensor(rand_off_zero(rng, 3)), tol=1e-4)
    print("\n[criterion 3] PASS: linear layers satisfy the Cauchy-Riemann equations at "
          "20 random points; conjugation, activation, and the modulus lift do not")


def test_criterion_4_derivative_cost_ratio(rng):
    checked = 0
    for m in (1, 8, 64):
        for depth in (1, 2, 3, 4):
            chain = make_analytic_chain(m, depth, rng)
            count_cd, count_iq, d_cd, d_iq = opcount_compare(chain, m)
            assert count_iq / count_cd == 2.0
            assert count_cd == 4 * m * depth and count_iq == 8 * m * depth
            assert np.max(np.abs(d_cd - d_iq)) <= 1e-12
            checked += 1
    print(f"\n[criterion 4] PASS: stacked-real/complex cost ratio exactly 2.0 on "
          f"{checked} (m, depth) pairs, derivative routes agree <= 1e-12")


def test_criterion_5_meta_gradient_exactness():
    arch = ArchConfig(n_classes=2, frame_len=16, conv_channels=2, conv_stride=2,
                      attn_dim=2, n_heads=1, fc_hidden=4)
    rng = np.random.default_rng(202)
    theta = ParamSet(init_params(arch, rng))
    n_params = param_count(theta)
    assert n_params <= 500

    def episode():
        sup = tuple((CTensor(rand_complex(rng, 16)), c) for c in range(2))
        qry = tuple((CTensor(rand_complex(rng, 16)), c) for c in range(2) for _ in range(2))
        return Episode(sup, qry, n_way=2, k_shot=1)

    tasks = [EpisodeTask(episode(), arch) for _ in range(2)]
    alpha = 0.1
    grad = meta_gradient(theta, tasks, alpha, 1)
    h = 1e-6
    worst = 0.0
    for _ in range(10):
        d = {k: CTensor(rand_complex(rng, *v.shape)) for k, v in theta.items()}
        tp = ParamSet({k: CTensor._wrap(theta[k].numpy() + h * d[k].numpy()) for k in theta})
        tm = ParamSet({k: CTensor._wrap(theta[k].numpy() - h * d[k].numpy()) for k in theta})
        fd = (meta_objective(tp, tasks, alpha, 1) - meta_objective(tm, tasks, alpha, 1)) / (2 * h)
        want = sum(float(np.sum(grad[k].numpy() * np.conj(d[k].numpy())).real) for k in theta)
        worst = max(worst, abs(fd - want) / max(abs(fd), 1e-8))
    assert worst <= 1e-4, f"worst directional error {worst:.2e}"

    theta0 = 1.0 - 0.4j
    centers = [0.3 + 0.7j, -0.5 + 0.2j]
    toy_tasks = [QuadraticTask({"t": CTensor.scalar(c)}) for c in centers]
    got = meta_gradient(ParamSet({"t": CTensor.scalar(theta0)}), toy_tasks, alpha, 1)["t"].item()
    want = np.mean([(1 - 2 * alpha) * 2 * ((theta0 - 2 * alpha * (theta0 - c)) - c)
                    for c in centers])
    assert abs(got - want) <= 1e-10
    print(f"\n[criterion 5] PASS: exact meta-gradient on a {n_params}-parameter network "
          f"matches finite differences (worst {worst:.2e} <= 1e-4) and the quadratic "
          f"family's closed form (<= 1e-10)")


@pytest.mark.slow
def test_criterion_6_desk_scale_few_shot():
    t0 = time.perf_counter()
    report, theta0, episodes = _desk_run(seed=1, iterations=1000, eval_episodes=200,
                                         arch_kw={})
    baseline = evaluate(theta0, episodes, _desk_meta(1, 1000), _desk_arch())
    elapsed = time.perf_counter() - t0
    margin = report.accuracy - baseline.accuracy
    assert elapsed <= 1800.0, f"run took {elapsed:.0f}s, budget is 30 min"
    assert len(episodes) >= 200
    assert report.accuracy >= 0.70, f"meta-trained accuracy {report.accuracy:.3f} < 0.70"
    assert margin >= 0.20, (f"margin over frozen init {margin:.3f} < 0.20 "
                            f"(baseline {baseline.accuracy:.3f})")
    print(f"\n[criterion 6] PASS: 5-way 1-shot at SNR >= 10 dB: meta-trained "
          f"{report.accuracy:.3f} ± {report.ci95:.3f} vs frozen-init "
          f"{baseline.accuracy:.3f} ± {baseline.ci95:.3f} over {len(episodes)} episodes "
          f"(margin {margin:.3f}, {elapsed:.0f}s)")


VARIANTS = {
    "camel": dict(use_attention=True, real_input=False),
    "complex_only": dict(use_attention=False, real_input=False),
    "attention_only": dict(use_attention=True, real_input=True),
    "plain_maml": dict(use_attention=False, real_input=True),
}


@pytest.mark.slow
def test_criterion_7_ablation_ordering():
    seeds = [1, 2, 3, 4, 5]
    accs = {name: [] for name in VARIANTS}
    for seed in seeds:
        shared = None
        for name, kw in VARIANTS.items():
            report, _, shared = _desk_run(seed, iterations=400, eval_episodes=60,
                                          arch_kw=kw, shared_eval=shared)
            accs[name].append(report.accuracy)

    def ordered(hi: str, lo: str) -> bool:
        d = np.array(accs[hi]) - np.array(accs[lo])
        ci = 1.96 * np.std(d, ddof=1) / math.sqrt(len(d))
        return bool(np.mean(d) >= -ci)

    pairs = [("camel", "complex_only"), ("camel", "attention_only"),
             ("complex_only", "plain_maml"), ("attention_only", "plain_maml")]
    failures = [(hi, lo) for hi, lo in pairs if not ordered(hi, lo)]
    means = {k: float(np.mean(v)) for k, v in accs.items()}
    assert not failures, f"ordering violated for {failures}; means {means}"
    print(f"\n[criterion 7] PASS: ablation ordering over {len(seeds)} seeds holds "
          f"(ties within CI allowed); mean accuracies {means}")


TINY_TRAIN_CFG = """
n_classes = 4
frame_len = 32
conv_channels = 4
conv_stride = 4
attn_dim = 4
n_heads = 2
fc_hidden = 8
n_way = 4
k_shot = 1
q_size = 2
inner_steps = 1
iterations = 6
outer_lr = 0.002
outer_optimizer = adam
early_stop = false
checkpoint_every = 3
frames_per_cell = 8
snr_lo = 10
snr_hi = 14
snr_step = 2
seed = 11
"""


def test_criterion_8_reproducibility(tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text(TINY_TRAIN_CFG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out2)]) == 0
    m1 = (out1 / "metrics.csv").read_bytes()
    m2 = (out2 / "metrics.csv").read_bytes()
    c1 = (out1 / "checkpoint.caml").read_bytes()
    c2 = (out2 / "checkpoint.caml").read_bytes()
    assert m1 == m2, "metrics differ between identically seeded runs"
    assert c1 == c2, "checkpoints differ between identically seeded runs"
    print(f"\n[criterion 8] PASS: identically seeded runs produced byte-identical "
          f"metrics ({len(m1)} bytes) and checkpoints ({len(c1)} bytes)")


def test_criterion_9_format_roundtrips(tmp_path, rng):
    pool = generate_pool(SCHEMES[:3], [0.0, 10.0], 4, 32, 4, rng)
    f1, f2 = tmp_path / "a.csig", tmp_path / "b.csig"
    save_frames(str(f1), pool)
    save_frames(str(f2), load_frames(str(f1)))
    assert f1.read_bytes() == f2.read_bytes()

    cfg = tmp_path / "t.cfg"
    cfg.write_text(TINY_TRAIN_CFG)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--iterations", "2", "--out", str(out)]) == 0
    ck1 = out / "checkpoint.caml"
    ck2 = tmp_path / "copy.caml"
    from camel.cli import save_checkpoint
    save_checkpoint(str(ck2), load_checkpoint(str(ck1)))
    assert ck1.read_bytes() == ck2.read_bytes()

    bad_sig = tmp_path / "bad.csig"
    bad_sig.write_bytes(b"XXXX" + f1.read_bytes()[4:])
    with pytest.raises(BadMagicError):
        load_frames(str(bad_sig))
    code = main(["train", "--config", str(cfg), "--set", f"frames={bad_sig}",
                 "--out", str(tmp_path / "x")])
    assert code == 3

    bad_ck = tmp_path / "bad.caml"
    bad_ck.write_bytes(b"XXXX" + ck1.read_bytes()[4:])
    code = main(["eval", "--config", str(cfg), "--checkpoint", str(bad_ck), "--episodes", "1"])
    assert code == 3
    print("\n[criterion 9] PASS: frame files and checkpoints round-trip byte-identically; "
          "corrupted magic raises typed errors and exits 3")
