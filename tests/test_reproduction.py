"""Trimmed qualitative reproductions of the ensemble findings.

These run smaller grids than the shipped presets (n=12, 12 trials) but pin
the qualitative physics: bounded nonlinearities entangle in the real
ensemble while unbounded ones localize; pure phases entangle for every
activation; complex modes boost the bounded ones; half-cut entropy grows
sublinearly with n for the pure-phase single-nonlinearity family.
"""

from nqsent.experiments import ExperimentConfig, run_sweep

SEED = 3


def _half_cut_mean(activation: str, n: int = 12, trials: int = 12, seed: int = SEED) -> float:
    cfg = ExperimentConfig(
        name="repro",
        ansatz={"family": "snnqs", "activation": activation, "parameterization": "wrap_exp", "bias_std": 1.0},
        n_grid=[n],
        region_mode="random-subset",
        sizes=[n // 2],
        trials=trials,
        regions_per_trial=5,
        seed=seed,
    )
    res = run_sweep(cfg, threads=2)
    return res.aggregates()[0]["mean"]


def test_real_ensemble_bounded_vs_unbounded():
    bounded = {act: _half_cut_mean(act) for act in ("tanh", "sin")}
    unbounded = {act: _half_cut_mean(act) for act in ("relu", "gelu")}
    for act, val in bounded.items():
        assert val > 0.15, f"{act}: expected clear entanglement, got {val:.3f}"
    for act, val in unbounded.items():
        assert val < 0.15, f"{act}: expected near-vanishing entanglement, got {val:.3f}"
    assert min(bounded.values()) > 3 * max(unbounded.values())


def test_pure_phase_ensemble_all_entangle():
    for act in ("tanh", "sin", "relu", "gelu"):
        val = _half_cut_mean(f"i*{act}")
        assert val > 0.15, f"i*{act}: expected nonzero entanglement, got {val:.3f}"


def test_general_ensemble_boosts_bounded_activations():
    # complex phases on top of real magnitudes raise the sine ensemble's
    # entropy relative to the purely real one
    real = _half_cut_mean("sin")
    general = _half_cut_mean("(1+i)*sin")
    assert general > real


def test_phase_model_half_cut_growth_is_sublinear():
    means = {n: _half_cut_mean("i*tanh", n=n) for n in (8, 12, 16)}
    assert means[12] > means[8]
    assert means[16] > means[12]
    # far below the maximal-entanglement slope ln2 * dn/2 = 2.77 nats; the
    # measured growth over n=8..16 is a fraction of a nat
    assert means[16] - means[8] < 0.5
