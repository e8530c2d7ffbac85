import numpy as np
import pytest

from sramdpe import nn
from sramdpe.crossbar import (
    CONFIG_A_ENCODING,
    DriveMode,
    Excitation,
    InputEncoding,
    WeightMatrix,
    ideal_column_currents,
    pack_weights,
)
from sramdpe.dataset import generate_digits
from sramdpe.device import DeviceParams, stack_current_arrays
from sramdpe.errors import InvalidInputError
from sramdpe.nn import (
    CrossbarContext,
    EvalMode,
    QuantizedLayer,
    QuantizedNetwork,
    evaluate_layer,
    forward,
    infer,
    loss_and_grads,
    quantize_weights,
    train_reference,
)
from sramdpe.variation import (
    StdVsCurrentFit,
    VariationSpec,
    fit_std_vs_current,
    monte_carlo_stats,
)

from oracles import generate_digits_per_image, train_reference_per_batch


class TestQuantization:
    def test_all_zero_matrix(self):
        pos, neg, scale = quantize_weights(np.zeros((3, 3)))
        assert scale == 0.0
        assert not pos.any() and not neg.any()

    def test_max_magnitude_maps_to_15(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.normal(0, 1, (6, 5))
            pos, neg, scale = quantize_weights(w)
            levels = pos - neg
            k = np.unravel_index(np.argmax(np.abs(w)), w.shape)
            assert abs(levels[k]) == 15

    def test_dequantization_error_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            w = rng.normal(0, 2, (4, 4))
            pos, neg, scale = quantize_weights(w)
            err = np.abs(w - (pos - neg) * scale)
            assert np.all(err <= scale / 2 + 1e-15)

    def test_signed_decomposition_exact(self):
        rng = np.random.default_rng(2)
        w = rng.normal(0, 1, (8, 8))
        pos, neg, scale = quantize_weights(w)
        assert np.array_equal(pos - neg, np.round(w / scale).astype(np.int64))
        assert np.all((pos == 0) | (neg == 0))
        assert pos.min() >= 0 and pos.max() <= 15
        assert neg.min() >= 0 and neg.max() <= 15


class TestEncoding:
    def test_endpoints(self):
        enc = InputEncoding()
        assert enc.encode(0.0) == pytest.approx(0.10, abs=1e-15)
        assert enc.encode(1.0) == pytest.approx(0.22, abs=1e-15)
        assert np.allclose(enc.encode([0.0, 1.0]), [0.10, 0.22])
        assert InputEncoding(0.1, 0.3).encode(0.5) == pytest.approx(0.2)

    def test_midpoint(self):
        assert InputEncoding().encode(0.5) == pytest.approx(0.16, abs=1e-15)

    def test_monotone(self):
        enc = InputEncoding()
        xs = np.linspace(0, 1, 11)
        vs = enc.encode(xs)
        assert np.all(np.diff(vs) > 0)

    def test_clamps_out_of_range(self):
        enc = InputEncoding()
        assert enc.encode(-0.5) == enc.encode(0.0)
        assert enc.encode(1.5) == enc.encode(1.0)

    def test_rejects_degenerate_window(self):
        with pytest.raises(InvalidInputError):
            InputEncoding(v_low=0.2, v_high=0.2)


class TestNormalization:
    def test_center_anchor_is_exact_at_midpoint(self):
        ctx = CrossbarContext(adc_bits=24)
        layer = QuantizedLayer.from_real(np.full((1, 1), 1.0))
        out = evaluate_layer(np.array([[0.5]]), layer, EvalMode.CROSSBAR, ctx)
        ideal = evaluate_layer(np.array([[0.5]]), layer, EvalMode.IDEAL)
        assert out[0, 0] == pytest.approx(ideal[0, 0], rel=1e-3)

    def test_top_anchor_is_exact_at_full_scale(self):
        ctx = CrossbarContext(anchor="top", adc_bits=24)
        layer = QuantizedLayer.from_real(np.full((1, 1), 1.0))
        out = evaluate_layer(np.array([[1.0]]), layer, EvalMode.CROSSBAR, ctx)
        ideal = evaluate_layer(np.array([[1.0]]), layer, EvalMode.IDEAL)
        assert out[0, 0] == pytest.approx(ideal[0, 0], rel=1e-3)

    def test_unknown_anchor_rejected(self):
        with pytest.raises(InvalidInputError):
            CrossbarContext(anchor="bottom")

    def test_zero_full_scale_current_rejected(self):
        profile = DeviceParams(vt0=0.62, subthreshold_i0=0.0)
        with pytest.raises(InvalidInputError, match="no full-scale current"):
            CrossbarContext(profile=profile)


class TestEvaluateLayer:
    def test_zero_inputs_near_zero_all_modes(self):
        layer = QuantizedLayer.from_real(np.ones((8, 3)))
        x = np.zeros((2, 8))
        ctx = CrossbarContext()
        fit = StdVsCurrentFit(0.0, 0.0, (0.0, 1e-3), 0.0)
        ctx_var = CrossbarContext(variation_fit=fit)
        for mode, c in ((EvalMode.IDEAL, None), (EvalMode.CROSSBAR, ctx),
                        (EvalMode.CROSSBAR_VARIATION, ctx_var)):
            out = evaluate_layer(x, layer, mode, c)
            assert np.all(np.abs(out) <= 1e-6)

    def test_ideal_mode_is_exact_quantized_math(self):
        rng = np.random.default_rng(4)
        w = rng.normal(0, 1, (10, 4))
        layer = QuantizedLayer.from_real(w)
        x = rng.uniform(0, 1, (5, 10))
        out = evaluate_layer(x, layer, EvalMode.IDEAL)
        expect = (x @ (layer.pos - layer.neg)) * layer.scale
        assert np.array_equal(out, expect)

    def test_crossbar_factorization_matches_per_cell_path(self):
        """Tile currents equal the clamped per-cell column solve exactly."""
        rng = np.random.default_rng(6)
        w = rng.normal(0, 1, (4, 3))
        layer = QuantizedLayer.from_real(w)
        x = rng.uniform(0.2, 0.9, 4)
        ctx = CrossbarContext(adc_bits=40)   # quantization off the scale
        out = evaluate_layer(x, layer, EvalMode.CROSSBAR, ctx)[0]

        enc = CONFIG_A_ENCODING.encode(x)
        e = Excitation(DriveMode.CONFIG_A, enc, v_dd=ctx.v_dd)
        i_pos = ideal_column_currents(
            e, pack_weights(WeightMatrix(layer.pos), ctx.profile),
            ctx.v_clamp,
        ).per_group
        i_neg = ideal_column_currents(
            e, pack_weights(WeightMatrix(layer.neg), ctx.profile),
            ctx.v_clamp,
        ).per_group
        expect = (i_pos - i_neg) / ctx.i_max * 15 * layer.scale
        assert np.allclose(out, expect, rtol=1e-9)

    def test_crossbar_close_to_ideal_at_midscale(self):
        """Mid-scale inputs with the 10-bit converter track the ideal path."""
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(10):
            mags = rng.uniform(0.5, 1.0, (16, 6))
            w = mags * rng.choice([-1.0, 1.0], (16, 6))
            layer = QuantizedLayer.from_real(w)
            x = np.full((4, 16), 0.5)
            ideal = evaluate_layer(x, layer, EvalMode.IDEAL)
            cb = evaluate_layer(x, layer, EvalMode.CROSSBAR,
                                CrossbarContext(adc_bits=10))
            worst = max(worst,
                        float(np.max(np.abs(cb - ideal)) / np.max(np.abs(ideal))))
        assert worst <= 0.02

    @pytest.mark.xfail(
        strict=True,
        reason="random-normal layers over a mid-range band cannot reach 2%: "
        "the concave cell transfer puts this layer 8.26% off IDEAL with a "
        "53-bit ADC, and 7.11% with the default 8-bit ADC",
    )
    def test_crossbar_close_to_ideal_literal(self):
        rng = np.random.default_rng(8)
        w = rng.normal(0, 1, (16, 6))
        layer = QuantizedLayer.from_real(w)
        x = rng.uniform(0.35, 0.65, (20, 16))
        ideal = evaluate_layer(x, layer, EvalMode.IDEAL)
        cb = evaluate_layer(x, layer, EvalMode.CROSSBAR, CrossbarContext())
        assert np.max(np.abs(cb - ideal)) <= 0.02 * np.max(np.abs(ideal))

    def test_variation_mode_is_seeded_and_deterministic(self):
        rng = np.random.default_rng(9)
        layer = QuantizedLayer.from_real(rng.normal(0, 1, (16, 4)))
        x = rng.uniform(0, 1, (3, 16))
        fit = StdVsCurrentFit(0.05, 0.0, (0.0, 1e-2), 0.0)
        ctx = CrossbarContext(variation_fit=fit, variation_seed=11)
        a = evaluate_layer(x, layer, EvalMode.CROSSBAR_VARIATION, ctx)
        b = evaluate_layer(x, layer, EvalMode.CROSSBAR_VARIATION, ctx)
        assert np.array_equal(a, b)
        ctx2 = CrossbarContext(variation_fit=fit, variation_seed=12)
        c = evaluate_layer(x, layer, EvalMode.CROSSBAR_VARIATION, ctx2)
        assert not np.array_equal(a, c)

    def test_tiling_invariance(self):
        rng = np.random.default_rng(10)
        layer = QuantizedLayer.from_real(rng.normal(0, 1, (32, 5)))
        x = rng.uniform(0, 1, (6, 32))
        ctx_8 = CrossbarContext(tile_rows=8)
        ctx = CrossbarContext(tile_rows=16)
        ideal_8 = evaluate_layer(x, layer, EvalMode.IDEAL, ctx_8)
        ideal_16 = evaluate_layer(x, layer, EvalMode.IDEAL, ctx)
        assert np.array_equal(ideal_8, ideal_16)

        cb_8 = evaluate_layer(x, layer, EvalMode.CROSSBAR, ctx_8)
        cb_16 = evaluate_layer(x, layer, EvalMode.CROSSBAR, ctx)
        # 8-row tiling: 4 tiles x 2 conversions at half the step; 16-row:
        # 2 tiles x 2 conversions. Bound by the summed half-step errors.
        step16 = 16 * ctx.i_max / ((1 << ctx.adc_bits) - 1)
        bound_ampere = (4 * 2 * step16 / 2 / 2) + (2 * 2 * step16 / 2)
        bound = bound_ampere / ctx.i_max * 15 * layer.scale
        assert np.max(np.abs(cb_8 - cb_16)) <= bound

    def test_dimension_mismatch_rejected(self):
        layer = QuantizedLayer.from_real(np.ones((4, 2)))
        with pytest.raises(InvalidInputError):
            evaluate_layer(np.ones((1, 5)), layer, EvalMode.IDEAL)


class TestInfer:
    def test_constructed_network_is_perfect(self):
        # one-hot inputs through a permutation-favoring layer
        w = np.eye(4) * 2.0
        net = QuantizedNetwork.from_real_weights([w])
        x = np.eye(4)
        y = np.arange(4)
        assert infer(x, y, net, EvalMode.IDEAL) == 1.0

    def test_mode_ordering_on_bundled_digits(self):
        ds = generate_digits(n_train_per_class=60, n_test_per_class=20, seed=3)
        weights, _ = train_reference(ds.train_x, ds.train_y, epochs=60, seed=1)
        net = QuantizedNetwork.from_real_weights(weights)
        acc_ideal = infer(ds.test_x, ds.test_y, net, EvalMode.IDEAL)
        ctx = CrossbarContext()
        acc_cb = infer(ds.test_x, ds.test_y, net, EvalMode.CROSSBAR, ctx)
        assert acc_ideal >= 0.85
        assert acc_cb >= acc_ideal - 0.02

    def test_label_feature_mismatch(self):
        net = QuantizedNetwork.from_real_weights([np.ones((4, 2))])
        with pytest.raises(InvalidInputError):
            infer(np.ones((3, 4)), np.arange(2), net, EvalMode.IDEAL)


class TestTrainer:
    def test_zero_learning_rate_leaves_weights(self):
        ds = generate_digits(n_train_per_class=5, n_test_per_class=1)
        w_a, _ = train_reference(ds.train_x, ds.train_y, epochs=3, lr=0.0,
                                 seed=8)
        w_b, _ = train_reference(ds.train_x, ds.train_y, epochs=0, lr=0.5,
                                 seed=8)
        for a, b in zip(w_a, w_b):
            assert np.array_equal(a, b)

    def test_loss_nonincreasing_on_separable_toy(self):
        rng = np.random.default_rng(15)
        x = np.vstack([
            rng.uniform(0.0, 0.3, (40, 4)),
            rng.uniform(0.7, 1.0, (40, 4)),
        ])
        y = np.array([0] * 40 + [1] * 40)
        _, losses = train_reference(
            x, y, topology=(4, 3, 2), epochs=30, lr=0.05,
            batch_size=80, seed=2,
        )
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        # keep every pre-activation strictly inside (0, 1): no clamp kinks
        x = rng.uniform(0.2, 0.6, (5, 3))
        w1 = rng.uniform(0.1, 0.4, (3, 3))
        w2 = rng.uniform(0.1, 0.4, (3, 2))
        y = np.zeros((5, 2))
        y[np.arange(5), rng.integers(0, 2, 5)] = 1.0
        _, grads = loss_and_grads([w1, w2], x, y)
        h = 1e-6
        for wi, (w, g) in enumerate(zip([w1, w2], grads)):
            for idx in np.ndindex(w.shape):
                w_p = [w1.copy(), w2.copy()]
                w_m = [w1.copy(), w2.copy()]
                w_p[wi][idx] += h
                w_m[wi][idx] -= h
                lp, _ = loss_and_grads(w_p, x, y)
                lm, _ = loss_and_grads(w_m, x, y)
                fd = (lp - lm) / (2 * h)
                assert g[idx] == pytest.approx(fd, rel=1e-4, abs=1e-12)

    def test_deterministic_per_seed(self):
        ds = generate_digits(n_train_per_class=10, n_test_per_class=2)
        a, _ = train_reference(ds.train_x, ds.train_y, epochs=5, seed=3)
        b, _ = train_reference(ds.train_x, ds.train_y, epochs=5, seed=3)
        for wa, wb in zip(a, b):
            assert np.array_equal(wa, wb)


def test_default_fit_draws_no_noise_at_zero_current():
    """The default ``nn`` fit grid starts at the clamp, where every trial
    reads 0 A. Those points set the fit's domain floor to 0 A, so a
    zero-current tile draws no noise."""
    from sramdpe.config import DEFAULT_CONFIG

    cfg = DEFAULT_CONFIG["nn"]
    pts = monte_carlo_stats(cfg["fit_voltages"], cfg["fit_weights"],
                            VariationSpec(trials=100),
                            mode=DriveMode.CONFIG_A)
    fit = fit_std_vs_current([(p.mean_current, p.std_current) for p in pts])
    assert fit.domain[0] == 0.0 and fit(0.0) == 0.0


def test_forward_clamps_hidden_pre_activations():
    rng = np.random.default_rng(12)
    net = QuantizedNetwork.from_real_weights(
        [rng.normal(0, 1, (12, 6)), rng.normal(0, 1, (6, 4))]
    )
    x = rng.uniform(0, 1, (30, 12))
    hidden, top = net.layers
    z = evaluate_layer(x, hidden, EvalMode.IDEAL)
    assert z.min() < 0.0 and z.max() > 1.0   # both bounds bite
    expect = evaluate_layer(np.clip(z, 0.0, 1.0), top, EvalMode.IDEAL)
    assert np.array_equal(forward(x, net, EvalMode.IDEAL), expect)


def test_unit_currents_equal_a_direct_solve_of_both_bits():
    """Tabled (ON, OFF) unit currents equal a direct per-element solve, for
    voltages new to the table and voltages already in it."""
    profile, enc = DeviceParams(), InputEncoding()
    ctx = CrossbarContext(profile, v_dd=0.65, v_clamp=0.1)
    x = np.array([[0.0, 0.5, 1.0, 0.25, 0.5],
                  [1.0, 0.0, 0.125, 0.25, 0.7],
                  [0.5, 0.5, 0.5, 0.5, 0.5]])
    for v in (enc.encode(x), enc.encode(0.3), enc.encode(x[::-1]),
              enc.encode(0.3), enc.encode(np.linspace(0, 1, 7))):
        got = ctx.unit_currents(v)
        for u, g1 in zip(got, (0.65, 0.0)):
            ref, _ = stack_current_arrays(profile, 1, 0.0, 0.0, g1, 0.65, v,
                                          0.1)
            assert u.shape == np.shape(v)
            assert np.array_equal(u, ref)


def test_variation_mode_reuses_the_crossbar_modes_layer0_solves(monkeypatch):
    """A context's table outlives a mode: CROSSBAR_VARIATION after CROSSBAR
    on the same features sends none of layer 0's voltages to the kernel."""
    rng = np.random.default_rng(17)
    net = QuantizedNetwork.from_real_weights(
        [rng.normal(0, 1, (16, 6)), rng.normal(0, 1, (6, 3))])
    x = rng.uniform(0, 1, (40, 16))
    y = rng.integers(0, 3, 40)
    fit = StdVsCurrentFit(0.05, 0.0, (0.0, 1e-2), 0.0)
    ctx = CrossbarContext(variation_fit=fit)
    sent = []

    def spy(*args):
        sent.append(np.ravel(args[6]))
        return stack_current_arrays(*args)

    monkeypatch.setattr(nn, "stack_current_arrays", spy)
    infer(x, y, net, EvalMode.CROSSBAR, ctx)
    layer0 = np.unique(CONFIG_A_ENCODING.encode(x))
    assert np.isin(layer0, np.concatenate(sent)).all()
    sent.clear()
    infer(x, y, net, EvalMode.CROSSBAR_VARIATION, ctx)
    assert sent    # layer 1 sees new, noisy activations
    assert not np.isin(np.concatenate(sent), layer0).any()


@pytest.mark.parametrize("sigma", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("seed, n_train, n_test",
                         [(0, 1, 1), (7, 5, 2), (3, 60, 20)])
def test_digits_equal_the_per_image_generator(seed, n_train, n_test, sigma):
    got = generate_digits(n_train, n_test, seed=seed, noise_sigma=sigma)
    ref = generate_digits_per_image(n_train, n_test, seed=seed,
                                    noise_sigma=sigma)
    for name in ("train_x", "train_y", "test_x", "test_y"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("batch_size", [7, 32, 201])
def test_trainer_equals_the_per_batch_reference(seed, batch_size):
    ds = generate_digits(n_train_per_class=20, n_test_per_class=1, seed=seed)
    assert len(ds.train_y) == 200    # batch size 201 takes all in one batch
    kw = dict(epochs=4, lr=0.5, batch_size=batch_size, seed=seed)
    w, losses = train_reference(ds.train_x, ds.train_y, **kw)
    w_ref, losses_ref = train_reference_per_batch(ds.train_x, ds.train_y, **kw)
    assert losses == losses_ref
    for a, b in zip(w, w_ref):
        assert np.array_equal(a, b)
