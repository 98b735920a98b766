import math

import numpy as np
import pytest

from fusepool import fusion
from fusepool.corpus import SplitSpec, split
from fusepool.fusion import (
    FusionParameters,
    TrainConfig,
    _Adam,
    _Sgd,
    _sigmoid,
    build_fusion_table,
    build_training_data,
    forward,
    init_params,
    load_params,
    loss_and_grad,
    predict,
    save_params,
    train,
)
from fusepool.synthetic import correlated_pool, separable_confidences

from test_corpus import mcq_record, oeq_record
from test_answers import ok_pass


def finite_difference_grads(params, X, y, active, h=1e-5):
    """Central-difference oracle over every parameter entry."""
    out = []
    for w, b in params.layers:
        gw = np.zeros_like(w)
        gb = np.zeros_like(b)
        for arr, g in ((w, gw), (b, gb)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                lp, _ = loss_and_grad(params, X, y, active)
                arr[idx] = orig - h
                lm, _ = loss_and_grad(params, X, y, active)
                arr[idx] = orig
                g[idx] = (lp - lm) / (2 * h)
        out.append((gw, gb))
    return out


def max_rel_err(analytic, numeric):
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(1e-8, np.abs(a) + np.abs(n))
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestInit:
    def test_paper_shapes(self):
        params = init_params((32, 100, 100, 4), seed=0)
        assert [w.shape for w, _ in params.layers] == [(100, 32), (100, 100), (4, 100)]
        assert all(np.array_equal(b, np.zeros_like(b)) for _, b in params.layers)

    def test_deterministic(self):
        a = init_params((8, 5, 3), seed=42)
        b = init_params((8, 5, 3), seed=42)
        for (wa, _), (wb, _) in zip(a.layers, b.layers):
            assert np.array_equal(wa, wb)

    def test_xavier_variance(self):
        # var(U(-a, a)) = a^2/3 = 2 / (fan_in + fan_out)
        params = init_params((100, 100), seed=1)
        w = params.layers[0][0]
        assert w.size == 10_000
        expected = 2.0 / 200
        assert abs(w.var() - expected) / expected < 0.2

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            init_params((4,), seed=0)


class TestForward:
    def test_zero_params_give_uniform(self):
        params = FusionParameters(
            layers=[(np.zeros((5, 3)), np.zeros(5)), (np.zeros((4, 5)), np.zeros(4))],
            dims=(3, 5, 4),
        )
        out = forward(params, np.array([0.3, 0.5, 0.2]))
        assert out == pytest.approx([0.25] * 4)

    def test_hand_computed_single_layer(self):
        # logits z = W x + b with x=(0.2, 0.8)
        w = np.array([[1.0, -1.0], [0.5, 0.5]])
        b = np.array([0.1, -0.1])
        params = FusionParameters(layers=[(w, b)], dims=(2, 2))
        x = np.array([0.2, 0.8])
        z = w @ x + b
        want = np.exp(z - z.max())
        want /= want.sum()
        assert forward(params, x) == pytest.approx(want.tolist())

    def test_output_in_simplex(self):
        rng = np.random.default_rng(0)
        params = init_params((6, 7, 5), seed=2)
        for _ in range(50):
            out = forward(params, rng.normal(size=6))
            assert np.all(out >= 0)
            assert out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_masked_slots_get_zero_probability(self):
        params = init_params((4, 6, 5), seed=3)
        out = forward(params, np.ones(4), active=2)
        assert out[2:] == pytest.approx([0.0, 0.0, 0.0])
        assert out[:2].sum() == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        params = init_params((4, 3), seed=0)
        with pytest.raises(ValueError):
            forward(params, np.ones(5))

    def test_positive_logit_rescaling_preserves_argmax(self):
        params = init_params((6, 4), seed=5)
        x = np.random.default_rng(1).normal(size=6)
        base = int(np.argmax(forward(params, x)))
        scaled = FusionParameters(
            layers=[(3.0 * params.layers[0][0], 3.0 * params.layers[0][1])],
            dims=params.dims,
        )
        assert int(np.argmax(forward(scaled, x))) == base


def random_layers(dims, rng):
    """Nonzero entries everywhere, so any misplaced view shows."""
    return [(rng.normal(size=(o, i)), rng.normal(size=o)) for i, o in zip(dims, dims[1:])]


class TestFlatLayout:
    def test_layers_are_views_into_flat_in_order(self):
        rng = np.random.default_rng(0)
        layers = random_layers((7, 5, 3), rng)
        params = FusionParameters(layers=layers, dims=(7, 5, 3))
        assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
        assert params.flat.size == 7 * 5 + 5 + 5 * 3 + 3
        for (w, b), (w0, b0) in zip(params.layers, layers):
            assert np.array_equal(w, w0) and np.array_equal(b, b0)
            assert np.shares_memory(w, params.flat) and np.shares_memory(b, params.flat)
        params.flat[:] = np.arange(params.flat.size)
        (w1, b1), (w2, b2) = params.layers
        assert np.array_equal(w1, np.arange(35).reshape(5, 7))
        assert np.array_equal(b1, np.arange(35, 40))
        assert np.array_equal(w2, np.arange(40, 55).reshape(3, 5))
        assert np.array_equal(b2, np.arange(55, 58))

    def test_construction_copies_the_given_arrays(self):
        w, b = np.ones((2, 3)), np.zeros(2)
        params = FusionParameters(layers=[(w, b)], dims=(3, 2))
        w[0, 0] = 5.0
        assert params.layers[0][0][0, 0] == 1.0


def reference_adam_steps(layers, grad_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam with one moment pair per parameter array, updated array by array;
    yields the layers after each step, drawing the next gradients only then."""
    layers = [(w.copy(), b.copy()) for w, b in layers]
    m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
    v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
    for t, grads in enumerate(grad_seq, start=1):
        c1, c2 = 1.0 - beta1**t, 1.0 - beta2**t
        for l, pair in enumerate(grads):
            for slot, g in enumerate(pair):
                mm, vv = m[l][slot], v[l][slot]
                mm *= beta1
                mm += (1 - beta1) * g
                vv *= beta2
                vv += (1 - beta2) * g * g
                layers[l][slot][...] -= lr * (mm / c1) / (np.sqrt(vv / c2) + eps)
        yield [(w.copy(), b.copy()) for w, b in layers]


def reference_sgd_steps(layers, grad_seq, lr):
    layers = [(w.copy(), b.copy()) for w, b in layers]
    for grads in grad_seq:
        for (w, b), (gw, gb) in zip(layers, grads):
            w -= lr * gw
            b -= lr * gb
        yield [(w.copy(), b.copy()) for w, b in layers]


class TestOptimizers:
    @pytest.mark.parametrize("dims", [(7, 5, 3), (20, 100, 100, 5)])
    @pytest.mark.parametrize("name", ["adam", "sgd"])
    def test_flat_step_matches_per_array_reference(self, dims, name):
        rng = np.random.default_rng(len(dims))
        params = init_params(dims, seed=3)
        # Gradients over several magnitudes, signs and exact zeros.
        grad_seq = [[(g * s, gb * s) for g, gb in random_layers(dims, rng)]
                    for s in (1.0, 1e-3, 0.0, 50.0, -2.5, 1e-7)]
        lr = 1e-2
        if name == "adam":
            want = reference_adam_steps(params.layers, grad_seq, lr)
            opt = _Adam(params, lr)
        else:
            want = reference_sgd_steps(params.layers, grad_seq, lr)
            opt = _Sgd(params, lr)
        for grads, expected in zip(grad_seq, want):
            flat_grad = np.concatenate([a.ravel() for pair in grads for a in pair])
            opt.step(params, flat_grad)
            for (w, b), (we, be) in zip(params.layers, expected):
                assert w.tobytes() == we.tobytes() and b.tobytes() == be.tobytes()


def reference_sigmoid(z):
    """The two-branch form: 1/(1+exp(-z)) for z >= 0, exp(z)/(1+exp(z)) below."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    def test_matches_two_branch_reference_at_the_edges(self):
        edges = [0.0, 1e-300, 36.0, 745.0, 1e308, np.inf]
        z = np.array(edges + [-x for x in edges] + [np.nan])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = _sigmoid(z)
        want = reference_sigmoid(z)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[-1])
        assert got[0] == got[len(edges)] == 0.5

    def test_matches_two_branch_reference_on_a_batch(self):
        z = np.random.default_rng(4).normal(scale=20.0, size=(32, 100))
        assert _sigmoid(z).tobytes() == reference_sigmoid(z).tobytes()


class TestLossAndGrad:
    def test_perfect_prediction_loss_vanishes(self):
        w = np.array([[100.0, 0.0], [0.0, 100.0]])
        params = FusionParameters(layers=[(w, np.zeros(2))], dims=(2, 2))
        loss, _ = loss_and_grad(params, np.array([[1.0, 0.0]]), [0])
        assert loss < 1e-9

    def test_uniform_prediction_closed_form(self):
        params = FusionParameters(
            layers=[(np.zeros((4, 8)), np.zeros(4))], dims=(8, 4)
        )
        loss, _ = loss_and_grad(params, np.ones((3, 8)), [0, 1, 3])
        assert loss == pytest.approx(math.log(4), abs=1e-12)

    def test_target_out_of_range(self):
        params = init_params((4, 3), seed=0)
        with pytest.raises(ValueError):
            loss_and_grad(params, np.ones((1, 4)), [3], active=2)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            dims = (5, 4, 3 + trial % 2)
            params = init_params(dims, seed=trial)
            X = rng.normal(size=(3, dims[0]))
            out = dims[-1]
            active = rng.integers(1, out + 1, size=3)
            y = np.array([rng.integers(0, a) for a in active])
            _, grads = loss_and_grad(params, X, y, active)
            numeric = finite_difference_grads(params, X, y, active)
            assert max_rel_err(grads, numeric) < 1e-4


def reference_train(train_data, val_data, dims, config):
    """``train`` rebuilt from public pieces: ``init_params``, the seeded
    permutation batches, ``loss_and_grad`` per batch, the per-array reference
    steps, the best held-out snapshot and the patience stop."""
    current = init_params(dims, seed=config.seed)
    held_out = val_data if val_data is not None and len(val_data) else train_data

    def held_out_loss(params):
        return loss_and_grad(params, held_out.features, held_out.targets, held_out.active)[0]

    best, best_loss = current, held_out_loss(current)

    def batch_grads():
        nonlocal best, best_loss
        rng = np.random.default_rng(config.seed)
        since_best = 0
        for _ in range(config.epochs):
            order = rng.permutation(len(train_data))
            for start in range(0, len(order), config.batch_size):
                idx = order[start : start + config.batch_size]
                yield loss_and_grad(current, train_data.features[idx],
                                    train_data.targets[idx], train_data.active[idx])[1]
            loss = held_out_loss(current)
            if loss < best_loss:
                best, best_loss, since_best = current, loss, 0
            else:
                since_best += 1
                if since_best >= config.early_stop_patience:
                    return

    steps = reference_adam_steps if config.optimizer == "adam" else reference_sgd_steps
    for layers in steps(current.layers, batch_grads(), config.learning_rate):
        current = FusionParameters(layers=layers, dims=dims)
    return best


class TestTrain:
    def make_data(self, corpus_part, members):
        data, _ = build_training_data(*build_fusion_table(corpus_part.records, members, k=1))
        return data

    @pytest.mark.parametrize("with_val", [False, True])
    @pytest.mark.parametrize("config, stops", [
        (TrainConfig(epochs=6, seed=2), False),
        (TrainConfig(epochs=6, seed=2, optimizer="sgd", learning_rate=0.5), False),
        (TrainConfig(epochs=40, seed=1, learning_rate=0.05, early_stop_patience=2), True),
        (TrainConfig(epochs=40, seed=1, optimizer="sgd", learning_rate=2.0,
                     early_stop_patience=2), True),
    ], ids=["adam", "sgd", "adam-stops", "sgd-stops"])
    def test_matches_a_loop_of_public_pieces_bit_for_bit(self, monkeypatch, caplog, with_val,
                                                         config, stops):
        monkeypatch.setattr(fusion, "HIDDEN", (8,))
        corpus = correlated_pool(4, 150, seed=0)  # 4 members x 4 choices
        tr, va, _ = split(corpus, SplitSpec(0.6, 0.4, 0.0, seed=0))
        train_data = self.make_data(tr, corpus.model_ids)
        val_data = self.make_data(va, corpus.model_ids) if with_val else None
        dims = (16, 8, 4)
        with caplog.at_level("INFO", logger="fusepool.fusion"):
            got = train(train_data, val_data, config)
        assert ("early stop" in caplog.text) == stops
        want = reference_train(train_data, val_data, dims, config)
        assert got.dims == want.dims
        assert got.flat.tobytes() == want.flat.tobytes()

    def test_a_target_outside_the_active_slots_is_refused(self):
        corpus = separable_confidences(40, seed=0)
        data = self.make_data(corpus, corpus.model_ids)
        data.targets[5] = -1
        with pytest.raises(ValueError, match="target index outside the active slots"):
            train(data, None, TrainConfig(epochs=2))

    def test_separable_task_trains_to_high_accuracy(self, monkeypatch):
        monkeypatch.setattr(fusion, "HIDDEN", (16,))
        corpus = separable_confidences(400, seed=0)
        members = corpus.model_ids
        data = self.make_data(corpus, members)
        params = train(data, None, TrainConfig(epochs=200, seed=0))
        assert params.dims == (12, 16, 4)  # 3 members x 4 choices in
        probs = forward(params, data.features)
        acc = float(np.mean(np.argmax(probs, axis=1) == data.targets))
        assert acc > 0.99

    def test_best_val_tracking(self, monkeypatch):
        monkeypatch.setattr(fusion, "HIDDEN", (16,))
        corpus = separable_confidences(300, seed=1)
        tr, va, _ = split(corpus, SplitSpec(0.7, 0.3, 0.0, seed=0))
        members = corpus.model_ids
        train_data = self.make_data(tr, members)
        val_data = self.make_data(va, members)
        dims = (12, 16, 4)
        epoch0 = init_params(dims, seed=4)
        loss0, _ = loss_and_grad(epoch0, val_data.features, val_data.targets, val_data.active)
        params = train(train_data, val_data, TrainConfig(epochs=30, seed=4))
        loss1, _ = loss_and_grad(params, val_data.features, val_data.targets, val_data.active)
        assert loss1 <= loss0

    def test_deterministic(self, monkeypatch):
        monkeypatch.setattr(fusion, "HIDDEN", (8,))
        corpus = separable_confidences(120, seed=2)
        data = self.make_data(corpus, corpus.model_ids)
        a = train(data, None, TrainConfig(epochs=5, seed=11))
        b = train(data, None, TrainConfig(epochs=5, seed=11))
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)

    def test_sgd_option(self, monkeypatch):
        monkeypatch.setattr(fusion, "HIDDEN", (8,))
        corpus = separable_confidences(120, seed=3)
        data = self.make_data(corpus, corpus.model_ids)
        params = train(data, None,
                       TrainConfig(epochs=5, seed=0, optimizer="sgd", learning_rate=0.5))
        assert all(np.isfinite(w).all() for w, _ in params.layers)

    def test_empty_training_set_rejected(self):
        from fusepool.fusion import FusionData

        empty = FusionData(
            features=np.zeros((0, 4)), targets=np.zeros(0, dtype=np.intp),
            active=np.zeros(0, dtype=np.intp), episode_ids=[], slots=2,
        )
        with pytest.raises(ValueError):
            train(empty, None, TrainConfig())

    @pytest.mark.parametrize("patience", [0, -1])
    def test_patience_below_one_is_refused(self, patience):
        with pytest.raises(ValueError, match="early_stop_patience must be >= 1"):
            TrainConfig(early_stop_patience=patience)


class TestBuildTrainingData:
    def test_oeq_padding_and_targets(self):
        rec = oeq_record("r0", gold="7", passes={
            "a": [ok_pass("7"), ok_pass("7"), ok_pass("5")],
            "b": [ok_pass("5"), ok_pass("9"), ok_pass("9")],
        })
        data, skipped = build_training_data(*build_fusion_table([rec], ["a", "b"], k=3))
        assert skipped == []
        # Y_final = [7, 5, 9]; features are per-model frequencies over it.
        assert data.features[0] == pytest.approx([2/3, 1/3, 0, 0, 1/3, 2/3])
        assert data.active[0] == 3
        assert data.targets[0] == 0

    def test_gold_outside_solution_set_is_skipped(self):
        rec = oeq_record("r0", gold="123", passes={
            "a": [ok_pass("7")], "b": [ok_pass("9")],
        })
        data, skipped = build_training_data(*build_fusion_table([rec], ["a", "b"], k=1))
        assert skipped == ["r0"]
        assert len(data) == 0

    def test_mcq_records(self):
        rec = mcq_record("r0", gold=2, probs={
            "a": [0.1, 0.1, 0.7, 0.1], "b": [0.25, 0.25, 0.25, 0.25],
        })
        data, skipped = build_training_data(*build_fusion_table([rec], ["a", "b"], k=1))
        assert skipped == []
        assert data.features.shape == (1, 8)
        assert data.targets[0] == 2 and data.active[0] == 4


class TestFusionTable:
    def test_eight_members_match_mcq_input_width(self):
        members = [f"m{i}" for i in range(8)]
        rec = mcq_record("r0", probs={m: [0.25] * 4 for m in members})
        table, unusable = build_fusion_table([rec], members, k=1)
        assert unusable == []
        assert table.slots == 4 and table.features.shape == (1, 8 * 4)

    def test_more_passes_than_k_names_record_model_and_flag(self):
        rec = oeq_record("r0", passes={"a": [ok_pass("7")], "b": [ok_pass("7")] * 3})
        with pytest.raises(ValueError, match="record r0: model b has 3 passes, "
                                             "more than --k-passes 2"):
            build_fusion_table([rec], ["a", "b"], k=2)

    def test_gold_outside_solution_set_keeps_its_row(self):
        rec = oeq_record("r0", gold="123", passes={"a": [ok_pass("7")], "b": [ok_pass("9")]})
        table, unusable = build_fusion_table([rec], ["a", "b"], k=1)
        assert unusable == [] and table.targets.tolist() == [-1]
        assert table.slot_answers == [["7"]]


class TestPredict:
    def test_mcq_argmax_mapping(self):
        rec = mcq_record("r0", gold=2, probs={
            "a": [0.0, 0.1, 0.8, 0.1], "b": [0.1, 0.0, 0.8, 0.1],
        })
        # identity-ish net: zero weights give uniform; use trained-free check
        # by direct argmax of a single linear layer that passes block sums.
        w = np.zeros((4, 8))
        for c in range(4):
            w[c, c] = w[c, 4 + c] = 10.0
        params = FusionParameters(layers=[(w, np.zeros(4))], dims=(8, 4))
        assert predict(params, rec, ["a", "b"], k=1) == 2

    def test_oeq_maps_back_to_answer(self):
        rec = oeq_record("r0", gold="7", passes={
            "a": [ok_pass("5"), ok_pass("7"), ok_pass("7")],
            "b": [ok_pass("9"), ok_pass("7"), ok_pass("7")],
        })
        w = np.zeros((3, 6))
        for c in range(3):
            w[c, c] = w[c, 3 + c] = 10.0
        params = FusionParameters(layers=[(w, np.zeros(3))], dims=(6, 3))
        # Y_final = [7, 5, 9] by frequency; both models concentrate on 7.
        assert predict(params, rec, ["a", "b"], k=3) == "7"

    def test_abstains_without_any_answers(self):
        rec = oeq_record("r0", gold="7", passes={"a": [], "b": []})
        params = init_params((6, 3), seed=0)
        assert predict(params, rec, ["a", "b"], k=3) is None


class TestSerialization:
    def test_round_trip(self, tmp_path):
        params = init_params((6, 5, 4), seed=9)
        path = tmp_path / "params.json"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.dims == params.dims
        assert loaded.flat.dtype == np.float64
        assert loaded.flat.tobytes() == params.flat.tobytes()
        for (wa, ba), (wb, bb) in zip(params.layers, loaded.layers):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)

    def test_version_check(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text('{"format_version": 99, "dims": [2, 2], "layers": []}')
        with pytest.raises(ValueError, match="version"):
            load_params(path)

    @pytest.mark.parametrize("text, named", [
        ("{", "JSONDecodeError"),
        ("[]", "not a JSON object"),
        ('{"format_version": 1}', "'layers'"),
        ('{"format_version": 1, "dims": [2, 2], "layers": [{"weights": [[1, 0], [0, 1]]}]}',
         "'bias'"),
        ('{"format_version": 1, "dims": [2, 2], "layers": [{"weights": [[1, 0]], "bias": [0]}]}',
         "does not chain"),
        ('{"format_version": 1, "dims": 2, "layers": []}', "TypeError"),
    ])
    def test_a_malformed_file_is_refused_naming_its_path(self, tmp_path, text, named):
        path = tmp_path / "params.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="params.json is not a parameter file") as err:
            load_params(path)
        assert named in str(err.value)
