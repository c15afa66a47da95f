import numpy as np
import pytest

from dreglab.data import Dataset, dynamic_binarize, synthetic_dataset
from dreglab.diagnostics import VarianceTraceEma
from dreglab.models import Vae
from dreglab.training import Adam, TrainRow, train_model


def quadratic_grad(flat, center):
    return flat - center


class TestAdam:
    def test_minimizes_quadratic(self):
        center = np.array([1.0, -2.0, 0.5])
        flat = np.zeros(3)
        opt = Adam(3, lr=0.05)
        for _ in range(600):
            flat = opt.update(flat, quadratic_grad(flat, center))
        assert np.max(np.abs(flat - center)) < 1e-3

    def test_first_step_is_lr_sized(self):
        flat = np.zeros(2)
        opt = Adam(2, lr=1e-3)
        out = opt.update(flat, np.array([4.0, -0.25]))
        # bias correction makes the first step lr * sign(g) up to eps
        assert np.allclose(out, [-1e-3, 1e-3], rtol=1e-6)

    def test_in_place_updates_equal_the_out_of_place_formulas(self):
        # Adam and the variance traces update their state (and Adam the
        # parameters) in place; every bit must match the plain formulas
        rng = np.random.default_rng(23)
        lr, b1, b2, eps, decay = 1e-3, 0.9, 0.999, 1e-8, 0.99
        opt, ema = Adam(7, lr, b1, b2, eps), VarianceTraceEma(decay)
        flat = rng.standard_normal(7)
        want, m, v, m1, m2 = flat.copy(), np.zeros(7), np.zeros(7), np.zeros(7), np.zeros(7)
        for t in range(1, 301):
            grad = rng.standard_normal(7) * 10.0 ** rng.uniform(-6, 2)
            assert opt.update(flat, grad) is flat
            ema.update(grad)
            m = b1 * m + (1.0 - b1) * grad
            v = b2 * v + (1.0 - b2) * grad * grad
            want = want - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
            m1 = decay * m1 + (1.0 - decay) * grad
            m2 = decay * m2 + (1.0 - decay) * grad * grad
            assert np.array_equal(flat, want)
            assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)
            assert np.array_equal(ema._m1, m1) and np.array_equal(ema._m2, m2)
        corr = 1.0 - decay**300
        assert ema.trace() == max(0.0, float(np.mean(m2 / corr - (m1 / corr) ** 2)))

    @pytest.mark.parametrize("flat, match", [
        (np.zeros(3, dtype=np.float32), "float64 ndarray"),
        ([0.0, 0.0, 0.0], "float64 ndarray"),
        (np.broadcast_to(0.0, (3,)), "read-only"),
        (np.zeros(4), "parameter size"),
    ])
    def test_update_rejects_a_flat_it_cannot_write_in_place(self, flat, match):
        # update writes flat in place, so a cast or a copy would leave the
        # caller's array stale; both are refused before any state moves
        opt = Adam(3)
        with pytest.raises(ValueError, match=match):
            opt.update(flat, np.ones(3))
        assert opt.t == 0 and not opt.m.any()

    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError, match="lr"):
            Adam(3, lr=0.0)
        with pytest.raises(ValueError, match="betas"):
            Adam(3, beta1=1.0)
        with pytest.raises(ValueError, match="size mismatch"):
            Adam(3).update(np.zeros(3), np.zeros(4))


def tiny_problem(seed=5):
    fam = Vae(latent=2, hidden=4, obs=16)
    images = synthetic_dataset(96, 16, 2, seed=3, hidden=4).images
    # the leading 80% and the next 10% of the images, in order
    train, valid = Dataset(images=images[:77]), Dataset(images=images[77:87])
    return fam, train, valid


class TestTrainModel:
    def test_logs_rows_on_schedule(self):
        fam, train, valid = tiny_problem()
        res = train_model(fam, train, valid, "iwae", 4, steps=50,
                          batch_size=8, eval_every=20, seed=5)
        assert not res.diverged
        assert [r.step for r in res.rows] == [0, 20, 40, 50]
        assert all(isinstance(r, TrainRow) for r in res.rows)

    def test_final_step_row_not_duplicated(self):
        fam, train, valid = tiny_problem()
        res = train_model(fam, train, valid, "iwae", 4, steps=40,
                          batch_size=8, eval_every=20, seed=5)
        assert [r.step for r in res.rows] == [0, 20, 40]

    def test_bound_improves(self):
        fam, train, valid = tiny_problem()
        res = train_model(fam, train, valid, "iwae", 4, steps=300,
                          batch_size=8, seed=5)
        gain = res.rows[-1].heldout_bound - res.rows[0].heldout_bound
        assert gain > 0.3

    def test_improves_under_dreg_modes(self):
        fam, train, valid = tiny_problem()
        for mode in ("iwae-dreg", "rws-dreg"):
            res = train_model(fam, train, valid, mode, 4, steps=300,
                              batch_size=8, seed=5)
            gain = res.rows[-1].heldout_bound - res.rows[0].heldout_bound
            assert gain > 0.3, mode

    def test_jackknife_mode_runs(self):
        # the jackknife objective is not a bound, and on problems this
        # small the optimizer can inflate its debiasing term instead of
        # the likelihood, so only stability is asserted here
        fam, train, valid = tiny_problem()
        res = train_model(fam, train, valid, "jvi1-dreg", 4, steps=120,
                          batch_size=8, seed=5)
        assert not res.diverged
        assert all(np.isfinite(r.heldout_bound) for r in res.rows)

    def test_dreg_alpha_mode_needs_alpha(self):
        fam, train, valid = tiny_problem()
        res = train_model(fam, train, valid, "dreg-alpha", 4, steps=30,
                          batch_size=8, seed=5, alpha=0.3)
        assert not res.diverged

    def test_an_unread_alpha_changes_no_bit(self):
        # iwae's weights are numbers, so an alpha given to it is not read
        fam, train, valid = tiny_problem()
        given, plain = (train_model(fam, train, valid, "iwae", 4, steps=30,
                                    batch_size=8, seed=5, alpha=alpha)
                        for alpha in (0.3, None))
        assert given.rows == plain.rows
        assert np.array_equal(given.params.flat, plain.params.flat)

    @pytest.mark.parametrize("batch_size", [8, 200])
    def test_each_row_takes_its_own_epochs_draw(self, batch_size):
        # 77 training images: batches of 8 wrap past the end of the split,
        # and a batch of 200 spans three or four epochs
        class RecordingVae(Vae):
            batches = []

            def weight_context(self, p, x, eps, sums=False):
                if sums:  # a training batch, not the held-out set
                    self.batches.append(np.array(x))
                return super().weight_context(p, x, eps, sums)

        _, train, valid = tiny_problem()
        fam = RecordingVae(latent=2, hidden=4, obs=16)
        steps, n = 30, train.n
        res = train_model(fam, train, valid, "iwae", 2, steps=steps,
                          batch_size=batch_size, seed=5)
        assert not res.diverged and len(fam.batches) == steps + 1
        draws = {}
        for step, batch in enumerate(fam.batches):
            for i, row in enumerate(batch):
                epoch, image = divmod(step * batch_size + i, n)
                if epoch not in draws:
                    draws[epoch] = dynamic_binarize(train, 5, epoch)
                assert np.array_equal(row, draws[epoch][image]), (step, i)

    @pytest.mark.parametrize("eval_k", [0, -3])
    def test_eval_k_below_one_is_named(self, eval_k):
        fam, train, valid = tiny_problem()
        with pytest.raises(ValueError, match="^eval_k must be positive$"):
            train_model(fam, train, valid, "iwae", 4, steps=10,
                        batch_size=8, eval_k=eval_k, seed=5)

    def test_jackknife_mode_needs_two_samples(self):
        fam, train, valid = tiny_problem()
        for mode in ("jvi1", "jvi1-dreg"):
            with pytest.raises(ValueError, match="k >= 2"):
                train_model(fam, train, valid, mode, 1, steps=10,
                            batch_size=8, seed=5)

    def test_deterministic(self):
        fam, train, valid = tiny_problem()
        a = train_model(fam, train, valid, "iwae-dreg", 4, steps=80,
                        batch_size=8, seed=9)
        b = train_model(fam, train, valid, "iwae-dreg", 4, steps=80,
                        batch_size=8, seed=9)
        assert a.rows == b.rows
        assert np.array_equal(a.params.flat, b.params.flat)

    def test_seed_changes_trajectory(self):
        fam, train, valid = tiny_problem()
        a = train_model(fam, train, valid, "iwae", 4, steps=40,
                        batch_size=8, seed=1)
        b = train_model(fam, train, valid, "iwae", 4, steps=40,
                        batch_size=8, seed=2)
        assert not np.array_equal(a.params.flat, b.params.flat)

    def test_divergence_keeps_last_finite_params(self):
        fam, train, valid = tiny_problem()
        res = train_model(fam, train, valid, "iwae", 4, steps=200,
                          batch_size=8, seed=5, lr=3e3)
        assert res.diverged
        assert res.failed_step >= 1
        assert res.cause == "degenerate weight batch: NaN log-weight"
        assert np.isfinite(res.params.flat).all()

    def test_divergence_names_the_non_finite_value(self, monkeypatch):
        from dreglab import training

        fam, train, valid = tiny_problem()
        theta_rows = training.theta_rows
        monkeypatch.setattr(training, "theta_rows",
                            lambda kind, ctx: theta_rows(kind, ctx) / 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            res = train_model(fam, train, valid, "iwae", 4, steps=10,
                              batch_size=8, seed=5)
        assert res.diverged and res.failed_step == 0 and res.rows == []
        assert res.cause == "non-finite theta gradient"

    def test_traces_are_nonnegative_and_move(self):
        fam, train, valid = tiny_problem()
        res = train_model(fam, train, valid, "iwae", 4, steps=100,
                          batch_size=8, seed=5)
        phi = [r.var_trace_phi for r in res.rows]
        theta = [r.var_trace_theta for r in res.rows]
        assert all(v >= 0.0 for v in phi + theta)
        assert phi[-1] > 0.0 and theta[-1] > 0.0

    def test_validation(self):
        fam, train, valid = tiny_problem()
        with pytest.raises(ValueError, match="unknown training mode"):
            train_model(fam, train, valid, "sgd", 4, steps=10, batch_size=8)
        with pytest.raises(ValueError, match="width"):
            wrong = Vae(latent=2, hidden=4, obs=8)
            train_model(wrong, train, valid, "iwae", 4, steps=10,
                        batch_size=8)
        with pytest.raises(ValueError, match="positive"):
            train_model(fam, train, valid, "iwae", 4, steps=0, batch_size=8)
        with pytest.raises(ValueError, match="Datasets"):
            train_model(fam, train.images, valid, "iwae", 4, steps=10,
                        batch_size=8)
