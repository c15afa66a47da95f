import math

import numpy as np
import pytest

from reference.tape import (
    TapeError,
    TapeGraph,
    TapeScalar,
    finite_diff_check,
    log_sum_exp,
    softplus,
    stop_gradient,
    tape_max,
    tape_sum,
)


def grad_of(build, at):
    """Build a root from fresh inputs at `at` and return (root value, grads list)."""
    g = TapeGraph()
    xs = g.input_vector(at)
    root = build(xs)
    grads = g.backward(root)
    return root.value, [grads[x.idx] for x in xs]


def test_add_values_and_partials():
    v, (da, db) = grad_of(lambda xs: xs[0] + xs[1], [2.0, 3.0])
    assert v == 5.0
    assert da == 1.0 and db == 1.0


def test_lse_equal_logits_is_uniform_softmax():
    v, grads = grad_of(lambda xs: log_sum_exp(xs), [0.0, 0.0])
    assert abs(v - math.log(2.0)) < 1e-15
    assert grads == [0.5, 0.5]


def test_tanh_at_zero():
    v, (d,) = grad_of(lambda xs: xs[0].tanh(), [0.0])
    assert v == 0.0
    assert d == 1.0


def test_square_grad():
    v, (d,) = grad_of(lambda xs: xs[0].square(), [3.0])
    assert v == 9.0
    assert d == 6.0


def test_log_exp_composition_identity():
    v, (d,) = grad_of(lambda xs: xs[0].exp().log(), [1.7])
    assert abs(v - 1.7) < 1e-12
    assert abs(d - 1.0) < 1e-12


def test_stop_gradient_product_rule():
    # d/da [a * stop(a)] = stop(a).value, not 2a
    v, (d,) = grad_of(lambda xs: xs[0] * stop_gradient(xs[0]), [3.0])
    assert v == 9.0
    assert d == 3.0


def test_stop_gradient_forward_transparent():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.standard_normal(2)
        g = TapeGraph()
        x, y = g.input(a), g.input(b)
        plain = ((x * y) + x.tanh()).value
        g2 = TapeGraph()
        x2, y2 = g2.input(a), g2.input(b)
        stopped = ((stop_gradient(x2) * y2) + stop_gradient(x2.tanh())).value
        assert stopped == plain


ALL_UNARY = ["neg", "exp", "tanh", "square"]


def test_all_ops_match_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(100):
        vals = rng.uniform(-2.0, 2.0, size=4)

        def build(xs):
            pieces = [xs[0] + xs[1], xs[0] - xs[3], xs[1] * xs[2]]
            pieces.append(xs[2] / (xs[3].square() + 1.5))
            for kind, x in zip(ALL_UNARY, xs):
                pieces.append(x.graph.record(kind, x))
            pieces.append((xs[0].square() + 0.5).log())
            pieces.append(log_sum_exp(xs))
            pieces.append(tape_max(xs))
            pieces.append(softplus(xs[1]))
            return tape_sum(pieces)

        assert finite_diff_check(build, vals, step=1e-5) < 1e-5


def test_lse_backward_is_probability_vector():
    rng = np.random.default_rng(3)
    for _ in range(50):
        vals = rng.uniform(-30.0, 30.0, size=8)
        _, grads = grad_of(lambda xs: log_sum_exp(xs), vals)
        assert all(gv >= 0.0 for gv in grads)
        assert abs(sum(grads) - 1.0) < 1e-12


def test_lse_max_shift_handles_large_logits():
    v, grads = grad_of(lambda xs: log_sum_exp(xs), [700.0, 690.0])
    assert abs(v - (700.0 + math.log1p(math.exp(-10.0)))) < 1e-12
    assert abs(sum(grads) - 1.0) < 1e-12


def test_unreached_leaf_gets_zero():
    g = TapeGraph()
    x, y = g.input(1.0), g.input(2.0)
    root = x.square()
    grads = g.backward(root)
    assert grads[x.idx] == 2.0
    assert grads[y.idx] == 0.0


def test_record_rejects_cross_graph_operands():
    g1, g2 = TapeGraph(), TapeGraph()
    a, b = g1.input(1.0), g2.input(1.0)
    with pytest.raises(TapeError):
        g1.record("add", a, b)


def test_record_rejects_non_finite_results():
    g = TapeGraph()
    x = g.input(800.0)
    with pytest.raises(TapeError):
        x.exp()  # overflow to inf


def test_log_domain_violation():
    g = TapeGraph()
    x = g.input(-1.0)
    with pytest.raises(TapeError):
        x.log()


def test_div_by_zero():
    g = TapeGraph()
    x = g.input(1.0)
    z = g.constant(0.0)
    with pytest.raises(TapeError):
        g.record("div", x, z)


def test_no_recording_after_backward():
    g = TapeGraph()
    x = g.input(2.0)
    y = x.square()
    g.backward(y)
    with pytest.raises(TapeError):
        x + 1.0


def test_backward_again_with_other_root_ok():
    g = TapeGraph()
    x = g.input(2.0)
    y = x.square()
    z = y * x
    assert g.backward(z)[x.idx] == pytest.approx(12.0)
    assert g.backward(y)[x.idx] == pytest.approx(4.0)


def test_backward_rejects_foreign_root():
    g1, g2 = TapeGraph(), TapeGraph()
    g1.input(1.0)
    r = g2.input(1.0)
    with pytest.raises(TapeError):
        g1.backward(r)


def test_replay_is_bit_deterministic():
    def run():
        g = TapeGraph()
        xs = g.input_vector([0.3, -1.2, 2.5])
        root = tape_sum([log_sum_exp(xs), xs[0] * xs[1], softplus(xs[2])])
        grads = g.backward(root)
        return root.value, tuple(grads[x.idx] for x in xs)

    assert run() == run()


def test_constant_leaves_are_not_reported():
    g = TapeGraph()
    x = g.input(1.0)
    c = g.constant(2.0)
    root = x * c
    grads = g.backward(root)
    assert set(grads) == {x.idx}


def test_finite_diff_check_quadratic():
    err = finite_diff_check(lambda xs: tape_sum([x.square() for x in xs]), [1.0, 2.0], step=1e-5)
    assert err < 1e-6


def test_max_subgradient_picks_first_argmax():
    _, grads = grad_of(lambda xs: tape_max(xs), [2.0, 2.0, 1.0])
    assert grads == [1.0, 0.0, 0.0]


def test_softplus_extremes_stable():
    v, (d,) = grad_of(lambda xs: softplus(xs[0]), [50.0])
    assert abs(v - 50.0) < 1e-12
    assert abs(d - 1.0) < 1e-12
    v, (d,) = grad_of(lambda xs: softplus(xs[0]), [-50.0])
    assert v == pytest.approx(math.exp(-50.0), rel=1e-10)
    assert d == pytest.approx(math.exp(-50.0), rel=1e-10)
