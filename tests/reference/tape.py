"""Scalar reverse-mode autodiff on a Wengert tape.

The reference route differentiates through a single mechanism: a flat,
append-only list of scalar nodes, each storing its parents and the local
partial derivatives evaluated at record time.  A backward sweep over the
list in reverse order is then exact reverse-mode differentiation.

Two properties matter more than speed here.  First, stop_gradient is a
first-class node: forward-transparent, backward-opaque.  Surrogate
objectives are built by placing these nodes precisely, so the gradient
that falls out of `backward` is the estimator, not an approximation of
it.  Second, log-sum-exp is a primitive with the max-shift built in, so
normalized importance weights are always produced by a stable softmax
and never by exponentiating raw log weights.

Graphs are cheap and disposable: build one per loss evaluation, call
`backward` (any number of roots on the finished graph), throw it away.
Recording after the first backward is an error.
"""

import math

OP_KINDS = frozenset([
    "add", "sub", "mul", "div", "neg", "exp", "log", "tanh", "square",
    "sum", "log-sum-exp", "max", "stop-gradient", "input", "constant",
])


class TapeError(RuntimeError):
    pass


class TapeScalar:
    """Handle to one node of a TapeGraph.

    Supports the usual arithmetic operators; mixing with plain Python
    numbers lifts them to constant leaves on the same graph.
    """

    __slots__ = ("graph", "idx", "value")

    def __init__(self, graph, idx, value):
        self.graph = graph
        self.idx = idx
        self.value = value

    def _lift(self, other):
        if isinstance(other, TapeScalar):
            return other
        return self.graph.constant(float(other))

    def __add__(self, other):
        return self.graph.record("add", self, self._lift(other))

    def __radd__(self, other):
        return self.graph.record("add", self._lift(other), self)

    def __sub__(self, other):
        return self.graph.record("sub", self, self._lift(other))

    def __rsub__(self, other):
        return self.graph.record("sub", self._lift(other), self)

    def __mul__(self, other):
        return self.graph.record("mul", self, self._lift(other))

    def __rmul__(self, other):
        return self.graph.record("mul", self._lift(other), self)

    def __truediv__(self, other):
        return self.graph.record("div", self, self._lift(other))

    def __rtruediv__(self, other):
        return self.graph.record("div", self._lift(other), self)

    def __neg__(self):
        return self.graph.record("neg", self)

    def exp(self):
        return self.graph.record("exp", self)

    def log(self):
        return self.graph.record("log", self)

    def tanh(self):
        return self.graph.record("tanh", self)

    def square(self):
        return self.graph.record("square", self)

    def __repr__(self):
        return f"TapeScalar({self.value!r}, node {self.idx})"


class TapeGraph:
    """Append-only Wengert list.

    Node storage is three parallel lists (value, parent ids, local
    partials); topological order is creation order by construction.
    `inputs` holds the leaf ids that `backward` reports gradients for.
    """

    def __init__(self):
        self.values = []
        self.parents = []
        self.partials = []
        self.inputs = []
        self.finalized = False

    def __len__(self):
        return len(self.values)

    def _append(self, value, parents, partials):
        if self.finalized:
            raise TapeError("graph already consumed by backward; build a new one")
        if not math.isfinite(value):
            raise TapeError(f"non-finite value {value!r} at record time")
        self.values.append(value)
        self.parents.append(parents)
        self.partials.append(partials)
        return TapeScalar(self, len(self.values) - 1, value)

    def input(self, value):
        """Leaf node reported by backward."""
        node = self._append(float(value), (), ())
        self.inputs.append(node.idx)
        return node

    def input_vector(self, values):
        return [self.input(v) for v in values]

    def constant(self, value):
        """Leaf node not reported by backward (grad is discarded)."""
        return self._append(float(value), (), ())

    def record(self, kind, *operands):
        """Apply one op to TapeScalar operands and append the result.

        List-valued ops (sum, log-sum-exp, max) accept a single sequence
        argument or the unpacked scalars.
        """
        if kind not in OP_KINDS:
            raise TapeError(f"unknown op kind {kind!r}")
        if len(operands) == 1 and isinstance(operands[0], (list, tuple)):
            operands = tuple(operands[0])
        for o in operands:
            if not isinstance(o, TapeScalar):
                raise TapeError(f"operand {o!r} is not a TapeScalar")
            if o.graph is not self:
                raise TapeError("operands live on different graphs")
        vals = [o.value for o in operands]
        ids = tuple(o.idx for o in operands)

        if kind == "add":
            a, b = vals
            return self._append(a + b, ids, (1.0, 1.0))
        if kind == "sub":
            a, b = vals
            return self._append(a - b, ids, (1.0, -1.0))
        if kind == "mul":
            a, b = vals
            return self._append(a * b, ids, (b, a))
        if kind == "div":
            a, b = vals
            if b == 0.0:
                raise TapeError("division by zero")
            return self._append(a / b, ids, (1.0 / b, -a / (b * b)))
        if kind == "neg":
            (a,) = vals
            return self._append(-a, ids, (-1.0,))
        if kind == "exp":
            (a,) = vals
            try:
                e = math.exp(a)
            except OverflowError:
                raise TapeError(f"exp overflow at {a!r}") from None
            return self._append(e, ids, (e,))
        if kind == "log":
            (a,) = vals
            if a <= 0.0:
                raise TapeError(f"log of non-positive value {a!r}")
            return self._append(math.log(a), ids, (1.0 / a,))
        if kind == "tanh":
            (a,) = vals
            t = math.tanh(a)
            return self._append(t, ids, (1.0 - t * t,))
        if kind == "square":
            (a,) = vals
            return self._append(a * a, ids, (2.0 * a,))
        if kind == "sum":
            return self._append(math.fsum(vals), ids, (1.0,) * len(vals))
        if kind == "log-sum-exp":
            m = max(vals)
            exps = [math.exp(v - m) for v in vals]
            s = math.fsum(exps)
            # partials are softmax(vals): non-negative, sum to 1
            return self._append(m + math.log(s), ids, tuple(e / s for e in exps))
        if kind == "max":
            m = max(vals)
            k = vals.index(m)  # first argmax takes the subgradient
            return self._append(m, ids, tuple(1.0 if j == k else 0.0 for j in range(len(vals))))
        if kind == "stop-gradient":
            (a,) = vals
            return self._append(a, ids, (0.0,))
        raise TapeError(f"op kind {kind!r} not dispatched")  # pragma: no cover

    def backward(self, root, wrt=None):
        """Reverse sweep from `root`; returns {input node-id: d root / d input}.

        Finalizes the graph: no further recording.  May be called again
        with a different root on the same finished graph (adjoints are
        rebuilt from scratch each call).  `wrt` adds interior nodes whose
        adjoints should be reported alongside the leaves; an interior
        adjoint is the partial of the root through that node's consumers.
        """
        if not isinstance(root, TapeScalar) or root.graph is not self:
            raise TapeError("root is not a node of this graph")
        self.finalized = True
        adj = [0.0] * (root.idx + 1)
        adj[root.idx] = 1.0
        parents = self.parents
        partials = self.partials
        for i in range(root.idx, -1, -1):
            a = adj[i]
            if a == 0.0:
                continue
            for p, d in zip(parents[i], partials[i]):
                if d != 0.0:
                    adj[p] += a * d
        n = len(adj)
        out = {i: (adj[i] if i < n else 0.0) for i in self.inputs}
        if wrt is not None:
            for node in wrt:
                if node.graph is not self:
                    raise TapeError("wrt node is not on this graph")
                out[node.idx] = adj[node.idx] if node.idx < n else 0.0
        return out


def stop_gradient(x):
    """Identity forward, zero partial backward."""
    return x.graph.record("stop-gradient", x)


def tape_sum(xs):
    xs = list(xs)
    if not xs:
        raise TapeError("sum of no operands")
    return xs[0].graph.record("sum", *xs)


def log_sum_exp(xs):
    xs = list(xs)
    if not xs:
        raise TapeError("log-sum-exp of no operands")
    return xs[0].graph.record("log-sum-exp", *xs)


def tape_max(xs):
    xs = list(xs)
    if not xs:
        raise TapeError("max of no operands")
    return xs[0].graph.record("max", *xs)


def softplus(x):
    """log(1 + exp(x)) without overflow, composed from tape primitives.

    max(x, 0) + log(1 + exp(-|x|)); the exp argument is always <= 0.
    Also accepts plain floats so model code stays generic.
    """
    if not isinstance(x, TapeScalar):
        x = float(x)
        return max(x, 0.0) + math.log1p(math.exp(-abs(x)))
    zero = x.graph.constant(0.0)
    hinge = tape_max([x, zero])
    neg_abs = -tape_max([x, -x])
    return hinge + (neg_abs.exp() + 1.0).log()


def finite_diff_check(f, at, step=1e-5):
    """Max relative error of backward() against central differences.

    `f` maps a list of TapeScalar inputs (fresh graph each call) to a
    scalar root.  Returns max_j |analytic_j - central_j| / (|analytic_j| + 1e-8).
    """
    at = [float(v) for v in at]
    if step <= 0.0:
        raise ValueError("step must be positive")

    def value_at(vals):
        g = TapeGraph()
        out = f(g.input_vector(vals))
        v = out.value if isinstance(out, TapeScalar) else float(out)
        if not math.isfinite(v):
            raise TapeError("objective non-finite at finite-difference probe")
        return v

    g = TapeGraph()
    xs = g.input_vector(at)
    root = f(xs)
    grad = g.backward(root)
    worst = 0.0
    for j in range(len(at)):
        hi = list(at)
        lo = list(at)
        hi[j] += step
        lo[j] -= step
        central = (value_at(hi) - value_at(lo)) / (2.0 * step)
        analytic = grad[xs[j].idx]
        err = abs(analytic - central) / (abs(analytic) + 1e-8)
        worst = max(worst, err)
    return worst
