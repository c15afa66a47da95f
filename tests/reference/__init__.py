"""The reference route the bulk NumPy code is checked against.

A scalar reverse-mode tape with a first-class stop_gradient (`tape`),
densities on floats or tape nodes (`gaussian`), the model families with
their element-by-element route (`models`), per-sample partials and the
jackknife on the tape (`weights`), stop-gradient surrogates whose tape
gradient is each estimator (`surrogates`), and exact expectations
of rows by Gauss-Hermite quadrature (`quadrature`).  `support` holds the
fixtures and helpers that several test files share.
"""
