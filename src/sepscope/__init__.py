"""Separability probabilities of real two-qubit states.

The package has two halves that check each other:

* an analytic half (``sepfun``, ``quadrature``) evaluating the closed-form
  separability functions of the diagonal parameter xi and integrating them
  against the exact xi density to reproduce known rational and
  pi^-2-rational probabilities;
* a sampling half (``sampling``, ``estimator``) drawing random states under
  the Hilbert-Schmidt measure with skippable streams and estimating the
  same probabilities, their absolutely separable counterpart, and the
  separability function itself.

Both stand on ``qstate``, the state algebra: every function there takes a
batch of states, the dense ``partial_transpose`` is the reference, and
``pt_correlations`` is its form in correlation coordinates, the one the
estimators run.

``verify.run_checks`` wires the halves together; the ``sepscope`` console
script exposes everything on the command line.  The building blocks are
imported from their submodules (``sepscope.estimator`` and so on); the
package root holds only ``__version__``.
"""

__version__ = "0.1.0"
