"""Every numerical cutoff of the package, in one place so modules agree.

All values assume "desk scale": matrices up to roughly 16 x 16 with entries of
order one; "relative" cutoffs multiply a scale floored at 1.  The modules read
these constants directly.  Four parameters still take a tolerance with a
default, because a caller sets them:

- ``rank_tol`` of ``LinearRelation.from_graph_columns`` and
  ``orthonormal_columns``, the path of the CLI's ``--tol-rank`` to the rank
  of input graph columns;
- ``psd_tol`` of ``verify_definitizing``, the path of the CLI's
  ``--tol-psd``;
- ``tol`` of ``DefinitizablePair.resolve``: user labels match at
  ``POINT_MATCH_TOL``.  Every spectral-point decision goes through
  ``SpectrumReport.match`` (``contains`` and ``multiplicity_of`` apply its
  rule to one point in scalar arithmetic), whose ``tol`` has no default; at ``ATOM_MATCH_TOL``
  it decides the atoms of the factor-space measure, assigning each
  eigenvalue of the compressed resolvent to a point of the pair.

The radius of ``rational._cluster_members`` has no default either: polynomial
roots cluster at ``ROOT_CLUSTER_TOL``, pencil eigenvalues at
``SPECTRUM_CLUSTER_TOL``; nor has the cut of ``rational._zero_order``.  q's
zero orders are read from jets, not clusters, and the coefficients a
polynomial is given are kept as they are.
"""

# -- rank and subspaces
RANK_TOL = 1e-10  # relative cut of every rank decision (relations._sv_cutoff), on singular values and eigenvalues
SUBSPACE_EQ_TOL = 1e-8  # subspaces are equal when their projectors differ by less
CONTAINMENT_TOL = 1e-8  # residual threshold for subspace containment
MOEBIUS_DET_TOL = 1e-12  # Möbius matrix singular: |det| <= this * (largest entry)^2

# -- polynomials and rational functions
# Root clustering radius for pole multiplicities and for the cancellation of
# zeros and poles.  Companion roots of an exact double zero already carry
# O(sqrt(eps)) ~ 1.5e-8 error, so the radius must sit well above that;
# multiplicity claims are re-validated against derivative jets afterwards.
ROOT_CLUSTER_TOL = 1e-6
# Only a sum or difference zeroes a coefficient: one below this times the larger
# operand coefficient of its power, so cancellation cannot raise the degree.
# rational._zero_order, the one rule for where a polynomial vanishes, counts the
# leading entries of p(w + rho t) / rho^deg, rho = max(1, |w|), at most this
# times the largest, for q's zero order at w (1.5e-13 and less, 2.9e-5 and more
# at the hard panel's points; err_inconsistency.json, |q(+-i)| ~ 4e-10, needs it
# < 1e-10); for w a pole (den's order positive); for pole clusters that overlap
# in partial fractions (a pole a zero of its cofactor); and for a principal part
# that vanished (a pole a zero of num mod den: num and den not coprime).
COEFF_TRIM_TOL = 1e-12
JET_ZERO_TOL = 1e-9  # the same rule confirms a multiple root, from the jet at its cluster's mean
REALNESS_TOL = 1e-8  # imaginary parts below this (relative) count as real

# -- spectra
SPECTRUM_CLUSTER_TOL = 1e-7  # closer eigenvalues merge into one spectral point
POINT_MATCH_TOL = 1e-7  # a label, pole or base point this close to a computed point is that spectral point
ATOM_MATCH_TOL = 1e-6  # an eigenvalue of the factor-space measure is the pair's point this close
# A regular probe serves as the pencil shift at once when cond(Y - lam0 X)
# is below this; otherwise the best-conditioned regular probe does.
SHIFT_COND = 1e3

# -- Krein structure
# Hermitian residual threshold (relative): a Gram matrix, and X* G Y for the
# graph basis (X; Y) of a self-adjoint relation.  Over every 8th case of the
# planted benchmark pools that residual stays below 5e-15; the rotation of
# the err_not_selfadjoint fixture, on a Hilbert space, reads 1.4.
HERMITIAN_TOL = 1e-8
PSD_TOL = 1e-8  # positive semidefinite: eigenvalues above -PSD_TOL * ||H|| pass
COMMUTANT_TOL = 1e-8  # commutation check threshold (relative)
FACTOR_TOL = 1e-6  # residual of T T^+ = q(A) (relative)
# Residual of the spectral measure (relative): its projectors sum to I and it
# reproduces the resolvent at a probe point.
MEASURE_TOL = 1e-8

# -- the calculus
# Residual of the identities the calculus checks (relative): the decomposition
# reassembles phi, projections are idempotent, and a transported operator
# intertwines T^+.  Also the two residuals of the compressed resolvent X of
# the factor space: invariance, ||M T - T X|| for M the resolvent of A or a
# transported operator, and Hermitian, ||X - X*||, for X = L M T with L the
# exact left inverse of T.  Over all 8192 cases of the planted benchmark
# pools they stay below 1.4e-11 and 6.5e-10 where the factor is right; a factor
# of the wrong rank (critical case 930, uncapped) left invariance at 2.5e-6.
IDENTITY_TOL = 1e-7
# Rounding noise (relative): the interpolation data of a decomposition.
ROUNDOFF_TOL = 1e-12
