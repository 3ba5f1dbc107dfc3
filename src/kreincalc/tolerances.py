"""Every numerical cutoff of the package, in one place so modules agree.

All values assume "desk scale": matrices up to roughly 16 x 16 with entries of
order one; "relative" cutoffs multiply a scale floored at 1.  The modules read
these constants directly.  Five parameters still take a tolerance with a
default, because a caller sets them:

- ``rank_tol`` of ``LinearRelation.from_graph_columns``,
  ``Subspace.from_spanning`` and ``orthonormal_columns``, the path of the
  CLI's ``--tol-rank`` to the rank of input graph columns;
- ``psd_tol`` of ``verify_definitizing``, the path of the CLI's
  ``--tol-psd``;
- ``tol`` of ``DefinitizablePair.resolve``: user labels match at
  ``POINT_MATCH_TOL``.  Every spectral-point decision goes through
  ``SpectrumReport.match``, whose ``tol`` has no default; at
  ``ATOM_MATCH_TOL`` it decides the atoms of the factor-space measure,
  assigning each eigenvalue of the compressed resolvent to a point of the
  pair.

The radius of ``rational.cluster_values`` has no default either: polynomial
roots cluster at ``ROOT_CLUSTER_TOL``, pencil eigenvalues at
``SPECTRUM_CLUSTER_TOL``.
"""

# -- rank and subspaces
RANK_TOL = 1e-10  # relative singular-value threshold for rank decisions
SUBSPACE_EQ_TOL = 1e-8  # subspaces are equal when their projectors differ by less
CONTAINMENT_TOL = 1e-8  # residual threshold for subspace containment
MOEBIUS_DET_TOL = 1e-12  # Möbius matrix singular: |det| <= this * (largest entry)^2

# -- polynomials and rational functions
# Root clustering radius for multiplicity assignment.  Companion roots of an
# exact double zero already carry O(sqrt(eps)) ~ 1.5e-8 error, so the radius
# must sit well above that; multiplicity claims are re-validated against
# derivative jets afterwards.
ROOT_CLUSTER_TOL = 1e-6
# Polynomial coefficients below this times the largest are zeroed, never the
# leading one; a sum or difference zeroes those below this times the larger
# operand coefficient of their power, so cancellation cannot raise the degree.
COEFF_TRIM_TOL = 1e-12
# Leading principal-part coefficients below this (relative) count as zero:
# numerator and denominator were not coprime after normalization.
PRINCIPAL_PART_TOL = 1e-12
# Jet entries below this (relative) vanish: the derivative jet confirming a
# multiple root.
JET_ZERO_TOL = 1e-9
POLE_SEPARATION_TOL = 1e-13  # partial fractions: other pole clusters vanish at a pole
REALNESS_TOL = 1e-8  # imaginary parts below this (relative) count as real

# -- spectra
# resolvent set: farther than this from the spectrum; also for a base point mu
RESOLVENT_DIST_TOL = 1e-7
SPECTRUM_CLUSTER_TOL = 1e-7  # closer eigenvalues merge into one spectral point
POINT_MATCH_TOL = 1e-7  # user spectral labels match computed points at this distance
ATOM_MATCH_TOL = 1e-6  # an eigenvalue of the factor-space measure is the pair's point this close
INF_EIGENVALUE_TOL = 1e-10  # pencil eigenvalue nu of M^{-1} X is infinite (relative)
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
PSD_CUTOFF = 1e-10  # eigenvalues of G q(A) below this * ||H|| are exact zeros
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
# pools they stay below 1.4e-11 and 6.5e-10 where the factor is right; the
# factor of the wrong rank that critical case 930 gets leaves the invariance
# residual at 2.5e-6.
IDENTITY_TOL = 1e-7
# Rounding noise (relative): the interpolation data of a decomposition.
ROUNDOFF_TOL = 1e-12
