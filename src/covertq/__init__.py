"""Covert qubit communication over noisy channels: exact small-system analysis.

Subpackage layout:

- ``linops``    dense linear algebra in float64 or complex128 (tensor
  powers, trace norms), the dense-size cap, and the validated density
  operator type
- ``channels``  Kraus-form channels, Choi matrices, complementary channels,
  standard builders, channel spec file I/O, and the warden-side model
- ``twirl``     qubit-subspace projection statistics, Pauli twirling of the
  conditional channel, and the combined Pauli error vector
- ``covert``    divergences (relative entropy, chi-square), the support
  test, covert constant and budgeted density
- ``sparse``    sparse-signaling weight sets, exact tail probabilities,
  exact warden states at small n, and the divergence decomposition report
- ``rates``     hashing and distillation rates, throughput lower bounds
- ``detect``    exact hypothesis-test evaluation
- ``cli``       command-line front end (report, srl-curve, detect-sim,
  twirl-check)
"""

__version__ = "0.1.0"
