"""Simulation and analysis toolkit for CHSH correlation experiments.

Exact two-qubit quantum mechanics, trial generators for quantum,
local-hidden-variable, superdeterministic and nonlocal world models,
CHSH statistics with the classical and quantum bounds, local-polytope
membership, angle optimization, counterfactual replay classification,
and a single-photon absorber-detection interferometer.

The package itself holds only `__version__`: each public name is imported
from the module that defines it (`from bellsim.experiment import
run_chsh_experiment`), so `import bellsim` loads no submodule and a process
pays only for the modules it uses.
"""

__version__ = "0.1.0"
