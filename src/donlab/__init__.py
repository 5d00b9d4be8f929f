"""donlab: a laboratory for branch/trunk operator networks.

Trains inner-product operator models on synthetic PDE/ODE data generated
in-repo, evaluates data-dependent lower bounds on the shared branch/trunk
output dimension q, and runs fixed-ratio q-vs-n scaling experiments.
"""
