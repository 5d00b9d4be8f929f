"""donlab: a laboratory for branch/trunk operator networks.

Trains inner-product operator models on synthetic PDE/ODE data generated
in-repo, evaluates data-dependent lower bounds on the shared branch/trunk
output dimension q, and runs fixed-ratio q-vs-n scaling experiments.
"""

from .bounds import (
    BoundInputs,
    BoundReport,
    FunctionClassSpec,
    alpha_prime,
    hoeffding_mc_check,
    log_covering_number_ball,
    perturbation_bound,
    q_lower_bound_general,
    q_lower_bound_sigmoid,
    verify_cover_bruteforce,
    verify_perturbation,
)
from .datagen import (
    AdrConfig,
    GrfConfig,
    build_adr_dataset,
    build_pendulum_dataset,
    read_dataset_csv,
    solve_adr,
    solve_pendulum,
    write_dataset_csv,
)
from .deeponet import (
    Dataset,
    DeepONetModel,
    don_forward_batch,
    empirical_risk,
    j_upper_bound,
    load_checkpoint,
    loss_grads,
    save_checkpoint,
)
from .errors import (
    ConfigurationError,
    DivergenceError,
    DonlabError,
    FormatError,
    InputError,
    NumericalError,
)
from .nn import (
    AdamState,
    MlpParams,
    MlpSpec,
    adam_init,
    init_mlp,
    param_count,
    param_l2_norm,
    project_to_ball,
)
from .scaling import (
    CellResult,
    ExperimentPlan,
    SuiteResult,
    check_monotonic,
    emit_plot_data,
    make_plan,
    run_cell,
    run_suite,
    size_architecture,
    train_deeponet,
)

__version__ = "0.1.0"
