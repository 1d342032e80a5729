"""holdfix: correct hold-type interpolation distortion with cosine modules.

The package reconstructs band-limited signals from sample-and-hold, linear
or nth-order-hold interpolations by mixing the held signal with a bank of
harmonic cosines and lowpass filtering. Module weights are either the
classical all-ones set, the exact comb set, or least-squares optimal weights
computed from the kernel's replica responses.
"""

from .bench import (
    SweepRow,
    SweepSpec,
    run_module_sweep,
    run_noise_sweep,
    run_trial,
    write_csv,
)
from .kernels import (
    InterpKernel,
    custom_kernel,
    frequency_response,
    interpolate,
    kernel_from_id,
    li_kernel,
    nth_order_hold,
    sh_kernel,
)
from .modular import (
    ModuleCoeffs,
    classical_coeffs,
    comb_coeffs,
    error_metric,
    max_modules,
    module_bank,
    passband_gain,
    reconstruct,
)
from .optimizer import (
    CoeffFileError,
    CoeffSolution,
    DesignSystem,
    assemble_system,
    check_solution_matches,
    load_coeffs,
    solve_coefficients,
    store_coeffs,
)
from .signals import (
    Passband,
    Signal,
    add_noise,
    gen_bandlimited,
    ideal_lowpass,
    sample_train,
    snr_db,
)

__version__ = "0.1.0"
