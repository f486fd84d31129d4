"""Dense solvers for Stein, Lyapunov, Riccati, and related matrix equations.

Basic fixed-point iterations sit next to their doubling variants (squared
Smith, SDA, sign iteration, cyclic reduction), with brute-force oracles for
cross-checking and a CLI harness for generation, solving, verification, and
benchmarking.
"""

from .care import (
    CareProblem,
    SignOptions,
    care_residual,
    care_sda_solve,
    care_to_dare,
    hamiltonian,
    newton_care_solve,
    sign_extract,
    sign_solve,
)
from .dare import (
    DareProblem,
    DareSolution,
    DoublingState,
    build_symplectic,
    dare_fixed_point_solve,
    dare_residual,
    sda_solve,
    wiener_hopf_check,
)
from .errors import (
    InnerSolveFailed,
    InvalidSpec,
    NotConverged,
    OverflowGuard,
    ParseError,
    RankMismatch,
    RegionCountMismatch,
    RiccatiError,
    SingularMatrix,
    SingularShift,
    SingularU1,
    StructureLoss,
)
from .generators import GeneratorSpec, gen_problem
from .io import ProblemFile, load_problem, save_problem, to_problem
from .lyapunov import (
    LowRankFactor,
    LyapunovProblem,
    ShiftSequence,
    adi_solve,
    cayley_to_stein,
    lr_adi_solve,
    lyap_residual,
)
from .nme import (
    CrState,
    NmeProblem,
    SpectralFactorization,
    cyclic_reduction_solve,
    nme_fixed_point_solve,
    nme_residual,
    spectral_factorize,
    uqme_residual,
)
from .reporting import SolveOptions, SolveReport
from .stein import (
    SmithState,
    SteinProblem,
    smith_solve,
    squared_smith_solve,
    stein_residual,
)

__version__ = "0.1.0"
