"""Dense solvers for Stein, Lyapunov, Riccati, and related matrix equations.

Basic fixed-point iterations sit next to their doubling variants (squared
Smith, SDA, sign iteration, cyclic reduction), with brute-force oracles for
cross-checking and a CLI harness for generation, solving, verification, and
benchmarking.

Every name in `__all__` is the object of the module that defines it, and
that module is imported the first time the name is read (PEP 562), so
`import riccati` loads no solver module and a command of the CLI loads only
the modules it reaches.
"""

import importlib

# the public names of each module, as the package exports them
_NAMES = {
    "care": (
        "CareProblem",
        "SignOptions",
        "care_residual",
        "care_sda_solve",
        "care_to_dare",
        "hamiltonian",
        "newton_care_solve",
        "sign_extract",
        "sign_solve",
    ),
    "dare": (
        "DareProblem",
        "DareSolution",
        "DoublingState",
        "build_symplectic",
        "dare_fixed_point_solve",
        "dare_residual",
        "sda_solve",
        "wiener_hopf_check",
    ),
    "errors": (
        "InnerSolveFailed",
        "InvalidSpec",
        "NotConverged",
        "OverflowGuard",
        "ParseError",
        "RankMismatch",
        "RegionCountMismatch",
        "RiccatiError",
        "SingularMatrix",
        "SingularShift",
        "SingularU1",
        "StructureLoss",
    ),
    "generators": ("GeneratorSpec", "gen_problem"),
    "io": ("ProblemFile", "load_problem", "save_problem", "to_problem"),
    "lyapunov": (
        "LowRankFactor",
        "LyapunovProblem",
        "ShiftSequence",
        "adi_solve",
        "cayley_to_stein",
        "lr_adi_solve",
        "lyap_residual",
    ),
    "nme": (
        "CrState",
        "NmeProblem",
        "SpectralFactorization",
        "cyclic_reduction_solve",
        "nme_fixed_point_solve",
        "nme_residual",
        "spectral_factorize",
        "uqme_residual",
    ),
    "reporting": ("SolveOptions", "SolveReport"),
    "stein": ("SmithState", "SteinProblem", "smith_solve", "squared_smith_solve", "stein_residual"),
}
# public name -> the module that defines it
_EXPORTS = {name: module for module, names in _NAMES.items() for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    """The exported `name`, read from its module on first access and kept."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
