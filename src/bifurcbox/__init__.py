"""Branch counting, Morse classification and PDE verification of local
bifurcation at multiple Dirichlet eigenvalues of rectangles and boxes.

``import bifurcbox`` loads none of the submodules: each name of
``__all__`` is imported from its submodule on first access (PEP 562), so
a process loads only the modules it uses, and only ``verify`` loads the
finite-difference verifier, ``pdeverify``.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "BranchPrediction",
    "BranchVerdict",
    "ContinuationRecord",
    "CriticalPoint",
    "DiscreteProblem",
    "DomainSpec",
    "EigenGroup",
    "EigenMode",
    "GammaFamily",
    "QuarticTensor",
    "RectCoefficients",
    "ReducedFunctional",
    "SearchConfig",
    "SearchDiagnostics",
    "VerifyConfig",
    "__version__",
    "brute_force_oracle",
    "build_laplacian",
    "build_quartic_tensor",
    "canonicalize",
    "continuation_run",
    "discrete_morse_index",
    "eigenfunction_eval",
    "enumerate_groups",
    "enumerate_modes",
    "extract_rect_coefficients",
    "find_critical_points",
    "find_critical_points_with_diagnostics",
    "find_group",
    "gamma_family_from_functional",
    "gamma_family_solutions",
    "geometric_schedule",
    "group_spectrum",
    "predict_branches",
    "sine_product_integral",
    "solve_branch",
]

# the submodule of every public name but __version__
_SUBMODULE = {
    **dict.fromkeys((
        "BranchPrediction", "CriticalPoint", "GammaFamily", "SearchConfig",
        "SearchDiagnostics", "VerifyConfig", "brute_force_oracle", "canonicalize",
        "find_critical_points", "find_critical_points_with_diagnostics",
        "gamma_family_from_functional", "gamma_family_solutions", "predict_branches",
    ), "critpoints"),
    **dict.fromkeys((
        "BranchVerdict", "ContinuationRecord", "DiscreteProblem", "build_laplacian",
        "continuation_run", "discrete_morse_index", "geometric_schedule", "solve_branch",
    ), "pdeverify"),
    **dict.fromkeys((
        "QuarticTensor", "RectCoefficients", "ReducedFunctional", "build_quartic_tensor",
        "extract_rect_coefficients", "sine_product_integral",
    ), "reduced"),
    **dict.fromkeys((
        "DomainSpec", "EigenGroup", "EigenMode", "eigenfunction_eval", "enumerate_groups",
        "enumerate_modes", "find_group", "group_spectrum",
    ), "spectrum"),
}


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))
