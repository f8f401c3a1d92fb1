"""Exact Poincare-disc analysis of a cubic planar family.

Symbolic layers (polynomials, compactification, blow-ups, classification,
oracles) are exact over the rationals; the numerical layer verifies orbit
periodicity and renders portraits.
"""

import importlib

# Each exported name is imported from its module on first access (PEP 562), so a
# process loads only the layers it uses: `discflow decide` never loads the orbit
# engine, the equilibrium scan or the portrait.
_EXPORTS = {
    "poly": ("NotDivisible", "Poly2", "VectorField", "rat"),
    "compactify": ("ChartField", "ChartId", "InfinityReport", "chart_field", "infinite_equilibria",
                   "rescale_infinity_line"),
    "desing": ("BlowupChain", "BlowupStep", "ChainTooDeep", "CharacteristicPoly", "NotEquilibrium",
               "ZeroAlpha", "characteristic_directions", "choose_shear_beta", "run_chain", "shear",
               "time_rescale", "translate", "twist", "vertical_blowup"),
    "classify": ("EquilibriumClass", "NotSemiHyperbolic", "PointType", "classify_from_jacobian",
                 "classify_point", "refine_semihyperbolic"),
    "family": ("CenterReport", "FamilyParams", "GlobalReport", "HypothesesViolated", "NotConserved",
               "build_system", "center_cases", "conserved_quantity", "from_complex", "global_cases",
               "hamiltonian", "normal_form"),
    "equilibria": ("finite_equilibria",),
    "flow": ("GlobalVerdict", "IntegratorConfig", "OrbitVerdict", "StepUnderflow",
             "first_integral_check", "global_center_verdict", "integrate", "orbit_verdict"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
