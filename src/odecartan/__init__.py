"""Exact-arithmetic toolkit for third-order ODEs under fiber-preserving
equivalence: invariant coframe, structure invariants, the associated
split-signature Einstein metric and its curvature, Petrov classification,
and the so(2,2) Cartan connection — everything verified symbolically over
the rationals."""

from .errors import (
    ChartError,
    DegenerateCoframeError,
    DegenerateOdeError,
    ExpressionSyntaxError,
    FamilyRejectionError,
    OdeCartanError,
    PetrovDegeneracyError,
    SingularEvaluationError,
    SingularSubstitutionError,
    StructureConsistencyError,
    SymbolCollisionError,
    UnknownSymbolError,
)
from .expression import Expression
from .parse import parse_expression
from .symbols import (
    BUILT_IN_CHARTS,
    Chart,
    J2_CHART,
    M_ADAPTED_CHART,
    METRIC_CHART,
    P_CHART,
    Sym,
    SymbolTable,
)
from .forms import Coframe, DifferentialForm, change_chart
from .cartan import (
    FamilyData,
    KneInvariants,
    OdeProblem,
    StructureFunctions,
    base_coframe,
    check_einstein_conditions,
    family_detect,
    family_invariants,
    invariant_K,
    invariant_coframe,
    structure_functions,
    tau_basis,
)
from .curvature import (
    CurvatureTensors,
    Metric4,
    curvature_tensors,
    einstein_residual,
    family_metric,
    metric_from_family,
)
from .petrov import PetrovPointResult, classify_at_point, label_rule
from .connection import cartan_connection_report, metric_connection_report
from .report import AnalysisRequest, analyze, emit_report

__all__ = [
    "AnalysisRequest",
    "BUILT_IN_CHARTS",
    "Chart",
    "ChartError",
    "Coframe",
    "CurvatureTensors",
    "DegenerateCoframeError",
    "DegenerateOdeError",
    "DifferentialForm",
    "Expression",
    "ExpressionSyntaxError",
    "FamilyData",
    "FamilyRejectionError",
    "J2_CHART",
    "KneInvariants",
    "METRIC_CHART",
    "M_ADAPTED_CHART",
    "Metric4",
    "OdeCartanError",
    "OdeProblem",
    "P_CHART",
    "PetrovDegeneracyError",
    "PetrovPointResult",
    "SingularEvaluationError",
    "SingularSubstitutionError",
    "StructureConsistencyError",
    "StructureFunctions",
    "Sym",
    "SymbolCollisionError",
    "SymbolTable",
    "UnknownSymbolError",
    "analyze",
    "base_coframe",
    "cartan_connection_report",
    "change_chart",
    "check_einstein_conditions",
    "classify_at_point",
    "curvature_tensors",
    "einstein_residual",
    "emit_report",
    "family_detect",
    "family_invariants",
    "family_metric",
    "invariant_K",
    "invariant_coframe",
    "label_rule",
    "metric_connection_report",
    "metric_from_family",
    "parse_expression",
    "structure_functions",
    "tau_basis",
]
