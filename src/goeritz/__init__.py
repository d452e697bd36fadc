"""Genus-2 Goeritz groups of lens spaces.

Primitivity machinery for the rank-2 free group, shell and bridge word
constructions for L(p, q), and finite presentations of the resulting
Goeritz groups in the non-contractible cases.
"""

from __future__ import annotations

from .complexes import (
    SimplicialComplex2,
    Vertex,
    build_bridge_corridor,
    build_principal_complex,
    build_shell_complex,
    build_tree_of_trees_ball,
    export_dot,
    export_json,
    import_json,
)
from .lens import (
    Classification,
    LensInvariants,
    LensSpace,
    S3,
    Sphere,
    division_window,
    invariants,
    lens_report,
    modular_partner,
    pi1_diff,
)
from .obstructions import Obstruction, Rule, certify_nonprimitive
from .presentations import (
    AbelianGroup,
    ConnectedCaseStub,
    GroupPresentation,
    StabilizerKind,
    abelianization,
    goeritz_presentation,
    heegaard_space_report,
    stabilizer_presentation,
)
from .primitivity import (
    PrimitivityVerdict,
    enumerate_primitives,
    is_primitive,
    is_primitive_power,
    oz_form_check,
    power_root,
)
from .shell_bridge import (
    Bridge,
    NotForestError,
    PrincipalVertex,
    Shell,
    bridge_end_homology,
    bridge_report,
    find_bridge,
    principal_vertex,
    shell_words,
    vertex_word,
)
from .verify import CheckResult, run_all
from .words import (
    AbelianPair,
    CyclicWord,
    Word,
    WordParseError,
    cyclic_reduce,
    format_word,
    parse_word,
    reduce_word,
)

__all__ = [
    "AbelianGroup",
    "AbelianPair",
    "Bridge",
    "CheckResult",
    "Classification",
    "ConnectedCaseStub",
    "CyclicWord",
    "GroupPresentation",
    "LensInvariants",
    "LensSpace",
    "NotForestError",
    "Obstruction",
    "PrimitivityVerdict",
    "PrincipalVertex",
    "Rule",
    "S3",
    "Shell",
    "SimplicialComplex2",
    "Sphere",
    "StabilizerKind",
    "Vertex",
    "Word",
    "WordParseError",
    "abelianization",
    "bridge_end_homology",
    "bridge_report",
    "build_bridge_corridor",
    "build_principal_complex",
    "build_shell_complex",
    "build_tree_of_trees_ball",
    "certify_nonprimitive",
    "cyclic_reduce",
    "division_window",
    "enumerate_primitives",
    "export_dot",
    "export_json",
    "find_bridge",
    "format_word",
    "goeritz_presentation",
    "heegaard_space_report",
    "import_json",
    "invariants",
    "is_primitive",
    "is_primitive_power",
    "lens_report",
    "modular_partner",
    "oz_form_check",
    "parse_word",
    "pi1_diff",
    "power_root",
    "principal_vertex",
    "reduce_word",
    "run_all",
    "shell_words",
    "stabilizer_presentation",
    "vertex_word",
]
