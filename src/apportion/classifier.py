"""Certificates for classified matrices.

``classify`` and its one table of rules live in ``rules``, which imports no numpy; this
module re-exports them.  ``request_certificate`` matches the report's rule against the
matrix the caller asked about, reads kappa against that match's constant set, builds with
its builder, places the certificate in the matrix's block order (``constructors._placed``)
and checks it against that matrix.  Orders 2 and 3 are resolved completely up to the open
families.  The admissible-eigenvalue region for order 2 lives in ``region``, which loads no
certificate layer; this module re-exports its names on first access.
"""

from __future__ import annotations

from typing import Optional

from .constructors import ApportionCertificate, _certified, _coerce_spec, _placed
from .core import as_matrix
from .errors import InvalidInputError
from .jordan import build_jordan
from .reports import ClassificationReport, Verdict
# RULES, classify and constant_set are re-exported from the theory layer
from .rules import RULES, MatrixLike, _classify_spec, _RULES_BY_TAG, classify, constant_set
from .spec import JordanSpec

__all__ = [
    "classify",
    "constant_set",
    "request_certificate",
    "RegionSample",
    "admissible_region",
    "region_to_csv",
    "region_to_svg",
]


def request_certificate(input_matrix: MatrixLike, kappa: Optional[float] = None,
                        report: Optional[ClassificationReport] = None
                        ) -> ApportionCertificate:
    """Build a certificate for an Apportionable input at ``kappa``.

    ``kappa`` is read against the constant set of the report's rule matched on the input,
    the matrix being built, and defaults to a deterministic member of it.  Raises
    InvalidInputError when kappa is not real, the verdict is not Apportionable or the rule
    does not match the input (the certificate is built by that rule, for the shape it
    matches); ConstantNotAchievableError when kappa is outside the (known part of the)
    set; and ConstructionError when the construction leaves the float range.  Raw
    entries must already sit in Jordan-block arrangement (certificates are
    built for the input matrix, in its own block order); conjugated raw input
    is refused since recovering a transforming basis for it is out of scope.
    The certificate is checked once, against the raw entries themselves when
    they are given, else against the Jordan matrix of the spec.
    """
    spec = _coerce_spec(input_matrix)
    report = report or _classify_spec(spec)
    if report.verdict is not Verdict.APPORTIONABLE:
        raise InvalidInputError(
            f"no constructive certificate: verdict is {report.verdict.value}"
        )
    rule = _RULES_BY_TAG.get(report.theorem_tag)
    found = None if rule is None else rule.match(spec)
    if found is None or found[2] is None:
        raise InvalidInputError(
            f"no constructive path for tag {report.theorem_tag!r} on this matrix")
    _, constants, build = found
    A = build_jordan(spec) if isinstance(input_matrix, JordanSpec) else as_matrix(input_matrix)
    return _certified(lambda k: _placed(*build(k), spec), A,
                      constants.smallest_member() if kappa is None else kappa, constants)


#: the region names, re-exported from ``region`` on first access (PEP 562), so a
#: certificate call does not load the region module
_REGION_NAMES = ("DEGENERATE_ATOL", "MAX_REGION_RESOLUTION", "RegionSample", "admissible_region",
                 "region_to_csv", "region_to_svg")


def __getattr__(name):
    if name not in _REGION_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import region

    return getattr(region, name)
