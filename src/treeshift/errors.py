"""Exception hierarchy shared by all treeshift modules."""

from __future__ import annotations


class TreeShiftError(Exception):
    """Base class for all errors raised by this package."""


class MalformedSpec(TreeShiftError):
    """Tree specification is structurally invalid (cycle, orphan, duplicate edge, leaf)."""


class NonpositiveWeight(TreeShiftError):
    """An edge weight is not positive, not finite, or too large or too small to square."""


class UnknownExample(TreeShiftError):
    """Requested example-tree generator does not exist."""


class BadParams(TreeShiftError):
    """Parameters passed to an example generator are out of range."""


class DepthTooLargeForMemory(TreeShiftError):
    """Requested truncation would allocate an unreasonable number of vertices."""


class SupportOverflow(TreeShiftError):
    """Operation would push support beyond the stored truncation depth."""


class NotLeftInvertible(TreeShiftError):
    """Operator is not bounded below on the truncation."""


class DimensionMismatch(TreeShiftError):
    """Symbol or coefficient dimensions are incompatible."""


class NotInCommutant(TreeShiftError):
    """Operator fails to commute with the shift beyond tolerance."""


class OutsideDisc(TreeShiftError):
    """Evaluation point lies outside the estimated disc of analyticity."""


class NotUnimodular(TreeShiftError):
    """Rotation parameter does not lie on the unit circle."""


class NotBalanced(TreeShiftError):
    """Shift norms vary within a generation, so balanced-only machinery does not apply."""


class WrongGeneration(TreeShiftError):
    """Vector is not supported in the single generation the operation requires."""


class Inconsistent(TreeShiftError):
    """Linear system for coefficient inversion has residual above tolerance."""


class PreconditionFailed(TreeShiftError):
    """A documented precondition of the operation does not hold."""


class ConfigError(TreeShiftError):
    """Run configuration is invalid."""


class UnderdeterminedWarning(UserWarning):
    """Coefficient inversion had null directions; the zero extension was returned."""
