"""Collision-free motion planning for two robots on a figure-eight track."""

from .errors import CollisionError, ContractError, DomainError
from .geometry import (
    CirclePoint,
    Configuration,
    PhysPath,
    circle_point,
    config_dist,
    configuration,
    dist_gamma,
    parse_position,
)
from .planner import InstructionDomain, Plan, classify_domain, plan, plan_to_json, validate_plan
from .render import RenderSpec, render_svg
from .retraction import retract
from .spine import ChainPoint, chain_point, vertex_point

__version__ = "0.1.0"

__all__ = [
    "CirclePoint",
    "ChainPoint",
    "CollisionError",
    "Configuration",
    "ContractError",
    "DomainError",
    "InstructionDomain",
    "Plan",
    "PhysPath",
    "RenderSpec",
    "chain_point",
    "circle_point",
    "classify_domain",
    "config_dist",
    "configuration",
    "dist_gamma",
    "parse_position",
    "plan",
    "plan_to_json",
    "render_svg",
    "retract",
    "validate_plan",
    "vertex_point",
]
