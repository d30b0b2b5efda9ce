"""Contract of the package's value types: immutable, hashable, picklable
tuples whose repr and checks do not depend on how they are built.  Most
check themselves as they are built; PathSegment and PhysPath are plain
records, checked by certify_path and the exact separation (verify._certified)."""

import pickle
from pathlib import Path

import pytest

from fig8plan.errors import CollisionError, ContractError, DomainError
from fig8plan.geometry import ChartLeg, CirclePoint, Configuration, PathSegment, PhysPath, certify_path
from fig8plan.planner import InstructionDomain, Plan
from fig8plan.render import RenderSpec
from fig8plan.retraction import RetractResult
from fig8plan.spine import ChainPoint
from fig8plan.verify import SuiteReport, _certified

POINT = "CirclePoint(circle='A', s=0.3)"
CONFIG = f"Configuration(p1={POINT}, p2=CirclePoint(circle='B', s=0.7))"
SEGMENT = "PathSegment(t0=0.0, t1=1.0, circle1='A', a0=0.3, a1=0.3, circle2='B', b0=0.7, b1=0.7)"
PATH = f"PhysPath(segments=({SEGMENT},))"
LEG = "ChartLeg(circle1='A', a0=0.3, a1=0.5, circle2='B', b0=0.7, b1=0.7)"
CHAIN_POINT = "ChainPoint(circle='V1', theta=0.7)"
SPINE_LEG = "ChartLeg(circle1='A', a0=0.1, a1=0.2, circle2='A', b0=0.6, b1=0.7)"


def _config():
    return Configuration(CirclePoint("A", 0.3), CirclePoint("B", 0.7))


def _path():
    return PhysPath((PathSegment(0.0, 1.0, "A", 0.3, 0.3, "B", 0.7, 0.7),))


# (factory building a fresh instance, its golden repr), one per value type
CASES = [
    (lambda: CirclePoint("A", 0.3), POINT),
    (_config, CONFIG),
    (lambda: PathSegment(0.0, 1.0, "A", 0.3, 0.3, "B", 0.7, 0.7), SEGMENT),
    (_path, PATH),
    (lambda: ChartLeg("A", 0.3, 0.5, "B", 0.7, 0.7), LEG),
    (lambda: ChainPoint("V1", 0.7), CHAIN_POINT),
    (
        lambda: RetractResult(ChainPoint("V1", 0.7), 0.5, ChartLeg("A", 0.3, 0.5, "B", 0.7, 0.7)),
        f"RetractResult(point={CHAIN_POINT}, scale=0.5, leg={LEG})",
    ),
    (
        lambda: Plan(
            start=_config(), goal=_config(), domain=InstructionDomain.U1,
            chain_start=ChainPoint("V1", 0.7), chain_goal=ChainPoint("V1", 0.7),
            steps=(ChartLeg("A", 0.1, 0.2, "A", 0.6, 0.7),), hop_count=1, path=_path(),
            spine_interval=(0.0, 1.0), trace_in=(), trace_out=(ChartLeg("A", 0.3, 0.5, "B", 0.7, 0.7),),
        ),
        f"Plan(start={CONFIG}, goal={CONFIG}, domain=<InstructionDomain.U1: 1>,"
        f" chain_start={CHAIN_POINT}, chain_goal={CHAIN_POINT}, steps=({SPINE_LEG},), hop_count=1,"
        f" path={PATH}, spine_interval=(0.0, 1.0), trace_in=(), trace_out=({LEG},))",
    ),
    (lambda: RenderSpec(), "RenderSpec(size=720.0)"),
    (
        lambda: SuiteReport("partition", 9, 500, True, "ok", 1.5),
        "SuiteReport(suite='partition', seed=9, n=500, passed=True, witness='ok', elapsed_ms=1.5)",
    ),
]
IDS = [golden.partition("(")[0] for _, golden in CASES]


@pytest.mark.parametrize("make, golden", CASES, ids=IDS)
def test_repr_is_golden(make, golden):
    assert repr(make()) == golden


@pytest.mark.parametrize("make, golden", CASES, ids=IDS)
def test_instances_are_immutable(make, golden):
    value = make()
    field = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("make, golden", CASES, ids=IDS)
def test_equal_instances_hash_equal(make, golden):
    a, b = make(), make()
    assert a == b and a is not b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("make, golden", CASES, ids=IDS)
def test_pickle_round_trip(make, golden):
    value = make()
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value)
    assert back == value


# (build, the kind of defect, the error raised and its message): a path's
# defect of any kind is a ContractError, raised by certify_path or by the
# exact separation (_certified) on a path built with keywords.
KEYWORD_ROWS = [
    (lambda: CirclePoint(circle="C", s=0.3), DomainError, DomainError, "unknown circle"),
    (lambda: CirclePoint(circle="A", s=1e-13), DomainError, DomainError, "reads as the center"),
    (
        lambda: Configuration(p1=CirclePoint("A", 0.3), p2=CirclePoint("A", 0.3)),
        CollisionError, CollisionError, "robots coincide",
    ),
    (
        lambda: certify_path(PhysPath(segments=(PathSegment(
            t0=0.5, t1=0.5, circle1="A", a0=0.1, a1=0.1, circle2="B", b0=0.2, b1=0.2
        ),))),
        ContractError, ContractError, "times must strictly increase",
    ),
    (
        lambda: _certified(PhysPath(segments=(PathSegment(
            t0=0.0, t1=1.0, circle1="A", a0=0.1, a1=0.3, circle2="A", b0=0.2, b1=0.2
        ),))),
        CollisionError, ContractError, "separation dropped to 0.0",
    ),
    (lambda: certify_path(PhysPath(segments=())), DomainError, ContractError, "times must run to 1"),
    (lambda: ChainPoint(circle="Q", theta=0.1), DomainError, DomainError, "unknown spine circle"),
    (lambda: RenderSpec(size=100.0), DomainError, DomainError, "canvas size"),
]


@pytest.mark.parametrize(
    "build, error, message",
    [(build, error, message) for build, _, error, message in KEYWORD_ROWS],
    # pytest's ids for the build and the kind alone: each row keeps its name
    ids=[f"{build.__name__}-{kind.__name__}" for build, kind, _, _ in KEYWORD_ROWS],
)
def test_keyword_construction_validates(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_source_never_skips_validation():
    # namedtuple's _replace and _make build through tuple.__new__ and so skip
    # the checks in __new__; the package never calls them.
    src = Path(__file__).resolve().parents[1] / "src" / "fig8plan"
    texts = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert [name for name, text in texts.items() if "._replace(" in text or "._make(" in text] == []
