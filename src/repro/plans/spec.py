"""Declarative experiment plans: typed stages compiled to a DAG.

An :class:`ExperimentPlan` is the declarative description of one
complete study — the performance-map sweep of Figures 3-6, a
seed-robustness grid, an ensemble-selection study, the rendered star
charts — as a set of named, typed stages wired by explicit ``needs``
edges.  A plan file (TOML or JSON) is data, not code::

    name = "smoke"
    description = "CI-scale plan"

    [[stages]]
    name = "maps"
    kind = "sweep"
    stream_len = 12000
    detectors = ["stide", "markov"]

    [[stages]]
    name = "charts"
    kind = "render"
    needs = ["maps"]

Compilation (:meth:`ExperimentPlan.toposort`) validates the graph —
unknown stage references and dependency cycles are rejected with a
*named-stage* :class:`~repro.exceptions.PlanError` rather than ever
reaching the executor — and yields a deterministic topological order.

Every stage has a **content fingerprint**
(:meth:`ExperimentPlan.fingerprints`): the sha256 of a canonical
recipe covering the plan schema version, the store schema version,
the stage's own configuration, the fingerprints of its dependencies
(so an upstream change invalidates everything downstream), and the
detector family fingerprints from
:meth:`~repro.detectors.base.AnomalyDetector.family_fingerprint`.
Identical plan → identical
fingerprints, across processes and machines; the fingerprint is what
makes a re-run with unchanged configuration compute nothing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path

from repro.detectors.registry import available_detectors, create_detector
from repro.evaluation.experiment import DEFAULT_DETECTORS
from repro.evaluation.robustness import PAPER_SHAPES
from repro.exceptions import PlanError
from repro.params import PAPER_ALPHABET_SIZE, scaled_params

try:  # Python 3.11+; TOML plans degrade to a clear error on 3.10.
    import tomllib
except ImportError:  # pragma: no cover - exercised on 3.10 only
    tomllib = None  # type: ignore[assignment]

#: Bump when the plan recipe or stage payload layout changes: old
#: fingerprints (and therefore cached stage outputs) are invalidated.
#: v2: the effective training length (REPRO_STREAM_LEN resolution for
#: an unset ``stream_len``) became part of the recipe.
PLAN_SCHEMA_VERSION = 2

#: The stage vocabulary; :func:`stage_from_dict` rejects others.
STAGE_KINDS: tuple[str, ...] = ("sweep", "robustness", "ensemble", "render")


def _require_name(name: object, what: str) -> str:
    if not isinstance(name, str) or not name or "/" in name or name != name.strip():
        raise PlanError(
            f"{what} name must be a non-empty path-safe string, got {name!r}"
        )
    return name


def _int_field(stage: str, data: dict, key: str, default: int | None) -> int | None:
    value = data.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise PlanError(f"stage {stage!r}: {key} must be an integer, got {value!r}")
    return value


def _names_field(
    stage: str, data: dict, key: str, default: tuple[str, ...]
) -> tuple[str, ...]:
    value = data.get(key)
    if value is None:
        return default
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise PlanError(f"stage {stage!r}: {key} must be a list of strings")
    return tuple(value)


def _ints_field(
    stage: str, data: dict, key: str, default: tuple[int, ...] | None
) -> tuple[int, ...] | None:
    value = data.get(key)
    if value is None:
        return default
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, int) and not isinstance(item, bool) for item in value
    ):
        raise PlanError(f"stage {stage!r}: {key} must be a list of integers")
    return tuple(value)


def _check_detectors(stage: str, names: tuple[str, ...]) -> None:
    if not names:
        raise PlanError(f"stage {stage!r}: at least one detector is required")
    unknown = [name for name in names if name not in available_detectors()]
    if unknown:
        raise PlanError(
            f"stage {stage!r}: unknown detectors: {', '.join(unknown)}; "
            f"available: {', '.join(available_detectors())}"
        )


@dataclass(frozen=True)
class SweepStage:
    """One performance-map sweep over the (AS x DW) grid.

    The workhorse stage: builds the corpus from ``(stream_len, seed)``
    exactly as :func:`repro.params.scaled_params` would and charts
    every named detector, through the engine the runner carries.

    Attributes:
        name: stage label, unique within the plan.
        stream_len: training-stream length (``None`` = the
            ``scaled_params`` default, honoring ``REPRO_STREAM_LEN``).
        seed: corpus master seed (``None`` = the paper default).
        detectors: registered detector names to sweep.
        anomaly_sizes: grid rows (``None`` = the paper's 2..9).
        window_sizes: grid columns (``None`` = the paper's 2..15).
        needs: upstream stage names (sweeps are usually roots).
    """

    name: str
    stream_len: int | None = None
    seed: int | None = None
    detectors: tuple[str, ...] = DEFAULT_DETECTORS
    anomaly_sizes: tuple[int, ...] | None = None
    window_sizes: tuple[int, ...] | None = None
    needs: tuple[str, ...] = ()

    kind = "sweep"

    def __post_init__(self) -> None:
        _require_name(self.name, "stage")
        _check_detectors(self.name, self.detectors)
        if self.stream_len is not None and self.stream_len <= 0:
            raise PlanError(
                f"stage {self.name!r}: stream_len must be positive, "
                f"got {self.stream_len}"
            )


@dataclass(frozen=True)
class RobustnessStage:
    """A seed-robustness grid: do the paper's shapes replicate?

    Runs :func:`repro.evaluation.robustness.replicate_shapes` across
    ``seeds``, checking each detector's qualitative map shape
    (:data:`~repro.evaluation.robustness.PAPER_SHAPES`).

    Attributes:
        seeds: corpus seeds to replicate under (at least one).
        stream_len: training-stream length per replication.
        test_stream_len: injected test-stream length per case.
        detectors: subset of the paper-shape detectors to check
            (``None`` = all four figures).
    """

    name: str
    seeds: tuple[int, ...] = (1, 2, 3)
    stream_len: int | None = None
    test_stream_len: int = 1000
    detectors: tuple[str, ...] | None = None
    needs: tuple[str, ...] = ()

    kind = "robustness"

    def __post_init__(self) -> None:
        _require_name(self.name, "stage")
        if not self.seeds:
            raise PlanError(f"stage {self.name!r}: at least one seed is required")
        if self.stream_len is not None and self.stream_len <= 0:
            raise PlanError(
                f"stage {self.name!r}: stream_len must be positive, "
                f"got {self.stream_len}"
            )
        if self.test_stream_len <= 0:
            raise PlanError(
                f"stage {self.name!r}: test_stream_len must be positive, "
                f"got {self.test_stream_len}"
            )
        if self.detectors is not None:
            if not self.detectors:
                raise PlanError(
                    f"stage {self.name!r}: detectors must not be empty; "
                    "omit the key to check every paper-shape detector"
                )
            unknown = [n for n in self.detectors if n not in PAPER_SHAPES]
            if unknown:
                raise PlanError(
                    f"stage {self.name!r}: no paper shape for: "
                    f"{', '.join(unknown)}; available: "
                    f"{', '.join(sorted(PAPER_SHAPES))}"
                )


@dataclass(frozen=True)
class EnsembleStage:
    """An ensemble study over one sweep's maps.

    Computes coverage algebra and a detector-combination
    recommendation (:func:`repro.ensemble.select_detectors`) plus the
    pairwise map-agreement report from the maps of the single sweep
    stage this one ``needs``.

    Attributes:
        size: expected anomaly size for the selection profile
            (``None`` = unknown).
        max_window: largest deployable detector window.
    """

    name: str
    needs: tuple[str, ...] = ()
    size: int | None = None
    max_window: int = 8

    kind = "ensemble"

    def __post_init__(self) -> None:
        _require_name(self.name, "stage")
        if len(self.needs) != 1:
            raise PlanError(
                f"stage {self.name!r}: an ensemble stage needs exactly one "
                f"sweep stage, got needs={list(self.needs)}"
            )
        if self.max_window < 2:
            raise PlanError(
                f"stage {self.name!r}: max_window must be >= 2 (the "
                f"smallest detector window), got {self.max_window}"
            )


@dataclass(frozen=True)
class RenderStage:
    """Star charts + one-line summaries for one sweep's maps."""

    name: str
    needs: tuple[str, ...] = ()

    kind = "render"

    def __post_init__(self) -> None:
        _require_name(self.name, "stage")
        if len(self.needs) != 1:
            raise PlanError(
                f"stage {self.name!r}: a render stage needs exactly one "
                f"sweep stage, got needs={list(self.needs)}"
            )


Stage = SweepStage | RobustnessStage | EnsembleStage | RenderStage

_STAGE_TYPES: dict[str, type] = {
    "sweep": SweepStage,
    "robustness": RobustnessStage,
    "ensemble": EnsembleStage,
    "render": RenderStage,
}


def stage_from_dict(data: dict) -> Stage:
    """Build one typed stage from its plan-file table.

    Raises:
        PlanError: naming the stage, on an unknown kind, an unknown
            key, or a mistyped field.
    """
    if not isinstance(data, dict):
        raise PlanError(f"each stage must be a table/object, got {type(data).__name__}")
    name = _require_name(data.get("name"), "stage")
    kind = data.get("kind")
    if kind not in _STAGE_TYPES:
        raise PlanError(
            f"stage {name!r}: unknown kind {kind!r}; "
            f"expected one of: {', '.join(STAGE_KINDS)}"
        )
    cls = _STAGE_TYPES[kind]
    known = {f.name for f in fields(cls)} | {"kind"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise PlanError(
            f"stage {name!r}: unknown key(s): {', '.join(unknown)}; "
            f"a {kind} stage accepts: {', '.join(sorted(known - {'kind', 'name'}))}"
        )
    needs = _names_field(name, data, "needs", ())
    if kind == "sweep":
        return SweepStage(
            name=name,
            stream_len=_int_field(name, data, "stream_len", None),
            seed=_int_field(name, data, "seed", None),
            detectors=_names_field(name, data, "detectors", DEFAULT_DETECTORS),
            anomaly_sizes=_ints_field(name, data, "anomaly_sizes", None),
            window_sizes=_ints_field(name, data, "window_sizes", None),
            needs=needs,
        )
    if kind == "robustness":
        detectors = (
            _names_field(name, data, "detectors", ())
            if "detectors" in data
            else None
        )
        # Explicit falsy values (seeds = [], test_stream_len = 0) must
        # reach the dataclass validators and fail loudly there — only
        # an *absent* key falls back to its default.
        return RobustnessStage(
            name=name,
            seeds=_ints_field(name, data, "seeds", (1, 2, 3)),
            stream_len=_int_field(name, data, "stream_len", None),
            test_stream_len=_int_field(name, data, "test_stream_len", 1000),
            detectors=detectors,
            needs=needs,
        )
    if kind == "ensemble":
        return EnsembleStage(
            name=name,
            needs=needs,
            size=_int_field(name, data, "size", None),
            max_window=_int_field(name, data, "max_window", 8),
        )
    return RenderStage(name=name, needs=needs)


def _stage_to_dict(stage: Stage) -> dict:
    record: dict[str, object] = {"name": stage.name, "kind": stage.kind}
    for spec_field in fields(stage):
        if spec_field.name == "name":
            continue
        value = getattr(stage, spec_field.name)
        if value is None or value == ():
            continue
        record[spec_field.name] = list(value) if isinstance(value, tuple) else value
    return record


@dataclass(frozen=True)
class ExperimentPlan:
    """One declarative experiment: named typed stages wired by needs.

    Attributes:
        name: plan label (used for run directories and reports).
        stages: the typed stage tuple, in file order.
        description: free-form one-liner shown by ``plan status``.
    """

    name: str
    stages: tuple[Stage, ...]
    description: str = ""

    def __post_init__(self) -> None:
        _require_name(self.name, "plan")
        if not self.stages:
            raise PlanError(f"plan {self.name!r}: at least one stage is required")
        seen: set[str] = set()
        for stage in self.stages:
            if stage.name in seen:
                raise PlanError(
                    f"plan {self.name!r}: duplicate stage name {stage.name!r}"
                )
            seen.add(stage.name)

    def stage(self, name: str) -> Stage:
        """The stage registered under ``name``.

        Raises:
            PlanError: for names not in the plan.
        """
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise PlanError(
            f"plan {self.name!r}: no stage named {name!r}; "
            f"stages: {', '.join(s.name for s in self.stages)}"
        )

    def toposort(self) -> tuple[str, ...]:
        """Compile the stage graph into a deterministic execution order.

        Kahn's algorithm with sorted tie-breaking, so the order is a
        pure function of the plan.  This is the validation gate the
        executor relies on: a stage naming an unknown dependency or a
        dependency cycle raises here, with the offending stage(s)
        named — it can never hang the DAG executor downstream.

        Raises:
            PlanError: on an unknown ``needs`` reference or a cycle.
        """
        known = {stage.name for stage in self.stages}
        for stage in self.stages:
            for need in stage.needs:
                if need not in known:
                    raise PlanError(
                        f"plan {self.name!r}: stage {stage.name!r} needs "
                        f"unknown stage {need!r}; stages: "
                        f"{', '.join(sorted(known))}"
                    )
                if need == stage.name:
                    raise PlanError(
                        f"plan {self.name!r}: stage {stage.name!r} "
                        "depends on itself"
                    )
        remaining = {stage.name: set(stage.needs) for stage in self.stages}
        order: list[str] = []
        while remaining:
            ready = sorted(
                name for name, needs in remaining.items() if not needs
            )
            if not ready:
                cycle = " -> ".join(sorted(remaining))
                raise PlanError(
                    f"plan {self.name!r}: dependency cycle among stages: "
                    f"{cycle}"
                )
            for name in ready:
                del remaining[name]
                order.append(name)
            for needs in remaining.values():
                needs.difference_update(ready)
        return tuple(order)

    def validate(self) -> tuple[str, ...]:
        """Full validation: graph + per-kind dependency typing.

        Returns the topological order on success.

        Raises:
            PlanError: naming the offending stage.
        """
        order = self.toposort()
        for stage in self.stages:
            if stage.kind in ("ensemble", "render"):
                upstream = self.stage(stage.needs[0])
                if upstream.kind != "sweep":
                    raise PlanError(
                        f"plan {self.name!r}: stage {stage.name!r} needs a "
                        f"sweep stage, but {upstream.name!r} is a "
                        f"{upstream.kind} stage"
                    )
        return order

    def fingerprints(self) -> dict[str, str]:
        """Content fingerprint per stage, dependency-chained.

        Stable across processes and machines: the recipe is canonical
        JSON over the stage's configuration (resolved through the
        dataclass fields, not the file text), prefixed with the plan
        and store schema versions, the detector family fingerprints,
        and the fingerprints of every dependency in ``needs`` order.
        The stage *name* is deliberately excluded — renaming a stage
        must not invalidate its cached output.

        Environment-dependent defaults are resolved *into* the recipe:
        a stage with ``stream_len`` unset trains at the length
        :func:`~repro.params.scaled_params` derives from
        ``REPRO_STREAM_LEN``, so that effective length is part of the
        computation's identity — runs under different environments
        must not share a fingerprint (a store hit has to prove this
        exact stage already ran).
        """
        from repro.runtime.store import STORE_SCHEMA_VERSION

        order = self.validate()
        fingerprints: dict[str, str] = {}
        for name in order:
            stage = self.stage(name)
            config = _stage_to_dict(stage)
            config.pop("name")
            config.pop("needs", None)
            if getattr(stage, "stream_len", 0) is None:
                config["stream_len"] = scaled_params().training_length
            detectors = config.get("detectors")
            if detectors:
                config["families"] = [
                    create_detector(
                        detector, 2, PAPER_ALPHABET_SIZE
                    ).family_fingerprint()
                    for detector in detectors
                ]
            recipe = (
                f"repro-plan/{PLAN_SCHEMA_VERSION}\n"
                f"store={STORE_SCHEMA_VERSION}\n"
                f"config={json.dumps(config, sort_keys=True)}\n"
            )
            for index, need in enumerate(stage.needs):
                recipe += f"need[{index}]={fingerprints[need]}\n"
            fingerprints[name] = hashlib.sha256(
                recipe.encode("utf-8")
            ).hexdigest()
        return fingerprints

    def to_dict(self) -> dict:
        """The plan as plain data (the JSON plan-file layout)."""
        record: dict[str, object] = {"name": self.name}
        if self.description:
            record["description"] = self.description
        record["stages"] = [_stage_to_dict(stage) for stage in self.stages]
        return record


def plan_from_dict(data: object) -> ExperimentPlan:
    """Build a validated plan from parsed plan-file data.

    Raises:
        PlanError: on any structural violation, naming the stage.
    """
    if not isinstance(data, dict):
        raise PlanError(f"a plan must be a table/object, got {type(data).__name__}")
    unknown = sorted(set(data) - {"name", "description", "stages"})
    if unknown:
        raise PlanError(f"unknown top-level plan key(s): {', '.join(unknown)}")
    stages = data.get("stages")
    if not isinstance(stages, list) or not stages:
        raise PlanError("a plan requires a non-empty 'stages' list")
    description = data.get("description", "")
    if not isinstance(description, str):
        raise PlanError("plan description must be a string")
    plan = ExperimentPlan(
        name=_require_name(data.get("name"), "plan"),
        description=description,
        stages=tuple(stage_from_dict(stage) for stage in stages),
    )
    plan.validate()
    return plan


def load_plan(path: str | Path) -> ExperimentPlan:
    """Load and validate a ``.toml`` or ``.json`` plan file.

    TOML needs :mod:`tomllib` (Python 3.11+); on 3.10 a TOML plan is
    a clear :class:`PlanError` while JSON plans always work.

    Raises:
        PlanError: on a missing file, a parse error, or an invalid plan.
    """
    source = Path(path)
    if not source.exists():
        raise PlanError(f"plan file not found: {source}")
    text = source.read_text(encoding="utf-8")
    if source.suffix == ".toml":
        if tomllib is None:
            raise PlanError(
                f"{source}: TOML plans require Python 3.11+ (no tomllib); "
                "convert the plan to JSON for older interpreters"
            )
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise PlanError(f"{source}: invalid TOML: {error}") from error
    elif source.suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise PlanError(f"{source}: invalid JSON: {error}") from error
    else:
        raise PlanError(
            f"{source}: unsupported plan extension {source.suffix!r} "
            "(expected .toml or .json)"
        )
    try:
        return plan_from_dict(data)
    except PlanError as error:
        raise PlanError(f"{source}: {error}") from None


def stage_key(fingerprint: str) -> str:
    """ArtifactStore key for one stage's output payload.

    The sha256 of a versioned recipe over the stage's content
    fingerprint, so plan outputs share one store with the other
    artifact kinds without collisions.
    """
    recipe = f"repro-plan-output/{PLAN_SCHEMA_VERSION}\nstage={fingerprint}\n"
    return hashlib.sha256(recipe.encode("utf-8")).hexdigest()
