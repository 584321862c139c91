"""GNN task descriptions, target resolution, labels, and splits."""

from __future__ import annotations

import math
import random
import re
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import KgsliceError, MissingTimeValue, NotNodeClassification
from .graph import KnowledgeGraph

NODE_CLASSIFICATION = "nc"
LINK_PREDICTION = "lp"

SPLIT_TIME = "time"
SPLIT_STRATIFIED = "stratified"

TRAIN, VALID, TEST = "train", "valid", "test"


class EmptyTargetSetWarning(UserWarning):
    pass


class SmallLabelWarning(UserWarning):
    """A label with fewer than 3 instances; all of them go to train."""


@dataclass
class TaskSpec:
    kind: str
    target_type: int  # class vertex id
    target_predicate: int | None = None
    object_type: int | None = None  # class vertex id (LP)
    top_n_labels: int | None = None

    def __post_init__(self):
        _check_task(self.kind, self.target_predicate, self.top_n_labels)


def _check_task(kind: str, target_predicate, top_n_labels: int | None) -> None:
    """TaskSpec's rules; none needs a graph, so ``target_predicate`` may be an id or an IRI."""
    if kind not in (NODE_CLASSIFICATION, LINK_PREDICTION):
        raise KgsliceError(f"unknown task kind {kind!r}")
    if kind == NODE_CLASSIFICATION and target_predicate is None:
        raise KgsliceError("node classification requires a label predicate")
    if kind == LINK_PREDICTION and target_predicate is None:
        raise KgsliceError("link prediction requires a target predicate")
    if top_n_labels is not None and top_n_labels < 1:
        raise KgsliceError("top_n_labels must be >= 1")


@dataclass
class SplitSpec:
    schema: str = SPLIT_STRATIFIED
    time_predicate: int | None = None
    train_cut: int | str | None = None
    valid_cut: int | str | None = None
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = 0

    def __post_init__(self):
        if self.schema not in (SPLIT_TIME, SPLIT_STRATIFIED):
            raise KgsliceError(f"unknown split schema {self.schema!r}")
        if self.schema == SPLIT_STRATIFIED:
            positive = all(math.isfinite(r) and r > 0 for r in self.ratios)
            if not positive or abs(sum(self.ratios) - 1.0) > 1e-9:
                raise KgsliceError("split ratios must be finite, positive and sum to 1")
        else:
            if self.time_predicate is None or self.train_cut is None or self.valid_cut is None:
                raise KgsliceError("time split needs a predicate and two cut values")


@dataclass
class LabelMap:
    labels: dict[int, int]  # vertex -> label id
    label_terms: list[str]  # label id -> lexical form
    excluded: list[int] = field(default_factory=list)  # vertices cut by top-N

    def __contains__(self, vertex: int) -> bool:
        return vertex in self.labels

    def __len__(self) -> int:
        return len(self.labels)


def resolve_targets(kg: KnowledgeGraph, task: TaskSpec) -> list[int]:
    """The task's target vertex list, ascending.

    NC: all vertices of the target type. LP: vertices of the target type
    appearing as subject of at least one target-predicate triple. An empty
    result emits EmptyTargetSetWarning; extraction engines treat it as an
    error.
    """
    of_type = kg._instances(task.target_type)
    if task.kind == NODE_CLASSIFICATION:
        targets = of_type.tolist()
    else:
        subjects, _ = kg.predicate_columns(task.target_predicate)
        targets = of_type[np.isin(of_type, subjects)].tolist()
    if not targets:
        warnings.warn("task resolves to an empty target set", EmptyTargetSetWarning)
    return targets


def build_labels(kg: KnowledgeGraph, task: TaskSpec) -> LabelMap:
    """Single-label map for an NC task.

    Multi-labeled vertices keep their globally most frequent label, ties
    broken by the lexicographically smallest label term. With top_n_labels
    set, vertices whose kept label falls outside the top-N frequency
    ranking are excluded.
    """
    if task.kind != NODE_CLASSIFICATION:
        raise NotNodeClassification(task.kind)
    # the label predicate's slice, in (s, o) order, cut to the targets
    subjects, objects = kg.predicate_columns(task.target_predicate)
    keep = np.isin(subjects, resolve_targets(kg, task))
    subjects, objects = subjects[keep].tolist(), objects[keep].tolist()
    pairs: dict[int, list[int]] = {}
    for v, o in zip(subjects, objects):
        pairs.setdefault(v, []).append(o)
    freq: Counter[int] = Counter(objects)

    def rank_key(label_vertex: int):
        return (-freq[label_vertex], kg.lexical(label_vertex))

    kept: dict[int, int] = {}
    for v, candidates in pairs.items():
        kept[v] = min(candidates, key=rank_key)

    excluded: list[int] = []
    if task.top_n_labels is not None:
        top = set(sorted(freq, key=rank_key)[: task.top_n_labels])
        excluded = sorted(v for v, l in kept.items() if l not in top)
        kept = {v: l for v, l in kept.items() if l in top}

    used = sorted(set(kept.values()), key=rank_key)
    ids = {l: i for i, l in enumerate(used)}
    return LabelMap(
        labels={v: ids[l] for v, l in kept.items()},
        label_terms=[kg.lexical(l) for l in used],
        excluded=excluded,
    )


_INT_RE = re.compile(r"-?\d+")


def parse_time_value(lexical: str):
    """Integer when the literal content parses as one, else the string.

    Literal content is the part between the quotes, so datatype and
    language tags do not disturb comparison.
    """
    content = lexical
    if content.startswith('"'):
        content = content[1 : content.rindex('"')]
    if _INT_RE.fullmatch(content):
        return int(content)
    return content


def _compare_key(a, b):
    """Compare two time values; mixed int/str falls back to strings."""
    if isinstance(a, int) and isinstance(b, int):
        return (a > b) - (a < b)
    sa, sb = str(a), str(b)
    return (sa > sb) - (sa < sb)


def _time_values(kg: KnowledgeGraph, time_predicate: int) -> dict[int, list[int]]:
    """Each subject's objects under ``time_predicate``, ascending, from the predicate's slice."""
    values: dict[int, list[int]] = {}
    subjects, objects = kg.predicate_columns(time_predicate)
    for v, o in zip(subjects.tolist(), objects.tolist()):
        values.setdefault(v, []).append(o)
    return values


def _time_of(kg: KnowledgeGraph, v: int, objects: list[int]):
    """The time value of ``v``, whose time objects are ``objects``."""
    values = [parse_time_value(kg.term(o)) for o in objects]
    if not values:
        raise MissingTimeValue(v)
    # earliest value wins when the dump carries several
    best = values[0]
    for val in values[1:]:
        if _compare_key(val, best) < 0:
            best = val
    return best


def _allocate(n: int, ratios: tuple[float, float, float]) -> tuple[int, int, int]:
    """Largest-remainder split sizes; remainder ties favour train first."""
    quotas = [n * r for r in ratios]
    base = [int(q) for q in quotas]
    leftover = n - sum(base)
    order = sorted(range(3), key=lambda i: (-(quotas[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return tuple(base)


def make_splits(
    targets,
    labels: LabelMap | None,
    kg: KnowledgeGraph,
    split: SplitSpec,
) -> dict[int, str]:
    """Assign train/valid/test to each (labeled) target vertex.

    Time schema: value <= train_cut goes to train, <= valid_cut to valid,
    the rest to test. Stratified schema: seeded per-label shuffles with
    largest-remainder rounding; labels with fewer than 3 instances go
    entirely to train (with a warning).
    """
    population = [v for v in targets if labels is None or v in labels]
    assignment: dict[int, str] = {}

    if split.schema == SPLIT_TIME:
        t1 = parse_time_value(str(split.train_cut))
        t2 = parse_time_value(str(split.valid_cut))
        times = _time_values(kg, split.time_predicate)
        for v in population:
            value = _time_of(kg, v, times.get(v, []))
            if _compare_key(value, t1) <= 0:
                assignment[v] = TRAIN
            elif _compare_key(value, t2) <= 0:
                assignment[v] = VALID
            else:
                assignment[v] = TEST
        return assignment

    groups: dict[int, list[int]] = {}
    if labels is None:
        groups[0] = sorted(population)
    else:
        for v in sorted(population):
            groups.setdefault(labels.labels[v], []).append(v)
    rng = random.Random(split.seed)
    for label_id in sorted(groups):
        group = groups[label_id]
        if len(group) < 3:
            warnings.warn(
                f"label {label_id} has {len(group)} instance(s); all assigned to train",
                SmallLabelWarning,
            )
            for v in group:
                assignment[v] = TRAIN
            continue
        rng.shuffle(group)
        n_train, n_valid, _ = _allocate(len(group), split.ratios)
        for i, v in enumerate(group):
            if i < n_train:
                assignment[v] = TRAIN
            elif i < n_train + n_valid:
                assignment[v] = VALID
            else:
                assignment[v] = TEST
    return assignment


# -- config files --------------------------------------------------------

CONFIG_KEYS = (
    "task",
    "target_type",
    "target_predicate",
    "object_type",
    "top_n_labels",
    "split",
    "time_predicate",
    "train_cut",
    "valid_cut",
    "ratios",
    "seed",
)


def read_config(path) -> dict[str, str]:
    """Flat ``key = value`` config file; '#' starts a comment."""
    cfg: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise KgsliceError(f"{path}:{lineno}: expected key = value")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise KgsliceError(f"{path}:{lineno}: unknown key {key!r}")
            cfg[key] = value.strip()
    return cfg


def _config_value(cfg: dict[str, str], key: str, parse, default=None):
    """``parse(cfg[key])``, or ``default`` without the key; a bad value names the key."""
    if key not in cfg:
        return default
    try:
        return parse(cfg[key])
    except ValueError:
        raise KgsliceError(f"config key {key}: bad value {cfg[key]!r}") from None


def config_required(cfg: dict[str, str], key: str) -> str:
    """``cfg[key]``; a missing key raises KgsliceError naming it."""
    if key not in cfg:
        raise KgsliceError(f"config key {key} is required")
    return cfg[key]


def config_task_kind(cfg: dict[str, str]) -> str:
    """The config's task kind, lowercased; node classification without the key."""
    return cfg.get("task", NODE_CLASSIFICATION).lower()


def check_task_config(cfg: dict[str, str]) -> None:
    """Apply :class:`TaskSpec`'s rules to the config's own values, before any graph is read."""
    config_required(cfg, "target_type")
    _check_task(
        config_task_kind(cfg),
        cfg.get("target_predicate"),
        _config_value(cfg, "top_n_labels", int),
    )


def task_from_config(kg: KnowledgeGraph, cfg: dict[str, str]) -> TaskSpec:
    target_type = kg.type_id(config_required(cfg, "target_type"))
    target_predicate = (
        kg.predicate_id(cfg["target_predicate"]) if "target_predicate" in cfg else None
    )
    object_type = kg.type_id(cfg["object_type"]) if "object_type" in cfg else None
    top_n = _config_value(cfg, "top_n_labels", int)
    return TaskSpec(
        kind=config_task_kind(cfg),
        target_type=target_type,
        target_predicate=target_predicate,
        object_type=object_type,
        top_n_labels=top_n,
    )


def split_from_config(kg: KnowledgeGraph, cfg: dict[str, str]) -> SplitSpec:
    schema = cfg.get("split", "random").lower()
    if schema in ("random", SPLIT_STRATIFIED):
        ratios = _config_value(
            cfg, "ratios", lambda t: tuple(map(float, t.split(","))), (0.8, 0.1, 0.1)
        )
        if len(ratios) != 3:
            raise KgsliceError("ratios must be three comma-separated fractions")
        return SplitSpec(
            schema=SPLIT_STRATIFIED,
            ratios=ratios,
            seed=_config_value(cfg, "seed", int, 0),
        )
    if schema == SPLIT_TIME:
        return SplitSpec(
            schema=SPLIT_TIME,
            time_predicate=kg.predicate_id(config_required(cfg, "time_predicate")),
            train_cut=config_required(cfg, "train_cut"),
            valid_cut=config_required(cfg, "valid_cut"),
            seed=_config_value(cfg, "seed", int, 0),
        )
    raise KgsliceError(f"unknown split schema {schema!r}")
