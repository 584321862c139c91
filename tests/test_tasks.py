from __future__ import annotations

import random

import pytest

from kgslice.errors import KgsliceError, MissingTimeValue, NotNodeClassification
from kgslice.tasks import (
    EmptyTargetSetWarning,
    SmallLabelWarning,
    SplitSpec,
    TaskSpec,
    build_labels,
    make_splits,
    parse_time_value,
    read_config,
    resolve_targets,
    split_from_config,
    task_from_config,
)

from conftest import EX, iri, make_kg, nt, random_kg_lines


def nc_task(kg, type_name="T", label_pred="hasLabel", top_n=None):
    return TaskSpec(
        kind="nc",
        target_type=kg.type_id(f"{EX}{type_name}"),
        target_predicate=kg.predicate_id(f"{EX}{label_pred}"),
        top_n_labels=top_n,
    )


def test_taskspec_validation(rng):
    kg = make_kg([nt("a", "a", "T")])
    with pytest.raises(KgsliceError):
        TaskSpec(kind="nc", target_type=0, target_predicate=None)
    with pytest.raises(KgsliceError):
        TaskSpec(kind="bogus", target_type=0, target_predicate=0)
    for top_n in (0, -1):
        with pytest.raises(KgsliceError, match="top_n_labels must be >= 1"):
            TaskSpec(kind="nc", target_type=0, target_predicate=0, top_n_labels=top_n)
    assert TaskSpec(kind="nc", target_type=0, target_predicate=0, top_n_labels=1).top_n_labels == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_splitspec_rejects_non_finite_ratios(bad):
    with pytest.raises(KgsliceError, match="finite"):
        SplitSpec(ratios=(bad, 0.5, 0.5))


def test_resolve_targets_nc():
    kg = make_kg([nt("a", "a", "T"), nt("b", "a", "T"), nt("c", "a", "U"), nt("a", "hasLabel", "x")])
    task = nc_task(kg)
    assert resolve_targets(kg, task) == sorted(
        [kg.vertex_id(f"{EX}a"), kg.vertex_id(f"{EX}b")]
    )


def test_resolve_targets_lp_single_triple():
    kg = make_kg([nt("a", "a", "T"), nt("b", "a", "T"), nt("a", "linked", "b")])
    task = TaskSpec(
        kind="lp",
        target_type=kg.type_id(f"{EX}T"),
        target_predicate=kg.predicate_id(f"{EX}linked"),
    )
    assert resolve_targets(kg, task) == [kg.vertex_id(f"{EX}a")]


def test_resolve_targets_empty_warns():
    kg = make_kg([nt("a", "a", "T"), nt("b", "p0", "c"), nt("x", "linked", "y")])
    task = TaskSpec(
        kind="lp",
        target_type=kg.type_id(f"{EX}T"),
        target_predicate=kg.predicate_id(f"{EX}linked"),
    )
    with pytest.warns(EmptyTargetSetWarning):
        assert resolve_targets(kg, task) == []


def test_resolve_targets_matches_scan_oracle(rng):
    lines = random_kg_lines(rng, n_vertices=1000, n_types=5, n_triples=2500)
    kg = make_kg(lines)
    task = TaskSpec(
        kind="lp",
        target_type=kg.type_id(f"{EX}T0"),
        target_predicate=kg.predicate_id(f"{EX}p0"),
    )
    expected = sorted(
        {
            s
            for s, p, o in kg.triples
            if kg.predicate_iri(p) == f"{EX}p0"
            and kg.type_id(f"{EX}T0") in kg.type_of.get(s, ())
        }
    )
    assert resolve_targets(kg, task) == expected


def test_build_labels_single_label():
    kg = make_kg([nt("a", "a", "T"), nt("a", "hasLabel", "L")])
    lm = build_labels(kg, nc_task(kg))
    a = kg.vertex_id(f"{EX}a")
    assert lm.labels[a] == 0
    assert lm.label_terms == [f"{EX}L"]


def test_build_labels_most_frequent_wins():
    lines = [nt("a", "a", "T"), nt("a", "hasLabel", "L1"), nt("a", "hasLabel", "L2")]
    # L1 appears on 10 other vertices, L2 on 3
    for i in range(10):
        lines += [nt(f"x{i}", "a", "T"), nt(f"x{i}", "hasLabel", "L1")]
    for i in range(3):
        lines += [nt(f"y{i}", "a", "T"), nt(f"y{i}", "hasLabel", "L2")]
    kg = make_kg(lines)
    lm = build_labels(kg, nc_task(kg))
    a = kg.vertex_id(f"{EX}a")
    assert lm.label_terms[lm.labels[a]] == f"{EX}L1"


def test_build_labels_tiebreak_lexicographic():
    lines = [
        nt("a", "a", "T"),
        nt("a", "hasLabel", "Lb"),
        nt("a", "hasLabel", "La"),
    ]
    kg = make_kg(lines)
    lm = build_labels(kg, nc_task(kg))
    a = kg.vertex_id(f"{EX}a")
    assert lm.label_terms[lm.labels[a]] == f"{EX}La"


def test_build_labels_topn_exclusion_matches_recount(rng):
    # Zipf-ish label distribution over 500 labeled vertices
    lines = []
    n_labels = 20
    weights = [1.0 / (k + 1) for k in range(n_labels)]
    for i in range(500):
        label = rng.choices(range(n_labels), weights=weights)[0]
        lines.append(nt(f"v{i}", "a", "T"))
        lines.append(nt(f"v{i}", "hasLabel", f"L{label:02d}"))
    kg = make_kg(lines)
    lm = build_labels(kg, nc_task(kg, top_n=5))

    # independent recount from raw triples
    from collections import Counter

    label_of = {}
    freq = Counter()
    for s, p, o in kg.triples:
        if kg.predicate_iri(p) == f"{EX}hasLabel":
            label_of[s] = kg.lexical(o)  # single label per vertex here
            freq[kg.lexical(o)] += 1
    top5 = {l for l, _ in sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:5]}
    expected_excluded = sorted(v for v, l in label_of.items() if l not in top5)
    assert lm.excluded == expected_excluded
    assert len(lm.labels) + len(lm.excluded) == len(label_of)
    assert set(lm.label_terms) == top5


def test_build_labels_rejects_lp():
    kg = make_kg([nt("a", "a", "T"), nt("a", "linked", "b")])
    task = TaskSpec(
        kind="lp",
        target_type=kg.type_id(f"{EX}T"),
        target_predicate=kg.predicate_id(f"{EX}linked"),
    )
    with pytest.raises(NotNodeClassification):
        build_labels(kg, task)


def test_build_labels_invariant_to_input_order(rng):
    lines = []
    for i in range(60):
        lines.append(nt(f"v{i}", "a", "T"))
        lines.append(nt(f"v{i}", "hasLabel", f"L{rng.randrange(4)}"))
        if rng.random() < 0.3:
            lines.append(nt(f"v{i}", "hasLabel", f"L{rng.randrange(4)}"))
    kg1 = make_kg(lines)
    shuffled = lines[:]
    rng.shuffle(shuffled)
    kg2 = make_kg(shuffled)
    lm1 = build_labels(kg1, nc_task(kg1))
    lm2 = build_labels(kg2, nc_task(kg2))
    by_iri_1 = {kg1.lexical(v): lm1.label_terms[l] for v, l in lm1.labels.items()}
    by_iri_2 = {kg2.lexical(v): lm2.label_terms[l] for v, l in lm2.labels.items()}
    assert by_iri_1 == by_iri_2


def test_splits_exact_division():
    lines = []
    for i in range(10):
        lines.append(nt(f"v{i}", "a", "T"))
        lines.append(nt(f"v{i}", "hasLabel", "L"))
    kg = make_kg(lines)
    lm = build_labels(kg, nc_task(kg))
    targets = resolve_targets(kg, nc_task(kg))
    assignment = make_splits(targets, lm, kg, SplitSpec(seed=7))
    from collections import Counter

    sizes = Counter(assignment.values())
    assert sizes == {"train": 8, "valid": 1, "test": 1}


def test_time_split_semantics():
    lines = []
    years = {"v0": 2017, "v1": 2018, "v2": 2018, "v3": 2019, "v4": 2020, "v5": 2021}
    for name, year in years.items():
        lines.append(nt(name, "a", "T"))
        lines.append(f'{iri(name)} {iri("year")} "{year}" .')
    kg = make_kg(lines)
    split = SplitSpec(
        schema="time",
        time_predicate=kg.predicate_id(f"{EX}year"),
        train_cut="2018",
        valid_cut="2019",
    )
    targets = [kg.vertex_id(f"{EX}{n}") for n in years]
    assignment = make_splits(targets, None, kg, split)
    got = {kg.lexical(v).rsplit("/", 1)[-1]: s for v, s in assignment.items()}
    assert got == {
        "v0": "train",
        "v1": "train",
        "v2": "train",
        "v3": "valid",
        "v4": "test",
        "v5": "test",
    }


def test_time_split_missing_value():
    kg = make_kg([nt("a", "a", "T"), nt("a", "p0", "b")])
    split = SplitSpec(
        schema="time",
        time_predicate=kg.predicate_id(f"{EX}p0"),
        train_cut="2018",
        valid_cut="2019",
    )
    b = kg.vertex_id(f"{EX}b")
    with pytest.raises(MissingTimeValue):
        make_splits([b], None, kg, split)


def test_stratified_split_ratios_and_determinism(rng):
    lines = []
    for i in range(300):
        label = i % 3
        lines.append(nt(f"v{i}", "a", "T"))
        lines.append(nt(f"v{i}", "hasLabel", f"L{label}"))
    kg = make_kg(lines)
    task = nc_task(kg)
    lm = build_labels(kg, task)
    targets = resolve_targets(kg, task)
    a1 = make_splits(targets, lm, kg, SplitSpec(seed=42))
    a2 = make_splits(targets, lm, kg, SplitSpec(seed=42))
    assert a1 == a2
    a3 = make_splits(targets, lm, kg, SplitSpec(seed=43))
    assert a3 != a1

    # per-label recount: 100 vertices per label -> exactly 80/10/10
    from collections import Counter

    for label_id in range(3):
        members = [v for v in targets if lm.labels[v] == label_id]
        sizes = Counter(a1[v] for v in members)
        assert sizes == {"train": 80, "valid": 10, "test": 10}

    # partition: disjoint and exhaustive over labeled targets
    assert set(a1) == set(lm.labels)


def test_stratified_deviation_at_most_one(rng):
    # group sizes that do not divide evenly
    for n in (7, 13, 19, 29, 101):
        lines = []
        for i in range(n):
            lines.append(nt(f"v{i}", "a", "T"))
            lines.append(nt(f"v{i}", "hasLabel", "L"))
        kg = make_kg(lines)
        task = nc_task(kg)
        lm = build_labels(kg, task)
        targets = resolve_targets(kg, task)
        assignment = make_splits(targets, lm, kg, SplitSpec(seed=1))
        from collections import Counter

        sizes = Counter(assignment.values())
        for part, ratio in (("train", 0.8), ("valid", 0.1), ("test", 0.1)):
            assert abs(sizes.get(part, 0) - n * ratio) < 1.0 + 1e-9


def test_small_label_goes_to_train():
    lines = [
        nt("a", "a", "T"),
        nt("a", "hasLabel", "L"),
        nt("b", "a", "T"),
        nt("b", "hasLabel", "L"),
    ]
    kg = make_kg(lines)
    task = nc_task(kg)
    lm = build_labels(kg, task)
    targets = resolve_targets(kg, task)
    with pytest.warns(SmallLabelWarning):
        assignment = make_splits(targets, lm, kg, SplitSpec(seed=3))
    assert set(assignment.values()) == {"train"}


def test_parse_time_value():
    assert parse_time_value('"2020"') == 2020
    assert parse_time_value('"2020"^^<http://www.w3.org/2001/XMLSchema#gYear>') == 2020
    assert parse_time_value('"2020-01-15"') == "2020-01-15"
    assert parse_time_value("2019") == 2019


def test_config_round_trip(tmp_path):
    kg = make_kg([nt("a", "a", "T"), nt("a", "hasLabel", "L"), nt("a", "year", '"2020"')])
    cfg_path = tmp_path / "task.cfg"
    cfg_path.write_text(
        "\n".join(
            [
                "# a node classification task",
                "task = nc",
                f"target_type = {EX}T",
                f"target_predicate = {EX}hasLabel",
                "top_n_labels = 5",
                "split = time",
                f"time_predicate = {EX}year",
                "train_cut = 2018",
                "valid_cut = 2019",
            ]
        )
        + "\n"
    )
    cfg = read_config(cfg_path)
    task = task_from_config(kg, cfg)
    assert task.kind == "nc"
    assert task.top_n_labels == 5
    split = split_from_config(kg, cfg)
    assert split.schema == "time"
    assert split.train_cut == "2018"


def test_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("bogus = 1\n")
    with pytest.raises(KgsliceError):
        read_config(p)
