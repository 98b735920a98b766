"""``load_corpus`` against a per-record reference loader, and what it keeps.

``load_corpus`` checks provided vectors a block at a time, as one array, and
falls back to per-record validation to name the first bad line. ``reference_load`` is the
plain loop it replaces: decode a line, build its record, validate it, check
its id, grow the pool. On every corpus the two must return equal corpora or
raise the same ``SchemaError`` text.

A loaded record keeps its vectors as read-only float64 rows of the checked
blocks; saving them writes back the file they came from.
"""
import gc
import json
import math
import os
import threading
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fusepool import corpus as corpus_module
from fusepool.corpus import (
    PROB_SUM_TOL,
    VECTOR_BLOCK,
    Corpus,
    EpisodeRecord,
    SchemaError,
    TaskKind,
    _record_from_json,
    load_corpus,
    save_corpus,
)
from fusepool.synthetic import correlated_pool, separable_confidences

MODELS = ["m0", "m1", "m2"]


def reference_load(path) -> Corpus:
    """One record at a time: each line decoded, built, validated and checked
    for a duplicate id before the next is read."""
    records, model_ids, seen_ids = [], [], set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"line {lineno}: invalid JSON: {exc}") from exc
            try:
                rec = _record_from_json(obj, {})
                rec.validate()
            except SchemaError as exc:
                raise SchemaError(f"line {lineno}: {exc}") from exc
            if rec.id in seen_ids:
                raise SchemaError(f"line {lineno}: record {rec.id}: id: duplicate")
            seen_ids.add(rec.id)
            records.append(rec)
            model_ids += [m for m in rec.model_ids_seen() if m not in model_ids]
    return Corpus(records=records, model_ids=model_ids)


def outcome(load, path):
    try:
        return load(path)
    except SchemaError as exc:
        return f"SchemaError: {exc}"


def base_rows(n_records: int, m: int) -> list[dict]:
    rows = []
    for i in range(n_records):
        vector = [float(c == i % m) for c in range(m)]
        rows.append({
            "id": f"r{i}", "task": "mcq", "prompt": f"q{i}",
            "choices": [f"c{c}" for c in range(m)], "ground_truth": i % m,
            "passes": {f"p{i % 3}": [{"raw_text": "(A)", "parsed": 0, "status": "ok"}]},
            "provided_choice_probs": {model: list(vector) for model in MODELS},
        })
    return rows


ULP = math.ulp(1.0)
BAD_ENTRIES = [True, False, 1, 0, 10**400, math.nan, math.inf, -math.inf, -0.0, "0.5",
               [0.5], None, {"p": 1}]
SUMS = [1 + s * PROB_SUM_TOL + u * ULP for s in (-1, 1) for u in (-1, 0, 1)]

mutations = st.one_of(
    st.tuples(st.just("entry"), st.integers(0, 10**6), st.sampled_from(BAD_ENTRIES)),
    st.tuples(st.just("length"), st.integers(0, 10**6), st.sampled_from([-1, 1])),
    st.tuples(st.just("sum"), st.integers(0, 10**6), st.sampled_from(SUMS)),
    st.tuples(st.just("choices"), st.integers(0, 10**6), st.integers(2, 6)),
    st.tuples(st.just("bad_then_duplicate"), st.integers(0, 10**6), st.sampled_from(BAD_ENTRIES)),
    st.tuples(st.just("vector"), st.integers(0, 10**6), st.sampled_from(["", {}, 0.5, None])),
    st.tuples(st.just("json"), st.integers(0, 10**6), st.just(None)),
)


def one_hot(m: int) -> list[float]:
    return [1.0] + [0.0] * (m - 1)


def mutate(rows: list[dict], mutation) -> list[str]:
    """Apply one mutation to ``rows`` in place; the rows' JSON lines."""
    kind, where, value = mutation
    i, model = where % len(rows), MODELS[where % len(MODELS)]
    row = rows[i]
    vector = row["provided_choice_probs"][model]
    if not (isinstance(vector, list) and vector):  # an earlier mutation replaced it
        vector = row["provided_choice_probs"][model] = one_hot(len(row["choices"]))
    if kind == "entry":
        vector[where % len(vector)] = value
    elif kind == "length":
        if value < 0:
            vector.pop()
        else:
            vector.append(0.0)
    elif kind == "sum":
        vector[:] = [value] + [0.0] * (len(vector) - 1)
    elif kind == "choices":
        row.update(choices=[f"c{c}" for c in range(value)], ground_truth=0,
                   provided_choice_probs={m: one_hot(value) for m in MODELS})
    elif kind == "bad_then_duplicate":
        vector[0] = value
        if i + 1 < len(rows):
            rows[i + 1]["id"] = rows[0]["id"]
    elif kind == "vector":
        row["provided_choice_probs"][model] = value
    lines = [json.dumps(r) for r in rows]
    if kind == "json":
        lines[i] = lines[i][:-1]
    return lines


@settings(max_examples=150, deadline=None)
@given(
    n_records=st.integers(1, 14),
    m=st.integers(2, 5),
    block=st.sampled_from([1, 2, 3, 5, VECTOR_BLOCK]),
    mutations=st.lists(mutations, max_size=3),
)
def test_load_equals_the_reference_loader(tmp_path_factory, n_records, m, block, mutations):
    rows = base_rows(n_records, m)
    lines = [json.dumps(r) for r in rows]
    for mutation in mutations:
        lines = mutate(rows, mutation)
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with mock.patch.object(corpus_module, "VECTOR_BLOCK", block):
        assert outcome(load_corpus, path) == outcome(reference_load, path)


def test_a_bad_vector_opening_a_later_block_is_named_before_a_duplicate_id(tmp_path):
    rows = base_rows(6, 4)
    rows[4]["provided_choice_probs"]["m1"][2] = "0.5"  # line 5 opens the third block of 6
    rows[5]["id"] = "r0"
    path = tmp_path / "c.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with mock.patch.object(corpus_module, "VECTOR_BLOCK", 6):
        with pytest.raises(SchemaError) as err:
            load_corpus(path)
    assert str(err.value) == ("line 5: record r4: provided_choice_probs[m1]: "
                              "must be a list of numbers")


def test_a_bad_vector_is_named_when_the_corpus_comes_through_a_pipe(tmp_path):
    # A pipe can be read once: the line of a record in a failed block must come
    # from that one read.
    rows = base_rows(8, 3)
    rows[5]["provided_choice_probs"]["m0"] = [0.5, 0.5, 0.5]
    fifo = tmp_path / "c.jsonl"
    os.mkfifo(fifo)
    text = "\n" + "".join(json.dumps(r) + "\n" for r in rows)  # record r5 is on line 7
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    try:
        with mock.patch.object(corpus_module, "VECTOR_BLOCK", 6):
            with pytest.raises(SchemaError) as err:
                load_corpus(fifo)
    finally:
        writer.join(timeout=10)
    assert str(err.value) == ("line 7: record r5: provided_choice_probs[m0]: "
                              "sums to 1.500000, expected 1")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("valid", [True, False])
def test_load_restores_the_collector_state(tmp_path, enabled, valid):
    rows = base_rows(5, 3)
    if not valid:
        rows[3]["provided_choice_probs"]["m2"] = [0.5, 0.5, 0.5]
    path = tmp_path / "c.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        if valid:
            load_corpus(path)
        else:
            with pytest.raises(SchemaError, match="line 4"):
                load_corpus(path)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_a_vector_sums_left_to_right_in_float64(tmp_path):
    # 0.999999 is 1.00000000003e-6 short of 1. Twenty entries of 1e-17 each
    # round away when added left to right, but bring the exact sum within 1e-6.
    vector = [0.999999] + [1e-17] * 20
    assert abs(math.fsum(vector) - 1.0) <= PROB_SUM_TOL
    rec = EpisodeRecord(id="r", task=TaskKind.mcq(21), prompt="q", ground_truth=0,
                        choices=[str(c) for c in range(21)],
                        provided_choice_probs={"m": vector})
    message = r"provided_choice_probs\[m\]: sums to 0.999999"
    with pytest.raises(SchemaError, match=message):
        rec.validate()
    path = tmp_path / "c.jsonl"
    save_corpus(Corpus(records=[rec], model_ids=["m"]), path)
    with pytest.raises(SchemaError, match="line 1: record r: " + message):
        load_corpus(path)


@pytest.mark.parametrize("build", [
    lambda: correlated_pool(6, 300, seed=3),  # 1,800 vectors: two blocks
    lambda: separable_confidences(200, seed=1),
], ids=["correlated_pool", "separable_confidences"])
def test_a_saved_corpus_loads_equal_and_saves_back_byte_for_byte(tmp_path, build):
    corpus = build()
    first, again = tmp_path / "first.jsonl", tmp_path / "again.jsonl"
    save_corpus(corpus, first)
    loaded = load_corpus(first)
    assert loaded == corpus
    save_corpus(loaded, again)
    assert again.read_bytes() == first.read_bytes()


def test_an_int_entry_is_loaded_and_saved_as_a_float(tmp_path):
    rec = EpisodeRecord(id="r", task=TaskKind.mcq(3), prompt="q", ground_truth=0,
                        choices=["a", "b", "c"], provided_choice_probs={"m": [1, 0, False]})
    corpus = Corpus(records=[rec], model_ids=["m"])
    first, again = tmp_path / "first.jsonl", tmp_path / "again.jsonl"
    save_corpus(corpus, first)
    assert '"provided_choice_probs": {"m": [1, 0, false]}' in first.read_text()
    loaded = load_corpus(first)
    assert loaded == corpus
    assert loaded.records[0].provided_choice_probs["m"].dtype == "float64"
    save_corpus(loaded, again)
    assert '"provided_choice_probs": {"m": [1.0, 0.0, 0.0]}' in again.read_text()


def test_a_loaded_record_costs_at_most_2500_bytes(tmp_path):
    path = tmp_path / "pool.jsonl"
    save_corpus(correlated_pool(24, 1000, n_clones=12, seed=0), path)
    gc.collect()
    tracemalloc.start()
    try:
        corpus = load_corpus(path)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size / len(corpus) <= 2500, f"{size / len(corpus):.0f} bytes per record"
    vectors = corpus.records[0].provided_choice_probs
    with pytest.raises(ValueError, match="read-only"):
        vectors["clone-0"][0] = 0.5
    with pytest.raises(TypeError):
        vectors["clone-0"] = [1.0, 0.0, 0.0, 0.0]
