import numpy as np
import pytest

from scalefit import meta
from scalefit import (
    InsufficientDataError,
    ScaledFamily,
    SubsetSpec,
    ValidationError,
    apply_spec,
    build_target,
    build_train,
    downscale_split,
    final_checkpoints,
    k_largest_runs,
    k_smallest_runs,
    max_param_family,
    max_token_family,
    merge_families,
    select_corpus,
    select_train_target,
)

from scalefit.subsets import run_order

from conftest import make_record, random_family


def records_set(family: ScaledFamily) -> frozenset:
    return frozenset(family.records)


# One-line brute-force oracles over a family's records, kept independent of the implementation.
# Each returns the records in canonical order (by model_id, seed, corpus, tokens_seen), so order is checked as
# well as content.

def ordered(records):
    return sorted(records, key=lambda r: (r.model_id, r.seed, r.loss_corpus or "", r.tokens_seen))


def oracle_max_param(records):
    return ordered(r for r in records if r.num_params == max(s.num_params for s in records))


def oracle_max_token(records, q):
    return ordered(r for r in records if r.tokens_seen >= q * max(s.tokens_seen for s in records))


def oracle_run_order(records):
    runs = {r.run_key for r in records}
    return sorted(runs, key=lambda run: (max(r.num_params for r in records if r.run_key == run), *run))


def oracle_runs(records, runs):
    return ordered(r for r in records if r.run_key in set(runs))


def oracle_final(records):
    # The first record at the maximal tokens_seen of its run, in canonical order.
    return ordered(max((r for r in ordered(records) if r.run_key == run), key=lambda r: r.tokens_seen)
                   for run in {r.run_key for r in records})


def oracle_spec(records, spec):
    if spec.num_models is not None and records:
        records = oracle_runs(records, oracle_run_order(records)[:spec.num_models])
    return ordered(
        r for r in records
        if (spec.train_fraction_max is None or r.tokens_seen <= spec.train_fraction_max * r.total_tokens)
        and (spec.suffix_fraction is None or r.tokens_seen >= (1.0 - spec.suffix_fraction) * r.total_tokens)
        and (spec.cutoff_tokens is None or r.tokens_seen >= spec.cutoff_tokens)
    )


def oracle_train(records, spec):
    return oracle_spec([r for r in records if r.num_params != max(s.num_params for s in records)], spec)


def oracle_flops(records):
    return sum(r.flops if r.flops is not None else 6 * r.num_params * r.tokens_seen
               for r in sorted(oracle_final(records), key=lambda r: r.run_key))


def random_spec(rng, records):
    def maybe(value):
        return value if rng.random() < 0.5 else None

    tokens = sorted(r.tokens_seen for r in records)
    return SubsetSpec(
        num_models=maybe(int(rng.integers(1, 9))),
        train_fraction_max=maybe(float(rng.uniform(0.05, 1.0))),
        suffix_fraction=maybe(float(rng.uniform(0.05, 1.0))),
        cutoff_tokens=maybe(tokens[int(rng.integers(0, len(tokens)))]),
    )


def sized_family(sizes, checkpoints=4, family_id="fam"):
    records = []
    for i, size in enumerate(sizes):
        total = 10**10
        for k in range(1, checkpoints + 1):
            records.append(
                make_record(
                    family_id=family_id,
                    model_id=f"{family_id}-m{i}",
                    num_params=size,
                    tokens_seen=k * total // checkpoints,
                    total_tokens=total,
                    loss=5.0 - 0.1 * k - 0.05 * i,
                )
            )
    return ScaledFamily.from_records(family_id, records)


def test_max_param_trivial_filter():
    fam = sized_family([70_000_000, 160_000_000, 410_000_000])
    out = max_param_family(fam)
    assert {r.num_params for r in out.records} == {410_000_000}
    assert len(out.records) == 4


def test_max_param_degenerate_all_equal():
    records = [
        make_record(model_id=f"fam-m{i}", num_params=10**8, tokens_seen=(i + 1) * 10**8)
        for i in range(3)
    ]
    fam = ScaledFamily.from_records("fam", records)
    assert records_set(max_param_family(fam)) == records_set(fam)


def test_max_param_empty_family_errors():
    with pytest.raises(InsufficientDataError):
        max_param_family(ScaledFamily.from_records("e", ()))


def test_max_token_boundaries():
    fam = sized_family([10**8, 10**9], checkpoints=5)
    top_only = max_token_family(fam, 1.0)
    assert all(r.tokens_seen == 10**10 for r in top_only.records)
    nearly_all = max_token_family(fam, 1e-12)
    assert records_set(nearly_all) == records_set(fam)
    with pytest.raises(ValidationError):
        max_token_family(fam, 0.0)
    with pytest.raises(ValidationError):
        max_token_family(fam, 1.5)


def test_filters_match_brute_force_randomized(monkeypatch):
    # Every subset, on plain families and on ones with several seeds per size and corpus-tagged rows.
    folds = []
    monkeypatch.setattr(meta, "_fit_and_score", lambda train, target, config: folds.append((train, target)) or (
        None, None, "not fitted"))
    rng = np.random.default_rng(202)
    for i in range(50):
        fam = random_family(rng, tagged=i % 2 == 1)
        recs = list(fam.records)
        assert recs == ordered(recs)
        q = float(rng.uniform(0.05, 1.0))
        k = int(rng.integers(1, 9))
        order = oracle_run_order(recs)
        spec = random_spec(rng, recs)
        assert list(max_param_family(fam).records) == oracle_max_param(recs)
        assert list(max_token_family(fam, q).records) == oracle_max_token(recs, q)
        assert run_order(fam) == order
        assert list(k_smallest_runs(fam, k).records) == oracle_runs(recs, order[:k])
        assert list(k_largest_runs(fam, k).records) == oracle_runs(recs, order[-k:])
        assert list(final_checkpoints(fam).records) == oracle_final(recs)
        assert list(apply_spec(fam, spec).records) == oracle_spec(recs, spec)
        assert list(build_train(fam, spec).records) == oracle_train(recs, spec)
        assert list(build_target(fam, q).records) == oracle_max_token(oracle_max_param(recs), q)
        assert meta.train_flops(fam) == oracle_flops(recs)
        if k < len(order):
            train, target = downscale_split(fam, k, q)
            assert list(train.records) == oracle_runs(recs, order[-k:])
            assert list(target.records) == oracle_max_token(oracle_runs(recs, order[:1]), q)
        for corpus in fam.corpora:
            assert list(select_corpus(fam, corpus).records) == ordered(r for r in recs if r.loss_corpus == corpus)
        # Shards in any order, with a record in both, merge back into the family.
        cut = int(rng.integers(0, len(recs)))
        shards = [recs[cut:] + recs[:1], recs[:cut + 1][::-1]]
        assert merge_families(ScaledFamily.from_records(fam.family_id, s) for s in shards) == fam
        folds.clear()
        meta.loo_family_cv(fam, target_fraction=q)
        top = max(r.num_params for r in recs)
        assert [(list(train.records), list(target.records)) for train, target in folds] == [
            (ordered(r for r in recs if r.run_key != run and r.num_params != top),
             oracle_max_token(oracle_runs(recs, [run]), q))
            for run in sorted({r.run_key for r in recs})
        ]


def test_max_token_monotone_in_q():
    rng = np.random.default_rng(7)
    for _ in range(20):
        fam = random_family(rng)
        q1, q2 = sorted(rng.uniform(0.05, 1.0, size=2))
        assert records_set(max_token_family(fam, q2)) <= records_set(max_token_family(fam, q1))


def test_subset_spec_validation():
    with pytest.raises(ValidationError):
        SubsetSpec(num_models=0)
    with pytest.raises(ValidationError):
        SubsetSpec(train_fraction_max=0.0)
    with pytest.raises(ValidationError):
        SubsetSpec(suffix_fraction=1.5)
    with pytest.raises(ValidationError):
        SubsetSpec(cutoff_tokens=-1)
    with pytest.raises(ValidationError):
        SubsetSpec.from_dict({"nope": 1})
    with pytest.raises(ValidationError, match="^unknown subset fields: 7, nope$"):
        SubsetSpec.from_dict({7: 1, "nope": 2, "num_models": 2})


def test_select_train_target_default():
    fam = sized_family([70, 160, 410, 1000], checkpoints=10)
    train, target = select_train_target(fam)
    assert {r.num_params for r in train.records} == {70, 160, 410}
    assert all(r.num_params == 1000 for r in target.records)
    # 30% of the max tokens_seen within the top run
    top = max(r.tokens_seen for r in fam.records)
    assert all(r.tokens_seen >= 0.3 * top for r in target.records)
    assert not (records_set(train) & records_set(target))


def test_select_train_target_k_smallest():
    fam = sized_family([70, 160, 410, 1000], checkpoints=6)
    train, _ = select_train_target(fam, SubsetSpec(num_models=3))
    assert {r.num_params for r in train.records} == {70, 160, 410}
    with pytest.raises(InsufficientDataError, match="insufficient families"):
        select_train_target(fam, SubsetSpec(num_models=2))


def test_select_train_target_prefix_filter_brute_force():
    fam = sized_family([70, 160, 410, 1000], checkpoints=10)
    train, _ = select_train_target(fam, SubsetSpec(train_fraction_max=0.5))
    assert all(r.tokens_seen <= 0.5 * r.total_tokens for r in train.records)
    top = max(r.num_params for r in fam.records)
    expected = frozenset(
        r for r in fam.records if r.num_params != top and r.tokens_seen <= 0.5 * r.total_tokens
    )
    assert records_set(train) == expected


def test_select_train_target_cutoff_property():
    fam = sized_family([70, 160, 410, 1000], checkpoints=10)
    cutoff = 3 * 10**9
    train, _ = select_train_target(fam, SubsetSpec(cutoff_tokens=cutoff))
    assert all(r.tokens_seen >= cutoff for r in train.records)


def test_select_train_target_insufficient():
    fam = sized_family([70, 1000], checkpoints=6)
    with pytest.raises(InsufficientDataError, match="insufficient families"):
        select_train_target(fam)


def test_apply_spec_suffix_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(20):
        fam = random_family(rng)
        q = float(rng.uniform(0.1, 1.0))
        out = apply_spec(fam, SubsetSpec(suffix_fraction=q))
        expected = frozenset(r for r in fam.records if r.tokens_seen >= (1.0 - q) * r.total_tokens)
        assert records_set(out) == expected


def test_k_smallest_ties_break_on_model_id():
    records = [
        make_record(model_id="fam-b", num_params=100, tokens_seen=10**9),
        make_record(model_id="fam-a", num_params=100, tokens_seen=10**9),
        make_record(model_id="fam-c", num_params=50, tokens_seen=10**9),
    ]
    fam = ScaledFamily.from_records("fam", records)
    out = k_smallest_runs(fam, 2)
    assert {r.model_id for r in out.records} == {"fam-c", "fam-a"}


def test_downscale_split():
    fam = sized_family([70, 160, 410], checkpoints=10)
    train, target = downscale_split(fam, 2)
    assert {r.num_params for r in train.records} == {160, 410}
    assert all(r.num_params == 70 for r in target.records)
    top = max(r.tokens_seen for r in fam.records if r.num_params == 70)
    assert all(r.tokens_seen >= 0.3 * top for r in target.records)

    with pytest.raises(InsufficientDataError):
        downscale_split(fam, 3)
    with pytest.raises(ValidationError):
        downscale_split(fam, 0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda f: downscale_split(f, True), id="downscale-bool-k"),
    pytest.param(lambda f: downscale_split(f, 2.5), id="downscale-fractional-k"),
    pytest.param(lambda f: k_smallest_runs(f, "two"), id="smallest-text-k"),
    pytest.param(lambda f: k_largest_runs(f, None), id="largest-no-k"),
    pytest.param(lambda f: build_target(f, True), id="target-bool-fraction"),
    pytest.param(lambda f: build_target(f, "three tenths"), id="target-text-fraction"),
    pytest.param(lambda f: max_token_family(f, [0.3]), id="token-list-q"),
])
def test_k_and_target_fraction_keep_the_number_rule(noiseless_family, call):
    # A value the rule refuses raises ValidationError: no truncated k, no fraction read from a bool, no TypeError.
    with pytest.raises(ValidationError):
        call(noiseless_family)


def test_k_and_target_fraction_read_what_the_number_rule_reads(noiseless_family):
    assert downscale_split(noiseless_family, "2") == downscale_split(noiseless_family, 2)
    assert downscale_split(noiseless_family, 2.0) == downscale_split(noiseless_family, 2)
    assert k_smallest_runs(noiseless_family, "1e0") == k_smallest_runs(noiseless_family, 1)
    assert build_target(noiseless_family, "0.3") == build_target(noiseless_family, 0.3)
    assert build_target(noiseless_family, 1) == build_target(noiseless_family, 1.0)


def test_downscale_brute_force_randomized():
    rng = np.random.default_rng(77)
    for _ in range(25):
        fam = random_family(rng)
        runs = {}
        for r in fam.records:
            runs.setdefault(r.run_key, []).append(r)
        if len(runs) < 2:
            continue
        k = int(rng.integers(1, len(runs)))
        train, target = downscale_split(fam, k)
        ordered = sorted(
            runs, key=lambda key: (max(r.num_params for r in runs[key]), key[0], key[1])
        )
        keep = set(ordered[-k:])
        assert records_set(train) == frozenset(r for r in fam.records if r.run_key in keep)
        small = [r for r in fam.records if r.run_key == ordered[0]]
        top = max(r.tokens_seen for r in small)
        assert records_set(target) == frozenset(r for r in small if r.tokens_seen >= 0.3 * top)


def test_final_checkpoints():
    fam = sized_family([70, 160], checkpoints=5)
    out = final_checkpoints(fam)
    assert len(out.records) == 2
    assert all(r.tokens_seen == r.total_tokens for r in out.records)


def test_outputs_are_subsets():
    rng = np.random.default_rng(5)
    for _ in range(20):
        fam = random_family(rng)
        assert records_set(max_param_family(fam)) <= records_set(fam)
        assert records_set(max_token_family(fam, 0.4)) <= records_set(fam)
        assert records_set(build_target(fam)) <= records_set(fam)
