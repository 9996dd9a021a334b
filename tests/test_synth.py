import math

import numpy as np
import pytest

from scalefit import (
    SynthSpec,
    ValidationError,
    WarmupBump,
    checkpoint_schedule,
    eval_law,
    generate,
)

from conftest import TRUTH


def test_noiseless_generation_is_byte_identical_to_forward_eval():
    spec = SynthSpec(truth=TRUTH, sizes=(10**7, 10**8), tokens_per_run=10**9,
                     checkpoints_per_run=8)
    fam = generate(spec)
    assert len(fam.records) == 16
    for rec in fam.records:
        assert rec.loss == eval_law(TRUTH, rec.num_params, rec.tokens_seen)


def test_generation_is_deterministic():
    spec = SynthSpec(truth=TRUTH, sizes=(10**7, 10**8), noise_sigma=0.05,
                     seed_sigma=0.02, rng_seed=99)
    assert generate(spec).records == generate(spec).records


def test_rng_seed_changes_noisy_losses():
    kw = dict(truth=TRUTH, sizes=(10**7,), checkpoints_per_run=5, noise_sigma=0.05)
    a = generate(SynthSpec(rng_seed=1, **kw))
    b = generate(SynthSpec(rng_seed=2, **kw))
    assert [r.loss for r in a.records] != [r.loss for r in b.records]


def test_seed_offset_constant_within_run():
    spec = SynthSpec(truth=TRUTH, sizes=(10**8,), checkpoints_per_run=10,
                     seed_sigma=0.1, seeds_per_size=3, rng_seed=4)
    fam = generate(spec)
    assert fam.num_runs == 3
    runs = {}
    for r in fam.records:
        runs.setdefault(r.run_key, []).append(r)
    for recs in runs.values():
        ratios = [r.loss / eval_law(TRUTH, r.num_params, r.tokens_seen) for r in recs]
        assert max(ratios) - min(ratios) <= 1e-12 * ratios[0]


def test_seed_sigma_empirical_std():
    spec = SynthSpec(truth=TRUTH, sizes=(10**8,), checkpoints_per_run=1,
                     seed_sigma=0.035, seeds_per_size=100, rng_seed=7)
    fam = generate(spec)
    offsets = [
        math.log(r.loss / eval_law(TRUTH, r.num_params, r.tokens_seen)) for r in fam.records
    ]
    std = float(np.std(offsets, ddof=1))
    assert abs(std - 0.035) <= 0.2 * 0.035


def test_checkpoint_noise_empirical_std():
    spec = SynthSpec(truth=TRUTH, sizes=(10**8,), checkpoints_per_run=400,
                     tokens_per_run=10**9, noise_sigma=0.01, rng_seed=11)
    fam = generate(spec)
    eps = [math.log(r.loss / eval_law(TRUTH, r.num_params, r.tokens_seen)) for r in fam.records]
    std = float(np.std(eps, ddof=1))
    assert abs(std - 0.01) <= 0.2 * 0.01


def test_bump_support_and_exact_agreement_beyond_span():
    span = 10**9
    bump = WarmupBump(amplitude=0.5, span_tokens=span)
    spec_plain = SynthSpec(truth=TRUTH, sizes=(10**8,), tokens_per_run=4 * 10**9,
                           checkpoints_per_run=12)
    spec_bumped = SynthSpec(truth=TRUTH, sizes=(10**8,), tokens_per_run=4 * 10**9,
                            checkpoints_per_run=12, warmup_bump=bump)
    plain = {r.tokens_seen: r.loss for r in generate(spec_plain).records}
    bumped = {r.tokens_seen: r.loss for r in generate(spec_bumped).records}
    assert set(plain) == set(bumped)
    below = [t for t in plain if t < span]
    assert below and len(below) < len(plain)
    for t in plain:
        if t >= span:
            assert bumped[t] == plain[t]
        else:
            assert bumped[t] == plain[t] + 0.5 * (1.0 - t / span)
            assert bumped[t] > plain[t]


def test_bump_consumes_no_randomness():
    bump = WarmupBump(amplitude=0.3, span_tokens=10**8)
    kw = dict(truth=TRUTH, sizes=(10**7, 10**8), noise_sigma=0.02, rng_seed=5,
              tokens_per_run=10**9, checkpoints_per_run=6)
    plain = generate(SynthSpec(**kw))
    bumped = generate(SynthSpec(warmup_bump=bump, **kw))
    for a, b in zip(plain.records, bumped.records):
        assert b.loss == pytest.approx(a.loss + bump.at(a.tokens_seen), rel=1e-14)


def test_a_bump_that_drives_a_loss_below_zero_is_refused():
    # generate builds its family through from_records, so ingest's loss rule refuses the row.
    spec = SynthSpec(truth=TRUTH, sizes=(10**8,), warmup_bump=WarmupBump(amplitude=-10.0, span_tokens=10**9))
    with pytest.raises(ValidationError, match=r"^record \(synthetic-n100000000, tokens_seen=\d+\): loss must be pos"):
        generate(spec)


def test_warmup_bump_values():
    bump = WarmupBump(amplitude=0.8, span_tokens=1000)
    assert bump.at(0) == 0.8
    assert bump.at(500) == pytest.approx(0.4, rel=1e-15)
    assert bump.at(1000) == 0.0
    assert bump.at(5000) == 0.0
    with pytest.raises(ValidationError):
        WarmupBump(amplitude=float("nan"), span_tokens=1000)
    with pytest.raises(ValidationError):
        WarmupBump(amplitude=0.1, span_tokens=0)


def test_checkpoint_schedule_properties():
    schedule = checkpoint_schedule(10**9, 20, 0.01)
    assert len(schedule) == 20
    assert schedule[0] == 10**7
    assert schedule[-1] == 10**9
    assert all(b > a for a, b in zip(schedule, schedule[1:]))
    # Log-uniform: consecutive ratios are near-constant.
    ratios = [b / a for a, b in zip(schedule, schedule[1:])]
    assert max(ratios) / min(ratios) <= 1.01


def test_checkpoint_schedule_edges():
    assert checkpoint_schedule(12345, 1, 0.01) == [12345]
    tight = checkpoint_schedule(10, 5, 0.1)
    assert tight[0] == 1 and tight[-1] == 10
    assert all(b > a for a, b in zip(tight, tight[1:]))
    with pytest.raises(ValidationError):
        checkpoint_schedule(5, 10, 0.2)


def test_per_size_token_budgets():
    spec = SynthSpec(truth=TRUTH, sizes=(10**7, 10**8), tokens_per_run=(10**9, 3 * 10**9),
                     checkpoints_per_run=4)
    fam = generate(spec)
    totals = {r.model_id: r.total_tokens for r in fam.records}
    assert totals == {"synthetic-n10000000": 10**9, "synthetic-n100000000": 3 * 10**9}
    for rec in fam.records:
        assert rec.tokens_seen <= rec.total_tokens


def test_record_shape_and_naming():
    spec = SynthSpec(truth=TRUTH, sizes=(10**7,), checkpoints_per_run=3,
                     seeds_per_size=2, family_id="toy")
    fam = generate(spec)
    assert fam.family_id == "toy"
    assert {r.model_id for r in fam.records} == {"toy-n10000000"}
    assert {r.seed for r in fam.records} == {0, 1}
    assert fam.num_runs == 2
    assert all(r.num_params == 10**7 for r in fam.records)


def test_spec_validation():
    with pytest.raises(ValidationError):
        SynthSpec(truth=TRUTH, sizes=())
    with pytest.raises(ValidationError):
        SynthSpec(truth=TRUTH, sizes=(10**7, 10**7))
    with pytest.raises(ValidationError):
        SynthSpec(truth=TRUTH, sizes=(0,))
    with pytest.raises(ValidationError):
        SynthSpec(truth=TRUTH, sizes=(10**7,), checkpoints_per_run=0)
    with pytest.raises(ValidationError):
        SynthSpec(truth=TRUTH, sizes=(10**7,), noise_sigma=-0.1)
    with pytest.raises(ValidationError):
        SynthSpec(truth=TRUTH, sizes=(10**7,), first_checkpoint_fraction=0.0)
    with pytest.raises(ValidationError):
        SynthSpec(truth=TRUTH, sizes=(10**7, 10**8), tokens_per_run=(10**9,))
    with pytest.raises(ValidationError):
        SynthSpec(truth=TRUTH, sizes=(10**7,), seeds_per_size=0)


def test_spec_from_dict():
    blob = {
        "truth": TRUTH.to_dict(),
        "sizes": [10**7, 10**8],
        "tokens_per_run": 10**9,
        "checkpoints_per_run": 4,
        "noise_sigma": 0.01,
        "warmup_bump": {"amplitude": 0.2, "span_tokens": 10**8},
        "rng_seed": 3,
    }
    spec = SynthSpec.from_dict(blob)
    assert spec.truth == TRUTH
    assert spec.sizes == (10**7, 10**8)
    assert spec.warmup_bump == WarmupBump(amplitude=0.2, span_tokens=10**8)
    with pytest.raises(ValidationError, match="unknown synth fields"):
        SynthSpec.from_dict({**blob, "bogus": 1})
    with pytest.raises(ValidationError, match="^unknown synth fields: 7, bogus$"):
        SynthSpec.from_dict({**blob, 7: 1, "bogus": 2})
