"""FLOPs accounting and latency lookup."""

import dataclasses
import json
import random
import re

import pytest

from verisel import (
    BUNDLED_LATENCY,
    FlopsBreakdown,
    LatencyTable,
    MODEL_PRESETS,
    ModelConfig,
    TokenStats,
    flops_decode,
    flops_disc_verification,
    flops_generation,
    flops_prefill,
    latency_lookup,
    pipeline_breakdown,
    pipeline_flops,
)

from oracles import loop_disc_verification_flops, loop_generation_flops

UNIT = ModelConfig(d=1, m=1, L=1, V=1)


class TestModelConfig:
    def test_rejects_bad_dimensions(self):
        for field, value in (("d", 0), ("m", -1), ("L", 0), ("V", 2.5)):
            kwargs = dict(d=2, m=3, L=4, V=5)
            kwargs[field] = value
            with pytest.raises(ValueError, match="invalid model dimension"):
                ModelConfig(**kwargs)

    @pytest.mark.parametrize("field", ["d", "m", "L", "V"])
    def test_rejects_bool_dimension(self, field):
        # isinstance(True, int) once let a bool through as 1
        kwargs = {"d": 2, "m": 3, "L": 4, "V": 5, field: True}
        with pytest.raises(ValueError, match=f"invalid model dimension: {field}=True"):
            ModelConfig(**kwargs)

    def test_from_file(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text(
            "# toy geometry\n"
            "d = 16\n"
            "m=64   # wide mlp\n"
            "\n"
            "L = 2\n"
            "V = 100\n"
        )
        assert ModelConfig.from_file(path) == ModelConfig(d=16, m=64, L=2, V=100)

    def test_from_file_missing_field(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("d = 16\nm = 64\nL = 2\n")
        with pytest.raises(ValueError, match="missing fields.*V"):
            ModelConfig.from_file(path)

    def test_from_file_bad_line(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("d = 16\njust words\n")
        with pytest.raises(ValueError, match="2"):
            ModelConfig.from_file(path)

    def test_presets(self):
        assert MODEL_PRESETS["qwen2.5-32b"] == ModelConfig(
            d=5120, m=27648, L=64, V=152064
        )
        assert MODEL_PRESETS["qwen2.5-1.5b"] == ModelConfig(
            d=1536, m=8960, L=28, V=151936
        )


class TestBreakdown:
    def test_total_must_match(self):
        with pytest.raises(ValueError, match="inconsistent breakdown"):
            FlopsBreakdown(1, 1, 1, 1, 5)
        with pytest.raises(ValueError, match="inconsistent breakdown"):
            FlopsBreakdown(-1, 0, 0, 0, -1)

    def test_add_and_scale(self):
        a = flops_generation(UNIT, 2, 3)
        b = flops_prefill(UNIT, 5)
        both = a + b
        assert both.total == a.total + b.total
        assert a.scaled(3).total == 3 * a.total
        assert a.scaled(3).as_dict()["projections"] == 3 * a.projections


class TestFormulas:
    def test_unit_model_values(self):
        assert flops_prefill(UNIT, 1).total == 16
        assert flops_generation(UNIT, 1, 1).total == 34
        assert flops_disc_verification(UNIT, 1).total == 34

    def test_prefill_has_no_decode_or_head(self):
        fb = flops_prefill(UNIT, 7)
        assert fb.attention_decode == 0 and fb.lm_head == 0

    def test_generation_is_prefill_plus_decode(self):
        fb = flops_generation(UNIT, 5, 4)
        assert fb == flops_prefill(UNIT, 5) + flops_decode(UNIT, 5, 4)

    def test_head_width_override(self):
        cfg = ModelConfig(d=3, m=2, L=2, V=50)
        narrow = flops_decode(cfg, 4, 6, head_vocab=1)
        assert narrow.lm_head == 2 * cfg.d * 6
        wide = flops_decode(cfg, 4, 6)
        assert wide.lm_head == 2 * cfg.d * cfg.V * 6
        with pytest.raises(ValueError, match="invalid head width"):
            flops_decode(cfg, 4, 6, head_vocab=0)

    def test_disc_verification_ignores_vocab(self):
        small = ModelConfig(d=3, m=2, L=2, V=10)
        huge = ModelConfig(d=3, m=2, L=2, V=100000)
        assert flops_disc_verification(small, 9) == \
            flops_disc_verification(huge, 9)

    def test_rejects_negative_tokens(self):
        with pytest.raises(ValueError, match="invalid token count"):
            flops_prefill(UNIT, -1)
        with pytest.raises(ValueError, match="invalid token count"):
            flops_decode(UNIT, 1, -1)

    def test_rejects_boolean_tokens(self):
        with pytest.raises(ValueError, match="invalid token count: t_in=True"):
            flops_prefill(UNIT, True)
        with pytest.raises(ValueError, match="invalid token count: t_out=False"):
            flops_decode(UNIT, 1, False)

    def test_matches_per_token_loop(self):
        for d in (1, 2, 3):
            for m in (1, 2, 3):
                for L in (1, 2, 3):
                    for V in (1, 5):
                        cfg = ModelConfig(d=d, m=m, L=L, V=V)
                        for t_in in range(9):
                            for t_out in range(9):
                                assert flops_generation(cfg, t_in, t_out).total \
                                    == loop_generation_flops(d, m, L, V, t_in, t_out)
                            assert flops_disc_verification(cfg, t_in).total \
                                == loop_disc_verification_flops(d, m, L, t_in)

    def test_monotone_in_lengths(self):
        cfg = ModelConfig(d=4, m=7, L=3, V=11)
        totals = [flops_generation(cfg, t, 5).total for t in range(12)]
        assert totals == sorted(totals)
        totals = [flops_generation(cfg, 5, t).total for t in range(12)]
        assert totals == sorted(totals)

    def test_exact_at_realistic_scale(self):
        cfg = MODEL_PRESETS["qwen2.5-32b"]
        one = flops_generation(cfg, 100, 11000).total
        assert isinstance(one, int)
        assert one == loop_generation_flops(
            cfg.d, cfg.m, cfg.L, cfg.V, 100, 11000
        )
        # a 32-candidate pool already exceeds float53 precision
        batch = flops_generation(cfg, 100, 11000).scaled(32).total
        assert batch > 2**53 and batch == 32 * one


def stats(n, prompt=10, output=40, solution=20, ver_out=None):
    return [
        TokenStats(
            prompt_tokens=prompt,
            output_tokens=output,
            solution_tokens=solution,
            verification_out_tokens=ver_out,
        )
        for _ in range(n)
    ]


class TestPipeline:
    def test_sc_charges_generation_only(self):
        parts = pipeline_breakdown(UNIT, None, stats(3), "sc")
        assert parts["verification"].total == 0
        assert parts["generation"] == flops_generation(UNIT, 10, 40).scaled(3)

    def test_disc_adds_scoring_sweep(self):
        verifier = ModelConfig(d=2, m=2, L=1, V=9)
        parts = pipeline_breakdown(UNIT, verifier, stats(3), "disc")
        assert parts["verification"] == \
            flops_disc_verification(verifier, 20).scaled(3)
        sc_total = pipeline_flops(UNIT, None, stats(3), "sc")
        assert pipeline_flops(UNIT, verifier, stats(3), "disc") == \
            sc_total + 3 * flops_disc_verification(verifier, 20).total

    def test_gen_charges_m_verifier_generations(self):
        verifier = ModelConfig(d=2, m=2, L=1, V=9)
        parts = pipeline_breakdown(
            UNIT, verifier, stats(3), "gen",
            m_verifications=4, verification_out_tokens=6,
        )
        assert parts["verification"] == \
            flops_generation(verifier, 20, 6).scaled(4).scaled(3)

    def test_gen_prefers_per_candidate_output_length(self):
        verifier = ModelConfig(d=2, m=2, L=1, V=9)
        parts = pipeline_breakdown(
            UNIT, verifier, stats(2, ver_out=3), "gen",
            m_verifications=1, verification_out_tokens=99,
        )
        assert parts["verification"] == flops_generation(verifier, 20, 3).scaled(2)

    def test_gen_zero_verifications_is_sc(self):
        assert pipeline_breakdown(UNIT, None, stats(2), "gen") == \
            pipeline_breakdown(UNIT, None, stats(2), "sc")

    def test_gen_needs_output_length(self):
        verifier = ModelConfig(d=2, m=2, L=1, V=9)
        with pytest.raises(ValueError, match="verification_out_tokens"):
            pipeline_breakdown(UNIT, verifier, stats(2), "gen", m_verifications=2)

    def test_verifier_required(self):
        with pytest.raises(ValueError, match="verifier config required"):
            pipeline_breakdown(UNIT, None, stats(1), "disc")
        with pytest.raises(ValueError, match="verifier config required"):
            pipeline_breakdown(
                UNIT, None, stats(1), "gen",
                m_verifications=1, verification_out_tokens=4,
            )

    def test_bad_mode_and_count(self):
        with pytest.raises(ValueError, match="unknown pipeline mode"):
            pipeline_breakdown(UNIT, None, stats(1), "oracle")
        with pytest.raises(ValueError, match="invalid verification count"):
            pipeline_breakdown(UNIT, UNIT, stats(1), "gen", m_verifications=-1)

    def test_empty_batch(self):
        parts = pipeline_breakdown(UNIT, UNIT, [], "disc")
        assert parts["generation"].total == 0
        assert parts["verification"].total == 0


def loop_breakdown(solver, verifier, stats, mode, m=0, ver_out=None):
    """pipeline_breakdown as a per-candidate sum of FlopsBreakdowns: the
    loop the closed form replaced, errors included."""
    if mode not in ("sc", "disc", "gen"):
        raise ValueError(f"unknown pipeline mode: {mode!r}")
    if mode == "gen" and m < 0:
        raise ValueError(f"invalid verification count: {m}")
    zero = FlopsBreakdown(0, 0, 0, 0, 0)
    generation = zero
    for st in stats:
        generation += flops_generation(solver, st.prompt_tokens, st.output_tokens)
    verification = zero
    if mode == "disc" or (mode == "gen" and m > 0):
        if verifier is None:
            raise ValueError("verifier config required")
        for st in stats:
            if mode == "disc":
                verification += flops_disc_verification(verifier, st.solution_tokens)
                continue
            out = st.verification_out_tokens
            if out is None:
                if ver_out is None:
                    raise ValueError(
                        "gen mode needs verification_out_tokens per candidate "
                        "or a constant verification output length"
                    )
                out = ver_out
            verification += flops_generation(
                verifier, st.solution_tokens, out
            ).scaled(m)
    return {"generation": generation, "verification": verification}


def random_batch(rng, size, ver_out_share):
    """Mixed prompt, output and solution lengths; a ver_out_share of the
    candidates carry their own verification output length."""
    batch = []
    for _ in range(size):
        output = rng.randrange(0, 400)
        batch.append(TokenStats(
            prompt_tokens=rng.randrange(0, 300),
            output_tokens=output,
            solution_tokens=rng.randrange(0, output + 1),
            verification_out_tokens=(
                rng.randrange(0, 200) if rng.random() < ver_out_share else None
            ),
        ))
    return batch


def random_model(rng):
    return ModelConfig(d=rng.randrange(1, 64), m=rng.randrange(1, 256),
                       L=rng.randrange(1, 8), V=rng.randrange(1, 1000))


class TestClosedForm:
    """The closed form over token sums equals the per-candidate loop."""

    def test_random_batches(self):
        rng = random.Random(2024)
        for _ in range(300):
            solver, verifier = random_model(rng), random_model(rng)
            batch = random_batch(rng, rng.randrange(0, 40), rng.choice((0, 0.5, 1)))
            ver_out = rng.choice((None, 0, 1, rng.randrange(2, 300)))
            for mode, m in (("sc", 0), ("disc", 0), ("gen", 0), ("gen", 1),
                            ("gen", 3)):
                if mode == "gen" and m and ver_out is None and any(
                    st.verification_out_tokens is None for st in batch
                ):
                    continue  # an error case, covered below
                args = (solver, verifier, batch, mode, m, ver_out)
                assert pipeline_breakdown(*args) == loop_breakdown(*args)

    def test_verification_output_per_candidate_and_constant(self):
        rng = random.Random(7)
        verifier = ModelConfig(d=5, m=9, L=3, V=17)
        own = random_batch(rng, 25, ver_out_share=1)
        bare = [dataclasses.replace(st, verification_out_tokens=None) for st in own]
        for m in (0, 1, 3):
            args = (UNIT, verifier, own, "gen", m)
            assert pipeline_breakdown(*args) == loop_breakdown(*args)
            # each candidate's own length wins over the constant
            assert pipeline_breakdown(*args, 99) == pipeline_breakdown(*args)
            args = (UNIT, verifier, bare, "gen", m, 42)
            assert pipeline_breakdown(*args) == loop_breakdown(*args)

    def test_empty_batch(self):
        for mode, m in (("sc", 0), ("disc", 0), ("gen", 0), ("gen", 1), ("gen", 3)):
            args = (UNIT, UNIT, [], mode, m)
            parts = pipeline_breakdown(*args)
            assert parts == loop_breakdown(*args)
            assert parts["generation"].total == parts["verification"].total == 0

    def test_exact_beyond_float_precision(self):
        solver = MODEL_PRESETS["qwen2.5-32b"]
        verifier = MODEL_PRESETS["qwen2.5-1.5b"]
        batch = stats(64, prompt=2000, output=32000, solution=30000, ver_out=8000)
        args = (solver, verifier, batch, "gen", 3)
        parts = pipeline_breakdown(*args)
        assert parts == loop_breakdown(*args)
        assert parts["generation"].total > 2**53

    @pytest.mark.parametrize("args", [
        (UNIT, UNIT, stats(2), "oracle", 0, None),
        (UNIT, UNIT, stats(2), "gen", -1, 4),
        (UNIT, None, stats(2), "disc", 0, None),
        (UNIT, None, [], "disc", 0, None),
        (UNIT, None, stats(2), "gen", 2, 4),
        (UNIT, UNIT, stats(2), "gen", 2, None),
        (UNIT, UNIT, stats(2), "gen", 2, -1),
        (UNIT, UNIT, stats(2), "gen", 2, 2.5),
    ])
    def test_errors_match_the_loop(self, args):
        with pytest.raises(ValueError) as loop_error:
            loop_breakdown(*args)
        with pytest.raises(ValueError) as closed_error:
            pipeline_breakdown(*args)
        assert str(closed_error.value) == str(loop_error.value)

    def test_unused_constant_is_not_checked(self):
        # as in the loop, the constant is read only for candidates without
        # their own verification output length
        for batch in (stats(2, ver_out=5), []):
            args = (UNIT, UNIT, batch, "gen", 2, -1)
            assert pipeline_breakdown(*args) == loop_breakdown(*args)


class TestLatency:
    def table(self):
        return LatencyTable(entries={
            ("generation", 1, 0): 10.0,
            ("generation", 2, 0): 11.0,
            ("disc_verify", 2, 0): 0.5,
            ("gen_verify", 2, 3): 7.0,
        })

    def test_lookup(self):
        t = self.table()
        assert t.lookup("generation", 2) == 11.0
        assert t.lookup("gen_verify", 2, 3) == 7.0
        with pytest.raises(ValueError, match=r"no measurement.*N=4"):
            t.lookup("generation", 4)

    def test_entry_validation(self):
        with pytest.raises(ValueError, match="unknown latency role"):
            LatencyTable(entries={("scoring", 1, 0): 1.0})
        with pytest.raises(ValueError, match="invalid latency entry"):
            LatencyTable(entries={("generation", 0, 0): 1.0})
        with pytest.raises(ValueError, match="invalid latency entry"):
            LatencyTable(entries={("generation", 1, 0): -1.0})

    @pytest.mark.parametrize("key, message", [
        (("generation", 1.5, 0), "latency N must be an int, got 1.5"),
        (("generation", 1, True), "latency M must be an int, got True"),
        (("gen_verify", 2, 1.0), "latency M must be an int, got 1.0"),
    ])
    def test_counts_are_ints(self, key, message):
        # these were once accepted, and M=True answered lookups of M=1
        with pytest.raises(ValueError, match=re.escape(message)):
            LatencyTable(entries={key: 1.0})

    @pytest.mark.parametrize("seconds", ["x", None, True])
    def test_seconds_are_numbers(self, seconds):
        # "x" and None once ended in a raw TypeError; True passed as 1 s
        with pytest.raises(ValueError, match=re.escape(
                f"latency seconds must be a number, got {seconds!r}")):
            LatencyTable(entries={("generation", 1, 0): seconds})

    def test_seconds_past_float_range_rejected(self):
        # an int past float range once passed, then failed in a raw
        # OverflowError where a curve point stored its budget
        with pytest.raises(ValueError, match="invalid latency entry"):
            LatencyTable.from_json('{"generation": {"1": 1%s}}' % ("0" * 400))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_seconds_rejected(self, literal):
        # a NaN entry once priced a curve point at nan seconds
        with pytest.raises(ValueError, match="invalid latency entry"):
            LatencyTable(entries={("generation", 1, 0): float(literal.lower())})
        for doc in ('{"generation": {"1": %s}}', '{"gen_verify": {"2": {"1": %s}}}'):
            with pytest.raises(ValueError, match="invalid latency entry"):
                LatencyTable.from_json(doc % literal)

    @pytest.mark.parametrize("doc, message", [
        ("[1]", "top level must be a JSON object, got [1]"),
        ('{"generation": [1]}', "generation must be a JSON object, got [1]"),
        ('{"disc_verify": 2}', "disc_verify must be a JSON object, got 2"),
        ('{"gen_verify": {"2": [1]}}', "gen_verify M=2 must be a JSON object, got [1]"),
        ('{"generation": {"x": 1}}', "generation key must be an integer, got 'x'"),
        ('{"gen_verify": {"y": {}}}', "gen_verify key must be an integer, got 'y'"),
        ('{"gen_verify": {"2": {"z": 1}}}',
         "gen_verify M=2 key must be an integer, got 'z'"),
    ])
    def test_from_json_names_a_bad_shape(self, doc, message):
        # a list once failed in a raw AttributeError, a bad key with int()'s
        # message
        with pytest.raises(ValueError, match=re.escape(f"latency table: {message}")):
            LatencyTable.from_json(doc)

    @pytest.mark.parametrize("literal", ["null", "true", '"1"'])
    def test_from_json_seconds_are_numbers(self, literal):
        # null once failed in a raw TypeError; true and "1" passed as 1 s
        for doc in ('{"generation": {"1": %s}}', '{"gen_verify": {"2": {"1": %s}}}'):
            with pytest.raises(ValueError, match=re.escape(
                    f"latency seconds must be a number, got {json.loads(literal)!r}")):
                LatencyTable.from_json(doc % literal)

    def test_mode_composition(self):
        t = self.table()
        assert latency_lookup(t, "sc", 2) == 11.0
        assert latency_lookup(t, "disc", 2) == pytest.approx(11.5)
        assert latency_lookup(t, "gen", 2, 3) == pytest.approx(18.0)
        with pytest.raises(ValueError, match="no measurement"):
            latency_lookup(t, "disc", 1)
        with pytest.raises(ValueError, match="unknown pipeline mode"):
            latency_lookup(t, "all", 2)

    def test_json_round_trip(self, tmp_path):
        doc = {
            "generation": {"1": 10.0, "2": 11.0},
            "disc_verify": {"2": 0.5},
            "gen_verify": {"3": {"2": 7.0}},
        }
        parsed = LatencyTable.from_json(json.dumps(doc))
        assert parsed == self.table()
        path = tmp_path / "latency.json"
        path.write_text(json.dumps(doc))
        assert LatencyTable.from_file(path) == self.table()

    def test_bundled_values(self):
        assert BUNDLED_LATENCY.lookup("generation", 1) == 273.1
        assert BUNDLED_LATENCY.lookup("generation", 128) == 5514.1
        assert latency_lookup(BUNDLED_LATENCY, "disc", 32) == pytest.approx(1435.66)
        assert latency_lookup(BUNDLED_LATENCY, "gen", 32, 2) == pytest.approx(4857.7)
        with pytest.raises(ValueError, match="no measurement"):
            latency_lookup(BUNDLED_LATENCY, "gen", 32, 3)
        with pytest.raises(ValueError, match="no measurement"):
            BUNDLED_LATENCY.lookup("generation", 3)
