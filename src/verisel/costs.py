"""Inference cost accounting: analytic FLOPs and measured-latency lookup.

The FLOPs model charges, per transformer layer, the dense projections
(8d^2 + 4dm per token), causal attention (4d per attended position), and the
LM head (2dV per generated token), and omits smaller terms (normalization,
activations, positional encodings). Counts are exact integers internally;
totals at realistic scales exceed 2^53, where floats would silently round.
A batch is priced in closed form from its token sums (sum of t, t^2 and
t_in*t_out), which equals the per-candidate formulas summed, exactly.

Latency is never modeled: measured wall-clock seconds are ingested as a
table and looked up by (role, N, M), with missing keys an error rather than
an interpolation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import add, mul
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from .core import TokenStats, _check_int, _check_number, _check_token_count, _floats

PIPELINE_MODES = ("sc", "disc", "gen")

GENERATION = "generation"
DISC_VERIFY = "disc_verify"
GEN_VERIFY = "gen_verify"


@dataclass(frozen=True)
class ModelConfig:
    """Transformer dimensions the FLOPs model needs.

    d: hidden size, m: MLP intermediate size, L: layer count, V: vocabulary.
    Full-width K/V projections are assumed (the 8d^2 term), so geometries
    with grouped-query attention are costed slightly high.
    """

    d: int
    m: int
    L: int
    V: int

    def __post_init__(self) -> None:
        for name in ("d", "m", "L", "V"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:  # not a bool
                raise ValueError(f"invalid model dimension: {name}={value!r}")

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ModelConfig":
        """Parse a small key-value file: one `name = value` per line, each
        of d, m, L and V once, as an integer; `#` starts a comment. A line
        that breaks this, or that __post_init__ refuses, names path:line."""
        fields, lines = {}, {}
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected `name = value`")
            if key not in ("d", "m", "L", "V") or key in fields:
                what = "repeated" if key in fields else "unknown"
                raise ValueError(f"{path}:{lineno}: {what} field {key!r}")
            try:
                fields[key], lines[key] = int(value), lineno
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} must be an integer, "
                                 f"got {value.strip()!r}") from None
        missing = {"d", "m", "L", "V"} - fields.keys()
        if missing:
            raise ValueError(f"{path}: missing fields {sorted(missing)}")
        try:
            return cls(**fields)
        except ValueError as exc:  # "invalid model dimension: name=value"
            name = str(exc).rpartition(": ")[2].partition("=")[0]
            raise ValueError(f"{path}:{lines[name]}: {exc}") from None


# Published geometries of the model family used for the bundled latency
# measurements; convenient presets for the cost CLI.
MODEL_PRESETS = {
    "qwen2.5-32b": ModelConfig(d=5120, m=27648, L=64, V=152064),
    "qwen2.5-1.5b": ModelConfig(d=1536, m=8960, L=28, V=151936),
}


@dataclass(frozen=True)
class FlopsBreakdown:
    """Exact FLOPs split by phase; total is always the sum of the parts."""

    projections: int
    attention_prefill: int
    attention_decode: int
    lm_head: int
    total: int

    def __post_init__(self) -> None:
        parts = (
            self.projections, self.attention_prefill,
            self.attention_decode, self.lm_head,
        )
        if any(p < 0 for p in parts) or self.total != sum(parts):
            raise ValueError(f"inconsistent breakdown: {self}")

    def __add__(self, other: "FlopsBreakdown") -> "FlopsBreakdown":
        return FlopsBreakdown(*map(add, self.as_dict().values(), other.as_dict().values()))

    def scaled(self, k: int) -> "FlopsBreakdown":
        return FlopsBreakdown(*(part * k for part in self.as_dict().values()))

    def as_dict(self) -> dict[str, int]:
        """The fields by name, in field order."""
        return dict(vars(self))


ZERO_FLOPS = FlopsBreakdown(0, 0, 0, 0, 0)


def _flops(
    cfg: ModelConfig, s_in: int, s_in2: int, s_out: int, s_in_out: int,
    s_out2: int, head_vocab: int,
) -> FlopsBreakdown:
    """The FLOPs formula, over token moments summed across a batch: t_in,
    t_in^2, t_out, t_in*t_out and t_out^2. Each candidate's t(t+1)/2 and
    t(t-1)/2 is an integer, so halving the summed moments is exact."""
    projections = (8 * cfg.d**2 + 4 * cfg.d * cfg.m) * cfg.L * (s_in + s_out)
    prefill = 4 * cfg.d * cfg.L * ((s_in2 + s_in) // 2)
    decode = 4 * cfg.d * cfg.L * (s_in_out + (s_out2 - s_out) // 2)
    lm_head = 2 * cfg.d * head_vocab * s_out
    return FlopsBreakdown(
        projections=projections,
        attention_prefill=prefill,
        attention_decode=decode,
        lm_head=lm_head,
        total=projections + prefill + decode + lm_head,
    )


def flops_prefill(cfg: ModelConfig, t_in: int) -> FlopsBreakdown:
    """Cost of ingesting a t_in-token prompt.

    Projections are linear in t_in; causal attention is quadratic, token k
    attending to positions 1..k. No LM head: prefill emits no tokens.
    """
    _check_token_count("t_in", t_in)
    return _flops(cfg, t_in, t_in * t_in, 0, 0, 0, cfg.V)


def flops_decode(
    cfg: ModelConfig, t_in: int, t_out: int, head_vocab: Optional[int] = None
) -> FlopsBreakdown:
    """Cost of generating t_out tokens after a cached t_in-token prefix.

    Generated token k attends to t_in + k - 1 prior positions plus itself.
    head_vocab defaults to the full vocabulary; a verifier emitting one
    scalar passes head_vocab=1.
    """
    _check_token_count("t_in", t_in)
    _check_token_count("t_out", t_out)
    if head_vocab is None:
        head_vocab = cfg.V
    if head_vocab < 1:
        raise ValueError(f"invalid head width: {head_vocab}")
    return _flops(cfg, 0, 0, t_out, t_in * t_out, t_out * t_out, head_vocab)


def flops_generation(cfg: ModelConfig, t_in: int, t_out: int) -> FlopsBreakdown:
    """Full generation cost: prefill the prompt, then decode t_out tokens."""
    return flops_prefill(cfg, t_in) + flops_decode(cfg, t_in, t_out)


def flops_disc_verification(cfg: ModelConfig, t_in: int) -> FlopsBreakdown:
    """One discriminative verification: read the solution, emit one scalar.

    t_in is the solution length with any reasoning span removed, which is
    what the verifier actually reads.
    """
    return flops_prefill(cfg, t_in) + flops_decode(cfg, t_in, 1, head_vocab=1)


def _batch_generation(
    cfg: ModelConfig,
    t_in: Sequence[int],
    t_out: Sequence[int],
    head_vocab: Optional[int] = None,
) -> FlopsBreakdown:
    """flops_prefill plus flops_decode summed over paired (t_in, t_out)
    counts, in closed form."""
    return _flops(
        cfg, sum(t_in), sum(map(mul, t_in, t_in)), sum(t_out),
        sum(map(mul, t_in, t_out)), sum(map(mul, t_out, t_out)),
        cfg.V if head_vocab is None else head_vocab,
    )


def _verification_outs(
    stats: Sequence[TokenStats], fallback: Optional[int]
) -> list[int]:
    outs = [st.verification_out_tokens for st in stats]
    if None not in outs:
        return outs
    if fallback is None:
        raise ValueError(
            "gen mode needs verification_out_tokens per candidate "
            "or a constant verification output length"
        )
    _check_token_count("t_out", fallback)
    return [fallback if t is None else t for t in outs]


def pipeline_breakdown(
    solver_cfg: ModelConfig,
    verifier_cfg: Optional[ModelConfig],
    stats: Sequence[TokenStats],
    mode: str,
    m_verifications: int = 0,
    verification_out_tokens: Optional[int] = None,
) -> dict[str, FlopsBreakdown]:
    """Generation and verification FLOPs for a batch of candidates.

    Modes: "sc" charges generation only; "disc" adds one single-scalar
    verification per candidate; "gen" adds m_verifications full verifier
    generations per candidate, each reading the solution and emitting
    verification_out_tokens (per-candidate field, or the constant argument).

    Equal to summing flops_generation and flops_disc_verification over the
    candidates, but computed from per-batch token sums.
    """
    if mode not in PIPELINE_MODES:
        raise ValueError(f"unknown pipeline mode: {mode!r}")
    if mode == "gen" and m_verifications < 0:
        raise ValueError(f"invalid verification count: {m_verifications}")

    generation = _batch_generation(
        solver_cfg,
        [st.prompt_tokens for st in stats],
        [st.output_tokens for st in stats],
    )
    verification = ZERO_FLOPS
    if mode == "disc" or (mode == "gen" and m_verifications > 0):
        if verifier_cfg is None:
            raise ValueError("verifier config required")
        solutions = [st.solution_tokens for st in stats]
        if mode == "disc":
            verification = _batch_generation(
                verifier_cfg, solutions, [1] * len(solutions), head_vocab=1
            )
        else:
            verification = _batch_generation(
                verifier_cfg, solutions,
                _verification_outs(stats, verification_out_tokens),
            ).scaled(m_verifications)
    return {"generation": generation, "verification": verification}


def pipeline_flops(
    solver_cfg: ModelConfig,
    verifier_cfg: Optional[ModelConfig],
    stats: Sequence[TokenStats],
    mode: str,
    m_verifications: int = 0,
    verification_out_tokens: Optional[int] = None,
) -> int:
    """Total FLOPs of pipeline_breakdown, as one exact integer."""
    parts = pipeline_breakdown(
        solver_cfg, verifier_cfg, stats, mode,
        m_verifications, verification_out_tokens,
    )
    return parts["generation"].total + parts["verification"].total


@dataclass(frozen=True)
class LatencyTable:
    """Measured wall-clock seconds keyed by (role, N, M).

    Roles: generation and disc_verify are batch sweeps over N (M fixed at
    0); gen_verify is keyed by both N and M. Seconds are finite and
    non-negative. Lookups never interpolate.
    """

    entries: Mapping[tuple[str, int, int], float]

    def __post_init__(self) -> None:
        for (role, n, m), seconds in self.entries.items():
            if role not in (GENERATION, DISC_VERIFY, GEN_VERIFY):
                raise ValueError(f"unknown latency role: {role!r}")
            _check_int("latency N", n)
            _check_int("latency M", m)
            _check_number("latency seconds", seconds)
            # _floats refuses NaN, an infinity and an int past float range
            if n < 1 or m < 0 or _floats((seconds,)) is None or seconds < 0:
                raise ValueError(f"invalid latency entry: {(role, n, m, seconds)}")

    def lookup(self, role: str, n: int, m: int = 0) -> float:
        try:
            return self.entries[(role, n, m)]
        except KeyError:
            raise ValueError(f"no measurement for ({role}, N={n}, M={m})") from None

    @classmethod
    def from_json(cls, text: str) -> "LatencyTable":
        """Parse {"generation": {N: s}, "disc_verify": {N: s},
        "gen_verify": {M: {N: s}}}."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"latency table: top level must be a JSON object, got {doc!r}")
        entries: dict[tuple[str, int, int], float] = {}
        for role in (GENERATION, DISC_VERIFY):
            for n, seconds in _int_keyed(role, doc.get(role, {})).items():
                entries[(role, n, 0)] = seconds
        for m, per_n in _int_keyed(GEN_VERIFY, doc.get(GEN_VERIFY, {})).items():
            for n, seconds in _int_keyed(f"{GEN_VERIFY} M={m}", per_n).items():
                entries[(GEN_VERIFY, n, m)] = seconds
        return cls(entries=entries)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "LatencyTable":
        return cls.from_json(Path(path).read_text())


def _int_keyed(where: str, level) -> dict:
    """A level of a latency table file: a JSON object, keyed by integers."""
    if not isinstance(level, dict):
        raise ValueError(f"latency table: {where} must be a JSON object, got {level!r}")
    out = {}
    for key, value in level.items():
        try:
            out[int(key)] = value
        except ValueError:
            raise ValueError(
                f"latency table: {where} key must be an integer, got {key!r}") from None
    return out


def latency_lookup(table: LatencyTable, mode: str, n: int, m: int = 0) -> float:
    """End-to-end seconds for one pipeline at batch size N.

    sc: generation only; disc: generation plus the scoring sweep; gen:
    generation plus M verification generations.
    """
    if mode not in PIPELINE_MODES:
        raise ValueError(f"unknown pipeline mode: {mode!r}")
    total = table.lookup(GENERATION, n)
    if mode == "disc":
        total += table.lookup(DISC_VERIFY, n)
    elif mode == "gen":
        total += table.lookup(GEN_VERIFY, n, m)
    return total


def _sweep(values: Sequence[float]) -> dict[int, float]:
    return {2**i: v for i, v in enumerate(values)}


# Wall-clock sweep on a single H100 under vLLM, N doubling from 1 to 128;
# 32B solver generation, 1.5B single-scalar verification, gen_verify at M=2.
BUNDLED_LATENCY = LatencyTable(
    entries={
        **{
            (GENERATION, n, 0): s
            for n, s in _sweep(
                [273.1, 276.6, 288.4, 448.4, 782.9, 1434.0, 2815.5, 5514.1]
            ).items()
        },
        **{
            (DISC_VERIFY, n, 0): s
            for n, s in _sweep(
                [0.05, 0.10, 0.21, 0.42, 0.83, 1.66, 3.32, 6.65]
            ).items()
        },
        **{
            (GEN_VERIFY, n, 2): s
            for n, s in _sweep(
                [552.0, 558.8, 656.6, 992.8, 1825.7, 3423.7, 6668.8, 13160.7]
            ).items()
        },
    }
)
