"""Seeded inputs for the benchmark workloads.

Everything a workload feeds the program is derived from the workload seed:
the synthetic catalogue's data (its generator takes the seed directly), and,
from here, the order of the paper logs in each pass and the literal-perturbed
log variants and request stream of serve-mixed.
The same seed always yields the same inputs; the program itself only ever
sees the generated SQL text and catalogue.
"""

from __future__ import annotations

import datetime as dt
import random
import re
from dataclasses import dataclass

#: the six paper logs other than Filter (Listings 1-3 and 5-7)
PAPER_LOGS = ("explore", "abstract", "connect", "sdss", "covid", "sales")

#: the default workload seed; 42 is also the CLI's catalogue seed, so the
#: default inputs are exactly what ``repro generate`` runs
DEFAULT_SEED = 42

_NUM = r"-?\d+(?:\.\d+)?"
_DATE = r"'\d{4}-\d{2}-\d{2}'"
_BTWN = re.compile(rf"BTWN\s+({_NUM}|{_DATE})\s*&\s*({_NUM}|{_DATE})")
_IN_LIST = re.compile(r"\bin\s*\(([\d,\s]+)\)", re.IGNORECASE)
_DATE_CMP = re.compile(rf"([<>]=?\s*)({_DATE})")
_DAYS = re.compile(r"'-(\d+) days'")


def log_order(seed: int, pass_index: int) -> list[str]:
    """The order in which one paper-logs pass generates the six logs."""
    order = list(PAPER_LOGS)
    random.Random(f"paper-logs:{seed}:{pass_index}").shuffle(order)
    return order


def _parse_date(text: str) -> dt.date:
    return dt.date.fromisoformat(text.strip("'"))


def _fmt_date(day: dt.date) -> str:
    return f"'{day.isoformat()}'"


def _decimals(text: str) -> int:
    return len(text.split(".")[1]) if "." in text else 0


def _shift_pair(lo: str, hi: str, rng: random.Random) -> tuple[str, str]:
    """Translate a BTWN range by a non-zero delta of up to a fifth of its width."""
    if lo.startswith("'"):
        a, b = _parse_date(lo), _parse_date(hi)
        limit = max(3, (b - a).days // 5)
        delta = dt.timedelta(days=rng.choice([-1, 1]) * rng.randint(1, limit))
        return _fmt_date(a + delta), _fmt_date(b + delta)
    places = max(_decimals(lo), _decimals(hi))
    step = 10.0**-places
    width = float(hi) - float(lo)
    units = max(1, int(width * 0.2 / step))
    delta = rng.choice([-1, 1]) * rng.randint(1, units) * step
    return (f"{float(lo) + delta:.{places}f}", f"{float(hi) + delta:.{places}f}")


def perturb_query(query: str, rng: random.Random) -> str:
    """Shift the literals of one query by small seeded amounts.

    BTWN ranges are translated (both ends by one delta, so the range keeps
    its width and order); IN-list ids, date comparisons and ``'-N days'``
    offsets are shifted one by one.  A literal that occurs several times in
    one query (the sales log repeats its date range inside the correlated
    subquery) is replaced consistently.
    """
    memo: dict[str, str] = {}

    def once(make):
        def replace(m: re.Match) -> str:
            if m.group(0) not in memo:
                memo[m.group(0)] = make(m)
            return memo[m.group(0)]

        return replace

    @once
    def btwn(m: re.Match) -> str:
        return "BTWN {} & {}".format(*_shift_pair(m.group(1), m.group(2), rng))

    @once
    def in_list(m: re.Match) -> str:
        shift = rng.randint(1, 20)
        ids = [int(v) + shift for v in m.group(1).split(",")]
        return f"in ({', '.join(map(str, ids))})"

    @once
    def date_cmp(m: re.Match) -> str:
        days = rng.choice([-1, 1]) * rng.randint(1, 5)
        return m.group(1) + _fmt_date(_parse_date(m.group(2)) + dt.timedelta(days=days))

    @once
    def days(m: re.Match) -> str:
        n = max(2, int(m.group(1)) + rng.choice([-2, -1, 1, 2]))
        return f"'-{n} days'"

    query = _BTWN.sub(btwn, query)
    query = _IN_LIST.sub(in_list, query)
    query = _DATE_CMP.sub(date_cmp, query)
    return _DAYS.sub(days, query)


def log_variants(seed: int, log: str, queries: tuple[str, ...], count: int) -> list[tuple[str, ...]]:
    """The first ``count`` literal-perturbed variants of one log.

    No variant equals the original log or an earlier variant, so each one is
    a request the service has not seen before.  Each log draws from its own
    seeded stream, so the first variants do not depend on ``count``.
    """
    rng = random.Random(f"serve-mixed:{seed}:{log}")
    seen = {tuple(queries)}
    variants: list[tuple[str, ...]] = []
    for _ in range(100 * count):
        variant = tuple(perturb_query(q, rng) for q in queries)
        if variant not in seen:
            seen.add(variant)
            variants.append(variant)
            if len(variants) == count:
                return variants
    raise ValueError(f"{log}: too few literals to make {count} distinct variants")


@dataclass(frozen=True)
class Request:
    """One serve-mixed request: which log, which variant, fresh or repeat."""

    log: str
    variant: int
    fresh: bool


def request_round(seed: int, round_index: int, logs: tuple[str, ...], repeats: int) -> list[Request]:
    """One closed-loop round: a new variant of every log plus ``repeats``
    repeats of each, interleaved in a seeded order.  A log's first request
    in the round is its fresh one; the rest repeat that same variant."""
    labels = [log for log in logs for _ in range(1 + repeats)]
    random.Random(f"serve-round:{seed}:{round_index}").shuffle(labels)
    served: set[str] = set()
    stream = []
    for log in labels:
        stream.append(Request(log, round_index, log not in served))
        served.add(log)
    return stream
