"""The benchmark's arithmetic: percentiles, self times, ratios, names, fingerprints.

Every number run.py reports is computed here from the harness's raw samples, so
the rules behind them are tested in one place (test_stats.py).
"""

import math
import re
import statistics

# A metric name: starts with a letter or digit, then letters, digits, '_', '.'
# or '-', at most 64 characters in all.
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# A reported tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

# Fields of a result's fingerprint that must agree before two results are
# compared. The source digest is recorded but not compared: it differs between
# the two commits of every comparison that matters.
COMPARABLE_FIELDS = ("cpu_model", "nproc", "build_type", "threads", "workload", "seconds", "trace")


def check_name(name):
    """Return `name` if it is a valid metric name, else raise ValueError."""
    if not isinstance(name, str) or _NAME.fullmatch(name) is None:
        raise ValueError(f"invalid metric name {name!r}: want [A-Za-z0-9][A-Za-z0-9_.-]*, at most 64")
    return name


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def rank(n, p):
    """1-based nearest rank of the p-th percentile among n samples."""
    if n < 1 or not 0 < p <= 100:
        raise ValueError(f"percentile {p} of {n} samples")
    return max(1, math.ceil(p / 100 * n))


def beyond(n, p):
    """Samples strictly above the p-th percentile's nearest rank."""
    return n - rank(n, p)


def percentile(values, p):
    """Nearest-rank p-th percentile; refuses one with fewer than MIN_BEYOND samples beyond it."""
    n = len(values)
    if beyond(n, p) < MIN_BEYOND:
        raise ValueError(f"p{p:g} of {n} samples has {beyond(n, p)} beyond it; need {MIN_BEYOND}")
    return sorted(values)[rank(n, p) - 1]


def tail(values, candidates=(99.9, 99, 95, 90, 75, 50)):
    """The highest candidate percentile the samples support, as (p, value).

    Falls back to (50, median) when not even the median has MIN_BEYOND samples
    beyond it, so a tail equal to the median says the sample is too small.
    """
    for p in candidates:
        if beyond(len(values), p) >= MIN_BEYOND:
            return p, percentile(values, p)
    return 50, median(values)


def ratio(numerator, base):
    """numerator / base; a ratio on an empty or negative base is refused."""
    if base <= 0:
        raise ValueError(f"ratio {numerator}/{base} has no base")
    return numerator / base


def self_times(spans):
    """Self time per layer from nested spans.

    `spans` holds [id, parent, layer, start, end] rows (parent 0 = root). A
    span's self time is its duration minus the part of its interval that its
    child spans cover; overlapping children count once. Returns
    {layer: total self time} in the spans' time unit.
    """
    children = {}
    for span_id, parent, _layer, start, end in spans:
        if end < start:
            raise ValueError(f"span {span_id} ends before it starts")
        children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _parent, layer, start, end in spans:
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(span_id, [])):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[layer] = out.get(layer, 0) + (end - start) - covered
    return out


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def fingerprint_mismatch(a, b):
    """Names of the comparable fingerprint fields on which two results differ."""
    return [f for f in COMPARABLE_FIELDS if a.get(f) != b.get(f)]
