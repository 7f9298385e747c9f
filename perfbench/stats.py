"""Statistics of the repository benchmark: percentiles, host-speed
normalization, failure counting and span self time. Pure functions over
plain data, tested by test_stats.py."""

import math
import statistics
from fractions import Fraction

# Samples that must lie beyond the reported tail percentile.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank percentile q (0 < q <= 100) of `values`.

    Returns (value, beyond): the sample at rank ceil(q/100 * n) and the
    number of samples ranked after it. The rank is computed exactly, on
    q as a fraction (99.9 / 100 * 10000 is 9990.000000000002 in floating
    point, one rank too high).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of no samples")
    exact = Fraction(q).limit_denominator(10**6) * n / 100
    rank = max(1, -(-exact.numerator // exact.denominator))
    return ordered[rank - 1], n - rank


def tail_percentile(n, min_beyond=MIN_BEYOND):
    """The highest percentile of an n-sample set that has at least
    `min_beyond` samples beyond it, as a Fraction; None when n is too
    small."""
    if n <= min_beyond:
        return None
    return Fraction(100 * (n - min_beyond), n)


def mean_of_medians(groups):
    """Mean over `groups` (lists of samples, one per pass) of each group's
    median.

    Pooling the passes and taking one median instead would land, when a
    pass holds one sample of each of an even number of jobs, on the edge
    between two jobs' bands of samples: one band's slowest sample or the
    next band's fastest. Each pass's median is the mean of its two middle
    samples. The mean over passes, unlike their median, moves in
    proportion to the share of passes a slower machine state covers,
    rather than jumping to the state that covers most of them.
    """
    if not groups:
        raise ValueError("mean of no groups")
    return statistics.fmean(statistics.median(g) for g in groups)


def mean_of_percentiles(groups, q):
    """Mean over `groups` (lists of samples, one per pass) of each group's
    nearest-rank percentile q.

    For the same reason as mean_of_medians: a percentile of the pooled
    passes falls, once each job holds one band of samples, on the edge
    between two jobs' bands, and which side of the edge it lands on moves
    from run to run. A pass's percentile is one job's sample.
    """
    if not groups:
        raise ValueError("mean of no groups")
    return statistics.fmean(percentile(g, q)[0] for g in groups)


def probe_ms(probe):
    """One host probe's figure: the geometric mean of its kernel times.

    `probe` is the runner's record [samples, kernel ms...]. The geometric
    mean weighs each kernel's relative slowdown equally, whatever its
    absolute time.
    """
    times = probe[1:]
    if not times or min(times) <= 0:
        raise ValueError("probe without positive kernel times: %r" % probe)
    return math.exp(statistics.fmean(math.log(t) for t in times))


def host_normalized(samples, probes, nominal_ms):
    """Express each sample at the host speed where a probe takes
    `nominal_ms`: sample * nominal_ms / probe_ms(p), for the first probe p
    taken after the sample.

    `samples` are the times of one batch (a pass, or the set-up
    repetitions) in order; each probe's first field is the number of
    samples taken before it. Every sample needs a probe after it.
    """
    out = []
    probes = sorted(probes, key=lambda p: p[0])
    k = 0
    for i, sample in enumerate(samples):
        while k < len(probes) and probes[k][0] <= i:
            k += 1
        if k == len(probes):
            raise ValueError("sample %d has no probe after it" % i)
        out.append(sample * nominal_ms / probe_ms(probes[k]))
    return out


def count_failures(jobs, committed=None):
    """Count attempted and failed job runs.

    `jobs` maps a job id to the runner's record: its first run's digest,
    whether that run was healthy (`ok`), how many times it ran (`runs`)
    and how many later runs disagreed with the first (`inconsistent`).
    `committed` maps job ids to the digests recorded for this seed, or is
    None when the seed has none.

    A run fails when it is unhealthy, when it disagrees with the job's
    first run, or when the job's digest differs from the committed one.
    A committed job that never ran counts as one failure.
    Returns (attempted, failed, reasons).
    """
    attempted = 0
    failed = 0
    reasons = []
    for job_id, job in jobs.items():
        attempted += job["runs"]
        if not job["ok"]:
            failed += job["runs"]
            reasons.append("%s: unhealthy (%s)" % (job_id, job["error"]))
        elif committed is not None and committed.get(job_id) != job["digest"]:
            failed += job["runs"]
            reasons.append("%s: outcome digest %s, committed %s"
                           % (job_id, job["digest"], committed.get(job_id)))
        elif job["inconsistent"]:
            failed += job["inconsistent"]
            reasons.append("%s: %d runs disagree with the first"
                           % (job_id, job["inconsistent"]))
    for job_id in sorted(set(committed or {}) - set(jobs)):
        failed += 1
        reasons.append("%s: committed but never ran" % job_id)
    return attempted, failed, reasons


def _covered(intervals, start, end):
    """Length of the union of `intervals`, clipped to [start, end]."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total = 0
    cur_start = cur_end = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time per span name.

    `spans` is a list of (id, parent, name, start, end); parent is -1 for
    a root. A span's self time is its duration minus the part of its
    interval that its child spans cover. Returns {name: summed self time}
    in the spans' time unit.
    """
    children = {}
    for span_id, parent, _name, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    totals = {}
    for span_id, _parent, name, start, end in spans:
        own = (end - start) - _covered(children.get(span_id, []), start, end)
        totals[name] = totals.get(name, 0) + own
    return totals


def durations(spans, name):
    """Summed duration of the spans called `name`."""
    return sum(end - start for _i, _p, n, start, end in spans if n == name)
