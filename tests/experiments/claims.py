"""The paper's Section-5 claims as predicates over the experiment rows.

Each :class:`Claim` names the figure it belongs to, the rows it reads
(``set/row/field`` paths into the rows of :mod:`tests.experiments.runs`,
committed in ``tests/core/golden/experiment_rows.json``), a predicate
over those values in that order, and the EXPERIMENTS.md sentence it
backs; EXPERIMENTS.md cites the claim by name beside that sentence.
Where a deleted shape test or benchmark stated a tolerance, the claim
keeps it.

:func:`evaluate` turns rows into one :class:`FigureReport` per figure,
each holding every claim's verdict and the values it read.  Tier-1
(``tests/experiments/test_claims.py``) evaluates the committed rows;
``python -m tests.core.test_sim_golden --experiments`` evaluates freshly
computed ones.  :func:`doc_table` renders EXPERIMENTS.md's measured
columns from the same rows, for :func:`repro.analysis.docscheck.diff_table`
to diff.
"""

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.analysis.docscheck import DocTable

Rows = Mapping[str, object]

#: The paper's Fig 5 table: (execution time in s, accuracy).
PAPER_FIG5 = {"centralized": ("257.5", "0.99"), "distributed": ("180.8", "0.97")}
#: The paper's Fig 8 plateaus by analysis cost (ms/byte), as printed.
PAPER_FIG8 = {"1": "1", "5": "1", "8": "~.65", "10": "~.55", "20": "~.31"}
#: The paper's Fig 9 plateaus by generation rate (bytes/s), as printed.
PAPER_FIG9 = {
    "5000": "~1", "10000": "~1", "20000": "~.5", "40000": "~.25", "80000": "~.125",
}
BANDWIDTHS = ("1000", "10000", "100000", "1000000")
FIXED = ("40", "80", "120", "160")
VERSIONS = FIXED + ("adaptive",)
CONSTRAINED_COSTS = ("8", "10", "20")
WEIGHT_ARMS = ("lifetime-only", "recent-only", "alpha=0.95", "alpha=0.3")
SKETCH_ARMS = ("misra-gries", "space-saving", "lossy-counting")
SCALING = ("2", "4", "8", "16")
PHASES = ("40000", "10000", "20000")


def read(rows: Rows, path: str) -> object:
    """The value at ``set/row/.../field``."""
    value: object = rows
    for key in path.split("/"):
        value = value[key]  # type: ignore[index]
    return value


def _paper_value(text: str) -> float:
    return float(text.lstrip("~"))


def _decreasing(*values: float) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def _pairs(values: Sequence[float]) -> List[Tuple[float, float]]:
    """``values`` as consecutive pairs: (a, b, c, d) -> [(a, b), (c, d)]."""
    return list(zip(values[::2], values[1::2]))


def _cells(field: str, bandwidths: Sequence[str], versions: Sequence[str]) -> Tuple[str, ...]:
    return tuple(f"fig6_7/{bw}/{v}/{field}" for bw in bandwidths for v in versions)


@dataclass(frozen=True)
class Claim:
    """One sentence of EXPERIMENTS.md as a predicate over rows."""

    name: str
    figure: str
    reads: Tuple[str, ...]
    holds: Callable[..., bool]
    sentence: str


def _fig6_7_never_worst(*values: float) -> bool:
    """Per bandwidth: exec of k=40..160, adaptive, then accuracy likewise."""
    for i in range(0, len(values), 10):
        times, accuracies = values[i:i + 5], values[i + 5:i + 10]
        if times[4] > max(times[:4]) or accuracies[4] < min(accuracies[:4]):
            return False
    return True


CLAIMS: Tuple[Claim, ...] = (
    # -- Figure 5 -----------------------------------------------------------
    Claim(
        "fig5-distributed-faster", "fig5",
        ("fig5/distributed/execution_time", "fig5/centralized/execution_time"),
        lambda distributed, centralized: distributed < centralized,
        "distributed is faster",
    ),
    Claim(
        "fig5-fewer-bytes", "fig5",
        ("fig5/distributed/bytes_to_center", "fig5/centralized/bytes_to_center"),
        lambda distributed, centralized: distributed < 0.5 * centralized,
        "ships less than half the bytes to the center",
    ),
    Claim(
        "fig5-both-accurate", "fig5",
        ("fig5/centralized/accuracy", "fig5/distributed/accuracy"),
        lambda centralized, distributed: centralized > 0.9 and distributed > 0.85,
        "Both versions answer the query well",
    ),
    Claim(
        "fig5-small-accuracy-loss", "fig5",
        ("fig5/centralized/accuracy", "fig5/distributed/accuracy"),
        lambda centralized, distributed: -0.02 <= centralized - distributed < 0.15,
        "with a small accuracy loss",
    ),
    Claim(
        "fig5-centralized-approximate", "fig5",
        ("fig5/centralized/accuracy",),
        lambda centralized: centralized < 1.0,
        "The centralized version is below 1.0 for the paper's",
    ),
    # -- Figures 6 and 7 ----------------------------------------------------
    Claim(
        "fig6-time-grows-with-k", "fig6",
        _cells("execution_time", ("1000",), FIXED),
        lambda *times: _decreasing(*reversed(times)),
        "execution time grows with k at 1 KB/s",
    ),
    Claim(
        "fig6-flat-once-bandwidth-is-free", "fig6",
        _cells("execution_time", ("100000", "1000000"), VERSIONS),
        lambda *times: all(
            abs(fast - slow) <= 0.1 * slow for slow, fast in zip(times[:5], times[5:])
        ),
        "flattens once bandwidth stops binding",
    ),
    Claim(
        "fig6-monotone-in-k-and-bandwidth", "fig6",
        _cells("execution_time", BANDWIDTHS, FIXED),
        lambda *times: all(
            _decreasing(*reversed(times[i:i + len(FIXED)]))
            for i in range(0, len(times), len(FIXED))
        ) and all(
            _decreasing(*times[k::len(FIXED)]) for k in range(len(FIXED))
        ),
        "our Figure 6 is clean and monotone",
    ),
    Claim(
        "fig67-adaptive-between-extremes", "fig6",
        _cells("execution_time", ("1000",), ("adaptive", "160"))
        + _cells("accuracy", ("1000",), ("adaptive", "40")),
        lambda t_adaptive, t_160, a_adaptive, a_40: t_adaptive < t_160 and a_adaptive > a_40,
        "at 1 KB/s it finishes well before the k=160 version by driving k down",
    ),
    Claim(
        "fig67-adaptive-never-worst", "fig6",
        tuple(
            path for bw in BANDWIDTHS
            for path in _cells("execution_time", (bw,), VERSIONS)
            + _cells("accuracy", (bw,), VERSIONS)
        ),
        _fig6_7_never_worst,
        "never had very low accuracy, nor very high execution time",
    ),
    Claim(
        "fig67-adaptive-lowers-k", "fig7",
        ("fig6_7/1000/adaptive/final_k",),
        lambda k: k < 100.0,
        "by driving k down",
    ),
    Claim(
        "fig67-adaptive-raises-k", "fig7",
        tuple(f"fig6_7/{bw}/adaptive/final_k" for bw in BANDWIDTHS[1:]),
        lambda *ks: all(k > 100.0 for k in ks),
        "drives k up from its initial 100",
    ),
    Claim(
        "fig7-accuracy-independent-of-bandwidth", "fig7",
        tuple(f"fig6_7/{bw}/{k}/accuracy" for k in FIXED for bw in BANDWIDTHS),
        lambda *accs: all(
            len(set(accs[i:i + len(BANDWIDTHS)])) == 1
            for i in range(0, len(accs), len(BANDWIDTHS))
        ),
        "accuracy is bandwidth-independent for fixed k",
    ),
    Claim(
        "fig7-accuracy-grows-with-k", "fig7",
        _cells("accuracy", ("1000",), FIXED),
        lambda *accuracies: _decreasing(*reversed(accuracies)),
        "grows with k",
    ),
    # -- Figure 8 -----------------------------------------------------------
    Claim(
        "fig8-unconstrained-at-one", "fig8",
        ("fig8/1/converged", "fig8/5/converged"),
        lambda *plateaus: all(p > 0.9 for p in plateaus),
        "unconstrained versions climb to 1.0",
    ),
    Claim(
        "fig8-slightly-below-feasible", "fig8",
        tuple(f"fig8/{c}/{f}" for c in CONSTRAINED_COSTS for f in ("converged", "feasible")),
        lambda *values: all(0.0 < f - p < 0.15 for p, f in _pairs(values)),
        "constrained versions converge to (slightly below) the feasible rate",
    ),
    Claim(
        "fig8-ordered-by-cost", "fig8",
        tuple(f"fig8/{c}/converged" for c in ("5",) + CONSTRAINED_COSTS),
        _decreasing,
        "strictly ordered by cost",
    ),
    Claim(
        "fig8-starts-at-initial-rate", "fig8",
        tuple(f"fig8/{c}/first" for c in PAPER_FIG8),
        lambda *firsts: all(abs(first - 0.13) < 1e-9 for first in firsts),
        "every trajectory starts at the paper's 0.13",
    ),
    Claim(
        "fig8-below-feasible-like-the-paper", "fig8",
        tuple(f"fig8/{c}/feasible" for c in CONSTRAINED_COSTS),
        lambda *feasible: all(
            _paper_value(PAPER_FIG8[c]) < f for c, f in zip(CONSTRAINED_COSTS, feasible)
        ),
        "the paper's constrained plateaus sit below the feasible rate too",
    ),
    # -- Figure 9 -----------------------------------------------------------
    Claim(
        "fig9-unconstrained-at-one", "fig9",
        ("fig9/5000/converged", "fig9/10000/converged"),
        lambda *plateaus: all(p > 0.9 for p in plateaus),
        "generation rates the link can carry climb to 1.0",
    ),
    Claim(
        "fig9-within-2pct-of-feasible", "fig9",
        tuple(
            f"fig9/{g}/{f}" for g in ("20000", "40000", "80000")
            for f in ("converged", "feasible")
        ),
        lambda *values: all(abs(p - f) <= 0.02 * f for p, f in _pairs(values)),
        "within 2 % of",
    ),
    Claim(
        "fig9-ordered-by-rate", "fig9",
        tuple(f"fig9/{g}/converged" for g in ("20000", "40000", "80000")),
        _decreasing,
        "strictly ordered by generation rate",
    ),
    Claim(
        "fig9-starts-at-initial-rate", "fig9",
        tuple(f"fig9/{g}/first" for g in PAPER_FIG9),
        lambda *firsts: all(abs(first - 0.01) < 1e-9 for first in firsts),
        "every trajectory starts at the paper's 0.01",
    ),
    # -- Ablations (the default arm is Fig 8's 20 ms/byte run) ---------------
    Claim(
        "ablation-phi2-same-plateau", "ablation-phi2",
        ("fig8/20/converged", "ablation-phi2/linear/converged"),
        lambda saturating, linear: abs(saturating - linear) < 0.2
        and max(saturating, linear) < 0.6,
        "barely moves the plateau",
    ),
    Claim(
        "ablation-weights-recent-is-the-workhorse", "ablation-weights",
        ("fig8/20/converged", "fig8/20/feasible")
        + tuple(f"ablation-weights/{arm}/converged" for arm in WEIGHT_ARMS),
        lambda default, feasible, lifetime, recent, *alphas: (
            abs(recent - feasible) < 0.25
            and abs(default - feasible) <= abs(lifetime - feasible) + 0.05
            and max(default, lifetime, recent, *alphas) < 0.7
        ),
        "the recent-load factor φ₃ is the workhorse",
    ),
    Claim(
        "ablation-sigma-no-plateau-gain", "ablation-sigma",
        (
            "fig8/20/converged", "ablation-sigma/off/converged", "fig8/20/feasible",
            "fig8/20/time_to_band", "ablation-sigma/off/time_to_band",
        ),
        lambda on, off, feasible, band_on, band_off: (
            on < feasible and off < feasible and off >= on
            and band_on is not None and band_off is not None and band_on <= band_off
        ),
        "the boost does not raise the plateau",
    ),
    Claim(
        "ablation-exceptions-load-bearing", "ablation-exceptions",
        ("fig8/20/converged", "ablation-exceptions/off/converged", "fig8/20/feasible"),
        lambda on, off, feasible: abs(on - feasible) < 0.2 and off > on + 0.2,
        "load-bearing",
    ),
    Claim(
        "ablation-sketches-all-find-the-heavy-hitters", "ablation-sketches",
        ("fig5/distributed/accuracy",)
        + tuple(f"ablation-sketches/{arm}/accuracy" for arm in SKETCH_ARMS),
        lambda *accs: min(accs) > 0.7 and max(accs) - min(accs) < 0.3,
        "all four interchangeable summaries find the heavy hitters",
    ),
    Claim(
        "ablation-sketches-counting-sample-in-the-middle", "ablation-sketches",
        ("fig5/distributed/accuracy",)
        + tuple(f"ablation-sketches/{arm}/accuracy" for arm in SKETCH_ARMS),
        lambda counting, *others: min(others) < counting < max(others),
        "the randomized counting sample is neither the best nor the worst",
    ),
    # -- Extensions ---------------------------------------------------------
    Claim(
        "ext-dynamic-reconverges", "ext-dynamic",
        tuple(f"dynamic/{bw}/{f}" for bw in PHASES for f in ("measured", "feasible")),
        lambda *values: (
            all(abs(m - f) < 0.12 for m, f in _pairs(values))
            and values[0] > values[4] > values[2]
        ),
        "re-converges when resources change mid-run",
    ),
    Claim(
        "ext-hierarchy-consolidates", "ext-hierarchy",
        (
            "ext-hierarchy/hierarchical/join_items_in", "ext-hierarchy/flat/join_items_in",
            "ext-hierarchy/hierarchical/accuracy", "ext-hierarchy/flat/accuracy",
        ),
        lambda hier_items, flat_items, hier_acc, flat_acc: (
            hier_items < flat_items and hier_acc > flat_acc - 0.1
        ),
        "consolidates the core",
    ),
    Claim(
        "ext-query-usable-early", "ext-query",
        tuple(
            f"ext-query/{f}" for f in (
                "time_to_half", "execution_time", "final_quality",
                "first_quarter_quality", "last_quarter_quality",
            )
        ),
        lambda half, run, final, early, late: (
            half is not None and half < 0.8 * run and final > 0.8 and late > early
        ),
        "usable \"at any given point in the stream\"",
    ),
    Claim(
        "ext-scaling-gap-grows", "ext-scaling",
        tuple(f"ext-scaling/{n}/speedup" for n in SCALING)
        + tuple(f"ext-scaling/{n}/accuracy_cost" for n in SCALING),
        lambda *values: (
            min(values[:4]) > 1.0
            and _decreasing(*reversed(values[:4]))
            and max(values[4:]) < 0.15
        ),
        "a larger difference can be expected",
    ),
)


@dataclass(frozen=True)
class Verdict:
    """One claim evaluated: the values it read and whether it holds."""

    claim: Claim
    values: Tuple[object, ...]
    holds: bool


@dataclass(frozen=True)
class FigureReport:
    """Every claim of one figure over one set of rows."""

    figure: str
    verdicts: Tuple[Verdict, ...]

    def render(self) -> str:
        held = sum(verdict.holds for verdict in self.verdicts)
        lines = [f"{self.figure}: {held}/{len(self.verdicts)} claims hold"]
        for verdict in self.verdicts:
            values = ", ".join(_show(value) for value in verdict.values)
            mark = "ok  " if verdict.holds else "FAIL"
            lines.append(f"  {mark} {verdict.claim.name} [{values}]")
        return "\n".join(lines)


def _show(value: object) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def judge(claim: Claim, rows: Rows) -> Verdict:
    values = tuple(read(rows, path) for path in claim.reads)
    return Verdict(claim, values, bool(claim.holds(*values)))


def evaluate(rows: Rows) -> List[FigureReport]:
    """One report per figure, in :data:`CLAIMS` order."""
    figures: Dict[str, List[Verdict]] = {}
    for claim in CLAIMS:
        figures.setdefault(claim.figure, []).append(judge(claim, rows))
    return [FigureReport(figure, tuple(verdicts)) for figure, verdicts in figures.items()]


# -- EXPERIMENTS.md's measured columns, rendered from the rows ------------------

BANDWIDTH_NAMES = {"1000": "1 KB/s", "10000": "10 KB/s", "100000": "100 KB/s",
                   "1000000": "1 MB/s"}


def _fig5(rows: Rows) -> Dict[str, str]:
    return {
        style.capitalize(): " | ".join([
            PAPER_FIG5[style][0], f"{read(rows, f'fig5/{style}/execution_time'):.1f}",
            PAPER_FIG5[style][1], f"{read(rows, f'fig5/{style}/accuracy'):.3f}",
            f"{read(rows, f'fig5/{style}/bytes_to_center'):,.0f}",
        ])
        for style in PAPER_FIG5
    }


def _fig6(rows: Rows) -> Dict[str, str]:
    return {
        BANDWIDTH_NAMES[bw]: " | ".join(
            f"{read(rows, path):.1f}" for path in _cells("execution_time", (bw,), VERSIONS)
        )
        for bw in BANDWIDTHS
    }


def _fig7(rows: Rows) -> Dict[str, str]:
    table = {}
    for bw in BANDWIDTHS:
        cells = [f"{read(rows, path):.3f}" for path in _cells("accuracy", (bw,), VERSIONS)]
        cells[-1] += f" (k→{read(rows, f'fig6_7/{bw}/adaptive/final_k'):.0f})"
        table[BANDWIDTH_NAMES[bw]] = " | ".join(cells)
    return table


def _plateaus(figure: str, paper: Mapping[str, str], name: Callable[[str], str]):
    def render(rows: Rows) -> Dict[str, str]:
        return {
            name(key): " | ".join([
                printed,
                f"{read(rows, f'{figure}/{key}/feasible'):.3f}",
                f"{read(rows, f'{figure}/{key}/converged'):.3f}",
            ])
            for key, printed in paper.items()
        }

    return render


def _band(value: object) -> str:
    return "never" if value is None else f"{value:.0f} s"


def _ablations(rows: Rows) -> Dict[str, str]:
    default = read(rows, "fig8/20/converged")
    weights = [default] + [read(rows, f"ablation-weights/{a}/converged") for a in WEIGHT_ARMS]
    sketches = [read(rows, "fig5/distributed/accuracy")] + [
        read(rows, f"ablation-sketches/{arm}/accuracy") for arm in SKETCH_ARMS
    ]
    return {
        "φ₂ form": (
            f"{default:.3f} vs {read(rows, 'ablation-phi2/linear/converged'):.3f}; "
            f"in the band after {_band(read(rows, 'fig8/20/time_to_band'))} vs "
            f"{_band(read(rows, 'ablation-phi2/linear/time_to_band'))}"
        ),
        "load-factor weights": " / ".join(f"{w:.3f}" for w in weights),
        "σ variability boost": (
            f"{default:.3f} vs {read(rows, 'ablation-sigma/off/converged'):.3f}; "
            f"in the band after {_band(read(rows, 'fig8/20/time_to_band'))} vs "
            f"{_band(read(rows, 'ablation-sigma/off/time_to_band'))}"
        ),
        "exception protocol": (
            f"{default:.3f} vs {read(rows, 'ablation-exceptions/off/converged'):.3f}"
        ),
        "sketch choice": "accuracy " + " / ".join(f"{a:.3f}" for a in sketches),
    }


def _extensions(rows: Rows) -> Dict[str, str]:
    def phases(field: str) -> str:
        return " / ".join(f"{read(rows, f'dynamic/{bw}/{field}'):.3f}" for bw in PHASES)

    flat, hier = (f"ext-hierarchy/{arm}" for arm in ("flat", "hierarchical"))
    return {
        "dynamic bandwidth": f"plateaus {phases('measured')} vs feasible {phases('feasible')}",
        "hierarchical deployment": (
            f"accuracy {read(rows, f'{flat}/accuracy'):.3f} vs "
            f"{read(rows, f'{hier}/accuracy'):.3f}; join inbound "
            f"{read(rows, f'{flat}/join_items_in')}→{read(rows, f'{hier}/join_items_in')} "
            f"messages, {read(rows, f'{flat}/join_bytes_in') / 1000:.0f} KB→"
            f"{read(rows, f'{hier}/join_bytes_in') / 1000:.0f} KB"
        ),
        "scaling with source count": "speedup " + " / ".join(
            f"{read(rows, f'ext-scaling/{n}/speedup'):.1f}" for n in SCALING
        ),
        "live-query convergence": (
            f"accuracy 0.5 by t={read(rows, 'ext-query/time_to_half'):.2f} s of "
            f"{read(rows, 'ext-query/execution_time'):.2f} s; "
            f"{read(rows, 'ext-query/first_quarter_quality'):.3f} over the first "
            f"quarter of polls, {read(rows, 'ext-query/last_quarter_quality'):.3f} "
            f"over the last, {read(rows, 'ext-query/final_quality'):.3f} at the end"
        ),
    }


#: Table name -> (the EXPERIMENTS.md heading of its section, the renderer
#: of its measured values by row name, and whether those values are the
#: row's third cell alone rather than everything after its first).
TABLES: Dict[str, Tuple[str, Callable[[Rows], Dict[str, str]], bool]] = {
    "fig5": ("## Figure 5", _fig5, False),
    "fig6": ("### Figure 6", _fig6, False),
    "fig7": ("### Figure 7", _fig7, False),
    "fig8": ("## Figure 8", _plateaus("fig8", PAPER_FIG8, str), False),
    "fig9": (
        "## Figure 9", _plateaus("fig9", PAPER_FIG9, lambda g: f"{int(g) // 1000} KB/s"), False,
    ),
    "ablations": ("## Ablations", _ablations, True),
    "extensions": ("## Extension experiments", _extensions, True),
}


def doc_table(name: str, rows: Rows) -> Tuple[str, DocTable]:
    """The heading of table ``name``'s section and a DocTable holding the
    section's rows to the values rendered from ``rows``."""
    heading, render, measured_cell = TABLES[name]
    measured = render(rows)
    names = "|".join(re.escape(row) for row in measured)
    value = r"[^|]*\|\s*(?P<value>[^|]*?)\s*\|" if measured_cell else r"\s*(?P<value>.*?)\s*\|$"
    return heading, DocTable(
        page="EXPERIMENTS.md",
        entry=f"{heading!r} row",
        catalog_ref="tests/core/golden/experiment_rows.json",
        row=re.compile(rf"^\|\s*(?P<name>{names})\s*\|{value}"),
        catalog=lambda: measured,
        value_label="measured",
    )
