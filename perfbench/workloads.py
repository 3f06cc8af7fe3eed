"""Seeded workloads of the locc-lab benchmark.

Each workload turns ``(seed, pass index)`` into a list of queries against
the public API of ``locc_lab`` (the package only ever sees the generated
inputs), runs one query at a time, and checks every answer against the
dense reference in ``reference.py`` or against the paper's catalog values.
Every pass draws fresh seeded inputs, so no query repeats across passes
except the fixed catalog questions.

Workloads, and why each was chosen:

* ``manycopy`` - many-copy questions at copy counts up to 16.  Tensor
  powers and large majorization / Vidal sweeps do the work; catalysis,
  state files and the CLI sit idle.  Scans rebuild every power from
  scratch, and denominators from 10**2 to 10**6 vary the bigint cost.
* ``catalyst`` - catalyst grid searches on incomparable pairs that pass
  the extreme-coefficient test, so the grid really runs, plus ``catalyzes``
  verifications.  Thousands of tiny ``make_spectrum`` / ``tensor_product``
  / ``majorized_by`` calls per query; ``tensor_power`` is nearly idle, so
  a change that speeds big sweeps but adds per-call set-up shows as a loss.
* ``cli_triage`` - one in-process ``locc_lab.cli.main(argv)`` per query on
  seeded state files in every input form, a few of them malformed on
  purpose (exit 2 expected).  Most pairs decide cheaply, so parsing,
  validation, parser construction and rendering are a visible share of
  each query; a many-copy optimisation should not move it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import reference as ref

#: The paper's example states, as the benchmark's own copy of the values.
CATALOG = {
    "eq2": ("0.4", "0.36", "0.14", "0.1"),
    "eq3": ("0.5", "0.25", "0.25"),
    "eq6": ("0.4", "0.4", "0.1", "0.1"),
    "eq7": ("0.5", "0.27", "0.23"),
    "eq8": ("0.4", "0.4", "0.1", "0.1"),
    "eq9": ("0.48", "0.27", "0.25"),
    "eq12": ("0.4", "0.4", "0.2"),
    "eq13": ("0.5", "0.25", "0.25"),
    "chi": ("0.6", "0.4"),
}
CATALOG_PROBS = {name: ref.normalized(vals) for name, vals in CATALOG.items()}

#: Known answers from the paper (and the package's frozen acceptance values).
PAPER_PMAX = {("eq2", "eq3", 1): Fraction(24, 25), ("eq6", "eq7", 1): Fraction(20, 23),
              ("eq6", "eq7", 2): Fraction(72, 73), ("eq12", "eq13", 1): Fraction(4, 5),
              ("eq13", "eq12", 1): Fraction(5, 6)}
PAPER_MIN_K = {("eq2", "eq3"): 2, ("eq6", "eq7"): 3, ("eq8", "eq9"): 6}


class CheckFailed(AssertionError):
    """An answer disagreed with the reference or the paper."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Query:
    kind: str
    args: tuple  # what the package receives
    probs: tuple = ()  # reference probability tuples of the states involved
    names: tuple = ()  # catalog names, when the states are catalog entries
    extra: dict = field(default_factory=dict)


def seeded_probs(rng: random.Random, rank: int, distinct: int, denom: int) -> tuple:
    """Random descending probabilities: `rank` entries, exactly `distinct`
    different values, common denominator near `denom` before reduction."""
    mults = [1] * distinct
    for _ in range(rank - distinct):
        mults[rng.randrange(distinct)] += 1
    top = max(2 * denom // rank, distinct + 1)
    while True:
        weights = rng.sample(range(1, top + 1), distinct)
        total = sum(w * c for w, c in zip(weights, mults))
        probs = ref.normalized(
            Fraction(w, total) for w, c in zip(weights, mults) for _ in range(c))
        if len(set(probs)) == distinct:
            return probs


def incomparable_pair(draw_x, draw_y=None, accept=None):
    """First drawn pair (x, y) that is single-copy incomparable, not
    strongly incomparable, and satisfies `accept` when given."""
    while True:
        x, y = draw_x(), (draw_y or draw_x)()
        if (ref.relation(x, y) == "incomparable" and not ref.strong(x, y)
                and (accept is None or accept(x, y))):
            return x, y


def pair_with_outcome(draw, kind: str, outcome: str):
    """Seeded incomparable pair for a many-copy search whose length is known
    in advance (see ManyCopy.SEEDED_SLOTS)."""
    accept = ref.necessary if kind == "find_min_deterministic_k" else None
    while True:
        x, y = incomparable_pair(draw, accept=accept)
        n = ref.min_k(x, y)
        if outcome == "early" and n in (2, 3):
            return x, y
        one_way = kind == "find_min_deterministic_k"
        if outcome == "long" and n is None and (one_way or ref.min_k(y, x) is None):
            return x, y


def canonical(value) -> str:
    """Stable text of an answer, for the run digest."""
    if hasattr(value, "rows"):  # PmaxScan
        return ";".join(f"{r.k}:{r.pmax}:{r.decay_bound}" for r in value.rows)
    if hasattr(value, "kind") and hasattr(value, "searched_up_to"):
        return ":".join(str(v) for v in (value.kind.name, value.direction, value.k,
                                         value.witness, value.searched_up_to))
    if hasattr(value, "entries"):  # SchmidtSpectrum
        return ",".join(f"{v}x{m}" for v, m in value.entries)
    return repr(value)


def digest(answers) -> str:
    h = hashlib.sha256()
    for answer in answers:
        h.update(canonical(answer).encode())
        h.update(b"\n")
    return h.hexdigest()


class Workload:
    """Base: seeded query pools, one-at-a-time execution, answer checks."""

    name = ""

    def __init__(self, lab, seed: int, workdir: str):
        self.lab = lab
        self.seed = seed
        self.workdir = workdir

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def query(self, kind, probs, *rest, names=()) -> Query:
        """Query on the package spectra of `probs`, followed by `rest`."""
        return Query(kind, tuple(map(self.lab.make_spectrum, probs)) + rest, probs, names)

    def warmup(self) -> list[Query]:
        """A few small fixed queries, run untimed during set-up."""
        raise NotImplementedError

    def pool(self, index: int) -> list[Query]:
        raise NotImplementedError

    def run(self, query: Query):
        raise NotImplementedError

    def check(self, query: Query, answer) -> None:
        raise NotImplementedError

    def record(self, pool: list[Query]) -> dict:
        """Input properties of one pass, for the workload record."""
        raise NotImplementedError


def _mix(pool) -> dict:
    return dict(Counter(q.kind for q in pool))


def _denominators(probs_list) -> list[int]:
    """Smallest and largest common denominator among the states."""
    dens = [math.lcm(*(v.denominator for v in p)) for p in probs_list]
    return [min(dens), max(dens)]


# ---------------------------------------------------------------------------
# manycopy


class ManyCopy(Workload):
    name = "manycopy"
    #: (kind, source, target, k or (k, n_max)) on catalog pairs, every pass.
    CATALOG_QUERIES = (
        ("pmax_scan", "eq2", "eq3", 12),
        ("pmax_scan", "eq6", "eq7", 12),
        ("pmax_scan", "eq12", "eq13", 16),
        ("pmax_scan", "eq13", "eq12", 14),
        ("conjecture_scan", "eq2", "eq3", (1, 12)),
        ("conjecture_scan", "eq8", "eq9", (5, 12)),
        ("classify_pair", "eq8", "eq9", 10),
        ("find_min_deterministic_k", "eq6", "eq7", 12),
    )
    #: Seeded slots of every pass: (kind, distinct values, copy budget,
    #: outcome).  The budget shrinks as the distinct-value count grows, since
    #: a k-th power enumerates C(k+m-1, m-1) compositions.  Searches are drawn
    #: with a known outcome ("early": x -> y converts at 2 or 3 copies;
    #: "long": no direction converts at any copy count the dense reference can
    #: expand, so the search runs to its budget).  Fixed slots keep the cost
    #: of a pass nearly the same for every seed.
    SEEDED_SLOTS = (
        ("pmax_scan", 2, 16, None), ("pmax_scan", 3, 14, None), ("pmax_scan", 4, 12, None),
        ("pmax_scan", 2, 15, None), ("pmax_scan", 3, 13, None), ("pmax_scan", 4, 11, None),
        ("classify_pair", 2, 14, "long"), ("classify_pair", 3, 12, "early"),
        ("classify_pair", 4, 8, "long"), ("classify_pair", 3, 10, "early"),
        ("find_min_deterministic_k", 2, 14, "early"), ("find_min_deterministic_k", 3, 12, "long"),
        ("find_min_deterministic_k", 4, 8, "early"), ("find_min_deterministic_k", 3, 10, "long"),
    )
    DENOMS = (10**2, 10**3, 10**4, 10**5, 10**6)

    def warmup(self):
        x, y = CATALOG_PROBS["eq2"], CATALOG_PROBS["eq3"]
        return [self.query(kind, (x, y), 4)
                for kind in ("pmax_scan", "classify_pair", "find_min_deterministic_k")]

    def pool(self, index):
        rng = self.rng(index)
        queries = []
        for kind, a, b, k in self.CATALOG_QUERIES:
            x, y = CATALOG_PROBS[a], CATALOG_PROBS[b]
            rest = k if isinstance(k, tuple) else (k,)
            queries.append(self.query(kind, (x, y), *rest, names=(a, b)))
        for slot, (kind, distinct, k, outcome) in enumerate(self.SEEDED_SLOTS):
            denom = self.DENOMS[(slot + index) % len(self.DENOMS)]

            def draw():
                return seeded_probs(rng, rng.randint(max(3, distinct), 5), distinct, denom)

            if kind == "pmax_scan":
                x, y = sorted((draw(), draw()), key=len, reverse=True)
                k -= index % 3  # spread the scan lengths over the run
            else:
                x, y = pair_with_outcome(draw, kind, outcome)
            queries.append(self.query(kind, (x, y), k))
        rng.shuffle(queries)
        return queries

    def run(self, q):
        return getattr(self.lab, q.kind)(*q.args)

    def check(self, q, answer):
        x, y = q.probs
        getattr(self, "_check_" + q.kind)(q, x, y, answer)

    def _check_pmax_scan(self, q, x, y, scan):
        k_max = q.args[2]
        expect([r.k for r in scan.rows] == list(range(1, k_max + 1)), "rows not 1..k_max")
        base = ref.decay_base(x, y)
        for row in scan.rows:
            bound = None if base is None else base**row.k
            expect(row.decay_bound == bound, f"k={row.k}: bound {row.decay_bound} != {bound}")
            expect(0 <= row.pmax <= 1, f"k={row.k}: pmax {row.pmax} outside [0, 1]")
            expect(bound is None or row.pmax <= bound, f"k={row.k}: pmax above decay bound")
            want = ref.pmax_at(x, y, row.k)
            expect(want is None or row.pmax == want, f"k={row.k}: pmax {row.pmax} != dense {want}")
            paper = PAPER_PMAX.get(q.names + (row.k,))
            expect(paper is None or row.pmax == paper, f"k={row.k}: pmax != paper {paper}")
        if q.names in PAPER_MIN_K:
            expect(scan.rows[PAPER_MIN_K[q.names] - 1].pmax == 1, "paper's deterministic k")
        if q.names == ("eq13", "eq12"):
            expect(scan.argmax_k() == 3, "eq13 -> eq12 should peak at k=3")

    def _check_conjecture_scan(self, q, x, y, result):
        k, n_max = q.args[2], q.args[3]
        expect([n for n, _ in result] == list(range(k + 2, n_max + 1)), "rows not k+2..n_max")
        for n, holds in result:
            expect(holds or n % (k + 1), f"n={n} is a multiple of {k + 1} but not deterministic")
            dense = ref.deterministic_at(x, y, n)
            expect(dense is None or dense == holds, f"n={n}: {holds} != dense {dense}")

    def _check_find_min_deterministic_k(self, q, x, y, n):
        min_k_consistent(x, y, n, q.args[2])
        if q.names in PAPER_MIN_K:
            expect(n == PAPER_MIN_K[q.names], f"paper says {PAPER_MIN_K[q.names]}, got {n}")

    def _check_classify_pair(self, q, x, y, c):
        direction = c.direction.value if c.direction else None
        check_classification(x, y, q.args[2], c.kind.name, direction, c.k)
        expect(c.searched_up_to == (q.args[2] if c.kind.name == "UNDECIDED" else None),
               "searched_up_to")
        if q.names in PAPER_MIN_K:
            expect(c.kind.name == "K_COPY_INCOMPARABLE" and c.k + 1 == PAPER_MIN_K[q.names],
                   "paper's copy count")

    def record(self, pool):
        probs = [p for q in pool for p in q.probs]
        return {
            "queries_per_pass": len(pool),
            "query_mix": _mix(pool),
            "ranks": sorted({len(p) for p in probs}),
            "distinct_values": sorted({len(set(p)) for p in probs}),
            "denominators": _denominators(probs),
            "k_range": [1, max(q.args[-1] for q in pool if q.kind != "conjecture_scan")],
            "catalog_pairs": sorted({"/".join(q.names) for q in pool if q.names}),
        }


def min_k_consistent(x, y, n, k_max) -> None:
    """A minimal deterministic copy count n (or None within k_max) agrees
    with the dense reference wherever the powers fit."""
    if n is None:
        if ref.necessary(x, y):
            for m in range(1, k_max + 1):
                expect(ref.deterministic_at(x, y, m) is not True, f"dense finds n={m}")
        return
    expect(1 <= n <= k_max and ref.necessary(x, y), f"bad minimal k {n}")
    for m in range(1, n + 1):
        expect(ref.deterministic_at(x, y, m) in (None, m == n), f"dense disagrees at n={m}")


def check_classification(x, y, k_max, kind, direction=None, k=None) -> None:
    """A classification (PairKind name, Comparability value, k) agrees with
    the dense reference."""
    rel = ref.relation(x, y)
    if rel != "incomparable":
        expect(kind == "COMPARABLE_SINGLE_COPY" and direction == rel,
               f"expected comparable {rel}, got {kind} {direction}")
    elif ref.strong(x, y):
        expect(kind == "STRONGLY_INCOMPARABLE", f"expected strong, got {kind}")
    elif kind == "K_COPY_INCOMPARABLE":
        a, b = (x, y) if direction == "source->target" else (y, x)
        min_k_consistent(a, b, k + 1, k_max)
        if a is y:  # x -> y was searched first and must have found nothing
            min_k_consistent(x, y, None, k_max)
    else:
        expect(kind == "UNDECIDED", f"got {kind}")
        min_k_consistent(x, y, None, k_max)
        min_k_consistent(y, x, None, k_max)


# ---------------------------------------------------------------------------
# catalyst


def grid_has_catalyst(x, y, q, max_dim, copies) -> bool:
    """Whether any rank-2..max_dim catalyst on the 1/q grid catalyzes the
    copies-fold pair, decided densely."""
    xs, ys = ref.power(x, copies), ref.power(y, copies)
    return any(ref.catalyzes(xs, ys, ref.vector(c)) for c in ref.grid(q, 2, max_dim))


class Catalyst(Workload):
    name = "catalyst"
    #: (source, target, grid q, max catalyst rank, copies) searched every pass.
    CATALOG_SEARCHES = (
        ("eq2", "eq3", 40, 4, 1),  # hits after a few candidates
        ("eq8", "eq9", 40, 4, 1),  # enumerates all 631 candidates, no hit
        ("eq6", "eq7", 30, 3, 2),
    )
    #: Seeded searches of every pass: (grid q, largest catalyst rank, copies,
    #: source rank, whether the grid holds a catalyst).  Targets have one rank
    #: less than their source.  A hit usually ends after a few candidates
    #: while a miss enumerates the whole grid; most searches are misses of
    #: similar grid size (107-200 candidates), so that the median query is a
    #: full grid enumeration and the cost of a pass hardly depends on the seed.
    #: Two larger misses (296-411 candidates) and eq8 -> eq9 form the tail.
    SEEDED_SEARCHES = (
        (24, 4, 1, 5, True), (32, 4, 1, 4, True), (40, 3, 1, 5, True), (24, 3, 2, 4, True),
        (20, 4, 1, 4, False), (20, 4, 1, 4, False), (21, 4, 1, 4, False),
        (21, 4, 1, 4, False), (22, 4, 1, 4, False), (22, 4, 1, 4, False),
        (23, 4, 1, 4, False), (23, 4, 1, 4, False), (24, 4, 1, 4, False),
        (20, 3, 2, 4, False), (30, 4, 1, 4, False), (30, 4, 1, 4, False),
    )
    VERIFICATIONS = 3

    def warmup(self):
        x, y, chi = (CATALOG_PROBS[n] for n in ("eq2", "eq3", "chi"))
        cfg = self.lab.CatalystSearchConfig(2, 3, 10)
        return [self.query("search_catalyst", (x, y), cfg), self.query("catalyzes", (x, y, chi))]

    def pool(self, index):
        rng = self.rng(index)
        queries = []
        for a, b, q, top, copies in self.CATALOG_SEARCHES:
            x, y = CATALOG_PROBS[a], CATALOG_PROBS[b]
            cfg = self.lab.CatalystSearchConfig(2, top, q, copies)
            queries.append(self.query("search_catalyst", (x, y), cfg, names=(a, b)))
        x, y, chi = (CATALOG_PROBS[n] for n in ("eq2", "eq3", "chi"))
        queries.append(self.query("catalyzes", (x, y, chi), names=("eq2", "eq3", "chi")))

        def draw(rank=None):
            """All values distinct for a given rank, so a search's cost per
            candidate depends on the rank only."""
            if rank is None:
                rank = rng.randint(3, 5)
                return seeded_probs(rng, rank, rng.randint(2, rank), 10 ** rng.randint(2, 4))
            return seeded_probs(rng, rank, rank, 10 ** rng.randint(2, 4))

        for q, top, copies, rank, hit in self.SEEDED_SEARCHES:
            q += 2 * (index % 3)  # spread the grid sizes over the run
            while True:
                x, y = incomparable_pair(lambda: draw(rank), lambda: draw(rank - 1), ref.necessary)
                if grid_has_catalyst(x, y, q, top, copies) == hit:
                    break
            cfg = self.lab.CatalystSearchConfig(2, top, q, copies)
            queries.append(self.query("search_catalyst", (x, y), cfg))
        for _ in range(self.VERIFICATIONS):
            x, y = incomparable_pair(draw, accept=ref.necessary)
            candidates = list(ref.grid(rng.randrange(10, 31, 5), 2, 4))
            c = candidates[rng.randrange(len(candidates))]
            queries.append(self.query("catalyzes", (x, y, c)))
        rng.shuffle(queries)
        return queries

    def run(self, q):
        return getattr(self.lab, q.kind)(*q.args)

    def check(self, q, answer):
        if q.kind == "catalyzes":
            expect(answer == ref.catalyzes(*map(ref.vector, q.probs)), "catalyzes disagrees")
            return
        x, y = q.probs
        cfg = q.args[2]
        if answer is not None:
            xs, ys = ref.power(x, cfg.copies), ref.power(y, cfg.copies)
            c = ref.normalized(v for v, m in answer.entries for _ in range(m))
            expect(cfg.min_dim <= len(c) <= cfg.max_dim, "catalyst rank off the grid")
            expect(all((v * cfg.grid_denominator).denominator == 1 for v in c),
                   "catalyst off the grid")
            expect(ref.catalyzes(xs, ys, ref.vector(c)), "reported catalyst does not catalyze")
        else:
            expect(not grid_has_catalyst(x, y, cfg.grid_denominator, cfg.max_dim, cfg.copies),
                   "dense search finds a catalyst the package missed")
        if q.names == ("eq2", "eq3"):
            expect(answer is not None, "eq2 -> eq3 has a grid catalyst")
        if q.names == ("eq8", "eq9"):
            expect(answer is None, "eq8 -> eq9 has no catalyst on the 1/40 grid")

    def record(self, pool):
        searches = [q for q in pool if q.kind == "search_catalyst"]
        probs = [p for q in pool for p in q.probs[:2]]
        cfgs = [q.args[2] for q in searches]
        return {
            "queries_per_pass": len(pool),
            "query_mix": _mix(pool),
            "source_ranks": sorted({len(q.probs[0]) for q in pool}),
            "distinct_values": sorted({len(set(p)) for p in probs}),
            "denominators": _denominators(probs),
            "grid_q": sorted({c.grid_denominator for c in cfgs}),
            "catalyst_ranks": [2, max(c.max_dim for c in cfgs)],
            "copies": sorted({c.copies for c in cfgs}),
            "grid_size_per_pass": sum(ref.grid_size(c.grid_denominator, c.min_dim, c.max_dim)
                                      for c in cfgs),
        }


# ---------------------------------------------------------------------------
# cli_triage


@dataclass
class StateRecord:
    path: str
    group: str  # "prob", "weights", "amp", "catalyst" or "bad"
    form: str
    probs: tuple | None  # reference probabilities (after squaring/normalizing)


class CliTriage(Workload):
    name = "cli_triage"
    STATES = 60
    CATALYSTS = 8
    QUERIES = 100
    #: Query kinds per pass, out of QUERIES.
    MIX = (("compare", 35), ("classify", 25), ("scan", 15), ("entropy", 10),
           ("catalyst", 10), ("malformed", 5))
    RELATION_TEXT = {
        "equivalent": "Equivalent",
        "source->target": "Comparable: A -> B deterministic",
        "target->source": "Comparable: B -> A deterministic",
        "incomparable": "Incomparable",
    }
    MALFORMED = (
        ("sum_off.txt", "0.5\n0.3\n0.1\n"),
        ("negative.txt", "0.6\n0.5\n-0.1\n"),
        ("bad_token.txt", "0.5\n0.2.5\n0.3\n"),
        ("two_per_line.txt", "0.5 0.25\n0.25\n"),
        ("empty_list.json", "[]\n"),
        ("not_a_list.json", '{"p": [0.5, 0.5]}\n'),
    )

    def __init__(self, lab, seed, workdir):
        super().__init__(lab, seed, workdir)
        self.cli = importlib.import_module(lab.__name__ + ".cli")
        self.states = self._write_states()

    def _write_states(self) -> list[StateRecord]:
        rng = self.rng(-1)
        states = []
        forms = ("decimal", "fraction", "scientific", "json", "weights", "amp")
        # Forms and ranks cycle rather than being drawn, so that every seed
        # writes the same mix of file shapes.
        for i in range(self.STATES):
            form = forms[i % len(forms)]
            states.append(self._write_state(rng, f"s{i:03d}", form, 3 + i % 4))
        for i in range(self.CATALYSTS):
            states.append(self._write_state(rng, f"c{i:03d}", "decimal", 2 + i % 2,
                                            group="catalyst"))
        for fname, text in self.MALFORMED:
            path = os.path.join(self.workdir, fname)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            states.append(StateRecord(path, "bad", fname, None))
        return states

    def _write_state(self, rng, stem, form, rank, group=None) -> StateRecord:
        digits = rng.randint(2, 4)
        scale = 10**digits
        # Distinct-ish positive integer weights summing to the decimal scale.
        cuts = sorted(rng.sample(range(1, scale), rank - 1))
        weights = [b - a for a, b in zip([0] + cuts, cuts + [scale])]
        probs = ref.normalized(Fraction(w, scale) for w in weights)
        if form == "decimal":
            body = "# seeded state, decimal probabilities\n" + "".join(
                f"{w / scale:.{digits}f}  # entry {i}\n" for i, w in enumerate(weights))
        elif form == "fraction":
            body = "".join(f"{Fraction(w, scale)}\n" for w in weights)
        elif form == "scientific":
            body = "".join(f"{w}e-{digits}\n" for w in weights)
        elif form == "json":
            body = json.dumps([float(f"{w / scale:.{digits}f}") for w in weights]) + "\n"
        elif form == "weights":
            body = "".join(f"{w}\n" for w in weights)
        else:  # amplitudes, squared and normalized by the CLI
            amps = [rng.randint(1, 30) for _ in range(rank)]
            total = sum(a * a for a in amps)
            probs = ref.normalized(Fraction(a * a, total) for a in amps)
            body = "".join(f"{a / 10}\n" for a in amps)
        path = os.path.join(self.workdir, stem + (".json" if form == "json" else ".txt"))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(body)
        if group is None:
            group = {"weights": "weights", "amp": "amp"}.get(form, "prob")
        return StateRecord(path, group, form, probs)

    def pool(self, index):
        rng = self.rng(index)
        by_group: dict[str, list[StateRecord]] = {}
        for s in self.states:
            by_group.setdefault(s.group, []).append(s)
        kinds = [kind for kind, n in self.MIX for _ in range(n)]
        rng.shuffle(kinds)
        queries = []
        for i, kind in enumerate(kinds):
            mode = rng.choice(("plain", "plain", "normalize", "amplitudes"))
            if kind == "catalyst" and mode == "amplitudes":
                mode = "normalize"
            groups = {"plain": ("prob",), "normalize": ("prob", "weights"),
                      "amplitudes": ("amp",)}[mode]
            pick = [s for g in groups for s in by_group[g]]
            a, b = rng.choice(pick), rng.choice(pick)
            flags = {"plain": [], "normalize": ["--normalize"],
                     "amplitudes": ["--amplitudes", "--normalize"]}[mode]
            extra = {}
            if kind == "compare":
                argv = ["compare", a.path, b.path]
            elif kind == "classify":
                extra["k_max"] = rng.randint(2, 6)
                argv = ["classify", a.path, b.path, "--k-max", str(extra["k_max"])]
            elif kind == "scan":
                extra["k_max"] = rng.randint(2, 4)
                argv = ["scan", a.path, b.path, "--k-max", str(extra["k_max"])]
                if rng.random() < 1 / 3:
                    extra["csv"] = os.path.join(self.workdir, f"scan{index}_{i}.csv")
                    argv += ["--csv", extra["csv"]]
            elif kind == "entropy":
                argv, b = ["entropy", a.path], None
            elif kind == "catalyst":
                c = rng.choice(by_group["catalyst"])
                extra["catalyst"] = c.probs
                argv = ["catalyst", a.path, b.path, "--check", c.path]
            else:  # malformed
                bad = rng.choice(by_group["bad"])
                sub = rng.choice(("compare", "classify", "scan"))
                a, b = (bad, b) if rng.random() < 0.5 else (a, bad)
                argv = [sub, a.path, b.path]
                flags = []
            probs = (a.probs,) if b is None else (a.probs, b.probs)
            queries.append(Query(kind, tuple(argv + flags), probs, extra=extra))
        return queries

    def warmup(self):
        return [Query("warmup", tuple(argv.split())) for argv in (
            "compare eq2 eq3", "classify eq2 eq3 --k-max 2", "scan eq2 eq3 --k-max 2",
            "entropy eq3", "catalyst eq2 eq3 --find --grid-q 10")]

    def run(self, q):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(q.args))
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        csv_text = None
        if "csv" in q.extra and os.path.exists(q.extra["csv"]):
            with open(q.extra["csv"], encoding="utf-8") as handle:
                csv_text = handle.read()
            os.remove(q.extra["csv"])
        return (code, out.getvalue(), err.getvalue(), csv_text)

    def check(self, q, answer):
        code, out, err, csv_text = answer
        if q.kind == "malformed":
            expect(code == 2 and err.startswith("error: ") and not out,
                   f"malformed input: exit {code}, stderr {err!r}")
            return
        expect(code == 0 and not err, f"exit {code}, stderr {err!r}")
        getattr(self, "_check_" + q.kind)(q, out.splitlines(), csv_text)

    def _check_compare(self, q, lines, _):
        x, y = q.probs
        text = self.RELATION_TEXT[ref.relation(x, y)]
        expect(lines[0] == text, f"relation {lines[0]!r} != {text!r}")
        for line, label, (s, t) in zip(lines[1:], ("A->B", "B->A"), ((x, y), (y, x))):
            got = re.fullmatch(rf"p_max\({label}\) = (\d+)/(\d+) = ([0-9.]+)", line)
            expect(got, f"unexpected line {line!r}")
            p = Fraction(int(got[1]), int(got[2]))
            expect(p == ref.pmax_at(s, t, 1), f"p_max({label}) {p} != dense")
            expect(abs(float(got[3]) - float(p)) <= 5e-4 * max(float(p), 1e-9) + 1e-12,
                   "decimal rendering")
        expect(len(lines) == 3, "compare prints three lines")

    def _check_classify(self, q, lines, _):
        """Parse the printed classification, then check it like the API's."""
        k_max = q.extra["k_max"]
        expect(len(lines) == 1, "classify prints one line")
        line, k, direction = lines[0], None, None
        texts = {f"Comparable (single copy): {text}": rel
                 for rel, text in self.RELATION_TEXT.items()}
        copies = re.fullmatch(r"(\d+)-copy LOCC incomparable \((A -> B|B -> A) deterministic "
                              r"at (\d+) copies\)", line)
        if line in texts:
            kind, direction = "COMPARABLE_SINGLE_COPY", texts[line]
        elif line.startswith("Strongly incomparable ("):
            kind = "STRONGLY_INCOMPARABLE"
        elif copies and int(copies[1]) + 1 == int(copies[3]):
            kind, k = "K_COPY_INCOMPARABLE", int(copies[1])
            direction = "source->target" if copies[2] == "A -> B" else "target->source"
        else:
            expect(line == f"Undecided up to {k_max} copies (no deterministic direction found)",
                   f"unexpected {line!r}")
            kind = "UNDECIDED"
        check_classification(*q.probs, k_max, kind, direction, k)

    def _check_scan(self, q, lines, csv_text):
        x, y = q.probs
        base = ref.decay_base(x, y)
        rows = [line.split() for line in lines[1:]]
        expect(lines[0].split() == ["k", "pmax_exact", "pmax_decimal", "theorem3_bound_exact"],
               "scan header")
        expect([int(r[0]) for r in rows] == list(range(1, q.extra["k_max"] + 1)), "scan rows")
        for r in rows:
            k, p = int(r[0]), Fraction(r[1])
            bound = None if base is None else base**k
            expect((Fraction(r[3]) if len(r) > 3 else None) == bound, f"k={k}: bound column")
            expect(bound is None or p <= bound, f"k={k}: pmax above its decay bound")
            want = ref.pmax_at(x, y, k)
            expect(want is None or p == want, f"k={k}: pmax {p} != dense {want}")
        if "csv" in q.extra:
            table = [row + [""] * (4 - len(row)) for row in rows]
            parsed = list(csv.reader(io.StringIO(csv_text or "")))
            expect(parsed[1:] == table and parsed[0][0] == "k", "CSV differs from the table")

    def _check_entropy(self, q, lines, _):
        expect(abs(float(lines[0]) - ref.entropy(q.probs[0])) < 1e-12, "entropy")

    def _check_catalyst(self, q, lines, _):
        x, y = q.probs
        want = ref.catalyzes(ref.vector(x), ref.vector(y), ref.vector(q.extra["catalyst"]))
        expect(lines == ["true" if want else "false"], f"catalyst --check printed {lines}")

    def record(self, pool):
        valid = [s for s in self.states if s.probs is not None and s.group != "catalyst"]
        ks = [q.extra["k_max"] for q in pool if "k_max" in q.extra]
        return {
            "queries_per_pass": len(pool),
            "query_mix": _mix(pool),
            "state_files": len(self.states),
            "forms": sorted({s.form for s in self.states if s.group != "bad"}),
            "ranks": sorted({len(s.probs) for s in valid}),
            "malformed_files": len(self.MALFORMED),
            "k_max_range": [min(ks), max(ks)],
            "flags": {"--normalize": sum("--normalize" in q.args for q in pool),
                      "--amplitudes": sum("--amplitudes" in q.args for q in pool),
                      "--csv": sum("--csv" in q.args for q in pool)},
        }


WORKLOADS = {w.name: w for w in (ManyCopy, Catalyst, CliTriage)}
