"""Presentations, reduction systems, normal forms, ambiguity analysis and
bounded completion.

The engine implements word rewriting in a free algebra: a rule replaces its
leading word by a strictly smaller polynomial, smaller in the monomial order
the system was built with.  Completion repeatedly resolves overlap ambiguities
and orients the differences as new rules until the system is locally
confluent, the algebra collapses to zero, or a lead would exceed the degree
cap.  Irreducible-word enumeration and a GF(2) rank kernel round out the
module; every basis and dimension claim downstream rests on these.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterable, Sequence

from .ncpoly import (
    F2,
    QQ,
    Alphabet,
    Field,
    NcPoly,
    TensorPoly,
    Word,
    add_scaled,
    deglex_key,
    parse_poly,
    prime_field,
    xdeglex_key,
)

CONFLUENT = "CONFLUENT"
COLLAPSED_TO_ZERO = "COLLAPSED_TO_ZERO"
CAP_EXCEEDED = "CAP_EXCEEDED"

#: Hard ceiling on single-call rewrite steps; order-compatible rules cannot
#: hit it, but the engine guards against ill-formed input anyway.
STEP_BUDGET = 2_000_000


class CapExceededError(RuntimeError):
    """A completion or reduction exceeded its configured bound."""


@dataclass(frozen=True)
class RewriteRule:
    """An oriented rule lead -> tail with every tail word below the lead."""

    lead: Word
    tail: NcPoly

    def as_poly(self) -> NcPoly:
        """The relation polynomial lead - tail."""
        one = self.tail.field.one
        return NcPoly.term(self.tail.alphabet, self.tail.field, self.lead, one) - self.tail

    def __str__(self) -> str:
        return f"{self.tail.alphabet.word_str(self.lead)} -> {self.tail}"


@dataclass(frozen=True)
class Ambiguity:
    """Overlap of leads: lead1 = AB, lead2 = BC, B nonempty.

    Rules are kept inter-reduced, so no lead contains another and there are
    no inclusion ambiguities.
    """

    lead1: Word
    lead2: Word
    a: Word
    b: Word
    c: Word

    @property
    def word(self) -> Word:
        return self.a + self.b + self.c


class ReductionSystem:
    """Oriented rewrite rules over a fixed alphabet and monomial order.

    ``order`` is ``"deglex"`` (length, then left-to-right ordinal) or
    ``"xdeglex"`` (module-letter count first, then deglex); the latter is
    required when tails may carry group-only words as long as the lead.
    Rules are kept inter-reduced.  A system under construction or completion
    is owned by one thread; ``freeze()`` marks it immutable, after which it
    may be shared (the memo table only caches, it never changes results).
    """

    def __init__(self, alphabet: Alphabet, field: Field,
                 relations: Iterable[NcPoly] = (), degree_cap: int = 8,
                 order: str = "deglex"):
        if degree_cap < 1:
            raise ValueError("degree_cap must be positive")
        if order not in ("deglex", "xdeglex"):
            raise ValueError(f"unknown order {order!r}")
        self.alphabet = alphabet
        self.field = field
        self.degree_cap = degree_cap
        self.order = order
        if order == "deglex":
            self._key: Callable[[Word], tuple] = deglex_key
        else:
            self._key = lambda w: xdeglex_key(w, alphabet)
        self.collapsed = False
        self._rules: dict = {}          # lead -> tail coefficient dict
        self._by_first: dict = {}       # first letter -> [leads]
        self._by_last: dict = {}        # last letter  -> [leads]
        self._memo: dict = {}
        self._frozen = False
        self._steps = 0
        for rel in relations:
            self._insert(dict(rel.terms))
        self._interreduce()

    # -- bookkeeping ---------------------------------------------------------

    def copy(self) -> "ReductionSystem":
        dup = ReductionSystem(self.alphabet, self.field, (), self.degree_cap, self.order)
        dup.collapsed = self.collapsed
        for lead, tail in self._rules.items():
            dup._install(lead, dict(tail))
        return dup

    def freeze(self) -> "ReductionSystem":
        self._frozen = True
        return self

    def rules(self) -> list[RewriteRule]:
        out = []
        for lead in sorted(self._rules, key=self._key):
            out.append(RewriteRule(lead, NcPoly(self.alphabet, self.field, self._rules[lead])))
        return out

    def rule_count(self) -> int:
        return len(self._rules)

    def _install(self, lead: Word, tail: dict) -> None:
        if self._frozen:
            raise RuntimeError("cannot modify a frozen system")
        self._rules[lead] = tail
        self._by_first.setdefault(lead[0], []).append(lead)
        self._by_last.setdefault(lead[-1], []).append(lead)
        self._memo.clear()

    def _remove(self, lead: Word) -> None:
        del self._rules[lead]
        self._by_first[lead[0]].remove(lead)
        self._by_last[lead[-1]].remove(lead)
        self._memo.clear()

    def _orient(self, terms: dict) -> tuple[Word, dict]:
        """Split a nonzero polynomial into (lead, tail) with monic lead."""
        lead = max(terms, key=self._key)
        f = self.field
        c = terms[lead]
        cinv = f.inv(c)
        tail = {w: f.neg(f.mul(cinv, cv)) for w, cv in terms.items() if w != lead}
        return lead, tail

    def _insert(self, terms: dict) -> bool:
        """Reduce a relation against the current rules and adopt it.

        Returns True when the rule set changed.  Sets ``collapsed`` when a
        nonzero constant is derived.
        """
        terms = self._nf_terms(terms)
        if not terms:
            return False
        lead, tail = self._orient(terms)
        if not lead:
            self.collapsed = True
            self._rules.clear()
            self._by_first.clear()
            self._by_last.clear()
            self._memo.clear()
            return True
        self._install(lead, tail)
        return True

    def _interreduce(self) -> None:
        """Re-reduce every rule against the others until stable.

        A rule whose lead contains another lead is removed and its relation
        reinserted.  Any other rule keeps its lead and only has its tail
        reduced in place: a rule never fires on a word below its own lead, so
        reducing the tail against the whole system is reducing it against the
        others, and the memo stays valid unless the tail changed.
        """
        changed = True
        while changed and not self.collapsed:
            changed = False
            for lead in sorted(self._rules, key=self._key):
                tail = self._rules.get(lead)
                if tail is None:
                    continue
                # any other lead inside this one lies in lead[1:] or lead[:-1]
                if self._find_redex(lead[1:]) or self._find_redex(lead[:-1]):
                    self._remove(lead)
                    f = self.field
                    # relation polynomial is lead - tail
                    poly = {w: f.neg(c) for w, c in tail.items()}
                    poly[lead] = f.one
                    self._insert(poly)
                    changed = True
                    if self.collapsed:
                        return
                    continue
                reduced = self._nf_terms(tail)
                if reduced != tail:
                    self._rules[lead] = reduced
                    self._memo.clear()
                    changed = True

    # -- reduction -----------------------------------------------------------

    def _find_redex(self, word: Word):
        """Leftmost position and lead of the first rule occurrence, if any."""
        by_first = self._by_first
        for i, letter in enumerate(word):
            leads = by_first.get(letter)
            if leads:
                for lead in leads:
                    # a lead running past the end slices shorter, so unequal
                    if word[i:i + len(lead)] == lead:
                        return i, lead
        return None

    # Reduction is a left fold: NF(w a) = sum of c NF(u a) over the terms c u
    # of NF(w).  Each u is normal, so only a lead that ends u a can fire, and
    # NF(u a) is memoized under the word u a.  For inter-reduced rules this
    # fires the same redexes as leftmost-first rewriting.  The fold runs as
    # generators on an explicit stack, never as Python recursion, so no word
    # is too long to reduce; STEP_BUDGET, counted per rule application, is
    # the one guard.

    def _nf_word(self, word: Word) -> dict:
        """Normal form of a single word, as a coefficient dict (memoized)."""
        if self.collapsed:
            return {}
        memo = self._memo
        hit = memo.get(word)
        if hit is not None:
            return hit
        redex = self._find_redex(word)
        if redex is None:
            result = {word: self.field.one}
            memo[word] = result
            return result
        # the prefix before the leftmost redex is normal: fold on from there
        i, lead = redex
        stack = [self._rewrite(word, word[:i], lead, word[i + len(lead):])]
        while stack:
            sub = next(stack[-1], None)
            if sub is None:
                stack.pop()
            else:
                stack.append(sub)
        return memo[word]

    def _rewrite(self, word: Word, pre: Word, lead: Word, suf: Word):
        """Generator that memoizes NF(word) for word = pre lead suf, pre normal.

        Applies the rule of ``lead`` and folds each tail word t, then ``suf``,
        onto ``pre`` one letter at a time.  An NF(u a) the memo lacks is u a
        itself when no lead ends it; otherwise this generator yields the
        ``_rewrite`` of u a to the stack in ``_nf_word`` and, resumed, reads
        the result from the memo.  Products of basis words share their rests,
        so NF(pre t suf) is memoized too when ``suf`` is not empty.
        """
        self._steps += 1
        if self._steps > STEP_BUDGET:
            raise CapExceededError("rewrite step budget exhausted")
        memo, f = self._memo, self.field
        one = f.one
        by_last = self._by_last
        tail = self._rules[lead]
        result: dict = {}
        for tw, tc in tail.items():
            whole = pre + tw + suf
            acc = memo.get(whole)
            if acc is None:
                acc = {pre: one}
                for a in tw + suf:
                    nxt: dict = {}
                    for u, c in acc.items():
                        key = u + (a,)
                        nf = memo.get(key)
                        if nf is None:
                            # the longest lead ending u a (inter-reduced
                            # rules leave at most one), as leftmost-first
                            # rewriting would pick
                            last = None
                            for cand in by_last.get(a, ()):
                                if key[-len(cand):] == cand and (
                                        last is None or len(cand) > len(last)):
                                    last = cand
                            if last is None:
                                nf = memo[key] = {key: one}
                            else:
                                yield self._rewrite(key, key[:-len(last)], last, ())
                                nf = memo[key]
                        if len(acc) == 1 and c == one:
                            nxt = nf        # shared with the memo, and only ever read
                        else:
                            add_scaled(nxt, nf, c, f)
                    acc = nxt
                if suf:
                    memo[whole] = acc
            if len(tail) == 1 and tc == one:
                result = acc
            else:
                add_scaled(result, acc, tc, f)
        memo[word] = result

    # nf_word and _nf_terms are the two entries into _nf_word: each starts its
    # own step budget

    def nf_word(self, word: Word) -> dict:
        """Normal form of a single word (shared-cache fast path)."""
        self.alphabet.check_word(word)
        self._steps = 0
        return self._nf_word(tuple(word))

    def _nf_terms(self, terms: dict) -> dict:
        """Normal form of a coefficient dict, as a fresh coefficient dict."""
        self._steps = 0
        acc: dict = {}
        for w, c in terms.items():
            add_scaled(acc, self._nf_word(w), c, self.field)
        return acc

    def normal_form(self, p: NcPoly) -> NcPoly:
        """Linear, idempotent reduction to a form free of rule leads."""
        if p.alphabet != self.alphabet or (
                p.field is not self.field and p.field != self.field):
            raise ValueError("polynomial over a different alphabet or field")
        return NcPoly(self.alphabet, self.field, self._nf_terms(p.terms))


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

def _field_from_name(name) -> Field:
    if name in ("f2", "F2"):
        return F2
    if name in ("rational", "qq", "QQ"):
        return QQ
    if isinstance(name, str) and name.startswith("fp:"):
        return prime_field(int(name[3:]))
    raise ValueError(f"unknown field {name!r}")


class Presentation:
    """Generators, coefficient field and defining relations of an algebra,
    with the degree cap and monomial order its completion runs under.

    ``name`` labels the presentation (the flavor, for the fk3 and Jordan
    algebras).  The completion is computed once and cached.
    """

    def __init__(self, alphabet: Alphabet, field: Field, relations: Iterable[NcPoly],
                 degree_cap: int = 8, order: str = "deglex", name: str = ""):
        self.alphabet = alphabet
        self.field = field
        self.relations = list(relations)
        self.degree_cap = degree_cap
        self.order = order
        self.name = name
        self._completed: CompletionReport | None = None

    def system(self) -> ReductionSystem:
        """A fresh, uncompleted reduction system for the presentation."""
        return ReductionSystem(self.alphabet, self.field, self.relations,
                               self.degree_cap, self.order)

    def complete(self) -> CompletionReport:
        if self._completed is None:
            self._completed = complete(self.system())
        return self._completed

    @classmethod
    def from_json(cls, doc) -> "Presentation":
        """Read the presentation file format; malformed input raises ValueError.

        {"alphabet": [{"id": "x0", "sort": "module"}, ...],
         "relations": ["x0 x1 + x2 x0 + x1 x2", ...],
         "degree_cap": 8, "field": "f2", "order": "deglex"}, the last three
        optional with those defaults.
        """
        if not isinstance(doc, dict):
            raise ValueError("a presentation is a JSON object")
        gens = doc.get("alphabet")
        if not isinstance(gens, list) or not all(
                isinstance(g, dict) and isinstance(g.get("id"), str)
                and isinstance(g.get("sort"), str) for g in gens):
            raise ValueError('"alphabet" must be a list of {"id": ..., "sort": ...} objects')
        texts = doc.get("relations")
        if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
            raise ValueError('"relations" must be a list of strings')
        cap = doc.get("degree_cap", 8)
        if type(cap) is not int or cap < 1:
            raise ValueError('"degree_cap" must be a positive integer')
        order = doc.get("order", "deglex")
        if order not in ("deglex", "xdeglex"):
            raise ValueError(f"unknown order {order!r}")
        field = _field_from_name(doc.get("field", "f2"))
        alphabet = Alphabet([(g["id"], g["sort"]) for g in gens])
        try:
            relations = [parse_poly(text, alphabet, field) for text in texts]
        except ZeroDivisionError as exc:
            raise ValueError(f"bad coefficient: {exc}") from None
        return cls(alphabet, field, relations, cap, order)


# ---------------------------------------------------------------------------
# ambiguities and completion
# ---------------------------------------------------------------------------

def _pair_ambiguities(l1: Word, l2: Word) -> Iterable[Ambiguity]:
    """Overlaps l1 = AB, l2 = BC with nonempty B."""
    m = min(len(l1), len(l2))
    for k in range(1, m):
        if l1[len(l1) - k:] == l2[:k]:
            yield Ambiguity(l1, l2, l1[:len(l1) - k], l2[:k], l2[k:])


def _lead_ambiguities(lead: Word, others: Iterable[Word]) -> Iterable[Ambiguity]:
    """The ambiguities of ``lead`` with itself and with each of ``others``."""
    yield from _pair_ambiguities(lead, lead)
    for other in others:
        # l1 = AB overlaps l2 = BC only if l1 contains the first letter of l2
        if other[0] in lead:
            yield from _pair_ambiguities(lead, other)
        if lead[0] in other:
            yield from _pair_ambiguities(other, lead)


def _ambiguity_order(sys: ReductionSystem, amb: Ambiguity) -> tuple:
    return (sys._key(amb.word), amb.lead1, amb.lead2, amb.a)


def find_ambiguities(sys: ReductionSystem) -> list[Ambiguity]:
    """All overlap ambiguities among the current rules.

    Overlaps pair lead1 = A+B with lead2 = B+C for nonempty B.  No ambiguity
    is filtered out: every ambiguity word is shorter than twice the longest
    lead, whatever the degree cap.
    """
    leads = list(sys._rules)
    out = [amb for n, lead in enumerate(leads)
           for amb in _lead_ambiguities(lead, leads[:n])]
    out.sort(key=lambda amb: _ambiguity_order(sys, amb))
    return out


@dataclass
class CompletionReport:
    status: str
    system: ReductionSystem
    new_rules: list[RewriteRule] = dc_field(default_factory=list)
    ambiguities_checked: int = 0
    #: on CAP_EXCEEDED, the lead longer than the cap and the ambiguity word
    #: whose resolution produced it (None when the lead came from the input
    #: or from inter-reduction); neither is part of ``to_json``
    cap_word: Word | None = None
    cap_lead: Word | None = None

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "status": self.status,
            "ambiguities_checked": self.ambiguities_checked,
            "rule_count": self.system.rule_count(),
            "rules": [{"lead": self.system.alphabet.word_str(r.lead), "tail": str(r.tail)}
                      for r in self.system.rules()],
            "new_rules": [{"lead": self.system.alphabet.word_str(r.lead), "tail": str(r.tail)}
                          for r in self.new_rules],
        }


def _resolve(sys: ReductionSystem, amb: Ambiguity) -> dict:
    """Difference of the two one-step resolutions of an ambiguity, reduced:
    lead1 applied at the left of ABC versus lead2 at the right."""
    left = {tw + amb.c: tc for tw, tc in sys._rules[amb.lead1].items()}
    right = {amb.a + tw: tc for tw, tc in sys._rules[amb.lead2].items()}
    f = sys.field
    return sys._nf_terms(add_scaled(left, right, f.neg(f.one), f))


def complete(sys: ReductionSystem) -> CompletionReport:
    """Bounded Diamond-Lemma completion over one queue of ambiguities.

    The queue yields the smallest ambiguity word first.  Each entry carries
    the versions of its two rules; a rule gets a new version when it is
    adopted or inter-reduction changes it, only the ambiguities of such rules
    against the current leads are queued, and an entry whose rule was removed
    or changed is dropped when popped.  A nonzero difference is oriented into
    a new rule and the system is immediately inter-reduced.  Once the queue
    runs dry after a rule was adopted, every ambiguity of the final system is
    resolved again and any that fails goes back on the queue, so a CONFLUENT
    verdict always rests on a full pass over the final rules.  Any lead
    longer than the degree cap, from the input, a resolution or
    inter-reduction, stops the completion with CAP_EXCEEDED, so a CONFLUENT
    system never has one.  ``ambiguities_checked`` counts every resolution
    computed.
    """
    work = sys.copy()
    report = CompletionReport(CONFLUENT, work)
    if work.collapsed:
        report.status = COLLAPSED_TO_ZERO
        return report
    ticks = itertools.count()
    version: dict = {}      # lead -> version of its current rule
    queue: list = []

    def push(amb: Ambiguity) -> None:
        heapq.heappush(queue, (_ambiguity_order(work, amb), next(ticks), amb,
                               version[amb.lead1], version[amb.lead2]))

    def over_cap(fresh: list) -> bool:
        over = [lead for lead in fresh if len(lead) > work.degree_cap]
        if over:
            report.status = CAP_EXCEEDED
            report.cap_lead = min(over, key=work._key)
        return bool(over)

    def enqueue(fresh: list) -> None:
        changed = set(fresh)
        settled = [lead for lead in work._rules if lead not in changed]
        for lead in fresh:
            version[lead] = next(ticks)
        for lead in fresh:
            for amb in _lead_ambiguities(lead, settled):
                push(amb)
            settled.append(lead)

    if over_cap(list(work._rules)):
        return report
    enqueue(list(work._rules))
    passed = True           # the first queue holds every ambiguity of the input
    while True:
        while queue:
            _, _, amb, v1, v2 = heapq.heappop(queue)
            if version.get(amb.lead1) != v1 or version.get(amb.lead2) != v2:
                continue
            report.ambiguities_checked += 1
            diff = _resolve(work, amb)
            if not diff:
                continue
            lead = max(diff, key=work._key)
            if not lead:
                report.status = COLLAPSED_TO_ZERO
                return report
            if len(lead) > work.degree_cap:
                report.status = CAP_EXCEEDED
                report.cap_word, report.cap_lead = amb.word, lead
                return report
            before = dict(work._rules)
            lead, tail = work._orient(diff)
            work._install(lead, tail)
            report.new_rules.append(RewriteRule(lead, NcPoly(work.alphabet, work.field, tail)))
            work._interreduce()
            if work.collapsed:
                report.status = COLLAPSED_TO_ZERO
                return report
            for old in before.keys() - work._rules.keys():
                del version[old]
            fresh = [lead for lead, tail in work._rules.items() if before.get(lead) != tail]
            if over_cap(fresh):
                return report
            enqueue(fresh)
            passed = False
        if passed:
            break
        passed = True
        for amb in find_ambiguities(work):
            report.ambiguities_checked += 1
            if _resolve(work, amb):
                push(amb)

    work.freeze()
    return report


def verify_confluent(sys: ReductionSystem) -> bool:
    """Independent post-check: every ambiguity's two resolutions agree.

    Ambiguities are taken among the actual leads, whatever their length, so
    the verdict does not depend on the degree cap.
    """
    return all(not _resolve(sys, amb) for amb in find_ambiguities(sys))


# ---------------------------------------------------------------------------
# irreducible words
# ---------------------------------------------------------------------------

@dataclass
class IrreducibleCounts:
    per_length: list[int]
    total: int
    finite: bool


def irreducible_words_by_length(sys: ReductionSystem, max_len: int) -> list[list[Word]]:
    """Words containing no rule lead as a subword, grouped by length.

    Stops early once a length yields nothing (every longer word then contains
    a lead too, since prefixes of irreducible words are irreducible).
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    if sys.collapsed:
        return [[]]
    by_last = sys._by_last
    levels: list[list[Word]] = [[()]]
    size = len(sys.alphabet)
    for _ in range(max_len):
        nxt: list[Word] = []
        for w in levels[-1]:
            for letter in range(size):
                cand = w + (letter,)
                n = len(cand)
                ok = True
                for lead in by_last.get(letter, ()):
                    if len(lead) <= n and cand[n - len(lead):] == lead:
                        ok = False
                        break
                if ok:
                    nxt.append(cand)
        if not nxt:
            break
        levels.append(nxt)
    return levels


def irreducible_words(sys: ReductionSystem, max_len: int) -> list[Word]:
    out: list[Word] = []
    for level in irreducible_words_by_length(sys, max_len):
        out.extend(level)
    return out


def count_irreducible(sys: ReductionSystem, max_len: int) -> IrreducibleCounts:
    levels = irreducible_words_by_length(sys, max_len)
    per_length = [len(level) for level in levels]
    finite = len(per_length) <= max_len  # the generation died out before the cap
    per_length += [0] * (max_len + 1 - len(per_length))
    return IrreducibleCounts(per_length, sum(per_length), finite)


# ---------------------------------------------------------------------------
# tensor reduction
# ---------------------------------------------------------------------------

def reduce_tensor(t: TensorPoly, left_sys: ReductionSystem,
                  right_sys: ReductionSystem) -> TensorPoly:
    """Reduce both tensor factors independently, never across the symbol."""
    if t.left != left_sys.alphabet or t.right != right_sys.alphabet:
        raise ValueError("tensor alphabets do not match the reduction systems")
    f = t.field
    z = f.zero
    acc: dict = {}
    for (wl, wr), c in t.terms.items():
        for nl, cl in left_sys.nf_word(wl).items():
            for nr, cr in right_sys.nf_word(wr).items():
                k = (nl, nr)
                s = f.add(acc.get(k, z), f.mul(c, f.mul(cl, cr)))
                if s == z:
                    acc.pop(k, None)
                else:
                    acc[k] = s
    return TensorPoly(t.left, t.right, f, acc)


# ---------------------------------------------------------------------------
# GF(2) rank
# ---------------------------------------------------------------------------

def rank_f2(rows: Sequence[int], width: int | None = None) -> int:
    """Rank over GF(2) of rows given as int bitsets.

    When ``width`` is supplied every row must fit in it; a wider row is a
    width mismatch.  Elimination keeps one pivot row per leading bit, so the
    cost is one big-int XOR per (row, pivot) pair actually hit.
    """
    if width is not None:
        for i, row in enumerate(rows):
            if row < 0 or row.bit_length() > width:
                raise ValueError(f"row {i} exceeds width {width}")
    pivots: dict = {}
    rank = 0
    for row in rows:
        while row:
            p = row.bit_length() - 1
            other = pivots.get(p)
            if other is None:
                pivots[p] = row
                rank += 1
                break
            row ^= other
    return rank
