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
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

from .ncpoly import (
    F2,
    QQ,
    Alphabet,
    Field,
    NcPoly,
    TensorPoly,
    Word,
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


class Ambiguity(NamedTuple):
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


def _letters(word: Word) -> str:
    """``word`` as a string, ordinal a as chr(a + 1); chr(0) never occurs."""
    return "".join([chr(a + 1) for a in word])


def _rule_text(lead: Word, tail: dict) -> str:
    """The lead and tail words of a rule in one string, each word as in
    ``_letters`` and followed by chr(0): a word occurs in one of them
    exactly when its ``_letters`` occur in this string."""
    return "".join([chr(a + 1) for w in (lead, *tail) for a in w + (-1,)])


class ReductionSystem:
    """Oriented rewrite rules over a fixed alphabet and monomial order.

    ``order`` is ``"deglex"`` (length, then left-to-right ordinal) or
    ``"xdeglex"`` (module-letter count first, then deglex); the latter is
    required when tails may carry group-only words as long as the lead.
    Rules are kept inter-reduced.  A system under construction or completion
    is owned by one thread; ``freeze()`` marks it immutable, after which it
    may be shared (the memo table and the completions of its extensions only
    cache, they never change results).
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
        self._lengths: dict = {}        # last letter -> lead lengths, longest first
        self._reduced: dict = {}        # lead -> _rule_text, see _interreduce
        self._unchecked: list = []      # leads installed since _check_reduced
        self._memo: dict = {}
        self._extensions: _ExtensionTrie | None = None    # see completion_with
        self._frozen = False
        self._steps = 0
        self.extend(relations)

    def extend(self, relations: Iterable[NcPoly]) -> None:
        """Insert each relation, reduced against the rules so far, then
        inter-reduce."""
        if self._frozen:
            raise RuntimeError("cannot modify a frozen system")
        for rel in relations:
            self._check_words(rel.terms)
            self._insert(dict(rel.terms))
        self._interreduce()

    def _check_words(self, terms: dict) -> None:
        """Raise ValueError unless every word of ``terms`` is over the
        alphabet: the words ``nf_word`` may later find in the memo."""
        for w in terms:
            self.alphabet.check_word(w)

    # -- bookkeeping ---------------------------------------------------------

    def copy(self) -> "ReductionSystem":
        """An unfrozen copy with the same rules, in the same order, the same
        length index, stale lengths included, the same rules known reduced
        (see ``_interreduce``) and an empty memo.  Tails and length tuples
        are shared: both are only ever replaced, never changed in place."""
        dup = ReductionSystem(self.alphabet, self.field, (), self.degree_cap, self.order)
        dup.collapsed = self.collapsed
        dup._rules = dict(self._rules)
        dup._lengths = dict(self._lengths)
        dup._reduced = dict(self._reduced)
        dup._unchecked = list(self._unchecked)
        return dup

    def freeze(self) -> "ReductionSystem":
        self._frozen = True
        return self

    def completion_with(self, relations: Iterable[NcPoly]) -> "CompletionReport":
        """``complete`` of a copy of this frozen system ``extend``-ed by
        ``relations``, computed once per distinct set of added rules.

        Each relation is reduced before it is inserted, so an insert only
        appends a new lead and a collapse clears every rule: after the
        inserts the table is this system's rules, unchanged and in order,
        followed by the added rules.  Inter-reduction and completion read
        only that table and ``collapsed`` (the memo and the length index
        only cache), so ``collapsed`` and the added rules fix the report,
        each tail in its term order, which later sums follow.

        The system keeps a trie of insert outcomes (``_ExtensionTrie``):
        each relation is reduced once per distinct state it meets, each
        state is completed once, and a call whose every step is known is a
        dict probe per relation.  Relations that reduce to the same rules
        share one report.  The relations are taken as values: once passed
        in, one must not be changed in place.
        """
        if not self._frozen:
            raise RuntimeError("completion_with needs a frozen system")
        if self._extensions is None:
            self._extensions = _ExtensionTrie()
        return self._extensions.completion(self, relations)

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
        lengths = self._lengths.get(lead[-1], ())
        if len(lead) not in lengths:
            self._lengths[lead[-1]] = tuple(sorted(lengths + (len(lead),), reverse=True))
        self._memo.clear()
        if self._reduced:
            # the strings made so far meet the new lead in _check_reduced;
            # the ones made after it are made with the lead in place
            self._reduced.pop(lead, None)
            self._unchecked.append(lead)

    def _check_reduced(self) -> None:
        """Drop the string of every rule that a lead installed since the
        last check occurs in.  A miss takes one search of all the strings
        joined, and only a hit searches them one by one."""
        reduced, unchecked = self._reduced, self._unchecked
        if unchecked:
            words = "".join(reduced.values())
            for lead in unchecked:
                text = _letters(lead)
                if text in words:
                    for old in [old for old, w in reduced.items() if text in w]:
                        del reduced[old]
            unchecked.clear()

    def _remove(self, lead: Word, inner: tuple | None) -> None:
        """Drop the rule of ``lead``, where ``inner`` is
        ``_find_redex(lead[:-1])``, which the caller has already searched.
        The length of ``lead`` stays in the index: a length that no lead has
        any more only costs one failed lookup.

        The memo is kept when another lead ends strictly inside ``lead``,
        that is, when ``inner`` is not None.  Every memo entry was
        computed under the current rules, since an install or a tail change
        clears it.  With such an inner lead, ``_find_redex`` stops at it
        before ``lead`` ends, and no u·a of the fold, u normal, ends in
        ``lead``, since u would end in ``lead[:-1]``.  So ``lead`` never
        fired for any entry, and each entry is what the remaining rules give.
        When the only leads inside ``lead`` are suffixes of it,
        ``_lead_ending`` preferred ``lead`` itself where it ended, and the
        memo is cleared.
        """
        del self._rules[lead]
        self._reduced.pop(lead, None)
        if inner is None:
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
            self._collapse()
            return True
        self._install(lead, tail)
        return True

    def _collapse(self) -> None:
        """A nonzero constant was derived: the algebra is zero."""
        self.collapsed = True
        self._rules.clear()
        self._lengths.clear()
        self._memo.clear()
        self._reduced.clear()
        self._unchecked.clear()

    def _interreduce(self) -> None:
        """Re-reduce every rule against the others until stable.

        A rule whose lead contains another lead is removed and its relation
        reinserted.  Any other rule keeps its lead and only has its tail
        reduced in place: a rule never fires on a word below its own lead, so
        reducing the tail against the whole system is reducing it against the
        others, and the memo stays valid unless the tail changed.

        A rule found reduced keeps its words as one string (``_rule_text``)
        in ``_reduced``.  ``_install`` records each new lead, and before any
        rule is visited ``_check_reduced`` drops every string that a
        recorded lead occurs in.  A rule that still has its string contains
        no other lead in its lead and no lead in its tail, so its visit
        would find both lead checks failing and its tail normal: it is
        skipped, in the same sorted order, and a pass that would skip every
        rule is not made.  The strings survive ``copy()``, so the copies
        that completions and ``completion_with`` make of a base revisit only
        the rules that their added leads reach.
        """
        known = self._reduced
        self._check_reduced()
        changed = True
        while changed and not self.collapsed:
            if self._rules.keys() <= known.keys():
                return      # the pass would skip every rule
            changed = False
            for lead in sorted(self._rules, key=self._key):
                if lead in known:
                    continue
                tail = self._rules.get(lead)
                if tail is None:
                    continue
                # any other lead inside this one lies in lead[:-1] or lead[1:]
                inner = self._find_redex(lead[:-1])
                if inner or self._find_redex(lead[1:]):
                    self._remove(lead, inner)
                    f = self.field
                    # relation polynomial is lead - tail
                    poly = {w: f.neg(c) for w, c in tail.items()}
                    poly[lead] = f.one
                    self._insert(poly)
                    self._check_reduced()
                    changed = True
                    if self.collapsed:
                        return
                    continue
                reduced = self._nf_terms(tail)
                if reduced != tail:
                    self._rules[lead] = reduced
                    self._memo.clear()
                    changed = True
                known[lead] = _rule_text(lead, reduced)

    # -- reduction -----------------------------------------------------------

    def _lead_ending(self, word: Word, end: int):
        """The longest lead ending at position ``end`` of ``word``, or None.

        One lead at most has a given length and ends at a given position, so
        the index only keeps, per last letter, the lengths of the leads that
        end in it, longest first, and this tries one slice of each length.  A
        superset of those lengths gives the same answer."""
        rules = self._rules
        for n in self._lengths.get(word[end - 1], ()):
            if n <= end:
                lead = word[end - n:end]
                if lead in rules:
                    return lead
        return None

    def _find_redex(self, word: Word):
        """Start and lead of the first lead occurrence to end, or None.  The
        prefix before it is normal; for inter-reduced rules it is leftmost."""
        for end in range(1, len(word) + 1):
            lead = self._lead_ending(word, end)
            if lead is not None:
                return end - len(lead), lead
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
        # the prefix before the first redex to end is normal: fold on from there
        i, lead = redex
        return self._run(word, word[:i], lead, word[i + len(lead):])

    def _run(self, word: Word, pre: Word, lead: Word, suf: Word) -> dict:
        """Run ``_rewrite`` of word = pre lead suf, and the rewrites it
        yields, on an explicit stack; return the memoized NF(word)."""
        stack = [self._rewrite(word, pre, lead, suf)]
        while stack:
            sub = next(stack[-1], None)
            if sub is None:
                stack.pop()
            else:
                stack.append(sub)
        return self._memo[word]

    def _rewrite(self, word: Word, pre: Word, lead: Word, suf: Word):
        """Generator that memoizes NF(word) for word = pre lead suf, pre normal.

        Applies the rule of ``lead`` and folds each tail word t, then ``suf``,
        onto ``pre`` one letter at a time.  An NF(u a) the memo lacks is u a
        itself when ``_lead_ending`` finds no lead ending it; otherwise this
        generator yields the ``_rewrite`` of u a at that lead to the stack in
        ``_run`` and, resumed, reads the result from the memo.
        NF(pre t suf) is memoized too when ``suf`` is not empty: the words
        that ``_resolve`` reduces, the two resolutions of an ambiguity, and
        the relations that ``extend`` inserts through ``_nf_terms`` share
        such rests.  A normal word followed by one letter, as in
        ``_nf_times``, has none.
        """
        self._steps += 1
        if self._steps > STEP_BUDGET:
            raise CapExceededError("rewrite step budget exhausted")
        memo, f = self._memo, self.field
        one = f.one
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
                            # u is normal, so a redex of u a ends it
                            last = self._lead_ending(key, len(key))
                            if last is None:
                                nf = memo[key] = {key: one}
                            else:
                                yield self._rewrite(key, key[:-len(last)], last, ())
                                nf = memo[key]
                        if len(acc) == 1 and c == one:
                            nxt = nf        # shared with the memo, and only ever read
                        else:
                            f.add_scaled(nxt, nf, c)
                    acc = nxt
                if suf:
                    memo[whole] = acc
            if len(tail) == 1 and tc == one:
                result = acc
            else:
                f.add_scaled(result, acc, tc)
        memo[word] = result

    # nf_word, _nf_terms and the module-level _resolve are the entries into
    # _nf_word, and _nf_times the one fold step taken alone: each starts its
    # own step budget

    def nf_word(self, word: Word) -> dict:
        """Normal form of a single word, as a coefficient dict shared with
        the memo: never change it.

        A memo hit is returned before the word is checked: every memo key
        is a word that the system built from words it had already checked,
        the arguments of ``nf_word`` and the words of each polynomial that
        ``extend``, ``completion_with`` or ``normal_form`` takes in
        (``NcPoly.__init__`` does not check ordinals, so those do).  A word
        with an ordinal outside the alphabet misses and raises ValueError.
        A miss is checked, made a tuple and reduced on a fresh step budget.
        """
        hit = self._memo.get(word) if type(word) is tuple else None
        if hit is not None:
            return hit
        self.alphabet.check_word(word)
        self._steps = 0
        return self._nf_word(tuple(word))

    def _nf_times(self, u: Word, a: int) -> dict:
        """NF(u a) for a tuple u normal in this system, as a coefficient dict
        shared with the memo: never change it.

        This is one step of the fold, and equals ``nf_word(u + (a,))`` in
        any system, confluent or not: u contains no lead, so the first
        redex of u a to end is the longest lead ending it.  A miss checks
        ``a`` against the alphabet, as ``nf_word`` checks its word, and runs
        on a fresh step budget.
        """
        word = u + (a,)
        hit = self._memo.get(word)
        if hit is not None:
            return hit
        self.alphabet.check_word((a,))
        if self.collapsed:
            return {}
        self._steps = 0
        lead = self._lead_ending(word, len(word))
        if lead is None:
            result = self._memo[word] = {word: self.field.one}
            return result
        return self._run(word, word[:-len(lead)], lead, ())

    def _nf_terms(self, terms: dict) -> dict:
        """Normal form of a coefficient dict, as a fresh coefficient dict."""
        self._steps = 0
        acc: dict = {}
        for w, c in terms.items():
            self.field.add_scaled(acc, self._nf_word(w), c)
        return acc

    def normal_form(self, p: NcPoly) -> NcPoly:
        """Linear, idempotent reduction to a form free of rule leads."""
        if p.alphabet != self.alphabet or (
                p.field is not self.field and p.field != self.field):
            raise ValueError("polynomial over a different alphabet or field")
        self._check_words(p.terms)
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
        # plain decimal digits only: int() would also read " 5", "+5", "05",
        # "1_1" and non-ASCII digits
        modulus = name[3:]
        if modulus.isascii() and modulus.isdigit() and (modulus == "0" or modulus[0] != "0"):
            # a modulus below 2**16 has at most five digits, and int() refuses
            # more than 4,300
            if len(modulus) > 5:
                shown = modulus if len(modulus) <= 12 else \
                    f"{modulus[:8]}... ({len(modulus)} digits)"
                raise ValueError(f"modulus out of range: {shown}")
            return prime_field(int(modulus))
    raise ValueError(f"unknown field {name!r}")


class Presentation:
    """Generators, coefficient field and defining relations of an algebra,
    with the degree cap and monomial order its completion runs under.

    ``name`` labels the presentation (the flavor, for the fk3 and Jordan
    algebras).  The reduction system and the completion are each computed
    once and cached.
    """

    def __init__(self, alphabet: Alphabet, field: Field, relations: Iterable[NcPoly],
                 degree_cap: int = 8, order: str = "deglex", name: str = ""):
        self.alphabet = alphabet
        self.field = field
        self.relations = list(relations)
        self.degree_cap = degree_cap
        self.order = order
        self.name = name
        self._system: ReductionSystem | None = None
        self._completed: CompletionReport | None = None

    def system(self) -> ReductionSystem:
        """The presentation's uncompleted, inter-reduced rules, built once and
        frozen; ``copy()`` it to change it."""
        if self._system is None:
            self._system = ReductionSystem(self.alphabet, self.field, self.relations,
                                           self.degree_cap, self.order).freeze()
        return self._system

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
        optional with those defaults.  Each id must read back, through
        ``parse_poly``, as its own one-letter word, unlike "1", "2" or "x 0".
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
        for k, g in enumerate(gens):
            try:
                itself = parse_poly(g["id"], alphabet, field).terms == {(k,): field.one}
            except (ValueError, ZeroDivisionError):
                itself = False
            if not itself:
                raise ValueError(f"generator id {g['id']!r} does not read as one generator")
        try:
            relations = [parse_poly(text, alphabet, field) for text in texts]
        except ZeroDivisionError as exc:
            raise ValueError(f"bad coefficient: {exc}") from None
        return cls(alphabet, field, relations, cap, order)


# ---------------------------------------------------------------------------
# ambiguities and completion
# ---------------------------------------------------------------------------

class _OverlapIndex:
    """The nonempty proper prefixes and suffixes of a set of leads.

    Every overlap lead1 = AB, lead2 = BC has B a proper suffix of lead1 and
    a proper prefix of lead2, so the overlaps of a lead of length n with the
    indexed leads take 2(n - 1) dict probes instead of a try per lead (Mora's
    overlap lookup, with two dicts for an automaton).
    """

    def __init__(self):
        self._starting: dict = {}       # proper prefix -> leads that start with it
        self._ending: dict = {}         # proper suffix -> leads that end with it

    def add(self, lead: Word) -> None:
        starting, ending = self._starting, self._ending
        for k in range(1, len(lead)):
            pre, suf = lead[:k], lead[-k:]
            if pre in starting:
                starting[pre].add(lead)
            else:
                starting[pre] = {lead}
            if suf in ending:
                ending[suf].add(lead)
            else:
                ending[suf] = {lead}

    def discard(self, lead: Word) -> None:
        """Drop ``lead`` if it is indexed; a one-letter lead never is."""
        if lead not in self._starting.get(lead[:1], ()):
            return
        for k in range(1, len(lead)):
            self._starting[lead[:k]].remove(lead)
            self._ending[lead[-k:]].remove(lead)

    def ambiguities(self, lead: Word) -> list[Ambiguity]:
        """The overlaps of an indexed ``lead`` with itself and with every
        other indexed lead, each once."""
        n = len(lead)
        starting, ending = self._starting, self._ending
        out = []
        for k in range(1, n):
            b = lead[n - k:]
            for other in starting.get(b, ()):
                out.append(Ambiguity(lead, other, lead[:n - k], b, other[k:]))
            b = lead[:k]
            for other in ending.get(b, ()):
                # the self-overlaps were all found as lead1 above
                if other != lead:
                    out.append(Ambiguity(other, lead, other[:len(other) - k], b, lead[k:]))
        return out


def _order_text(sys: ReductionSystem) -> Callable[[Ambiguity], str]:
    """A key function that orders ambiguities as the tuples
    (sys._key(word), lead1, lead2, a) do, by one string.

    The string is the module degree of the word (under xdeglex only) and
    its length, one character each, then the word, lead1 and lead2, each as
    in ``_letters`` and followed by chr(0).  chr(0) is below every letter,
    so a word sorts below the words it is a proper prefix of, as a tuple
    does.  a is left out: the word is a followed by lead2, so equal words
    and lead2 have equal a.  Each lead's letters are made once per key
    function.
    """
    texts: dict = {}            # lead -> _letters(lead) + chr(0)
    modules = sys.alphabet.module_count if sys.order == "xdeglex" else None

    def key(amb: Ambiguity) -> str:
        lead1, lead2, a = amb.lead1, amb.lead2, amb.a
        text1 = texts.get(lead1)
        if text1 is None:
            text1 = texts[lead1] = _letters(lead1) + "\0"
        text2 = texts.get(lead2)
        if text2 is None:
            text2 = texts[lead2] = _letters(lead2) + "\0"
        size = chr(len(a) + len(lead2))
        if modules is not None:
            size = chr(sum(o < modules for o in a + lead2)) + size
        return f"{size}{text1[:len(a)]}{text2}{text1}{text2}"

    return key


def find_ambiguities(sys: ReductionSystem) -> list[Ambiguity]:
    """All overlap ambiguities among the current rules, in the order of the
    completion queue (``_order_text``): by ambiguity word in the system's
    monomial order, then by lead1, lead2 and a.

    Overlaps pair lead1 = A+B with lead2 = B+C for nonempty B.  No ambiguity
    is filtered out: every ambiguity word is shorter than twice the longest
    lead, whatever the degree cap.
    """
    index = _OverlapIndex()
    out = []
    for lead in sys._rules:
        index.add(lead)
        out += index.ambiguities(lead)
    out.sort(key=_order_text(sys))
    return out


@dataclass
class CompletionReport:
    """A completion, and the algebra it presents: on CONFLUENT, the
    irreducible words of ``system`` are a basis (Bergman's Diamond Lemma)."""

    status: str
    system: ReductionSystem
    new_rules: list[RewriteRule] = dc_field(default_factory=list)
    ambiguities_checked: int = 0
    #: on CAP_EXCEEDED, the lead longer than the cap and the ambiguity word
    #: whose resolution produced it (None when the lead came from the input
    #: or from inter-reduction); neither is part of ``to_json``
    cap_word: Word | None = None
    cap_lead: Word | None = None

    @cached_property
    def _levels(self) -> list[list[Word]] | None:
        # the basis by length, enumerated once (None when dimension() is);
        # reports are shared through caches, so nothing may change this list
        if self.status != CONFLUENT:
            return [[]] if self.status == COLLAPSED_TO_ZERO else None
        return irreducible_words_by_length(self.system)

    def dimension(self) -> int | None:
        """0 when collapsed, the number of irreducible words when confluent
        and finite, else None."""
        levels = self._levels
        return None if levels is None else sum(map(len, levels))

    def basis(self) -> list[Word] | None:
        """The irreducible words by length, a new list on each call, or None
        when ``dimension()`` is None."""
        levels = self._levels
        return None if levels is None else [w for level in levels for w in level]

    def to_json(self) -> dict:
        def rule_json(rule: RewriteRule) -> dict:
            return {"lead": self.system.alphabet.word_str(rule.lead), "tail": str(rule.tail)}

        return {
            "schema": 1,
            "status": self.status,
            "ambiguities_checked": self.ambiguities_checked,
            "rule_count": self.system.rule_count(),
            "rules": [rule_json(r) for r in self.system.rules()],
            "new_rules": [rule_json(r) for r in self.new_rules],
        }


def _resolve(sys: ReductionSystem, amb: Ambiguity) -> dict:
    """Difference of the two one-step resolutions of an ambiguity, reduced:
    lead1 applied at the left of ABC versus lead2 at the right.

    One fold into one fresh coefficient dict: tc NF(tw c) for each term
    tc tw of lead1's tail, then -tc NF(a tw) for each term of lead2's.  Each
    NF is read from the memo when it is there, and the resolution runs on
    one step budget.  A word on both sides is reduced twice and cancels in
    the sum.
    """
    f, memo, nf_word = sys.field, sys._memo, sys._nf_word
    sys._steps = 0
    acc: dict = {}
    for tw, tc in sys._rules[amb.lead1].items():
        word = tw + amb.c
        nf = memo.get(word)
        f.add_scaled(acc, nf_word(word) if nf is None else nf, tc)
    for tw, tc in sys._rules[amb.lead2].items():
        word = amb.a + tw
        nf = memo.get(word)
        f.add_scaled(acc, nf_word(word) if nf is None else nf, f.neg(tc))
    return acc


def complete(sys: ReductionSystem) -> CompletionReport:
    """Bounded Diamond-Lemma completion over one queue of ambiguities.

    The queue yields the smallest ambiguity word first, in the order of
    ``find_ambiguities``, keyed by one string per entry (``_order_text``)
    and then by push order.  Each entry carries
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
    computed.  The report's system is a frozen copy whatever the status,
    since caches share reports.
    """
    report = _complete(sys.copy())
    # the report's system is frozen, never inter-reduced again: its rule
    # strings would only take memory
    report.system._reduced.clear()
    report.system.freeze()
    return report


def _complete(work: ReductionSystem) -> CompletionReport:
    """``complete`` on a system of its own, left unfrozen."""
    report = CompletionReport(CONFLUENT, work)
    if work.collapsed:
        report.status = COLLAPSED_TO_ZERO
        return report
    ticks = itertools.count()
    version: dict = {}      # lead -> version of its current rule
    index = _OverlapIndex()   # the leads whose ambiguities are queued
    queue: list = []
    order = _order_text(work)

    def push(amb: Ambiguity) -> None:
        heapq.heappush(queue, (order(amb), next(ticks), amb,
                               version[amb.lead1], version[amb.lead2]))

    def over_cap(fresh: list) -> bool:
        over = [lead for lead in fresh if len(lead) > work.degree_cap]
        if over:
            report.status = CAP_EXCEEDED
            report.cap_lead = min(over, key=work._key)
        return bool(over)

    def enqueue(fresh: list) -> None:
        # each fresh lead meets itself, the settled leads and the fresh
        # leads before it; a lead whose tail changed is indexed already
        for lead in fresh:
            index.discard(lead)
            version[lead] = next(ticks)
        for lead in fresh:
            index.add(lead)
            for amb in index.ambiguities(lead):
                push(amb)

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
                index.discard(old)
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
    return report


#: the node every collapse leads to, in any trie
_COLLAPSED = -1


def _flat(terms: dict) -> tuple:
    """A coefficient dict as one tuple w1, c1, w2, c2, ... in its order."""
    return tuple(itertools.chain.from_iterable(terms.items()))


class _ExtensionTrie:
    """The completions of a frozen system's extensions, as a trie of the
    outcomes of inserting one relation (``ReductionSystem.completion_with``).

    Node 0 is the base system and ``_COLLAPSED`` the collapsed one.  Any
    other node is its parent with one more rule, the (lead, tail) that a
    relation reduced and oriented to there.  Nodes are merged on (parent,
    lead, tail terms in order), so a node stands for exactly the base's
    rules followed by its added rules in table order.  A relation that
    reduces to zero leaves the node as it is.  Relations are numbered once
    per distinct term list, in order, and found by the identity of the
    first relation seen with that term list, which is kept alive so that
    its id stays its own.  Outcomes are keyed by the int
    ``node << 32 | number`` (there are never 2**32 numbers), and each
    node's report is kept once computed.  Int keys and flat tuples keep the
    trie small: it lives as long as the base.

    Reducing a relation needs the node's system.  It is built, as a copy of
    the base with the node's rules installed, only when an outcome or the
    report is not known yet, and from then on follows the walk; no node
    keeps a system or a memo of its own.
    """

    def __init__(self):
        self._by_id: dict = {}          # id(rel) -> number
        self._kept: list = []           # the relations in _by_id
        self._numbers: dict = {}        # _flat(rel.terms) -> number
        self._outcomes: dict = {}       # node << 32 | number -> node
        self._nodes: list = [None]      # node -> (parent, lead) + _flat(tail)
        self._node_of: dict = {}        # (parent, lead) + _flat(tail) -> node
        self._reports: dict = {}        # node -> CompletionReport

    def completion(self, base: ReductionSystem, relations: Iterable[NcPoly]) -> CompletionReport:
        by_id, outcomes = self._by_id, self._outcomes
        node, work = 0, None        # work: the system of node, once built
        for rel in relations:
            number = by_id.get(id(rel))
            if number is None:
                number = self._number(base, rel)
            key = node << 32 | number
            nxt = outcomes.get(key)
            if nxt is None:
                if work is None:
                    work = self._system(base, node)
                nxt = outcomes[key] = self._step(work, node, rel)
            elif work is not None and nxt != node:
                self._follow(work, nxt)
            node = nxt
            if node == _COLLAPSED:
                break               # every further relation reduces to zero
        report = self._reports.get(node)
        if report is None:
            if work is None:
                work = self._system(base, node)
            work._interreduce()
            # through complete's copy: the report keeps the copy's compact
            # rule table and the memo of its completion alone
            report = self._reports[node] = complete(work)
        return report

    def _number(self, base: ReductionSystem, rel: NcPoly) -> int:
        """The number of ``rel``'s term list, whose words are checked
        against the alphabet when it is new."""
        terms = _flat(rel.terms)
        number = self._numbers.get(terms)
        if number is None:
            base._check_words(rel.terms)
            number = self._numbers[terms] = self._by_id[id(rel)] = len(self._numbers)
            self._kept.append(rel)
        return number

    def _system(self, base: ReductionSystem, node: int) -> ReductionSystem:
        """An unfrozen copy of the base in the state of ``node``."""
        work = base.copy()
        path = []
        while node > 0:
            path.append(node)
            node = self._nodes[node][0]
        for child in reversed(path):
            self._follow(work, child)
        if node == _COLLAPSED:
            work._collapse()
        return work

    def _follow(self, work: ReductionSystem, node: int) -> None:
        """Take ``work`` from the parent of ``node`` to ``node``."""
        if node == _COLLAPSED:
            work._collapse()
        else:
            key = self._nodes[node]
            work._install(key[1], dict(zip(key[2::2], key[3::2])))

    def _step(self, work: ReductionSystem, node: int, rel: NcPoly) -> int:
        """Insert ``rel`` into ``work``, the system of ``node``, and return
        the node that the outcome leads to."""
        if not work._insert(dict(rel.terms)):
            return node
        if work.collapsed:
            return _COLLAPSED
        lead = next(reversed(work._rules))      # a reduced relation's lead is new
        key = (node, lead) + _flat(work._rules[lead])
        child = self._node_of.get(key)
        if child is None:
            child = self._node_of[key] = len(self._nodes)
            self._nodes.append(key)
        return child


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


def _has_cycle(edges: list[Word]) -> bool:
    """Whether the graph with an edge u[:-1] -> u[1:] per word u has a cycle.

    Peels vertices with no predecessor left; a cycle is what cannot be peeled.
    """
    succ: dict = {}
    preds: dict = {}
    for u in edges:
        succ.setdefault(u[:-1], []).append(u[1:])
        preds[u[1:]] = preds.get(u[1:], 0) + 1
    free = [v for v in succ if v not in preds]
    while free:
        for w in succ.get(free.pop(), ()):
            preds[w] -= 1
            if not preds[w]:
                free.append(w)
    return any(preds.values())


def irreducible_words_by_length(sys: ReductionSystem,
                                max_len: int | None = None) -> list[list[Word]] | None:
    """Words containing no rule lead as a subword, grouped by length.

    Stops early once a length yields nothing (every longer word then contains
    a lead too, since prefixes of irreducible words are irreducible).  With
    no ``max_len`` it runs until then, or returns None when that never comes.
    That is decided once, at the longest lead's length d (Ufnarovski): the
    longer irreducible words are the walks in the graph on the irreducible
    words of length d - 1 with an edge u[:-1] -> u[1:] per irreducible u of
    length d, so there are finitely many exactly when it has no cycle.
    """
    if max_len is not None and max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    if sys.collapsed:
        return [[]]
    levels: list[list[Word]] = [[()]]
    size = len(sys.alphabet)
    d = max(map(len, sys._rules), default=1)
    n = 0
    while max_len is None or n < max_len:
        n += 1
        nxt: list[Word] = []
        for w in levels[-1]:
            for letter in range(size):
                # w is irreducible, so a lead inside w + (letter,) ends it
                cand = w + (letter,)
                if sys._lead_ending(cand, n) is None:
                    nxt.append(cand)
        if not nxt:
            break
        levels.append(nxt)
        if max_len is None and n == d and _has_cycle(nxt):
            return None
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
    """Reduce both tensor factors independently, never across the symbol:
    NF(l) (x) NF(r) for each term l (x) r, accumulated by ``add_outer``.

    Coaction images never come here: ``fulcrum.word_image`` reduces each
    fold step as it forms it."""
    if t.left != left_sys.alphabet or t.right != right_sys.alphabet:
        raise ValueError("tensor alphabets do not match the reduction systems")
    f = t.field
    acc: dict = {}
    for (wl, wr), c in t.terms.items():
        f.add_outer(acc, left_sys.nf_word(wl), right_sys.nf_word(wr), c)
    return TensorPoly(t.left, t.right, f, acc)


# ---------------------------------------------------------------------------
# GF(2) rank
# ---------------------------------------------------------------------------

def rank_f2(rows: Sequence[int], width: int | None = None) -> int:
    """Rank over GF(2) of rows given as int bitsets.

    Elimination keeps one pivot per leading bit: each row is reduced by the
    pivots its top bit meets until it is zero or leads at a free bit.  When
    ``width`` is supplied every row must fit in it.
    """
    pivots: dict = {}        # leading bit -> row
    for i, row in enumerate(rows):
        if width is not None and (row < 0 or row.bit_length() > width):
            raise ValueError(f"row {i} exceeds width {width}")
        while row:
            p = row.bit_length() - 1
            other = pivots.get(p)
            if other is None:
                pivots[p] = row
                break
            row ^= other
    return len(pivots)
