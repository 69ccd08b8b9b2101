"""Seeded input generators.

Every input the benchmark hands to mpo comes from here and depends only on
the workload seed: the initial prompt, the critic's directive stream (with
its share of repeats), the multiple-choice items and the solver's reply for
each item. The program sees only the generated text.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass

_TAGS = ("<System Role>", "<Context>", "<Task>", "<Constraints>", "<Output Format>")

# Directive lines open with a capitalised verb; every other generated word is
# lowercase, so the only standalone capital letters a solver reply carries are
# the ones a style puts there on purpose.
_VERBS = (
    "Keep", "Prefer", "Name", "State", "Avoid", "Mention", "Use", "List",
    "Cite", "Check", "Explain", "Require", "Favour", "Stress", "Note", "Give",
)
_ONSETS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
_LIST_MARKER = re.compile(r"^\s*(?:[-*]|\d+[.)])\s*")


def vocabulary(seed: int) -> tuple[str, ...]:
    """600 distinct lowercase pseudo-words, a different set for every seed."""
    rng = random.Random(f"vocab:{seed}")
    words: set[str] = set()
    while len(words) < 600:
        syllables = rng.randint(2, 3)
        words.add("".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables)))
    return tuple(sorted(words))


def _phrase(rng: random.Random, vocab: tuple[str, ...], words: int) -> str:
    return " ".join(rng.choice(vocab) for _ in range(words))


def initial_prompt(seed: int) -> str:
    """A five-section tagged prompt of three eight-word lines per section."""
    rng = random.Random(f"prompt:{seed}")
    vocab = vocabulary(seed)
    blocks = []
    for tag in _TAGS:
        lines = [_phrase(rng, vocab, 8) + "." for _ in range(3)]
        blocks.append(tag + "\n" + "\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def normalized(line: str) -> str:
    """Duplicate-detection key: list marker, case, spacing and end punctuation
    ignored (the same rule the program's lexical dedup documents)."""
    line = _LIST_MARKER.sub("", line.strip(), count=1)
    return " ".join(line.split()).lower().rstrip(".,;:!?")


class DirectiveStream:
    """The critic's replies: ``new`` fresh directives plus ``repeats`` that
    restate a line the section already holds, in seeded order. Every
    directive has the same number of words, so the token volume of a run
    does not depend on the seed.

    A reply depends only on the seed, the section name and the section's
    current content, never on call order, so a run gives the same replies at
    any concurrency width.
    """

    def __init__(self, seed: int, new: int, repeats: int) -> None:
        self.seed = seed
        self.new = new
        self.repeats = repeats
        self.vocab = vocabulary(seed)

    def __call__(self, section_name: str, content: str) -> str:
        rng = random.Random(f"critique:{self.seed}:{section_name}:{content}")
        replies = [f"{rng.choice(_VERBS)} {_phrase(rng, self.vocab, 11)}." for _ in range(self.new)]
        existing = [line for line in content.splitlines() if line.strip()]
        if existing:
            replies += [_restated(rng, rng.choice(existing)) for _ in range(self.repeats)]
        rng.shuffle(replies)
        return "\n".join(f"- {line}" for line in replies)


def _restated(rng: random.Random, line: str) -> str:
    """A variant of ``line`` with the same normalized form."""
    line = line.strip().rstrip(".")
    style = rng.randrange(3)
    if style == 0:
        return line + "."
    if style == 1:
        return line.lower() + "."
    return line + ";"


def consolidated(content: str) -> str:
    """What a consolidating critic returns: the section without repeats."""
    kept = []
    seen: set[str] = set()
    for line in content.splitlines():
        key = normalized(line)
        if key:
            if key in seen:
                continue
            seen.add(key)
        kept.append(line)
    return "\n".join(kept).strip()


@dataclass(frozen=True)
class MCQSet:
    """Items as ``generic_jsonl`` text, the solver's reply table keyed by
    question marker, and the counts an exact-match scorer must report."""

    jsonl: str
    replies: dict[str, str]
    total: int
    correct: int
    unparseable: int


def mcq_set(seed: int, count: int) -> MCQSet:
    """``count`` four-choice items and one seeded reply per item.

    Reply styles hit extraction rule 1 (an ``Answer:`` line), rule 2 (a bare
    letter), rule 3 (a letter inside the first line) and no rule at all.
    The expected letter is known by construction, which gives the oracle
    counts without running the program's extractor.
    """
    rng = random.Random(f"mcq:{seed}")
    vocab = vocabulary(seed)
    subjects = tuple(_phrase(rng, vocab, 1) for _ in range(5))
    lines = []
    replies: dict[str, str] = {}
    correct = unparseable = 0
    for index in range(count):
        key = f"Q{index:05d}"
        gold = rng.choice("ABCD")
        choices = {letter: _phrase(rng, vocab, 3) for letter in "ABCD"}
        lines.append(json.dumps({
            "id": f"item-{index:05d}",
            "question": f"{key}: which {_phrase(rng, vocab, 4)} fits {_phrase(rng, vocab, 3)}?",
            "choices": choices,
            "answer": gold,
            "subject": rng.choice(subjects),
        }))
        letter = gold if rng.random() < 0.7 else rng.choice([l for l in "ABCD" if l != gold])
        style = rng.choices(("rule1", "rule2", "rule3", "none"), weights=(40, 25, 25, 10))[0]
        if style == "rule1":
            form = rng.choice((f"Answer: {letter}", f"answer: ({letter.lower()}).", f"Answer: {letter}!"))
            reply = f"the {_phrase(rng, vocab, 3)} settles it.\n{form}"
        elif style == "rule2":
            reply = rng.choice((letter, f"{letter}."))
        elif style == "rule3":
            reply = f"choice {letter} fits the {_phrase(rng, vocab, 2)} best\nso that is it"
        else:
            reply = f"the {_phrase(rng, vocab, 2)} and the {_phrase(rng, vocab, 2)} both seem plausible"
        replies[key] = reply
        if style == "none":
            unparseable += 1
        elif letter == gold:
            correct += 1
    return MCQSet("\n".join(lines) + "\n", replies, count, correct, unparseable)
