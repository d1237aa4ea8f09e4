"""Fixed pure-Python work whose wall time tracks the host's speed.

`run.py` starts this script as a fresh process between the `tm`
commands and scales their times by its median (see `run.py`). It
imports nothing from tmkit, so a change to tmkit never moves it. Its work
resembles a front end's: read text one character at a time, build small
objects, count them in a dict, sort and format the result.

Prints one line, `DIGEST`, when the work completed as expected.
"""

import random

#: the number of distinct words the fixed input yields
DIGEST = 2663


class Token:
    __slots__ = ("kind", "text")

    def __init__(self, kind, text):
        self.kind = kind
        self.text = text


def main() -> int:
    rng = random.Random(7)
    words = ["".join(rng.choice("abcdefghij")
                     for _ in range(rng.randint(2, 9)))
             for _ in range(3000)]
    text = " ".join(rng.choice(words) for _ in range(60000)) + " "
    tokens, buf = [], []
    for ch in text:
        if ch == " ":
            tokens.append(Token("word", "".join(buf)))
            buf = []
        else:
            buf.append(ch)
    counts = {}
    for token in tokens:
        counts[token.text] = counts.get(token.text, 0) + 1
    lines = [f"{word} = {n};" for word, n in sorted(counts.items())]
    print(len(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
