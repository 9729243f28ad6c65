"""Print SHA-256 digests of what paradd outputs, to compare two checkouts
across a change that should keep every digit and every message.

    python3 scripts/digest.py                  # this checkout
    python3 scripts/digest.py --root ../parent

Imports ``paradd`` from the checkout's ``src``, and digests, one section
each, then all together:

- convert: ``paradd convert --trace --json`` on each ``paradd verify``
  base, canonical, ``--sde`` and on every shift of the minimal alphabet
  with ``--gde`` and ``--sde``, refusals included: 96 requests a base,
  drawn from ``random.Random(base)``, a fifth with a digit one past the
  rule's input alphabet;
- add: ``adder.add``, and ``adder.subtract`` on mixed-sign alphabets, at
  5, 1 000 and 20 000 digits on the ``verify`` systems, -2 {-1..1},
  -3/2 {-2..2} and 10 {0..10};
- verify: ``paradd verify --json`` less each report's ``elapsed_s`` and
  ``instances_per_s``;
- rules: ``to_json`` of every rule those pipelines and conversions use.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

SYSTEMS = [("-2", "-1..1"), ("-3/2", "-2..2"), ("10", "0..10")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "src"))
    from paradd import adder, cli
    from paradd.core import Alphabet, DigitString, make_system
    from paradd.errors import NumerationError
    from paradd.rules import canonical_gde, rules_for_alphabet

    def run(*argv) -> list:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return [code, out.getvalue(), err.getvalue()]

    sections, rules = {"convert": [], "add": [], "verify": []}, []
    for base_text, _ in cli._VERIFY_CATALOG:
        base, rng = cli.parse_base(base_text), random.Random(base_text)
        rule = canonical_gde(base)
        K, rules = rule.output_alphabet.size, rules + [rule]
        # (flags, the least and the greatest digit their rule reads)
        requests = [([], 0, K), (["--sde"], -K, 0)] + [
            ([f"--alphabet={-d}..{K - 1 - d}", flag], -d - sde, K - d - sde)
            for d in range(K) for sde, flag in enumerate(("--gde", "--sde"))]
        for i in range(96):
            flags, lo, hi = rng.choice(requests)
            digits = [rng.randint(lo, hi) for _ in range(rng.randint(0, 12))]
            if digits and i % 5 == 0:
                digits[rng.randrange(len(digits))] = hi + 1
            text = " ".join(map(str, digits)) + " ."
            sections["convert"].append(run("convert", "--base", base_text,
                                           *flags, "--trace", "--json", text))
        for d in range(K):
            try:
                pair = rules_for_alphabet(base, Alphabet(-d, K - 1 - d))
            except NumerationError:
                continue
            rules += [r for r in (pair.gde, pair.sde) if r is not None]
    for base_text, alpha_text in cli._VERIFY_CATALOG + SYSTEMS:
        system = make_system(cli.parse_base(base_text),
                             cli.parse_alphabet(alpha_text))
        pipe, al = adder.build_pipeline(system), system.alphabet
        rules += [rule for _, rule in pipe.plan]
        ops = [adder.add] + ([adder.subtract] if al.m < 0 < al.M else [])
        rng = random.Random(f"{base_text} {alpha_text}")
        for n in (5, 1000, 20000):
            x, y = (DigitString(tuple(rng.randint(al.m, al.M)
                                      for _ in range(n)), rng.randint(-3, 3))
                    for _ in range(2))
            sections["add"] += [op(x, y, pipe).to_json() for op in ops]
    code, out, err = run("verify", "--json")
    payload = json.loads(out)
    for report in payload["reports"]:
        del report["elapsed_s"], report["instances_per_s"]
    sections["verify"] = [code, payload, err]
    sections["rules"] = [rule.to_json() for rule in rules]
    whole = hashlib.sha256()
    for name, items in sections.items():
        text = json.dumps(items, sort_keys=True)
        whole.update(text.encode())
        print(f"{name:8s} {len(items):5d} "
              f"{hashlib.sha256(text.encode()).hexdigest()}")
    print(f"{'all':14s} {whole.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
