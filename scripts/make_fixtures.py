#!/usr/bin/env python3
"""Regenerate the bundled JSON fixtures (canonical algebras, families and
the recognize golden bytes).

Usage: python scripts/make_fixtures.py [fixtures-dir]

Writes, for dimensions up to 8:
  canonical/<name>_n<k>.algebra.json          every canonical algebra
  canonical/nu_n<k>_alpha_<a>.algebra.json    scalar family samples
  families/pplus_to_lambda2_n<k>.family.json
  families/n3plus_to_lambda2_n<k>.family.json
  families/fix_<name>_n<k>.family.json        diagonal fixed-point families
  recognize/<form>.json                       each non-abelian canonical form
                                              at n = 3 and 8 (nu at every
                                              sample alpha), moved by a
                                              seeded rational basis change,
                                              and the anisotropic n3plus
  recognize/<form>.recognize.json             ``recognize --json`` of each
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

from levelone import (
    Algebra,
    CanonicalForm,
    Tag,
    apply_basis_change,
    construct,
    random_invertible_matrix,
    recognize,
)
from levelone.families import (
    FIXED_POINT_WEIGHTS,
    n3plus_to_lambda2,
    pplus_to_lambda2,
    scaling_family,
)
from levelone.jsonio import (
    algebra_to_dict,
    dumps,
    family_to_dict,
    recognition_to_dict,
    save_path,
)

MAX_DIM = 8
NU_ALPHAS = [
    (Fraction(0), "0"),
    (Fraction(1), "1"),
    (Fraction(1, 2), "1_2"),
    (Fraction(2, 3), "2_3"),
    (Fraction(-3), "m3"),
]


def main(root: str) -> None:
    base = Path(root)
    can = base / "canonical"
    fam = base / "families"
    can.mkdir(parents=True, exist_ok=True)
    fam.mkdir(parents=True, exist_ok=True)

    for n in range(1, MAX_DIM + 1):
        save_path(
            str(can / f"abelian_n{n}.algebra.json"),
            algebra_to_dict(construct(CanonicalForm(Tag.ABELIAN, n))),
        )
    for n in range(2, MAX_DIM + 1):
        for tag in (Tag.P_MINUS, Tag.P_PLUS, Tag.LAMBDA2):
            save_path(
                str(can / f"{tag.value}_n{n}.algebra.json"),
                algebra_to_dict(construct(CanonicalForm(tag, n))),
            )
        for alpha, label in NU_ALPHAS:
            save_path(
                str(can / f"nu_n{n}_alpha_{label}.algebra.json"),
                algebra_to_dict(construct(CanonicalForm(Tag.NU, n, alpha))),
            )
    for n in range(3, MAX_DIM + 1):
        for tag in (Tag.N3_MINUS, Tag.N3_PLUS):
            save_path(
                str(can / f"{tag.value}_n{n}.algebra.json"),
                algebra_to_dict(construct(CanonicalForm(tag, n))),
            )

    for n in range(2, MAX_DIM + 1):
        save_path(
            str(fam / f"pplus_to_lambda2_n{n}.family.json"),
            family_to_dict(pplus_to_lambda2(n)),
        )
    for n in range(3, MAX_DIM + 1):
        save_path(
            str(fam / f"n3plus_to_lambda2_n{n}.family.json"),
            family_to_dict(n3plus_to_lambda2(n)),
        )
    for name, weights_of in FIXED_POINT_WEIGHTS.items():
        start = 3 if name == "n3minus" else 2
        for n in range(start, MAX_DIM + 1):
            save_path(
                str(fam / f"fix_{name}_n{n}.family.json"),
                family_to_dict(scaling_family(weights_of(n))),
            )
    write_recognize_golden(base / "recognize")
    print(f"fixtures written under {base}")


def recognize_golden_inputs() -> dict:
    """{name: algebra}: every non-abelian canonical form at n = 3 and 8,
    moved by random_invertible_matrix(n, Random(f"recognize-golden:{name}"),
    bound=2), and the anisotropic n3plus e1*e1 = e2*e2 = e3 as it is."""
    forms = {}
    for n in (3, 8):
        for tag in (Tag.P_MINUS, Tag.P_PLUS, Tag.LAMBDA2, Tag.N3_MINUS, Tag.N3_PLUS):
            forms[f"{tag.value}_n{n}"] = CanonicalForm(tag, n)
        for alpha, label in NU_ALPHAS:
            forms[f"nu_n{n}_alpha_{label}"] = CanonicalForm(Tag.NU, n, alpha)
    out = {}
    for name, form in forms.items():
        rng = random.Random(f"recognize-golden:{name}")
        g = random_invertible_matrix(form.dim, rng, bound=2)
        out[name] = apply_basis_change(construct(form), g)
    one = Fraction(1)
    out["n3plus_anisotropic_n3"] = Algebra.from_entries(3, {(2, 0, 0): one, (2, 1, 1): one})
    return out


def write_recognize_golden(root: Path) -> None:
    root.mkdir(parents=True, exist_ok=True)
    for name, a in recognize_golden_inputs().items():
        save_path(str(root / f"{name}.json"), algebra_to_dict(a))
        with open(root / f"{name}.recognize.json", "w", encoding="utf-8") as fh:
            fh.write(dumps(recognition_to_dict(recognize(a))))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "fixtures")
