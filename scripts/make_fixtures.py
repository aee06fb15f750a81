#!/usr/bin/env python3
"""Regenerate the bundled JSON fixtures (canonical algebras, families and
the recognize and classify golden bytes).

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
  witnesses/<name>.algebra.json               classify inputs: a few canonical
                                              forms as they are, the square
                                              grid case, three random
                                              algebras, and the scalar-action
                                              forms (pminus, nu, one tensor
                                              x*y = a(x) y + b(y) x with a, b
                                              not proportional) moved by a
                                              seeded rational basis change
  witnesses/<name>.witness.json               ``classify --out`` of each
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
    classify,
    construct,
    random_algebra,
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
    witness_to_dict,
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
    write_witness_golden(base / "witnesses")
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


def witness_golden_inputs() -> dict:
    """{name: algebra}: the classify inputs whose witnesses are pinned.

    pplus_n3, n3minus_n4, pminus_n4 and nu_n4_alpha_2_3 as they are; the
    2-dim algebra e1*e2 = e2, e2*e2 = -e2, whose square witness is 2 e1 + e2;
    ``levelone random --kind algebra --dim 6 --non-abelian`` at seeds 1-3;
    and the scalar-action forms, each moved by
    random_invertible_matrix(n, Random(f"witness-golden:{name}"), bound=2):
    pminus at n = 2, 3 and 8, nu at n = 1 and at n = 2, 3 and 8 for every
    sample alpha, and x*y = a(x) y + b(y) x at n = 4 with a = (2, 0, 1, -1),
    b = (1, 1, -1, 1), which takes nu's branch without being nu."""
    out = {name: construct(form) for name, form in {
        "pplus_n3": CanonicalForm(Tag.P_PLUS, 3),
        "n3minus_n4": CanonicalForm(Tag.N3_MINUS, 4),
        "pminus_n4": CanonicalForm(Tag.P_MINUS, 4),
        "nu_n4_alpha_2_3": CanonicalForm(Tag.NU, 4, Fraction(2, 3)),
    }.items()}
    one = Fraction(1)
    out["grid_n2"] = Algebra.from_entries(2, {(1, 0, 1): one, (1, 1, 1): -one})
    for seed in (1, 2, 3):
        out[f"random_n6_seed{seed}"] = random_algebra(6, 0.4, seed, True)
    forms = {"nu_n1": CanonicalForm(Tag.NU, 1)}
    for n in (2, 3, 8):
        forms[f"pminus_n{n}"] = CanonicalForm(Tag.P_MINUS, n)
        for alpha, label in NU_ALPHAS:
            forms[f"nu_n{n}_alpha_{label}"] = CanonicalForm(Tag.NU, n, alpha)
    moved = {name: construct(form) for name, form in forms.items()}
    a, b = (2, 0, 1, -1), (1, 1, -1, 1)
    entries = {}
    for i in range(4):
        for j in range(4):
            entries[(j, i, j)] = Fraction(a[i])
            entries[(i, i, j)] = entries.get((i, i, j), 0) + b[j]
    moved["scalar_action_n4"] = Algebra.from_entries(4, entries)
    for name, alg in moved.items():
        rng = random.Random(f"witness-golden:{name}")
        out[name] = apply_basis_change(alg, random_invertible_matrix(alg.dim, rng, bound=2))
    return out


def write_witness_golden(root: Path) -> None:
    root.mkdir(parents=True, exist_ok=True)
    for name, a in witness_golden_inputs().items():
        save_path(str(root / f"{name}.algebra.json"), algebra_to_dict(a))
        save_path(str(root / f"{name}.witness.json"), witness_to_dict(classify(a)))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "fixtures")
