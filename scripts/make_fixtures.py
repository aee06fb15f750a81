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
                                              seeded rational basis change;
                                              then lambda2 branch inputs whose
                                              square witness is e_p, e_p + e_q
                                              and 2 e_p + e_q at n = 3 and 8,
                                              moved n3minus at n = 8 and a
                                              non-skew n3minus input
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
    b = (1, 1, -1, 1), which takes nu's branch without being nu.

    Then the square and pair branches, each drawn from
    Random(f"witness-golden:{name}"): at n = 3 and 8, lambda2 moved
    (square witness e_1), a tensor with every e_i*e_i = 0 (witness
    e_1 + e_2) and ``doubled_square_algebra`` (witness 2 e_p + e_q); n3minus
    at n = 8 moved; and at n = 5 the n3minus tensor plus the symmetric part
    x*y + y*x = l(x) y + l(y) x, moved, whose squares stay on their lines
    but whose e1*e2 leaves its plane."""
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
    for n in (3, 8):
        moved[f"lambda2_n{n}"] = construct(CanonicalForm(Tag.LAMBDA2, n))
    moved["n3minus_n8"] = construct(CanonicalForm(Tag.N3_MINUS, 8))
    rng = random.Random("witness-golden:n3minus_on_lines_n5")
    lam = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(5)]
    entries = {(2, 0, 1): one, (2, 1, 0): -one}
    for i in range(5):
        for j in range(5):
            entries[(j, i, j)] = entries.get((j, i, j), 0) + lam[i] / 2
            entries[(i, i, j)] = entries.get((i, i, j), 0) + lam[j] / 2
    moved["n3minus_on_lines_n5"] = Algebra.from_entries(5, entries)
    for name, alg in moved.items():
        rng = random.Random(f"witness-golden:{name}")
        out[name] = apply_basis_change(alg, random_invertible_matrix(alg.dim, rng, bound=2))
    for n in (3, 8):
        rng = random.Random(f"witness-golden:square_sum_n{n}")
        out[f"square_sum_n{n}"] = Algebra.from_entries(n, {
            (k, i, j): Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 3))
            for k in range(n) for i in range(n) for j in range(n)
            if i != j and rng.random() < 0.5})
        rng = random.Random(f"witness-golden:square_doubled_n{n}")
        out[f"square_doubled_n{n}"] = doubled_square_algebra(n, (n // 3, n - 1), rng)
    return out


def doubled_square_algebra(n: int, pq: tuple, rng: random.Random) -> Algebra:
    """A tensor whose squares on the basis vectors and their pairwise sums
    stay on their lines while (2 e_p + e_q)^2 does not, for pq = (p, q),
    p < q: e_i*e_i = l_i e_i, and e_i*e_j + e_j*e_i = a e_i + b e_j for
    i < j with a = l_j - l_i + b, which keeps (e_i + e_j)^2 on its line;
    b = l_i keeps (2 e_i + e_j)^2 on its line too, and b = l_p + 1 at pq
    does not.  Each pair also gets a random skew part."""
    lam = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    entries = {(i, i, i): lam[i] for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            b = lam[i] + ((i, j) == pq)
            sym = {i: lam[j] - lam[i] + b, j: b}
            for k in range(n):
                skew = Fraction(rng.randint(-2, 2)) if rng.random() < 0.4 else 0
                entries[(k, i, j)] = (sym.get(k, 0) + skew) / 2
                entries[(k, j, i)] = (sym.get(k, 0) - skew) / 2
    return Algebra.from_entries(n, {key: v for key, v in entries.items() if v})


def write_witness_golden(root: Path) -> None:
    root.mkdir(parents=True, exist_ok=True)
    for name, a in witness_golden_inputs().items():
        save_path(str(root / f"{name}.algebra.json"), algebra_to_dict(a))
        save_path(str(root / f"{name}.witness.json"), witness_to_dict(classify(a)))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "fixtures")
