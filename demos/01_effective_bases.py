"""Effective measurement bases behind particle counting.

Counting particles in the two outputs of a beam splitter is equivalent to
projecting the *inputs* onto a family of interference states.  This script
prints that family for two and four particles on a balanced splitter,
first as normalized amplitudes, then in the raw creation-monomial
convention used by typeset tables.
"""
import math

from twocopy import (
    BeamSplitterSetting,
    effective_basis,
    fock_amplitudes,
    outcome_count,
)

balanced = BeamSplitterSetting.balanced(phase=0.0)


def show(n_total, view):
    print(f"\n{outcome_count(n_total)} outcomes for {n_total} particles "
          f"({'normalized amplitudes' if view is fock_amplitudes else 'monomial coefficients'}):")
    for vector in effective_basis(n_total, balanced):
        n, m = vector.outcome
        terms = []
        for (i, j), c in sorted(view(vector.vector).items(), reverse=True):
            if abs(c) > 1e-12:
                terms.append(f"{c.real:+.4f}|{i} {j}>")
        print(f"  |{n} {m}>  eps={vector.weight:+d}   " + " ".join(terms))


show(2, fock_amplitudes)
show(4, fock_amplitudes)
show(4, lambda vector: vector.terms)

print("\nNorms are always 1 in the amplitude view:")
for vector in effective_basis(4, BeamSplitterSetting.balanced(1.3)):
    norm = sum(abs(a) ** 2 for a in fock_amplitudes(vector.vector).values())
    assert abs(norm - 1.0) < 1e-12
print("  checked all 15 vectors at phase 1.3")
