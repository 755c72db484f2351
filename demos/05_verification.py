"""The verification engine: relation suites checked exactly on all of V^(x)r.

Each relation instance is a pair of operator words evaluated on the
basis tensors with indices in [1, n] (the r! permutations of 1..r for an
omega-space relation).  Every symbol commutes with adding n to any one
index, so a vanishing difference there vanishes on all of V^(x)r, and a
pass is complete.  Fewer tensors suffice when every term has a projector
(only its source weight spaces) or when the words touch only some
residues (those plus one representative of the rest); each report names
the domain it evaluated.  A deliberately corrupted relation demonstrates what
failure looks like.
"""
from aschur.present import (
    build_M,
    cancellation,
    factor_En,
    q15_instance,
    run_suite,
    verify_identity,
    zeta,
)
from aschur.tensor import act_expr_basis, render_vector
from aschur.weights import Weight

n, r = 3, 2

print("The defining presentation suite (exact, complete on V^(x)r):")
for rep in run_suite("schur-presentation", n, r):
    print(" ", rep.line())

print("\nNegative control: the same relation with a corrupted scalar:")
rep = verify_identity(n, r, q15_instance(n, r, corrupt=True))
print(" ", rep.line())

print("\nA slice of the idempotented suite:")
for rep in run_suite("idempotented", n, r)[:5]:
    print(" ", rep.line())

print("\nThe omega-anchored Hecke generator images and their relations:")
for rep in run_suite("zeta", n, r):
    print(" ", rep.line())

print("\nThe cancellation scalar, closed form:")
lam = Weight((0, 2, 1))
z = cancellation(lam, 1, 2, "FE")
print(f"  F1^2 E1^2 1_{lam.render()} = ({z.render()}) 1_{lam.render()}")

print("\nPulling E_n across a weight with the transport monomial:")
lam = Weight((2, 1, 0, 0))
res = factor_En(4, 3, lam)
print(f"  holds: {res.holds}   scalar z = {res.render_z()}")
print(f"  monomial: {build_M(lam).render()}")
