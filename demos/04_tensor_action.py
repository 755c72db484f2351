"""The quantum-group action on tensor space, through the coproduct.

Basis tensors are integer tuples; E_i, F_i act as position sums with
grouplike K twists, K_i acts diagonally by the weight, R rotates every
index.  The omega weight space carries Hecke-algebra endomorphisms.
Every symbol commutes with adding n to any one index, so an identity
checked on the basis tensors with indices in [1, n] holds everywhere.
"""
from aschur import OperatorExpr, tau, weight_of, weight_space_basis
from aschur.operators import E, F, K, R
from aschur.tensor import act_expr_basis, render_vector
from aschur.weights import Weight, omega

n, r = 3, 2

print("Single generators on e_1 (x) e_2:")
for word, label in (((E(1),), "E1"), ((F(2),), "F2"), ((K(1),), "K1"), ((R,), "R")):
    out = act_expr_basis(n, OperatorExpr.word(word), (1, 2))
    print(f"  {label:3} . e[1,2] = {render_vector(out)}")

print("\nWeights count residues mod n:")
for b in ((1, 2), (1, 4), (2, 2)):
    print(f"  weight{b} = {weight_of(n, b).parts}")

print("\nA weight-space basis over the residues [1, n]:")
basis = weight_space_basis(n, Weight((1, 1, 0)), 1, 3)
print(f"  weight (1,1,0), indices in [1,3]: {basis}")

print("\nThe braid-group style endomorphism of the omega space:")
t1 = tau(n, r, "s1")
print(f"  tau(s1) . e[1,2] = {render_vector(act_expr_basis(n, t1, (1, 2)))}")
print(f"  tau(s1) . e[2,1] = {render_vector(act_expr_basis(n, t1, (2, 1)))}")

print("\nIts quadratic relation (eigenvalues q and -1), on the whole omega space:")
from aschur.ring import LaurentPoly

q = LaurentPoly.q()
domain = weight_space_basis(n, omega(n, r), 1, n)  # the r! permutations of 1..r
lhs = t1 * t1
rhs = t1.scaled(q - 1) + OperatorExpr.one().scaled(q)
ok = all(
    act_expr_basis(n, lhs, b) == act_expr_basis(n, rhs, b)
    for b in domain
)
print(f"  tau(s1)^2 == (q-1) tau(s1) + q on {domain}, hence on V_omega: {ok}")

print("\nThe rotation has two realizations that agree on the omega space:")
with_r = tau(n, r, "rho", "with-R")
r_free = tau(n, r, "rho", "R-free")
ok = all(
    act_expr_basis(n, with_r, b) == act_expr_basis(n, r_free, b)
    for b in domain
)
print(f"  with-R == R-free on V_omega: {ok}")
