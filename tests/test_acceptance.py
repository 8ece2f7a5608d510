"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single pass/fail
line (run with -s to see them on success). Time budgets are asserted.
"""

import random
import time
from itertools import product

from chromheap.chromatic import chromatic_sym, expansion
from chromheap.heap_sides import closed_form_two_column, positivity_report, sink_sum
from chromheap.heaps import enumerate_classes, enumerate_heaps
from chromheap.ncsf import hp_recurrence_check, nc_e, nc_h, nc_p, nc_s, pair_gamma
from chromheap.oracle import coloring_qsym
from chromheap.partitions import conjugate, partitions
from chromheap.posets import UnitIntervalOrder
from chromheap.qpoly import QPoly
from chromheap.symfunc import QSymFunc, SymFunc, basis_to_m, _rows_to_m
from test_chromatic import asc_des_symmetry_check, scaling_check
from test_symfunc import compositions, composition_to_subset, dominates, f_coords, transition_M


def _report(num, name, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"acceptance {num} ({name}): {status} [{elapsed:.2f}s / {budget:.0f}s]")
    assert ok, name
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"


def test_acceptance_1_running_example():
    t0 = time.time()
    order = UnitIntervalOrder((2, 3, 3))
    mu = (1, 1, 2)
    ok = order.blow_up(mu).m == (2, 4, 4, 4)
    ok = ok and len(enumerate_heaps(order, mu)) == 6
    ok = ok and len(enumerate_classes(order, mu)) == 4
    ok = ok and pair_gamma(nc_h(order, (3, 1)), mu) == QPoly((1, 3, 3, 1))
    ok = ok and pair_gamma(nc_p(order, (3, 1)), mu) == QPoly((1, 2, 2, 1))
    ok = ok and pair_gamma(nc_s(order, (3, 1)), mu) == QPoly((0, 1, 1))
    ok = ok and chromatic_sym(order, mu) == coloring_qsym(order, mu).to_symmetric()
    _report(1, "running example", ok, time.time() - t0, 1.0)


def test_acceptance_2_theorem_coefficients():
    t0 = time.time()
    order = UnitIntervalOrder((2, 3, 4, 5, 5))
    rep = expansion(order, (1, 1, 1, 1, 1), "e")
    ok = rep.coefficients[(2, 2, 1)] == QPoly((0, 0, 1))
    ok = ok and rep.coefficients[(4, 1)] == QPoly((0, 1, 1, 1))
    ok = ok and (3, 1, 1) not in rep.coefficients
    ok = ok and rep.provenance[(2, 2, 1)] == "theorem+basis-change"
    ok = ok and rep.provenance[(4, 1)] == "theorem+basis-change"
    _report(2, "theorem coefficients", ok, time.time() - t0, 5.0)


def test_acceptance_3_oracle_sweep():
    t0 = time.time()
    ok = True
    for n in range(1, 7):
        for order in UnitIntervalOrder.all_orders(n):
            mu = (1,) * n
            ok = ok and chromatic_sym(order, mu) == coloring_qsym(
                order, mu
            ).to_symmetric()
            ok = ok and asc_des_symmetry_check(order, mu)
    rng = random.Random(20260823)
    done = 0
    while done < 20:
        n = rng.randint(1, 4)
        order = rng.choice(list(UnitIntervalOrder.all_orders(n)))
        mu = tuple(rng.randint(0, 3) for _ in range(n))
        if not 1 <= sum(mu) <= 7:
            continue
        ok = ok and chromatic_sym(order, mu) == coloring_qsym(order, mu).to_symmetric()
        ok = ok and asc_des_symmetry_check(order, mu)
        done += 1
    _report(3, "oracle sweep", ok, time.time() - t0, 120.0)


def test_acceptance_4_noncommutative_identities():
    t0 = time.time()
    ok = True
    for n in range(1, 6):
        for order in UnitIntervalOrder.all_orders(n):
            h = order.height
            for k in range(1, h + 1):
                for l in range(k, h + 1):
                    ek, el = nc_e(order, k), nc_e(order, l)
                    ok = ok and ek * el == el * ek
            for k in range(1, n + 1):
                ok = ok and nc_h(order, k) == nc_h(order, k, "relation")
                ok = ok and nc_p(order, k) == nc_p(order, k, "relation")
            for d in range(1, min(n, 6) + 1):
                for lam in partitions(d):
                    ok = ok and nc_s(order, lam) == nc_s(order, lam, "jacobi_trudi")
            for k in range(1, n + 1):
                sink_sum(order, (1,) * n, k)  # raises on disagreement
            for d in range(h, min(7, n + 2) + 1):
                for lam in partitions(d):
                    if len(lam) >= h:
                        ok = ok and hp_recurrence_check(order, lam)
    # sink comparison on a blown-up type of total size 7
    sink_sum(UnitIntervalOrder((2, 3, 3)), (3, 2, 2), 3)
    # spot checks at n = 6
    order = UnitIntervalOrder((2, 4, 5, 6, 6, 6))
    for k in range(1, 7):
        ok = ok and nc_h(order, k) == nc_h(order, k, "relation")
        ok = ok and nc_p(order, k) == nc_p(order, k, "relation")
    ok = ok and nc_s(order, (3, 2, 1)) == nc_s(order, (3, 2, 1), "jacobi_trudi")
    _report(4, "noncommutative identities", ok, time.time() - t0, 300.0)


def test_acceptance_5_scaling():
    t0 = time.time()
    rng = random.Random(414243)
    ok = True
    done = 0
    while done < 10:
        n = rng.randint(1, 3)
        order = rng.choice(list(UnitIntervalOrder.all_orders(n)))
        mu = tuple(rng.randint(0, 3) for _ in range(n))
        if not 1 <= sum(mu) <= 6:
            continue
        ok = ok and scaling_check(order, mu)
        done += 1
    _report(5, "blow-up scaling", ok, time.time() - t0, 60.0)


def test_acceptance_6_triangle_free_closed_form():
    t0 = time.time()
    ok = True
    for n in range(1, 8):
        # triangle-free bound sequences: m_i in {i, i+1}, forced m_n = n
        for bits in product((0, 1), repeat=n - 1):
            m = tuple(i + 1 + b for i, b in enumerate(bits)) + (n,)
            order = UnitIntervalOrder(m)
            rep = expansion(order, (1,) * n, "e")
            for lam in partitions(n):
                if any(p > 2 for p in lam):
                    continue
                want = closed_form_two_column(order, lam)
                got = rep.coefficients.get(lam, QPoly())
                ok = ok and got == want and got.is_unimodal()
    _report(6, "triangle-free closed form", ok, time.time() - t0, 120.0)


def test_acceptance_7_positivity():
    t0 = time.time()
    ok = True
    for n in range(1, 6):
        for order in UnitIntervalOrder.all_orders(n):
            rep = positivity_report(order, (1,) * n)
            ok = ok and rep["all_classes_h_positive"] and rep["e_positive"]
    rep = positivity_report(UnitIntervalOrder((2, 3, 3)), (1, 1, 2))
    ok = ok and rep["all_classes_h_positive"] and rep["e_positive"]
    _report(7, "positivity evidence", ok, time.time() - t0, 120.0)


def test_acceptance_8_substrate():
    t0 = time.time()
    ok = True
    # omega laws
    for d in range(1, 6):
        for lam in partitions(d):
            e = SymFunc.basis_element("e", lam)
            h = SymFunc.basis_element("h", lam)
            ok = ok and e.omega() == h and h.omega() == e and e.omega().omega() == e
    # unitriangularity of the elementary-to-monomial transition
    for d in range(1, 7):
        for lam in partitions(d):
            ok = ok and transition_M(lam, conjugate(lam)) == 1
            for mu in partitions(d):
                if transition_M(lam, mu):
                    ok = ok and dominates(conjugate(lam), mu)
    # fundamental <-> monomial round trip
    for d in range(1, 6):
        for alpha in compositions(d):
            s = composition_to_subset(alpha)
            F = QSymFunc.fundamental(d, s, QPoly((1, 1)))
            ok = ok and f_coords(F) == {s: QPoly((1, 1))}
    # p = sum (-1)^(j-1) j e_j h_(k-j) up to degree 8
    for k in range(1, 9):
        total = {}
        for j in range(1, k + 1):
            rows = [("e", j)] + ([("h", k - j)] if k > j else [])
            for nu, c in _rows_to_m(tuple(rows)).items():
                total[nu] = total.get(nu, 0) + (-1) ** (j - 1) * j * c
        ok = ok and {nu: c for nu, c in total.items() if c} == basis_to_m("p", (k,))
    _report(8, "symmetric function substrate", ok, time.time() - t0, 10.0)
