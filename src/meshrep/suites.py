"""The verification battery: one suite per acceptance criterion.

Each suite returns a Report with a pass flag and a human-readable detail
line; the CLI `check` command and the acceptance tests drive these.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .armesh import build_ar, check_flip_sigma, check_mesh_relations
from .bimod import (Bimodule, bar_tensor_oracle, bimodules_quasi_isomorphic,
                    cancel_tensor, duality_module, from_left_complex,
                    identity_prof, to_left_complex)
from .derived import Complex, DerivedObject, derived_hom_dim, normalize
from .linalg import GF, QQ, FieldSpec
from .rep import all_intervals, decompose, interval_module, random_interval_sum
from .functors import (SerreTable, coxeter_minus, coxeter_plus, reflect_minus, reflect_minus_obj,
                       reflect_plus, reflect_plus_obj, serre, transport, untransport)
from .rng import default_rng
from .shapes import LineQuiver, MeshWindow, all_orientations, embed_iQ, is_admissible_sequence
from .tilting import (apr_tilt, apply_bimodule, coxeter_bimodule, functor_kernel, iter_tilt,
                      picard_check, serre_bimodule, square_d4_bimodule, square_d4_inverse,
                      square_d4_pattern_matches, tilting_check, yoneda_restriction_is_identity,
                      yoneda_serre_twist_holds, yoneda_window)

DEFAULT_SEED = 20260810


def run_seed(config_seed: Optional[int] = None) -> int:
    """The seed of a run configured with config_seed (DEFAULT_SEED when None):
    MESHREP_SEED overrides it when set.  An explicit `meshrep check --seed`
    wins over both, so the CLI calls this only without one."""
    env = os.environ.get("MESHREP_SEED")
    if env is not None:
        return int(env)
    return config_seed if config_seed is not None else DEFAULT_SEED


@dataclass
class Report:
    name: str
    passed: bool
    detail: str
    counterexample: Optional[str] = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [first counterexample: {self.counterexample}]" if (
            self.counterexample and not self.passed) else ""
        return f"[{status}] {self.name}: {self.detail}{extra}"


# -- criterion 1 -------------------------------------------------------------


def suite_census(seed: int = DEFAULT_SEED, nmax: int = 6, samples: int = 200) -> Report:
    rng = default_rng(seed)
    checked = 0
    for n in range(1, nmax + 1):
        if len(all_intervals(n)) != n * (n + 1) // 2:
            return Report("census", False, f"interval census wrong at n={n}")
        for field in (QQ, GF(5)):
            orientations = all_orientations(n)
            for s in range(samples):
                q = orientations[int(rng.integers(0, len(orientations)))]
                x, multiset = random_interval_sum(q, field, rng, max_total=4)
                got = decompose(q, x)
                if got != multiset:
                    return Report("census", False, "decompose mismatch",
                                  f"n={n} {q} field={field} expected {multiset} got {got}")
                checked += 1
    return Report("census", True,
                  f"n(n+1)/2 classes for n<={nmax} and decompose recovered {checked} random sums "
                  "over Q and F5")


# -- criterion 2 -------------------------------------------------------------


def suite_ar(seed: int = DEFAULT_SEED, nmax: int = 5, per_orientation: int = 2) -> Report:
    rng = default_rng(seed + 1)
    field = GF()
    builds = 0
    for n in range(1, nmax + 1):
        for q in all_orientations(n):
            for _ in range(per_orientation):
                x, _ = random_interval_sum(q, field, rng, max_total=3)
                c = Complex.from_rep(x).shift(int(rng.integers(-1, 2)))
                d = build_ar(q, c)
                rep = d.verify()
                if not all(rep.values()):
                    return Report("ar", False, "diagram verification failed",
                                  f"{q}: {rep}")
                back = normalize(q, d.restrict(q, embed_iQ(q)))
                if back != normalize(q, c):
                    return Report("ar", False, "round trip failed", f"{q}")
                flips = check_flip_sigma(d)
                if not (flips and all(flips.values())):
                    return Report("ar", False, "Sigma = f^* failed", f"{q}")
                builds += 1
    return Report("ar", True,
                  f"boundary, bicartesian squares, round trip, Sigma=f^* on {builds} diagrams, "
                  f"n<={nmax}")


# -- criterion 3 -------------------------------------------------------------


def suite_reflections(seed: int = DEFAULT_SEED, nmax: int = 5) -> Report:
    field = GF()
    checked = 0
    for n in range(2, nmax + 1):
        for q in all_orientations(n):
            for itv in all_intervals(n):
                c = Complex.from_rep(interval_module(q, itv.i, itv.j, field))
                # each law composes the homology route with the chain-level one
                for a in q.sinks():
                    q2, out = reflect_plus(q, a, c)
                    _, back = reflect_minus_obj(q2, a, out)
                    if normalize(q, back) != normalize(q, c):
                        return Report("reflections", False, "s- s+ != id",
                                      f"{q} sink {a} {itv}")
                for b in q.sources():
                    q2, out = reflect_minus(q, b, c)
                    _, back = reflect_plus_obj(q2, b, out)
                    if normalize(q, back) != normalize(q, c):
                        return Report("reflections", False, "s+ s- != id",
                                      f"{q} source {b} {itv}")
                checked += 1
            # commuting sinks
            sinks = q.sinks()
            for i in range(len(sinks)):
                for j in range(i + 1, len(sinks)):
                    a1, a2 = sinks[i], sinks[j]
                    for itv in all_intervals(n):
                        c = Complex.from_rep(interval_module(q, itv.i, itv.j, field))
                        qa, ca = reflect_plus(q, a1, c)
                        qab, cab = reflect_plus(qa, a2, ca)
                        qb, cb = reflect_plus(q, a2, c)
                        qba, cba = reflect_plus(qb, a1, cb)
                        if normalize(qab, cab) != normalize(qba, cba):
                            return Report("reflections", False, "sinks do not commute",
                                          f"{q} {a1},{a2} {itv}")
            # admissible-sequence independence (up to three sequences)
            seqs = _some_admissible_sequences(q, 3)
            if len(seqs) > 1:
                for itv in all_intervals(n):
                    c = Complex.from_rep(interval_module(q, itv.i, itv.j, field))
                    outs = {normalize(q, coxeter_plus(q, c, sequence=s)) for s in seqs}
                    if len(outs) != 1:
                        return Report("reflections", False,
                                      "Coxeter depends on the admissible sequence",
                                      f"{q} {itv}")
    return Report("reflections", True,
                  f"inverse laws, commuting sinks, sequence independence on {checked} "
                  f"indecomposables, n<={nmax}")


def _some_admissible_sequences(q: LineQuiver, want: int) -> List[List[int]]:
    import itertools as it
    out = []
    for p in it.permutations(q.vertices):
        if is_admissible_sequence(q, list(p)):
            out.append(list(p))
            if len(out) >= want:
                break
    return out


# -- criterion 4 -------------------------------------------------------------


def suite_frac_cy(seed: int = DEFAULT_SEED, nmax: int = 6) -> Report:
    field = GF()
    for n in range(2, nmax + 1):
        for q in all_orientations(n):
            table = SerreTable(q, field)
            for itv in all_intervals(n):
                delta, cur = table.power(itv, n + 1)
                if cur != itv or delta != n - 1:
                    return Report("frac-cy", False, "S^(n+1) != Sigma^(n-1)",
                                  f"{q} {itv} -> S^{n + 1} = Sigma^{delta}{cur}")
        if n == 3:
            q = LineQuiver.linear(3)
            table = SerreTable(q, field)
            witness = [itv for itv in all_intervals(3) if table.power(itv, 2) != (1, itv)]
            if not witness:
                return Report("frac-cy", False, "S^2 = Sigma at n=3 (should not hold)")
    at_three = "; S^2 != Sigma witnessed at n=3" if nmax >= 3 else ""
    return Report("frac-cy", True,
                  f"S^(n+1) = Sigma^(n-1) on all indecomposables, all orientations, "
                  f"n=2..{nmax}{at_three}")


# -- criterion 5 -------------------------------------------------------------


def suite_serre_duality(seed: int = DEFAULT_SEED, nmax: int = 5) -> Report:
    field = GF()
    pairs = 0
    for n in range(1, nmax + 1):
        for q in all_orientations(n):
            table = SerreTable(q, field)
            objs = [(s, itv) for itv in all_intervals(n) for s in (-1, 0, 1)]
            for (sx, ix) in objs:
                dsx, sx_img = table.images[ix]
                sxobj = DerivedObject.from_dict({(sx + dsx, sx_img): 1})
                xobj = DerivedObject.from_dict({(sx, ix): 1})
                for (sy, iy) in objs:
                    yobj = DerivedObject.from_dict({(sy, iy): 1})
                    lhs = derived_hom_dim(q, xobj, yobj, 0)
                    rhs = derived_hom_dim(q, yobj, sxobj, 0)
                    if lhs != rhs:
                        return Report("serre-duality", False,
                                      "hom(x,y) != hom(y,Sx)",
                                      f"{q} x=S^{sx}{ix} y=S^{sy}{iy}: {lhs} vs {rhs}")
                    pairs += 1
    return Report("serre-duality", True,
                  f"hom(x,y) = hom(y,Sx) on {pairs} pairs of shifted intervals, n<={nmax}")


# -- criterion 6 -------------------------------------------------------------


def suite_nakayama(seed: int = DEFAULT_SEED, nmax: int = 4) -> Report:
    field = GF()
    checked = 0
    for n in range(1, nmax + 1):
        for q in all_orientations(n):
            dq = duality_module(q, field)
            for itv in all_intervals(n):
                x = Complex.from_rep(interval_module(q, itv.i, itv.j, field))
                lhs = normalize(q, apply_bimodule(dq, q, x))
                rhs = normalize(q, serre(q, x))
                if lhs != rhs:
                    return Report("nakayama", False, "D (x) x != S(x)",
                                  f"{q} {itv}: {lhs} vs {rhs}")
                checked += 1
            sb = serre_bimodule(q, field)
            if not bimodules_quasi_isomorphic(sb, dq):
                return Report("nakayama", False, "Sigma(C+) != D", str(q))
    return Report("nakayama", True,
                  f"D_Q (x) x = S(x) on {checked} indecomposables and Sigma(C_Q+) = D_Q, "
                  f"all orientations, n<={nmax}")


# -- criterion 7 -------------------------------------------------------------


def suite_kernels(seed: int = DEFAULT_SEED, nmax: int = 4, oracle_pairs: int = 100) -> Report:
    field = GF()
    rng = default_rng(seed + 7)
    # unit law and inverse laws
    for n in range(2, min(nmax, 3) + 1):
        for q in all_orientations(n):
            iq = identity_prof(q, field)
            x, _ = random_interval_sum(q, field, rng, max_total=3)
            nx = from_left_complex(q, Complex.from_rep(x))
            if normalize(q, to_left_complex(cancel_tensor(iq, nx))) != normalize(q, Complex.from_rep(x)):
                return Report("kernels", False, "unit law failed", str(q))
            for a in q.sinks():
                tp, tm = apr_tilt(q, a, field)
                q2 = q.reflect(a)
                if not bimodules_quasi_isomorphic(cancel_tensor(tm, tp), identity_prof(q, field)):
                    return Report("kernels", False, "T- (x) T+ != I", f"{q} sink {a}")
                if not bimodules_quasi_isomorphic(cancel_tensor(tp, tm), identity_prof(q2, field)):
                    return Report("kernels", False, "T+ (x) T- != I", f"{q} sink {a}")
    # functor/kernel agreement
    agreements = 0
    for n in range(2, nmax + 1):
        qs = all_orientations(n) if n <= 3 else [LineQuiver.linear(n), all_orientations(n)[-1]]
        for q in qs:
            kernels: List[Tuple[str, Bimodule, LineQuiver, Callable]] = []
            kernels.append(("sigma", functor_kernel(q, lambda qq, c, s: c.shift(1), field), q,
                            lambda c: c.shift(1)))
            kernels.append(("coxeter+", coxeter_bimodule(q, +1, field), q, lambda c: coxeter_plus(q, c)))
            kernels.append(("coxeter-", coxeter_bimodule(q, -1, field), q, lambda c: coxeter_minus(q, c)))
            kernels.append(("serre", serre_bimodule(q, field), q, lambda c: serre(q, c)))
            for a in q.sinks()[:1]:
                q2 = q.reflect(a)
                kernels.append((f"reflect+{a}",
                                functor_kernel(q, lambda qq, c, s: reflect_plus(qq, a, c, s)[1], field,
                                               target=q2),
                                q2, lambda c, a=a: reflect_plus(q, a, c)[1]))
            q3 = all_orientations(n)[0 if q != all_orientations(n)[0] else -1]
            kernels.append(("transport", iter_tilt(q3, q, field), q3,
                            lambda c, q3=q3: transport(q, q3, c)))
            for (name, ker, tgt_q, fn) in kernels:
                for itv in all_intervals(n):
                    x = Complex.from_rep(interval_module(q, itv.i, itv.j, field))
                    via = normalize(tgt_q, apply_bimodule(ker, q, x))
                    direct = normalize(tgt_q, fn(x))
                    if via != direct:
                        return Report("kernels", False, f"kernel disagrees with {name}",
                                      f"{q} {itv}: {via} vs {direct}")
                    agreements += 1
    # bar oracle
    for i in range(oracle_pairs):
        n = int(rng.integers(1, 4))
        q = all_orientations(n)[int(rng.integers(0, 2 ** (n - 1)))]
        ms = [identity_prof(q, field), duality_module(q, field)]
        m = ms[int(rng.integers(0, 2))].shift(int(rng.integers(0, 2)))
        x, _ = random_interval_sum(q, field, rng, max_total=2)
        nx = from_left_complex(q, Complex.from_rep(x))
        here = cancel_tensor(m, nx, method="hereditary")
        bar = bar_tensor_oracle(m, nx)
        if not bimodules_quasi_isomorphic(here, bar):
            return Report("kernels", False, "hereditary tensor disagrees with bar oracle",
                          f"pair {i}, {q}")
    return Report("kernels", True,
                  f"unit/inverse laws, {agreements} functor-kernel agreements (n<={nmax}), "
                  f"bar oracle on {oracle_pairs} random pairs")


# -- criterion 8 -------------------------------------------------------------


def suite_golden(seed: int = DEFAULT_SEED) -> Report:
    field = GF()
    q3 = LineQuiver.linear(3)
    i3 = identity_prof(q3, field)
    want_i = {(a, b) for a in range(1, 4) for b in range(1, 4) if b <= a}
    got_i = {e for e, dims in i3.entry_pattern().items() if dims == {0: 1}}
    if got_i != want_i or len(i3.entry_pattern()) != len(want_i):
        return Report("golden", False, "I(A3) pattern mismatch", str(got_i))
    d3 = duality_module(q3, field)
    want_d = {(a, b) for a in range(1, 4) for b in range(1, 4) if a <= b}
    if {e for e in d3.entry_pattern()} != want_d:
        return Report("golden", False, "D(A3) pattern mismatch")
    qz = LineQuiver(3, "BF")  # 1 <- 2 -> 3
    iz, dz = identity_prof(qz, field), duality_module(qz, field)
    if set(iz.entry_pattern()) != {(1, 1), (2, 2), (3, 3), (1, 2), (3, 2)}:
        return Report("golden", False, "I(1<-2->3) pattern mismatch")
    if set(dz.entry_pattern()) != {(1, 1), (2, 1), (2, 2), (2, 3), (3, 3)}:
        return Report("golden", False, "D(1<-2->3) pattern mismatch")
    t = square_d4_bimodule(field)
    if not square_d4_pattern_matches(t):
        return Report("golden", False, "square<->D4 bimodule pattern mismatch")
    return Report("golden", True,
                  "I/D patterns for A3 linear and 1<-2->3, and the square<->D4 bimodule, entry-for-entry")


# -- criterion 9 -------------------------------------------------------------


def suite_tilting(seed: int = DEFAULT_SEED, nmax: int = 4) -> Report:
    field = GF()
    count = 0
    for n in range(2, nmax + 1):
        qs = all_orientations(n)
        pairs = [(a, b) for a in qs for b in qs] if n <= 3 else \
            [(a, b) for a in qs for b in (qs[0], qs[-1])] + [(qs[0], b) for b in qs]
        for (q, q2) in pairs:
            t = iter_tilt(q2, q, field)
            tinv = _reverse_tilt(q, q2, field)
            rep = tilting_check(t, field, inverse=tinv)
            if not rep.all_pass():
                return Report("tilting", False, "tilting characterization failed",
                              f"{q}->{q2}: {rep}")
            count += 1
    return Report("tilting", True,
                  f"perfect/rigid/generator/invertible for {count} universal tilting bimodules, "
                  f"n<={nmax}")


def _reverse_tilt(q: LineQuiver, q2: LineQuiver, field: FieldSpec) -> Bimodule:
    """Kernel of the inverse transport (negative reflections back)."""
    return functor_kernel(q2, lambda qq, c, s: untransport(q, qq, c, s), field, target=q)


# -- criterion 10 ------------------------------------------------------------


def suite_picard(seed: int = DEFAULT_SEED, nmax: int = 4) -> Report:
    field = GF()
    for n in range(2, nmax + 1):
        rep = picard_check(n, field)
        if not rep.all_pass():
            return Report("picard", False, f"Picard relations failed at n={n}", str(rep))
    at_three = " n=3 negative control," if nmax >= 3 else ""
    return Report("picard", True,
                  f"commutation, (Sigma I)^(n-1) = D^(n+1),{at_three} and "
                  f"relation minimality on the exponent grid, n=2..{nmax}")


# -- criterion 11 ------------------------------------------------------------


def suite_mesh(seed: int = DEFAULT_SEED, nmax: int = 5) -> Report:
    for n in range(1, nmax + 1):
        qs = all_orientations(n) if n <= 3 else [LineQuiver.linear(n), all_orientations(n)[-1]]
        for q in qs:
            w = MeshWindow(n, -1, n + 2)
            rep = check_mesh_relations(q, w)
            if not all(rep.values()):
                return Report("mesh", False, "Happel comparison failed", f"{q}: {rep}")
    return Report("mesh", True,
                  "hom entries in {0,1}, support = interior mesh reachability, "
                  f"mesh triangles distinguished, n<={nmax}")


# -- criterion 12 ------------------------------------------------------------


def suite_yoneda(seed: int = DEFAULT_SEED, nmax: int = 4) -> Report:
    for n in range(1, nmax + 1):
        q = LineQuiver.linear(n)
        w = MeshWindow(n, -1, n + 2)
        table = yoneda_window(q, w)
        if not yoneda_restriction_is_identity(q, table):
            return Report("yoneda", False, f"(i x i^op)-restriction != I at n={n}")
        for k in range(w.kmin, w.kmax + 1):
            if table[((k, 0), (k, 0))] != {}:
                return Report("yoneda", False, f"U_n((k,0),(k,0)) != 0 at n={n}")
        if not yoneda_serre_twist_holds(q, w, table):
            return Report("yoneda", False, f"U_n |> S != (s x id)^* U_n at n={n}")
    return Report("yoneda", True,
                  "restriction = I_Q, boundary entries vanish, Serre self-duality of "
                  f"the dimension table, n<={nmax}")


# -- criterion 13 ------------------------------------------------------------


def suite_stc(seed: int = DEFAULT_SEED, samples: int = 100,
              ns: Tuple[int, ...] = (2, 3, 4)) -> Report:
    from .highertri import (extend_morphism, flip, flip_without_sign, inverse_image,
                            is_distinguished, standard_triangle, translate)
    from .linalg import Matrix
    field = GF()
    rng = default_rng(seed + 13)
    sign_detected = {n: False for n in ns}
    for n in ns:
        q = LineQuiver.linear(n)
        window = MeshWindow(n, -1, 2 * (n + 1) + 1)
        prev = None
        for s in range(samples):
            x, _ = random_interval_sum(q, field, rng, max_total=2)
            c = Complex.from_rep(x).shift(int(rng.integers(0, 2)))
            t = standard_triangle(q, c, window=window)
            if not is_distinguished(t, seed=seed + s):
                return Report("stc", False, "standard triangle not distinguished (STC1)",
                              f"n={n} sample {s}")
            if not is_distinguished(translate(t), seed=seed + s):
                return Report("stc", False, "translate not distinguished (STC3)",
                              f"n={n} sample {s}")
            ft = flip(t)
            if not is_distinguished(ft, seed=seed + s):
                return Report("stc", False, "flip not distinguished (STC3)",
                              f"n={n} sample {s}")
            if not sign_detected[n]:
                bad = flip_without_sign(t)
                if any(any(not m.is_zero() for m in mats.values()) for mats in bad.phi.values()) \
                        and not is_distinguished(bad, seed=seed + s):
                    sign_detected[n] = True
            if n > 2 and s % 4 == 0:
                m = int(rng.integers(1, n))
                vals = sorted(int(v) for v in rng.integers(1, n + 1, size=m))
                alpha = {i + 1: vals[i] for i in range(m)}
                r = inverse_image(m, alpha, t)
                if not is_distinguished(r, seed=seed + s):
                    return Report("stc", False, "inverse image not distinguished (STC3)",
                                  f"n={n} sample {s} alpha={alpha}")
            if prev is not None and s % 5 == 0:
                ext = extend_morphism(prev, t, _zero_base_map(prev, t))
                if ext is None:
                    return Report("stc", False, "base morphism did not extend (STC2)",
                                  f"n={n} sample {s}")
            prev = t
    missing = [n for n in ns if not sign_detected[n]]
    if missing:
        return Report("stc", False, f"sign-necessity control not detected for n in {missing}")
    return Report("stc", True,
                  f"STC0-STC3 on {samples} random bases per n in {list(ns)}, "
                  "including the flip-sign negative control")


def _zero_base_map(s, t):
    from .linalg import Matrix
    from .shapes import embed_iQ
    emb = embed_iQ(s.q)
    out = {}
    for v in s.q.vertices:
        hs = s.hdim(emb[v])
        ht = t.hdim(emb[v])
        for d in set(hs) | set(ht):
            out[(v, d)] = Matrix.zeros(s.fieldspec, ht.get(d, 0), hs.get(d, 0))
    return out


def suite_d4_square(seed: int = DEFAULT_SEED) -> Report:
    """Extra suite: invertibility of the explicit square<->D4 bimodule."""
    from .tilting import d4_poset, square_poset
    field = GF()
    t = square_d4_bimodule(field)
    tinv = square_d4_inverse(field)
    ok1 = bimodules_quasi_isomorphic(cancel_tensor(tinv, t), identity_prof(square_poset(), field))
    ok2 = bimodules_quasi_isomorphic(cancel_tensor(t, tinv), identity_prof(d4_poset(), field))
    if not (ok1 and ok2 and square_d4_pattern_matches(t)):
        return Report("d4-square", False, "square<->D4 bimodule not invertible")
    return Report("d4-square", True,
                  "explicit square<->D4 bimodule matches the displayed pattern and is invertible")


ALL_SUITES: Dict[str, Callable[..., Report]] = {
    "census": suite_census,
    "ar": suite_ar,
    "reflections": suite_reflections,
    "frac-cy": suite_frac_cy,
    "serre-duality": suite_serre_duality,
    "nakayama": suite_nakayama,
    "kernels": suite_kernels,
    "golden": suite_golden,
    "tilting": suite_tilting,
    "picard": suite_picard,
    "mesh": suite_mesh,
    "yoneda": suite_yoneda,
    "stc": suite_stc,
    "d4-square": suite_d4_square,
}

CRITERION_TO_SUITE = {
    1: "census", 2: "ar", 3: "reflections", 4: "frac-cy", 5: "serre-duality",
    6: "nakayama", 7: "kernels", 8: "golden", 9: "tilting", 10: "picard",
    11: "mesh", 12: "yoneda", 13: "stc",
}
