"""Planted faults that `verify all` must catch.

Each fault is one monkeypatch of a library name, the table of ROADMAP item
15.  `verify.run_all(6)` runs on the faulty library, and the rows that fail
must be exactly the ones the table names.  A sweep that passes every row on
a wrong library would pass vacuously, so these are the guard of every
refactor of the checked code.

One fault, a transfer of the wrong node, passes every row today: only the
root's transfers are checked, and there the three nodes are alike.  It
stays in the table as a strict xfail, so the change that makes `verify all`
catch it must also record the rows it fails.  Row 9's negative control
catches the two looser `LensSpace.__eq__`, and row 8's per-node corner
order catches the readout of the wrong node.  Two faults sit in values
built in place with no gcd: the slide's moved curve with its entries
swapped, and a readout whose sign rule negates r alone.
"""

from dataclasses import replace

import pytest

from lenscalc import atf, farey, handles, lens, markov, verify
from lenscalc.lens import LensSpace


def _mirror(l: LensSpace) -> LensSpace:
    return LensSpace(l.r, -l.s)


def _eq(rule):
    """A `LensSpace.__eq__` that compares equal orders by rule(r, s, s2)."""

    def eq(self, other):
        if not isinstance(other, LensSpace):
            return NotImplemented
        return self.r == other.r and (self.r < 2 or rule(self.r, self.s, other.s))

    return eq


def eq_without_inverse(mp):
    # only the s = s' branch of the residue rule
    mp.setattr(LensSpace, "__eq__", _eq(lambda r, s, s2: (s - s2) % r == 0))


def eq_up_to_orientation(mp):
    # also s = -s' and s s' = -1, the rule of the mirror
    def rule(r, s, s2):
        return any(x % r == 0 for x in (s - s2, s + s2, s * s2 - 1, s * s2 + 1))

    mp.setattr(LensSpace, "__eq__", _eq(rule))


def eq_orders_only(mp):
    mp.setattr(LensSpace, "__eq__", _eq(lambda r, s, s2: True))


def readout_mirrored(mp):
    real = lens.lens_from_meridian_slopes
    for module in (lens, atf, handles):
        mp.setattr(module, "lens_from_meridian_slopes", lambda m1, m2: _mirror(real(m1, m2)))


def derive_q_shifted(field, entry):
    def plant(mp):
        real = markov.derive_q

        def derive_q(t):
            q = real(t)
            return replace(q, **{field: getattr(q, field) + getattr(t, entry)})

        mp.setattr(markov, "derive_q", derive_q)

    return plant


def atf_q1_plus_one(mp):
    # the diagram reads `atf`'s own binding of derive_q, which the faults of
    # `markov.derive_q` above leave as it is
    real = atf.derive_q

    def derive_q(t):
        q = real(t)
        return replace(q, q1=q.q1 + 1)

    mp.setattr(atf, "derive_q", derive_q)


def slots_swapped(mp):
    real = handles.slide_mutation
    other = {handles.Slot.FIRST: handles.Slot.SECOND, handles.Slot.SECOND: handles.Slot.FIRST}
    mp.setattr(handles, "slide_mutation", lambda d, slot: real(d, other[slot]))


def moved_curve_transposed(mp):
    # the slide's moved curve built in place as (-a, -b), not (-b, -a)
    real = handles.slide_mutation

    def slide_mutation(d, slot):
        out = real(d, slot)
        moved = out.curves[1]
        curves = (out.curves[0], handles._curve(moved.lam, moved.mu)) + out.curves[2:]
        return replace(out, curves=curves)

    mp.setattr(handles, "slide_mutation", slide_mutation)


def readout_s_unnegated(mp):
    # the readout's sign rule negates r alone: L(-r, s) is built as L(r, s)
    real = lens._lens

    def _lens(r, s):
        return real(r, s) if r >= 0 else real(-r, s)

    mp.setattr(lens, "_lens", _lens)


def node_readout_mirrored(mp):
    real = atf.node_boundary_lens
    mp.setattr(atf, "node_boundary_lens", lambda d, i: _mirror(real(d, i)))


def next_node_readout(mp):
    real = atf.node_boundary_lens
    mp.setattr(atf, "node_boundary_lens", lambda d, i: real(d, (i + 1) % len(d.frame.positions)))


def next_node_transferred(mp):
    real = atf.transfer_cut
    mp.setattr(atf, "transfer_cut", lambda d, i: real(d, (i + 1) % len(d.frame.positions)))


def inverse_transvection_in(module):
    def plant(mp):
        mp.setattr(module, "transvect", lambda x, y, k, u, v: farey.transvect(x, y, -k, u, v))

    return plant


SURVIVES = "ROADMAP item 6: `verify all` does not catch this fault yet"

# name: (the fault, the rows of run_all(6) it fails, None if it fails none)
FAULTS = {
    "eq-without-inverse-branch": (eq_without_inverse, [4, 6, 8]),
    "readout-mirrored": (readout_mirrored, [3, 4, 8, 9]),
    "derive-q-q3-plus-p3": (derive_q_shifted("q3", "p3"), [1, 2, 3, 4, 6]),
    "derive-q-q1-plus-p1": (derive_q_shifted("q1", "p1"), [1, 2, 3, 4, 6]),
    "atf-derive-q-q1-plus-one": (atf_q1_plus_one, [8]),
    "slide-slots-swapped": (slots_swapped, [6]),
    "slide-moved-curve-transposed": (moved_curve_transposed, [6]),
    "readout-s-unnegated": (readout_s_unnegated, [3, 4, 6, 8, 9]),
    "node-readout-mirrored": (node_readout_mirrored, [8]),
    "atf-transvect-inverse": (inverse_transvection_in(atf), [8]),
    "handles-transvect-inverse": (inverse_transvection_in(handles), [3, 6, 9]),
    "eq-up-to-orientation": (eq_up_to_orientation, [9]),
    "eq-orders-only": (eq_orders_only, [9]),
    "readout-of-the-next-node": (next_node_readout, [8]),
    "transfer-of-the-next-node": (next_node_transferred, None),
}


def failed_rows() -> list[int]:
    return [r.number for r in verify.run_all(6) if not r.passed]


def test_the_library_passes_every_row():
    assert failed_rows() == []


SURVIVING = pytest.mark.xfail(strict=True, reason=SURVIVES)


@pytest.mark.parametrize(
    "name",
    [name if rows else pytest.param(name, marks=SURVIVING) for name, (_, rows) in FAULTS.items()],
)
def test_fault_fails_its_rows(monkeypatch, name):
    plant, rows = FAULTS[name]
    plant(monkeypatch)
    failed = failed_rows()
    assert failed, f"{name} passes every row"
    if rows is not None:
        assert failed == rows
