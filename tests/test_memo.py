import gc
import inspect
import weakref

from areasig import hall_set, rho_hall, rho_via_q_trees
from areasig.memo import memo, memo_per_owner


def test_memo_runs_each_argument_tuple_once():
    calls = []

    @memo
    def square(x, y=0):
        """Docstring kept."""
        calls.append((x, y))
        return x * x + y

    assert [square(3), square(3), square(3, 1), square(3, 1)] == [9, 9, 10, 10]
    assert calls == [(3, 0), (3, 1)]
    # a plain function, so it can be found with inspect and rebound by name
    assert inspect.isfunction(square)
    assert square.__name__ == "square" and square.__doc__ == "Docstring kept."


def test_memo_per_owner_keeps_one_table_per_owner():
    class Owner:
        pass

    calls = []

    @memo_per_owner
    def tag(owner, x):
        calls.append((owner, x))
        return [x]

    a, b = Owner(), Owner()
    assert tag(a, 1) is tag(a, 1)
    assert tag(b, 1) is not tag(a, 1)
    assert calls == [(a, 1), (b, 1)]
    assert inspect.isfunction(tag)


def test_memo_per_owner_does_not_keep_a_basis_alive():
    basis = hall_set(2, 4)
    for h in basis.all_hall_words():
        basis.dual_pbw(h)
        basis.zeta(h)
        rho_hall(basis, h, "recursion")
        rho_via_q_trees(basis, h)
    ref = weakref.ref(basis)
    del basis, h
    gc.collect()
    assert ref() is None
