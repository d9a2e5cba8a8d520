"""The README's library example runs and prints what its comments say.

The ```python block of the Library section is executed as written, so a
name removed from the package cannot stay in it.
"""

import re
from fractions import Fraction
from pathlib import Path

from hassecones import InMinCone

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    library = text[text.index("\n## Library\n") :]
    return re.search(r"```python\n(.*?)```", library, re.S).group(1)


def test_readme_library_example_runs_as_commented():
    namespace: dict = {}
    exec(compile(_library_example(), str(README), "exec"), namespace)
    c, k, out = namespace["c"], namespace["k"], namespace["out"]
    enumerate_min_decompositions = namespace["enumerate_min_decompositions"]

    # c.labels -> ('P0:b0:i1', 'P0:b1:i1'), by position
    assert c.labels == ("P0:b0:i1", "P0:b1:i1")
    # reducible_directions(c, k) -> (1,): positions, as everywhere
    assert namespace["reducible_directions"](c, k) == (1,)
    # hasse_coordinates(c, k)  -> (Fraction(2, 1), Fraction(3, 1))
    assert namespace["hasse_coordinates"](c, k) == (Fraction(2, 1), Fraction(3, 1))
    # out = greedy_reduce(c, k) -> InMinCone, one step, w=(2,2), a=(0,1)
    assert isinstance(out, InMinCone)
    assert len(out.steps) == 1
    assert tuple(out.decomposition.w) == (2, 2)
    assert out.decomposition.a == (0, 1)
    # enumerate_min_decompositions(c, k) -> all three decompositions, ordered
    decompositions = enumerate_min_decompositions(c, k)
    assert len(decompositions) == 3
    assert [dec.a for dec in decompositions] == sorted(dec.a for dec in decompositions)
    # torsion_summary(c, "10") -> Z/5: one 1 in the locus, 2^2 + 1
    summary = namespace["torsion_summary"](c, "10")
    assert (summary.invariant_factors, summary.group_order) == ((1, 5), 5)
