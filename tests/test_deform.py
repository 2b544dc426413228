"""Discretized moduli operator: structure, kernel dimension, and an
independent dense row-reduction oracle for the exact rank at small sizes."""

from fractions import Fraction as Q

import pytest

from nilgeo.deform import (
    MAX_GRID_N,
    CircleGrid,
    assemble_operator,
    coupling_constant,
    kernel_dimension,
    kernel_is_reeb_line,
    reeb_constant_vector,
    reference_structure,
)
from nilgeo.errors import InputError


def naive_nullity(matrix):
    rows = [[Q(x) for x in row] for row in matrix]
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return ncols - rank


def test_grid_validation():
    with pytest.raises(InputError):
        CircleGrid(3)
    with pytest.raises(InputError):
        CircleGrid(7)
    with pytest.raises(InputError):
        CircleGrid(2)
    assert CircleGrid(MAX_GRID_N).n == MAX_GRID_N
    with pytest.raises(InputError, match=f"at most {MAX_GRID_N}"):
        CircleGrid(MAX_GRID_N + 2)


def test_coupling_constant_derived_exactly():
    assert coupling_constant(reference_structure()) == -2
    # the operator reads the same constant, derived once per process
    for n in (4, 6, 8):
        assert assemble_operator(CircleGrid(n)).coupling == coupling_constant(reference_structure())


def test_operator_shape_and_blocks():
    op = assemble_operator(CircleGrid(4))
    assert op.size == 8
    matrix = op.matrix()
    assert len(matrix) == 8 and all(len(r) == 8 for r in matrix)
    # circulant difference blocks: each row of the f-block has entries +-N
    assert matrix[0][1] == 4 and matrix[0][0] == -4 and matrix[0][4] == -2
    # wrap-around
    assert matrix[3][0] == 4 and matrix[3][3] == -4
    assert matrix[4][4] == 8 and matrix[4][7] == -8


def test_constant_reeb_direction_maps_to_zero():
    op = assemble_operator(CircleGrid(8))
    image = op.apply(reeb_constant_vector(op))
    assert all(not x for x in image)


def test_unit_normal_component_maps_to_constant():
    op = assemble_operator(CircleGrid(4))
    image = op.apply([0] * 4 + [1] * 4)
    assert image[:4] == [Q(-2)] * 4  # first component: constant c = -2
    assert all(not x for x in image[4:])


def test_kernel_dimension_reference_grids():
    for n in (8, 16, 64):
        op = assemble_operator(CircleGrid(n))
        assert kernel_dimension(op) == 1
        assert kernel_is_reeb_line(op, kernel_dimension(op))


def test_kernel_dimension_against_dense_oracle():
    for n in (4, 8, 16):
        op = assemble_operator(CircleGrid(n))
        assert kernel_dimension(op) == naive_nullity(op.matrix())


def test_kernel_element_forces_zero_mean_u():
    # discrete analogue of the continuous argument: a kernel element has u
    # with zero discrete derivative (second block) and zero mean (sum of the
    # first block equations), hence u = 0 and f constant
    op = assemble_operator(CircleGrid(8))
    n = op.n
    matrix = op.matrix()
    total = [sum(matrix[r][c] for r in range(n)) for c in range(2 * n)]
    # the f-part of the summed first-component rows telescopes to zero
    assert all(not total[c] for c in range(n))
    # leaving c * sum(u) = 0
    assert all(total[n + c] == op.coupling for c in range(n))
