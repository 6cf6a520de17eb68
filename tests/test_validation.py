"""Error-path checks for constructor and precondition validation."""

from fractions import Fraction

import pytest

from bipsched import (BipGraph, GilbertParams, MachineEnv, PrecolorInstance,
                      build_uniform_hardness, build_unrelated_hardness,
                      fptas_r2_core, independent_set_containing,
                      inequitable_two_coloring, max_weight_independent_set, mc_stats)
from bipsched.errors import UnsupportedQueryError


def test_machine_env_validation():
    with pytest.raises(ValueError):
        MachineEnv.identical(0)
    with pytest.raises(ValueError):
        MachineEnv.uniform([])
    with pytest.raises(ValueError):
        MachineEnv.uniform([0])
    with pytest.raises(UnsupportedQueryError):
        MachineEnv.unrelated(2).speed_of(0)


def test_bipgraph_validation():
    with pytest.raises(ValueError):
        BipGraph(-1)
    # vertex weights are arguments of the functions that use them
    for call in (inequitable_two_coloring, max_weight_independent_set,
                 lambda g, w: independent_set_containing(g, (), w),
                 lambda g, w: independent_set_containing(g, {0}, w)):
        with pytest.raises(ValueError):
            call(BipGraph(2), [1])
        with pytest.raises(ValueError):
            call(BipGraph(2), [1, 0])
        with pytest.raises(ValueError):
            call(BipGraph(2), [1, 1, 1])


def test_gilbert_params_validation():
    with pytest.raises(ValueError):
        GilbertParams(0, Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        GilbertParams(3, Fraction(3, 2), 1)
    with pytest.raises(ValueError):
        mc_stats(GilbertParams(3, Fraction(1, 2), 1), MachineEnv.uniform([1]), 0)


def test_hardness_builder_validation():
    pre = PrecolorInstance(BipGraph(3), (0, 1, 2))
    with pytest.raises(ValueError):
        build_uniform_hardness(pre, 0, 3)
    with pytest.raises(ValueError):
        build_uniform_hardness(pre, 1, 2)
    with pytest.raises(ValueError):
        build_unrelated_hardness(pre, 0, 3)


def test_fptas_core_rejects_negative_entries():
    with pytest.raises(ValueError):
        fptas_r2_core([(1, -1)], 1)
