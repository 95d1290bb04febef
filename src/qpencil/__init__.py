"""Exact classification of regular pairs of quadratic forms on
odd-dimensional spaces in characteristic 2: normal forms, invariants,
isomorphisms, automorphism groups, generators, and intersection lattices,
with brute-force oracles for every structural claim."""

from .algebra import EtaleAlgebra
from .errors import InputError, NotRegularError, PreconditionError, QPencilError
from .field import GF, Embedding, Field, field_from_modulus, find_embedding
from .invariants import ArfData, arf_invariant, is_isomorphic, r_invariant
from .normalform import KroneckerBasis, NormalForm, extract_normal_form, realize
from .pencil import Pencil
from .quadform import QuadraticForm, half_disc

__all__ = [
    "GF",
    "ArfData",
    "Embedding",
    "EtaleAlgebra",
    "Field",
    "InputError",
    "KroneckerBasis",
    "NormalForm",
    "NotRegularError",
    "Pencil",
    "PreconditionError",
    "QPencilError",
    "QuadraticForm",
    "arf_invariant",
    "extract_normal_form",
    "field_from_modulus",
    "find_embedding",
    "half_disc",
    "is_isomorphic",
    "r_invariant",
    "realize",
]

__version__ = "0.1.0"
