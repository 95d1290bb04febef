"""Exact classification of regular pairs of quadratic forms on
odd-dimensional spaces in characteristic 2: normal forms, invariants,
isomorphisms, automorphism groups, generators, and intersection lattices.

Every structural claim is re-checked against a brute-force oracle: in
`qpencil.verify`, which no production module imports (`cli` loads it for
the `verify` subcommand only), or, test-only, in `tests/oracles.py`."""

from .algebra import EtaleAlgebra
from .errors import InputError, NotRegularError, PreconditionError, QPencilError
from .field import GF, Embedding, Field, field_from_modulus, find_embedding
from .invariants import ArfData, arf_invariant, is_isomorphic, r_invariant
from .normalform import NormalForm, extract_normal_form, realize
from .pencil import Pencil
from .quadform import QuadraticForm

__all__ = [
    "GF",
    "ArfData",
    "Embedding",
    "EtaleAlgebra",
    "Field",
    "InputError",
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
    "is_isomorphic",
    "r_invariant",
    "realize",
]

__version__ = "0.1.0"
