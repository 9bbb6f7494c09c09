"""Every definition in the package has a caller in the package.

A top-level function or class, or a method not named ``__*__``, passes
when its name is read somewhere in ``src/hopfcensus`` outside its own
definition, as a bare name or as an attribute.  The check is by name, so
a caller of a same-named definition elsewhere counts too; it catches code
that only the tests reach, not every dead path.  The definitions it cannot
tell apart that way, those whose name another definition shares, are listed
in ``SHARED_NAMES`` with the definition that calls each, or why none does.
"""

import ast
from collections import Counter
from pathlib import Path

import hopfcensus

SOURCE = Path(hopfcensus.__file__).parent

# Definitions kept without a caller in the package, with the reason.
NO_CALLER_NEEDED = {
    "FusionDatum.multiply": "the acceptance suite reads products through it",
    "tensor_type": "the acceptance suite checks product types with it",
    "complete_type": "the acceptance suite builds the residual types with it",
    "_Parser.error": "argparse calls it on a malformed command line",
}

# Definitions whose name another definition shares, each with the definition
# that calls it ("module.name") or, after "none: ", why nothing in the
# package does.
SHARED_NAMES = {
    "CensusResult.to_json": "cli._cmd_census",
    "run": "cli.main",
    "_dense": "cyclotomic.CycNumber.root_of_unity",
    "CycNumber.inv": "hopfcore.LinearBasis.add",
    "CycNumber.conjugate": "none: perfbench/tracer.py counts it by name, "
                           "and tests/test_cyclotomic.py requires it",
    "CycNumber.sort_key": "hopfcore._root_candidates",
    "CycNumber.to_json": "none: perfbench/tracer.py wraps it by name, and "
                         "tests/test_cyclotomic.py round-trips it",
    "CycNumber.from_json": "cli._bicharacter_entry",
    "AlgebraTypeSignature.sort_key": "none: it defines the order the census "
                                     "emits its types in, which "
                                     "tests/test_census.py checks",
    "FusionDatum.to_json": "fusion.SearchOutcome.to_json",
    "FusionDatum.from_json": "cli._cmd_fusion_verify",
    "AxiomReport.to_json": "cli._cmd_twist",
    "SearchOutcome.to_json": "cli._cmd_fusion_search",
    "_Search.run": "fusion.search_fusion",
    "FiniteGroup.inv": "hopfcore.from_group",
    "FiniteGroup.conjugate": "groups.FiniteGroup.conjugacy_classes",
    "HopfData._dense": "hopfcore.HopfData.vec_mul",
    "CharacterFunctional.sort_key": "hopfcore.algebra_characters",
}


def _definitions(tree):
    """(qualified name, node) for each checked definition of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def _names_read(node) -> Counter:
    """How often each name is read under ``node``, as a Name or an Attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_definition_has_a_caller_in_the_package():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py"))]
    everywhere = sum((_names_read(tree) for tree in trees), Counter())
    uncalled = []
    for tree in trees:
        for qualified, node in _definitions(tree):
            name = qualified.rpartition(".")[2]
            if everywhere[name] == _names_read(node)[name]:
                uncalled.append(qualified)
    assert sorted(set(uncalled) - set(NO_CALLER_NEEDED)) == []
    assert sorted(set(NO_CALLER_NEEDED) - set(uncalled)) == []


def test_shared_names_are_listed_with_their_callers():
    definitions = {f"{path.stem}.{qualified}": node
                   for path in sorted(SOURCE.glob("*.py"))
                   for qualified, node in _definitions(
                       ast.parse(path.read_text(encoding="utf-8")))}
    counts = Counter(key.rpartition(".")[2] for key in definitions)
    shared = {key.partition(".")[2] for key in definitions
              if counts[key.rpartition(".")[2]] > 1}
    assert sorted(shared) == sorted(SHARED_NAMES)
    for qualified, caller in SHARED_NAMES.items():
        if not caller.startswith("none: "):
            name = qualified.rpartition(".")[2]
            assert _names_read(definitions[caller])[name], (qualified, caller)
