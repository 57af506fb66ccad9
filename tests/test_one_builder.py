"""One builder and one seed rule for every trained network.

``evaluate.train_net`` is the one place in the program that builds a
``UserNet`` or ``PoiNet`` (the checkpoint loaders build through ``cls(...)``),
and the one place that turns a seed into initial parameters
(``SeedSequence``).  So ``train`` and the batteries build the same networks
for one seed, and a second builder or seed rule cannot appear unnoticed.
"""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "nextloc").glob("*.py"))
BUILDER = ("evaluate.py", "train_net")
NETWORKS = {"UserNet", "PoiNet"}


def scoped_nodes(node, scope=""):
    """(dotted name of the enclosing function or class, "" at module level,
    node) for ``node`` and every node under it."""
    yield scope, node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}" if scope else node.name
    for child in ast.iter_child_nodes(node):
        yield from scoped_nodes(child, scope)


#: The field holding the name that a name, attribute or import node gives.
NAME_FIELDS = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def name_of(node):
    field = NAME_FIELDS.get(type(node))
    return getattr(node, field) if field else None


def uses(source: str):
    """(scope, what) of each network construction ("UserNet(", "PoiNet(")
    and each mention of ``SeedSequence`` (a name, an attribute or an import)
    in a module's source."""
    for scope, node in scoped_nodes(ast.parse(source)):
        if isinstance(node, ast.Call) and name_of(node.func) in NETWORKS:
            yield scope, f"{name_of(node.func)}("
        if name_of(node) == "SeedSequence":
            yield scope, "SeedSequence"


def test_finder_sees_each_form():
    source = ("from numpy.random import SeedSequence\n"
              "class Maker:\n"
              "    def make(self):\n"
              "        return nl.user_net.UserNet(1, 2, seed=np.random.SeedSequence(0))\n"
              "def other():\n"
              "    return PoiNet(1, 2)\n")
    assert sorted(uses(source)) == [("", "SeedSequence"), ("Maker.make", "SeedSequence"),
                                    ("Maker.make", "UserNet("), ("other", "PoiNet(")]


def test_train_net_builds_both_networks_from_the_seed():
    path = SOURCES[[p.name for p in SOURCES].index(BUILDER[0])]
    found = {what for scope, what in uses(path.read_text(encoding="utf-8"))
             if scope == BUILDER[1]}
    assert found == {"UserNet(", "PoiNet(", "SeedSequence"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_other_builder_or_seed_rule(path):
    for scope, what in uses(path.read_text(encoding="utf-8")):
        assert (path.name, scope) == BUILDER, f"{what} in {path.name} {scope or 'module'}"
