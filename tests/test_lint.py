"""Checks a linter would make, written with the standard library's ast, and
checks that the README's names and examples match the code."""

import ast
import functools
import importlib
import itertools
import re
import shlex
from pathlib import Path

import pytest

import mcel
from mcel.cli import CONFIG_KEYS, build_parser, load_config
from mcel.losses import VARIANTS, Variant

MODULES = sorted(Path(mcel.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = ("import time\nimport os.path\nfrom dataclasses import dataclass, field\n"
              "print(os.sep)\n\n@dataclass\nclass A:\n    x: int\n")
    assert unused_imports(source) == [(1, "time"), (3, "field")]


# definitions in src/mcel that no module of it reads, each with its reason
UNREAD = {
    "cli.Parser.error": "argparse calls it",
    "lda.uniform_similarity": "label smoothing's prior, kept for the studies ROADMAP.md plans",
}


def names_read(tree):
    """Every name a tree reads as a Name or an Attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def unread_definitions(sources):
    """Top-level functions and classes, and methods other than dunders,
    that no source reads as a Name or an Attribute, by name alone:
    'module.function', 'module.Class' or 'module.Class.method'."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {name for tree in trees.values() for name in names_read(tree)}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{item.name}", item.name)
                            for item in node.body if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))]
    return sorted(qualified for qualified, name in defined if name not in read)


def test_every_definition_is_read():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unread_definitions(sources) == sorted(UNREAD)


def test_unread_definition_is_found():
    sources = {
        "a": ("def used():\n    pass\n\ndef unused():\n    pass\n\nclass C:\n"
              "    def __init__(self):\n        self.stored = 1\n\n"
              "    def called(self):\n        pass\n\n    def stored(self):\n        pass\n"),
        "b": "from .a import C, used, unused\nused()\nC().called()\n",
    }
    assert unread_definitions(sources) == ["a.C.stored", "a.unused"]


def variant_fields_read(source):
    """The attributes a source reads off a losses.VARIANTS entry:
    VARIANTS[...].field, or name.field where name was assigned VARIANTS[...]."""
    tree = ast.parse(source)

    def entry(node):
        return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "VARIANTS")

    bound = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and entry(node.value) for target in node.targets if isinstance(target, ast.Name)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and (entry(node.value) or isinstance(node.value, ast.Name) and node.value.id in bound)}


def test_every_variant_field_is_read_outside_losses():
    # a column that only losses.py reads says nothing the program acts on
    read = set().union(*(variant_fields_read(path.read_text())
                         for path in MODULES if path.stem != "losses"))
    assert set(Variant._fields) <= read


def test_unread_variant_field_is_found():
    source = ("a = VARIANTS[name].similarity\nfacts = VARIANTS[name]\nb = facts.moves\n"
              "c = args.per_class\nd = other.per_class\nVARIANTS[name].gone = 1\n")
    assert variant_fields_read(source) == {"similarity", "moves"}


# each rule that checks a value where it comes into the program, and the
# definitions that may read it: the parser, TrainConfig, and the library
# functions that are the only check on what they are given. A library
# internal that runs a rule its callers already ran fails the test.
ENTRY_RULES = {
    "check_fractions": {"net.TrainConfig.__post_init__"},
    "check_loss": {"net.TrainConfig.__post_init__"},
    "check_epsilons": {"cli.build_parser", "losses.check_loss"},
    "check_pairs": {"cli.build_parser", "harness.run_noise_experiment"},  # the data's k
    "check_noise_fractions": {"cli.build_parser"},
    "check_ridge": {"cli", "lda.solve_generalized_symmetric_eig"},  # cli: the RIDGE flag
}


def rule_readers(sources, rules):
    """For each name in rules, the definitions that read it, by
    unread_definitions' walk: 'module.function', 'module.Class.method', or
    'module.Class' and 'module' for a read outside any function."""
    readers = {rule: set() for rule in rules}

    def note(where, node):
        for name in names_read(node):
            if name in readers:
                readers[name].add(where)

    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    method = f".{item.name}" if isinstance(item, ast.FunctionDef) else ""
                    note(f"{module}.{node.name}{method}", item)
            elif isinstance(node, ast.FunctionDef):
                note(f"{module}.{node.name}", node)
            else:
                note(module, node)
    return readers


def test_entry_rules_are_read_only_at_entry():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert rule_readers(sources, ENTRY_RULES) == ENTRY_RULES


# the definitions that may raise a shape fault: where a dataset or a
# similarity matrix is made, and train, which checks a --similarity file's k
# against the data. The library behind them trusts the shapes it is given.
SHAPE_CHECKERS = {
    "DimensionError": {"data.LabeledDataset.__post_init__", "data.gen_blobs",
                       "lda.SimilarityMatrix.__post_init__", "cli.cmd_train"},
}


def test_shapes_are_checked_only_where_they_come_in():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert rule_readers(sources, SHAPE_CHECKERS) == SHAPE_CHECKERS


def test_rule_reader_is_found():
    sources = {
        "a": ("def rule(v):\n    pass\n\nRULE = rule\n\ndef entry(v):\n    rule(v)\n\n"
              "class C:\n    check = rule\n\n    def again(self, v):\n"
              "        def inner():\n            m.rule(v)\n"),
        "b": "from .a import rule\n",
    }
    assert rule_readers(sources, ["rule"]) == {"rule": {"a", "a.entry", "a.C", "a.C.again"}}


# the rules of a similarity matrix's rows: the type checks every matrix
# with them, and the file reader words them at the file's line
SIMILARITY_RULES = {"row_fault": {"lda.SimilarityMatrix.__post_init__", "lda.load_similarity"}}


def test_similarity_rules_are_read_where_a_matrix_is_made():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert rule_readers(sources, SIMILARITY_RULES) == SIMILARITY_RULES


# each table's one builder: a LabeledDataset is made from its four fields only
# where a dataset first comes in (the rest derive one by dataclasses.replace),
# an MlpModel (its constructor alone sizes, checks and splits the vector by
# layer_sizes) only from layer_sizes or from a copy of a model's params, and
# one function writes every CSV table
TABLE_BUILDERS = {
    "LabeledDataset": {"data.load_csv", "data.load_idx", "data.gen_blobs"},
    "MlpModel": {"net.init_model", "net.MlpModel.copy", "net.Trainer.__init__"},
    "DictWriter": {"cli._write_table"},
    "writer": {"cli._write_table"},
}


def test_one_builder_per_table():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert rule_readers(sources, TABLE_BUILDERS) == TABLE_BUILDERS


# the trainer steps on the one function gradcheck verifies, only that
# function runs the logit gradient and backprop, and only that check takes
# finite differences in the program
STEP = {
    "batch_gradient": {"net.Trainer.train_epoch", "gradcheck.step_error"},
    "logit_grad": {"net.batch_gradient"},
    "backprop": {"net.batch_gradient"},
    "central_diff": {"gradcheck.step_error"},
}


def test_the_trainer_steps_on_the_checked_gradient():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert rule_readers(sources, STEP) == STEP


# the CSV reader: the header parse and the csv module's reader word every
# fault; numpy's reader refuses a faulty file and words nothing
CSV_READER = {"data.load_csv", "data._header", "data._loadtxt_rows", "data._csv_module_rows"}


def test_only_the_csv_module_reader_words_a_csv_fault():
    sources = {path.stem: path.read_text() for path in MODULES}
    readers = rule_readers(sources, ["DataFormatError"])["DataFormatError"]
    assert readers & CSV_READER == {"data._header", "data._csv_module_rows"}


README = Path(__file__).resolve().parent.parent / "README.md"


def unresolved_readme_names(text):
    """The `module.name` and `mcel.module.name[.attr]` spans of a README,
    a call's arguments allowed and file names (`net.py`) aside, that name
    no attribute of mcel.<module>."""
    modules = "|".join(path.stem for path in MODULES if path.stem != "__init__")
    missing = []
    for span, qualified in re.findall(
            rf"`((?:mcel\.)?((?:{modules})(?:\.\w+)+))(?<!\.py)(?:\([^`]*\))?`", text):
        module, *attrs = qualified.split(".")
        try:
            functools.reduce(getattr, attrs, importlib.import_module(f"mcel.{module}"))
        except AttributeError:
            missing.append(span)
    return missing


def test_readme_names_only_code_that_exists():
    assert unresolved_readme_names(README.read_text()) == []


def readme_blocks(text, lang):
    """The bodies of a README's ```lang fenced blocks."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def readme_commands(text):
    """The arguments of each `mcel` line in a README's sh blocks, its `\\`
    continuations joined."""
    return [shlex.split(line, comments=True)[1:]
            for body in readme_blocks(text, "sh")
            for line in body.replace("\\\n", " ").splitlines() if line.startswith("mcel ")]


def test_readme_config_examples_load(tmp_path):
    blocks = readme_blocks(README.read_text(), "ini")
    assert blocks
    for i, body in enumerate(blocks):
        path = tmp_path / f"example{i}.ini"
        path.write_text(body)
        load_config(path)


def test_readme_commands_parse():
    commands = readme_commands(README.read_text())
    assert commands
    for argv in commands:
        build_parser().parse_args(argv)


def test_readme_command_continuations_are_joined():
    text = "```sh\nmcel noise-exp --blobs 6,200,2,0.7 \\\n    --seeds 0,1 --out x\n# mcel no\n```\n"
    assert readme_commands(text) == [
        ["noise-exp", "--blobs", "6,200,2,0.7", "--seeds", "0,1", "--out", "x"]]


def test_unresolved_readme_name_is_found():
    text = ("`net.init_model`, `mcel.net.load_model`, `mcel.cli.Parser.error`,\n"
            "`mcel.net.TrainConfig.epsilon` (a tuple default), `data.LabeledDataset.n`,\n"
            "`mcel.cli.load_config(path, seed=0)`, `harness.prepare_splits(x)`,\n"
            "`lda.no_such(k)`, `mcel.net.MlpModel.nothing` and `losses.py`")
    assert unresolved_readme_names(text) == [
        "mcel.net.load_model", "lda.no_such", "mcel.net.MlpModel.nothing"]


def config_key_faults(text, config_keys):
    """Each (section, README keys, code keys) where the README sentence
    "Every config section accepts only its known keys (...)" and
    config_keys differ, by section name; a section one side lacks reads []."""
    found = re.search(r"Every\s+config\s+section\s+accepts\s+only\s+its\s+known\s+keys\s+"
                      r"\(([^)]*)\)", text)
    listed = {}
    for part in found.group(1).split(";") if found else ():
        section, keys = part.split(":", 1)
        listed[section.strip().strip("`[]")] = re.findall(r"`(\w+)`", keys)
    want = {section: list(keys) for section, keys in config_keys.items()}
    return [(section, listed.get(section, []), want.get(section, []))
            for section in sorted(listed.keys() | want.keys())
            if listed.get(section, []) != want.get(section, [])]


def test_readme_config_keys_match_config_keys():
    assert config_key_faults(README.read_text(), CONFIG_KEYS) == []


def test_missing_readme_config_key_is_found():
    text = ("Every config section accepts only its known keys (`[train]`: `epochs`,\n"
            "`hidden`; `[loss]`: `variant`). Any other key")
    keys = {"train": {"epochs": int, "hidden": int}, "loss": {"variant": str, "epsilon": float},
            "split": {"fractions": float}}
    assert config_key_faults(text, keys) == [
        ("loss", ["variant"], ["variant", "epsilon"]), ("split", [], ["fractions"])]
    assert config_key_faults("no such sentence", {"train": {"epochs": int}}) == [
        ("train", [], ["epochs"])]


def variant_table_faults(text, variants):
    """Each (got, want) row where the README's `| variant | A moves |` table
    and the rows of `variants` differ, in table order; a missing row reads
    None. A is "no A" for a variant on no A."""
    table = re.search(r"^ *\| variant +\| A moves +\|\n *\|[-|]+\|\n"
                      r"((?: *\|.*\|\n)*)", text, re.M)
    got = [tuple(cell.strip().strip("`") for cell in row.strip().strip("|").split("|"))
           for row in (table.group(1).splitlines() if table else [])]
    want = [(name, ("yes" if v.moves else "no") if v.similarity else "no A")
            for name, v in variants.items()]
    return [(g, w) for g, w in itertools.zip_longest(got, want) if g != w]


def test_readme_variant_table_matches_variants():
    assert variant_table_faults(README.read_text(), VARIANTS) == []


def test_wrong_variant_row_is_found():
    text = ("  | variant | A moves |\n  |---|---|\n"
            "  | `ce` | no A |\n  | `soft` | no |\n\n  | `mcel` | no |\n")
    variants = {"ce": Variant(False, False), "soft": Variant(True, True),
                "mcel": Variant(True, False)}
    assert variant_table_faults(text, variants) == [
        (("soft", "no"), ("soft", "yes")), (None, ("mcel", "no"))]
