"""Guards against documentation rot.

Checks that the import blocks in docs/api.md actually import, that the
engine kernels docs/api.md lists are exactly the kernel table's, that the
README's example table matches the files on disk, that DESIGN.md's
per-experiment index names real bench files, that docs/operations.md
stays in lockstep with the code's configuration surface (every
``REPRO_*`` environment variable and every ``TrainConfig`` field, in
both directions), that every ``python -m repro <command>`` in README.md
and docs/ names a registered CLI subcommand, and that every relative
markdown link and internal anchor in README.md and docs/ resolves — all
offline.
"""

import argparse
import dataclasses
import re
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.engine import backends
from repro.train import TrainConfig

ROOT = Path(__file__).parent.parent


class TestApiDocImports:
    def test_api_import_blocks_execute(self):
        text = (ROOT / "docs" / "api.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
        assert blocks, "api.md should contain python blocks"
        for block in blocks:
            # Re-assemble the block's import statements (stripping inline
            # comments) and execute them; ImportError means doc rot.
            statements = []
            collecting = None
            for line in block.splitlines():
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if stripped.startswith(("from repro", "import repro")):
                    if stripped.endswith("("):
                        collecting = [stripped]
                    else:
                        statements.append(stripped)
                elif collecting is not None:
                    collecting.append(stripped)
                    if stripped.endswith(")"):
                        statements.append(" ".join(collecting))
                        collecting = None
            for statement in statements:
                exec(statement, {})  # raises ImportError on rot


class TestApiDocKernels:
    def test_named_kernels_equal_the_kernel_table(self):
        # docs/api.md names the engine kernels one by one; a kernel added
        # to or removed from backends._KERNELS must update that list.
        text = (ROOT / "docs" / "api.md").read_text()
        match = re.search(r"The one kernel set every model runs on is"
                          r"\s(.*?`)\.", text, flags=re.S)
        assert match, "api.md should list the engine kernels"
        sentence = match.group(1)
        assert "*" not in sentence, "list the kernels one by one"
        named = re.findall(r"`(?:backends\.)?(\w+)`", sentence)
        assert len(named) == len(set(named)), f"duplicates in {named}"
        assert set(named) == set(backends._KERNELS)


class TestReadmeExamples:
    def test_readme_example_rows_exist_on_disk(self):
        text = (ROOT / "README.md").read_text()
        mentioned = set(re.findall(r"`([a-z_]+\.py)`", text))
        on_disk = {p.name for p in (ROOT / "examples").glob("*.py")}
        missing = {name for name in mentioned if name.endswith(".py")} - on_disk
        assert not missing, f"README mentions absent examples: {missing}"

    def test_all_examples_documented(self):
        readme = (ROOT / "examples" / "README.md").read_text()
        for path in (ROOT / "examples").glob("*.py"):
            assert path.name in readme, f"{path.name} missing from examples/README.md"


class TestDesignIndex:
    def test_bench_files_in_design_exist(self):
        text = (ROOT / "DESIGN.md").read_text()
        mentioned = set(re.findall(r"benchmarks/(test_[a-z0-9_]+\.py)", text))
        assert mentioned, "DESIGN.md should reference bench files"
        for name in mentioned:
            assert (ROOT / "benchmarks" / name).exists(), f"missing {name}"

    def test_every_bench_covers_a_paper_artifact_or_design_choice(self):
        bench_names = {p.stem for p in (ROOT / "benchmarks").glob("test_*.py")}
        expected = {"test_table1_dataset_stats", "test_table2_overall",
                    "test_table3_topn", "test_table4_efficiency",
                    "test_fig4_module_ablation", "test_fig5_relation_ablation",
                    "test_fig6_sparsity", "test_fig7_hyperparams",
                    "test_fig8_convergence", "test_fig9_embedding_viz",
                    "test_fig10_memory_attention",
                    "test_ablation_design_choices", "test_complexity_scaling"}
        assert expected <= bench_names


# ----------------------------------------------------------------------
# docs/operations.md vs the code's configuration surface
# ----------------------------------------------------------------------
_ENV_VAR = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*\b")
OPERATIONS = ROOT / "docs" / "operations.md"


def _source_env_vars():
    """Every REPRO_* name appearing in src/ or benchmarks/ python."""
    names = set()
    for root in ("src", "benchmarks"):
        for path in sorted((ROOT / root).rglob("*.py")):
            names |= set(_ENV_VAR.findall(path.read_text()))
    return names


def _documented_env_vars():
    """Every REPRO_* name mentioned anywhere under docs/."""
    names = set()
    for path in sorted((ROOT / "docs").glob("*.md")):
        names |= set(_ENV_VAR.findall(path.read_text()))
    return names


class TestOperationsEnvVars:
    def test_every_source_env_var_is_documented(self):
        # Forward direction: a knob the code reads must appear in the
        # operations guide — not just somewhere under docs/.
        documented = set(_ENV_VAR.findall(OPERATIONS.read_text()))
        undocumented = _source_env_vars() - documented
        assert not undocumented, (
            f"REPRO_* variables read in src/ or benchmarks/ but missing "
            f"from docs/operations.md: {sorted(undocumented)}")

    def test_every_documented_env_var_exists_in_source(self):
        # Backward direction: docs must not advertise phantom knobs.
        phantom = _documented_env_vars() - _source_env_vars()
        assert not phantom, (
            f"REPRO_* variables documented under docs/ but never read in "
            f"src/ or benchmarks/: {sorted(phantom)}")

    def test_operations_guide_has_a_table_row_per_env_var(self):
        # Each variable gets a real reference-table row (`| \`NAME\` |`),
        # not just a passing mention in prose.
        text = OPERATIONS.read_text()
        missing_rows = [name for name in sorted(_source_env_vars())
                        if f"| `{name}`" not in text]
        assert not missing_rows, (
            f"docs/operations.md lacks a table row for: {missing_rows}")


def _documented_config_fields():
    """Backticked first-cell names of the TrainConfig reference tables."""
    text = OPERATIONS.read_text()
    assert "## TrainConfig reference" in text
    section = text.split("## TrainConfig reference", 1)[1]
    section = section.split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([a-z0-9_]+)`", section, flags=re.M))


class TestOperationsTrainConfig:
    def test_every_field_is_documented(self):
        fields = {f.name for f in dataclasses.fields(TrainConfig)}
        missing = fields - _documented_config_fields()
        assert not missing, (
            f"TrainConfig fields missing from docs/operations.md's "
            f"reference tables: {sorted(missing)}")

    def test_every_documented_field_exists(self):
        fields = {f.name for f in dataclasses.fields(TrainConfig)}
        phantom = _documented_config_fields() - fields
        assert not phantom, (
            f"docs/operations.md documents TrainConfig fields that do "
            f"not exist: {sorted(phantom)}")


class TestCliCommands:
    def test_documented_commands_are_registered(self):
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        registered = set(subparsers.choices)
        problems = []
        for doc in [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md")):
            for command in re.findall(r"python -m repro\s+([\w-]+)",
                                      doc.read_text()):
                if command not in registered:
                    problems.append(f"{doc.name}: {command}")
        assert not problems, (f"documented commands the CLI does not "
                              f"register: {problems}")


# ----------------------------------------------------------------------
# Markdown links and anchors, checked offline
# ----------------------------------------------------------------------
_LINK = re.compile(r"(?<!!)\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", flags=re.M)
_FENCE = re.compile(r"```.*?```", flags=re.S)


def _github_slug(heading):
    """GitHub's anchor slug: lowercase, strip punctuation, spaces->hyphens."""
    text = heading.strip().lower().replace("`", "")
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors_of(path):
    """All heading anchors of a markdown file, with GitHub dedup suffixes."""
    anchors = set()
    counts = {}
    for heading in _HEADING.findall(_FENCE.sub("", path.read_text())):
        slug = _github_slug(heading)
        seen = counts.get(slug, 0)
        counts[slug] = seen + 1
        anchors.add(slug if seen == 0 else f"{slug}-{seen}")
    return anchors


def _linked_docs():
    return [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))


class TestMarkdownLinks:
    @pytest.mark.parametrize("doc", _linked_docs(), ids=lambda p: p.name)
    def test_relative_links_and_anchors_resolve(self, doc):
        problems = []
        for target in _LINK.findall(_FENCE.sub("", doc.read_text())):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            if path_part:
                resolved = (doc.parent / path_part).resolve()
                if not resolved.exists():
                    problems.append(f"{target}: no file {path_part!r}")
                    continue
            else:
                resolved = doc
            if anchor and resolved.suffix == ".md":
                if anchor not in _anchors_of(resolved):
                    problems.append(f"{target}: no heading for #{anchor} "
                                    f"in {resolved.name}")
        assert not problems, f"broken links in {doc.name}: {problems}"
