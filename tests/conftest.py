import numpy as np
import pytest

from opg.data import Dataset, GraderFeedback
from opg.dataio import parse_cardinal_csv
from opg.rankings import WeakRanking


def make_ordinal_dataset(rankings: dict[str, list[list[str]]], items=None) -> Dataset:
    """Dataset from {grader: [[best group], ...]} dicts."""
    feedback = tuple(
        GraderFeedback.from_ordinal(g, WeakRanking([tuple(grp) for grp in groups]))
        for g, groups in sorted(rankings.items())
    )
    return Dataset.from_feedback(feedback, items=items)


def make_cardinal_dataset(grades: dict[str, dict[str, float]], items=None) -> Dataset:
    """Dataset from {grader: {item: score}} dicts."""
    feedback = tuple(
        GraderFeedback.from_cardinal(g, dict(scores)) for g, scores in sorted(grades.items())
    )
    return Dataset.from_feedback(feedback, items=items)


def make_tied_csv_dataset(tmp_path, rng: np.random.Generator) -> Dataset:
    """Tied integer grades parsed from CSV, over unequal item subsets, with three
    lazy graders and an ungraded item 'zz' added to the parsed dataset."""
    items = [f"x{i}" for i in range(10)]
    lines = ["grader_id,item_id,score"]
    for g in range(16):
        for item in rng.choice(items, size=int(rng.integers(2, 9)), replace=False).tolist():
            lines.append(f"g{g:02d},{item},{int(rng.integers(0, 3))}")
    path = tmp_path / "tied.csv"
    path.write_text("\n".join(lines) + "\n")
    parsed = parse_cardinal_csv(str(path))
    return Dataset(parsed.items + ("zz",), parsed.graders, parsed.feedback, frozenset({"g01", "g05", "g09"}))


def random_weak_ranking(rng: np.random.Generator, items: list[str]) -> list[list[str]]:
    """Random tie pattern over a random permutation, as plain lists."""
    perm = [items[i] for i in rng.permutation(len(items))]
    groups: list[list[str]] = []
    for item in perm:
        if groups and rng.random() < 0.4:
            groups[-1].append(item)
        else:
            groups.append([item])
    return groups


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
