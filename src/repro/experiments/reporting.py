"""Common result container, paper claims and rendering for experiments."""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, field

from repro.utils.tables import render_table

__all__ = ["Claim", "Verdict", "ExperimentResult", "claims_table"]


@dataclass(frozen=True)
class Claim:
    """One quantitative claim, declared once next to the experiment that
    produces it (the module's ``CLAIMS``) and checked on every run.

    ``bound`` is the claim's predicate as text, for printing; ``holds``
    is the predicate itself, over ``result.metrics``.  ``params`` is the
    experiment configuration the claim is made at (forwarded to the
    runner through ``run_experiment``); empty means the runner's
    defaults.
    """

    id: str
    #: Where the paper makes the claim ("Table 2", "Fig. 4", ...), or
    #: ``"ext"`` for the extension studies.
    source: str
    #: The paper's value, as text.
    paper: str
    bound: str
    holds: Callable[[dict[str, float]], bool]
    params: dict[str, object] = field(default_factory=dict)

    def check(self, metrics: dict[str, float]) -> Verdict:
        """This claim's verdict on one run's metrics (a missing metric
        fails the claim)."""
        try:
            ok = bool(self.holds(metrics))
        except KeyError:
            ok = False
        bound = self.bound
        if self.params:
            config = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
            bound += f" [at {config}]"
        return Verdict(self.id, self.source, self.paper, bound, ok)


@dataclass(frozen=True)
class Verdict:
    """A checked :class:`Claim` as plain data (it crosses pool pipes)."""

    claim: str
    source: str
    paper: str
    bound: str
    ok: bool

    @property
    def label(self) -> str:
        return "pass" if self.ok else "FAIL"


def claims_table(verdicts: Iterable[Verdict]) -> str:
    """Markdown table of verdicts: id, source, paper, bound, verdict."""
    lines = [
        "| claim | source | paper | bound | verdict |",
        "|---|---|---|---|---|",
    ]
    for v in verdicts:
        lines.append(
            f"| `{v.claim}` | {v.source} | {v.paper} | `{v.bound}` | {v.label} |"
        )
    return "\n".join(lines) + "\n"


@dataclass
class ExperimentResult:
    """One experiment's regenerated table/series plus paper context."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: str = ""
    #: Free-form scalar outcomes tests and benches assert on.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Optional terminal rendering of the figure itself.
    plot: str = ""
    #: The experiment's claims checked against this run
    #: (``run_experiment`` fills them in).
    verdicts: list[Verdict] = field(default_factory=list)

    def render(self) -> str:
        """Formatted table (and plot, if any) with notes."""
        text = render_table(
            self.headers, self.rows, title=f"[{self.experiment_id}] {self.title}"
        )
        if self.plot:
            text += "\n\n" + self.plot
        if self.notes:
            text += "\n" + self.notes
        for v in self.verdicts:
            text += (
                f"\nclaim {v.label}: {v.claim}  {v.bound}  ({v.source}: {v.paper})"
            )
        return text

    def to_markdown(self) -> str:
        """GitHub-flavoured markdown rendering (used by --report)."""
        lines = [f"## [{self.experiment_id}] {self.title}", ""]
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(str(c) for c in row) + " |")
        if self.plot:
            lines.extend(["", "```", self.plot, "```"])
        if self.notes:
            lines.extend(["", f"*{self.notes}*"])
        if self.verdicts:
            lines.append("")
            lines.extend(
                f"- claim {v.label}: `{v.claim}` `{v.bound}` "
                f"({v.source}: {v.paper})"
                for v in self.verdicts
            )
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        """JSON-ready representation (used by the CLI's --json mode)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [[str(c) for c in row] for row in self.rows],
            "metrics": dict(self.metrics),
            "notes": self.notes,
            "claims": [asdict(v) for v in self.verdicts],
        }

    def metric(self, name: str) -> float:
        """Fetch one scalar outcome."""
        try:
            return self.metrics[name]
        except KeyError:
            raise KeyError(
                f"{self.experiment_id} has no metric {name!r} "
                f"(have {sorted(self.metrics)})"
            ) from None
