"""Scripted in-process completion backend for the benchmark corpus.

It answers the three prompt kinds the pipeline sends:

* source/destination: ``src=..., dst=...`` with the question's endpoints, or
  an unusable reply (first ask and retry) for questions scripted to degrade;
* path selection: ``Final Answer: path_id: N`` for the candidate covering
  the most gold tables (fewest tables on a tie), or an out-of-range id for
  questions scripted to fall back to the union;
* SQL generation: the gold SQL in a fence.

Questions are identified by their text, which every prompt carries on a
``Question:`` line.
"""

from __future__ import annotations

import re
import threading

from schema_linker.llm import RETRY_NUDGE, SYSTEM_PROMPTS, CompletionRequest, PromptId

from corpus import QuestionScript

_QUESTION_RE = re.compile(r"^Question: (.*)$", re.MULTILINE)
_CANDIDATE_RE = re.compile(r"^path_id=(\d+): (.*)$", re.MULTILINE)


def _candidate_tables(body: str) -> set[str]:
    if body.startswith("UNION {"):
        return {name.strip() for name in body[len("UNION {") : -1].split(",")}
    return {name.strip() for name in body.split(" (join:")[0].split(" -> ")}


class ScriptedBackend:
    """Deterministic replies keyed by question text; counts its calls."""

    def __init__(self, scripts: list[QuestionScript]):
        self._by_text = {script.text: script for script in scripts}
        self._lock = threading.Lock()
        self.calls = 0

    def complete(self, request: CompletionRequest) -> str:
        with self._lock:
            self.calls += 1
        if request.system_text == SYSTEM_PROMPTS[PromptId.SRC_DST]:
            script = self._script(request.user_text)
            if not script.unusable_endpoints:
                return f"src={','.join(script.sources)}, dst={','.join(script.destinations)}"
            if RETRY_NUDGE in request.user_text:
                return "src=ghost_table, dst=phantom_table"
            return "I cannot tell which tables this question needs."
        if request.system_text == SYSTEM_PROMPTS[PromptId.PATH_SELECT]:
            script = self._script(request.user_text)
            candidates = [
                (int(number), _candidate_tables(body))
                for number, body in _CANDIDATE_RE.findall(request.user_text)
            ]
            if script.out_of_range_select:
                return f"Final Answer: path_id: {len(candidates) + 7}"
            gold = set(script.gold_tables)
            best = min(candidates, key=lambda c: (-len(c[1] & gold), len(c[1]), c[0]))
            return f"Final Answer: path_id: {best[0]}"
        script = self._script(request.user_text)
        return f"```sql\n{script.gold_sql}\n```"

    def _script(self, text: str) -> QuestionScript:
        match = _QUESTION_RE.search(text)
        if match is None:
            raise ValueError("request carries no Question: line")
        return self._by_text[match.group(1)]
