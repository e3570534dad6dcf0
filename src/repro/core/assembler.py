"""VMI retrieval — Algorithm 3 of the paper, one request at a time.

:class:`VMIAssembler` is the single-request front the system facade,
the federation, the daemon and the CLI call.  It resolves the request
through the :class:`~repro.core.assembly_plan.AssemblyPlanner`'s
plan cache — the one implementation of Algorithm 3, whose plans stay
valid while their own dependency closure in the master graph is
unchanged — and always charges a *cold* base copy, so every request pays exactly
the four Figure-5a components a fresh retrieval costs.
"""

from __future__ import annotations

from repro.core.assembly_plan import (
    AssemblyPlanner,
    RetrievalReport,
    RetrievalRequest,
)

__all__ = ["RetrievalReport", "VMIAssembler"]


class VMIAssembler:
    """Executes Algorithm 3 against a repository, one VMI per call."""

    def __init__(self, planner: AssemblyPlanner) -> None:
        self.planner = planner

    def retrieve(self, name: str) -> RetrievalReport:
        """Reassemble a published VMI by name.

        Raises:
            NotInRepositoryError: unknown VMI name.
            IncompatibleImageError: repository state violates the
                compatibility precondition of Algorithm 3 line 2.
        """
        record = self.planner.repo.get_vmi_record(name)
        request = RetrievalRequest.for_record(record)
        return self.planner.assemble(request, cold_base=True).report

    def assemble(
        self,
        name: str,
        base_key: int,
        primary_names: tuple[str, ...],
        data_label: str | None = None,
        primary_versions: dict[str, str] | None = None,
    ) -> RetrievalReport:
        """Assemble a VMI from explicit parts (custom compositions).

        This is the paper's "assembly with differing functionality":
        any primary set present in the base's master graph can be
        combined, not only sets that were uploaded together.

        Raises:
            NotInRepositoryError: the base, a primary, or the user data
                is not stored.
            RetrievalError: a requested primary is not available for
                the base.
            IncompatibleImageError: ``comp(GI[BI], GI[PS]) != 1``.
        """
        request = RetrievalRequest(
            name=name,
            base_key=base_key,
            primary_names=tuple(primary_names),
            data_label=data_label,
            primary_versions=tuple((primary_versions or {}).items()),
        )
        return self.planner.assemble(request, cold_base=True).report
