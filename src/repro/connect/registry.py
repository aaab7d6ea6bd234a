"""A UDDI-like supplier registry for supplier enablement.

§3.1 C2 closes with: "standards activity, perhaps a generalization of UDDI
[14], is another promising direction" for getting thousands of suppliers
hooked up; §3.1 C4 names the problem *supplier enablement*.  This module is
that generalization: suppliers publish a :class:`SupplierListing` --
where their catalog lives, how to access it, which fields it exposes, and
format hints (currency, price style, site layout) -- and the integrator

* discovers suppliers offering the fields a vertical needs
  (:meth:`SupplierRegistry.discover`), and
* auto-configures the access + mapping for each discovered supplier
  (:meth:`SupplierRegistry.enablement_plan`): a trained wrapper recipe from
  the layout hint plus a field mapping suggested by the schema matcher,
  flagged for human review only where the matcher is unsure.

The enablement plan is the "very high-level mechanism" the paper asks for
in place of hand-writing 60,000 transformations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import WrapperError
from repro.core.schema import DataType, Field, Schema
from repro.workbench.matching import MatchSuggestion, SchemaMatcher


@dataclass(frozen=True)
class SupplierListing:
    """One supplier's published registry entry."""

    supplier: str
    host: str
    catalog_url: str
    access: str  # "scrape" | "gateway" | "file"
    fields: tuple[str, ...]
    layout_hint: str = ""  # e.g. "table", "divs", "dl" (scrape access)
    currency: str = "USD"
    price_style: str = "symbol"
    requires_login: bool = False


@dataclass
class EnablementPlan:
    """Everything needed to wire one discovered supplier in."""

    listing: SupplierListing
    field_mapping: dict[str, str]  # supplier field -> integrator field
    needs_review: list[MatchSuggestion] = field(default_factory=list)
    unmapped: list[str] = field(default_factory=list)

    @property
    def automatic(self) -> bool:
        """True when no human attention is needed to enable this supplier."""
        return not self.needs_review and not self.unmapped


class SupplierRegistry:
    """The shared directory suppliers publish into."""

    def __init__(self, field_synonyms=None) -> None:
        """``field_synonyms`` (a :class:`~repro.workbench.synonyms.
        SynonymTable` or anything with ``are_synonyms``) carries the
        vertical's accumulated field-name equivalences (``sku`` =
        ``part_num``), boosting discovery and enablement matching."""
        self._listings: dict[str, SupplierListing] = {}
        self.field_synonyms = field_synonyms

    def _matcher(self) -> SchemaMatcher:
        return SchemaMatcher(synonyms=self.field_synonyms)

    # -- publication ---------------------------------------------------------

    def publish(self, listing: SupplierListing) -> None:
        if not listing.fields:
            raise WrapperError(
                f"listing for {listing.supplier!r} publishes no fields"
            )
        self._listings[listing.supplier] = listing

    def listing(self, supplier: str) -> SupplierListing:
        if supplier not in self._listings:
            raise WrapperError(f"no registry listing for supplier {supplier!r}")
        return self._listings[supplier]

    def __len__(self) -> int:
        return len(self._listings)

    # -- discovery --------------------------------------------------------------

    def discover(
        self,
        required_fields: "set[str] | None" = None,
        access: str | None = None,
    ) -> list[SupplierListing]:
        """Suppliers whose listings satisfy the integrator's needs.

        ``required_fields`` is matched *approximately* -- a listing
        qualifies if every required field has some published field with
        schema-matcher confidence above the review threshold (suppliers do
        not name their fields the way the integrator does).
        """
        matcher = self._matcher()
        found = []
        for listing in sorted(self._listings.values(), key=lambda l: l.supplier):
            if access is not None and listing.access != access:
                continue
            if required_fields:
                supplier_schema = Schema(
                    "published", tuple(Field(f, DataType.STRING) for f in listing.fields)
                )
                target_schema = Schema(
                    "needed",
                    tuple(Field(f, DataType.STRING) for f in sorted(required_fields)),
                )
                suggestions = matcher.suggest(target_schema, supplier_schema)
                if any(s.best is None for s in suggestions):
                    continue
            found.append(listing)
        return found

    # -- supplier enablement ---------------------------------------------------------

    def enablement_plan(
        self, supplier: str, integrator_schema: Schema
    ) -> EnablementPlan:
        """Auto-configure the supplier -> integrator field mapping.

        Confident matches map automatically; uncertain ones are queued for
        human review; integrator fields with no plausible source are
        reported unmapped (a true enablement gap).
        """
        listing = self.listing(supplier)
        supplier_schema = Schema(
            listing.supplier, tuple(Field(f, DataType.STRING) for f in listing.fields)
        )
        suggestions = self._matcher().suggest(integrator_schema, supplier_schema)

        mapping: dict[str, str] = {}
        review: list[MatchSuggestion] = []
        unmapped: list[str] = []
        for suggestion in suggestions:
            if suggestion.status == "auto":
                mapping[suggestion.best] = suggestion.source_code
            elif suggestion.best is not None:
                review.append(suggestion)
            else:
                unmapped.append(suggestion.source_code)
        return EnablementPlan(listing, mapping, review, unmapped)
