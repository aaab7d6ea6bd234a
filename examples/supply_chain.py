"""Vignette 3 -- Integration for Supply-Chain Management.

"Whether they can increase production ... depends on the state of each of
their suppliers.  Hence, efficient product scheduling requires the entire
supply chain to share information.  Furthermore, there may be various
contract documents among the participants ... such unstructured information
must be integrated as well as possible with structured data" (§1.2).

This example builds a three-tier supplier network, publishes its structured
tables into the federation, indexes the contract prose, and answers the
manufacturer's scheduling question -- including the mixed structured+text
query the paper highlights.

Run with:  python examples/supply_chain.py
"""

from repro.federation import FederatedEngine, FederationCatalog
from repro.ir.search import SearchMode
from repro.sim import SimClock
from repro.workloads import generate_supply_chain


def main() -> None:
    chain = generate_supply_chain(seed=3, depth=3, fanout=3)
    print(f"supply chain: {len(chain.nodes)} companies over 4 tiers, "
          f"{len(chain.contracts)} contracts")

    # Each tier keeps its data in its own enterprise systems: put tier-t
    # companies' rows on site t.
    clock = SimClock()
    catalog = FederationCatalog(clock)
    sites = [catalog.make_site(f"tier-{t}").name for t in range(4)]

    companies = chain.companies_table()
    catalog.load_fragmented(companies, 2, [[sites[0], sites[1]], [sites[2], sites[3]]])
    catalog.load_fragmented(chain.edges_table(), 1, [[sites[0]]])
    contracts = chain.contracts_table()
    catalog.load_fragmented(contracts, 1, [[sites[1]]])
    catalog.build_text_index("contracts", "body", contracts, "contract_id")
    engine = FederatedEngine(catalog)

    # --- the scheduling question -------------------------------------------
    increase = chain.max_production_increase()
    limiting = chain.limiting_companies()
    print(f"\nfeasible production increase: {increase} units")
    print(f"bottleneck companies (slack == {increase}): {', '.join(limiting[:5])}"
          + (" ..." if len(limiting) > 5 else ""))

    # The same fact derived through the federation's SQL surface.
    result = engine.query(
        "select company, capacity - output as slack from companies "
        f"order by capacity - output limit 3"
    )
    print("\ntightest companies (SQL over federated tier systems):")
    for row in result.table.to_dicts():
        print(f"  {row['company']:<14} slack {row['slack']}")

    # --- mixed structured + unstructured query --------------------------------
    # "Which contracts with the bottleneck suppliers let us expedite?"
    hits = engine.search("contracts", "expedite schedule increase", mode=SearchMode.EXACT)
    expedite_ids = {h.doc_id for h in hits}
    bottleneck_set = set(limiting)
    rows = engine.query("select contract_id, buyer, supplier from contracts").table
    actionable = [
        row for row in rows.to_dicts()
        if row["contract_id"] in expedite_ids and row["supplier"] in bottleneck_set
    ]
    print(f"\ncontracts with an expedite clause: {len(expedite_ids)}")
    print(f"...of which with bottleneck suppliers: {len(actionable)}")
    for row in actionable[:5]:
        print(f"  {row['contract_id']}: {row['buyer']} <- {row['supplier']}")

    # SQL match() is a site filter by FTS5's rule; the text index serves
    # ranked engine.search.
    match_result = engine.query(
        "select contract_id from contracts where match(body, 'price adjustment')"
    )
    print(f"\nMATCH('price adjustment') via SQL match: "
          f"{len(match_result.table)} contracts")

    # What-if: the first bottleneck supplier adds a shift.
    victim = limiting[0]
    chain.nodes[victim].capacity += 50
    print(f"\nafter {victim} adds 50 units of capacity: feasible increase = "
          f"{chain.max_production_increase()} units")


if __name__ == "__main__":
    main()
