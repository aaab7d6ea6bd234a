"""Tests for the ETL + warehouse baseline."""

import pytest

from repro.connect.source import LiveSource, StaticSource
from repro.core import DataType, Field, Schema, Table
from repro.core.errors import QueryError, TransformError
from repro.sim import EventLoop, SimClock
from repro.warehouse import EtlJob, Warehouse


def schema():
    return Schema(
        "inventory",
        (Field("sku", DataType.STRING), Field("qty", DataType.INTEGER)),
    )


def make_live_source(state):
    return LiveSource(
        "erp-feed", schema(), lambda: list(state), cost_seconds=0.5
    )


class TestEtlJob:
    def test_run_extracts_and_transforms(self):
        source = StaticSource("src", Table(schema(), [("A", 1), ("B", 2)]))

        def double(table):
            out = Table(table.schema, validate=False)
            out.rows = [(sku, qty * 2) for sku, qty in table.rows]
            return out

        job = EtlJob("inv", source, transform=double)
        run = job.run(now=0.0)
        assert run.rows_in == 2
        assert run.table.column("qty") == [2, 4]
        assert run.table.schema.name == "inv"

    def test_bad_transform_rejected(self):
        source = StaticSource("src", Table(schema(), [("A", 1)]))
        job = EtlJob("inv", source, transform=lambda t: "oops")
        with pytest.raises(TransformError):
            job.run(0.0)

    def test_etl_run_has_no_lineage(self):
        source = StaticSource("src", Table(schema(), [("A", 1)]))
        run = EtlJob("inv", source).run(0.0)
        with pytest.raises(LookupError):
            run.origin_of(0)

    def test_extract_cost_accumulates(self):
        state = [{"sku": "A", "qty": 1}]
        job = EtlJob("inv", make_live_source(state))
        job.run(0.0)
        job.run(1.0)
        assert sum(run.extract_seconds for run in job.runs) == pytest.approx(1.0)


class TestWarehouse:
    def make(self):
        clock = SimClock()
        state = [{"sku": "A", "qty": 10}, {"sku": "B", "qty": 0}]
        warehouse = Warehouse(clock)
        warehouse.add_job(EtlJob("inventory", make_live_source(state)))
        return clock, state, warehouse

    def test_refresh_loads_snapshot(self):
        _, _, warehouse = self.make()
        cost = warehouse.refresh()
        assert cost == pytest.approx(0.5)
        result = warehouse.query("select * from inventory")
        assert len(result.table) == 2

    def test_query_before_load_fails(self):
        _, _, warehouse = self.make()
        with pytest.raises(QueryError):
            warehouse.query("select * from inventory")

    def test_snapshot_does_not_see_updates(self):
        clock, state, warehouse = self.make()
        warehouse.refresh()
        state[1]["qty"] = 99  # operational update after the batch
        result = warehouse.query("select qty from inventory where sku = 'B'")
        assert result.table.column("qty") == [0]  # stale answer
        warehouse.refresh()
        result = warehouse.query("select qty from inventory where sku = 'B'")
        assert result.table.column("qty") == [99]

    def test_staleness_reported(self):
        clock, _, warehouse = self.make()
        warehouse.refresh()
        clock.advance(120.0)
        result = warehouse.query("select * from inventory")
        assert result.report.staleness_seconds == pytest.approx(120.0, abs=1.0)

    def test_scheduled_refresh(self):
        clock, state, warehouse = self.make()
        loop = EventLoop(clock)
        warehouse.refresh()
        warehouse.schedule_refresh(loop, interval=60.0)
        loop.run_until(250.0)
        assert warehouse.refresh_count == 1 + 4
        assert warehouse.refresh_seconds_total == pytest.approx(0.5 * 5)

    def test_bad_interval_rejected(self):
        _, _, warehouse = self.make()
        with pytest.raises(QueryError):
            warehouse.schedule_refresh(EventLoop(warehouse.clock), 0)

    def test_duplicate_target_rejected(self):
        _, state, warehouse = self.make()
        with pytest.raises(QueryError):
            warehouse.add_job(EtlJob("inventory", make_live_source(state)))

    def test_refresh_cost_scales_with_source_count(self):
        clock = SimClock()
        warehouse = Warehouse(clock)
        for i in range(4):
            warehouse.add_job(
                EtlJob(f"t{i}", make_live_source([{"sku": "A", "qty": 1}]))
            )
        assert warehouse.refresh() == pytest.approx(2.0)  # 4 sources x 0.5s
