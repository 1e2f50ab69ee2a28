"""Positive (bad) and negative (good) fixtures for every shipped rule.

Each rule gets at least one snippet that must flag and one that must
stay silent, per the engine's acceptance contract.
"""

from __future__ import annotations

import pytest

from repro.analysis import all_rules
from repro.analysis.rules.states import STATE_MACHINES


# ----------------------------------------------------------------------
# QLNT101 — determinism
# ----------------------------------------------------------------------

class TestDeterminism:
    @pytest.mark.parametrize("snippet", [
        "import random\n",
        "import time\n",
        "import datetime\n",
        "from random import choice\n",
        "from datetime import datetime\n",
        "from time import monotonic\n",
    ])
    def test_banned_imports_flag(self, run, snippet):
        assert run(snippet, rule_id="QLNT101")

    def test_wall_clock_attribute_flags(self, run):
        # `time` smuggled in through a helper module still reads the
        # wall clock at the attribute site.
        findings = run("def f(time):\n    return time.monotonic()\n",
                       rule_id="QLNT101")
        assert findings and "monotonic" in findings[0].message

    def test_seeded_source_is_clean(self, run):
        snippet = ("from repro.sim.random import RandomSource\n"
                   "r = RandomSource(7)\n"
                   "x = r.uniform(0.0, 1.0)\n")
        assert run(snippet, rule_id="QLNT101") == []

    def test_sim_random_module_is_exempt(self, run):
        assert run("import random\n",
                   relpath="src/repro/sim/random.py",
                   rule_id="QLNT101") == []

    def test_benchmarks_are_exempt(self, run):
        assert run("import time\n",
                   relpath="benchmarks/bench_thing.py",
                   rule_id="QLNT101") == []


# ----------------------------------------------------------------------
# QLNT102 — float equality on capacity/time
# ----------------------------------------------------------------------

class TestFloatComparison:
    @pytest.mark.parametrize("snippet", [
        "def f(start, end):\n    return start == end\n",
        "def f(demand):\n    return demand != 0.0\n",
        "def f(x):\n    return x == 1.5\n",
        "def f(entry):\n    return entry.bandwidth_mbps == 10\n",
    ])
    def test_exact_comparison_flags(self, run, snippet):
        findings = run(snippet, rule_id="QLNT102")
        assert findings and "isclose" in findings[0].message

    @pytest.mark.parametrize("snippet", [
        "def f(start, end):\n    return start <= end\n",
        "def f(value):\n    return value == int(value)\n",
        "def f(count):\n    return count == 1\n",
        "def f(name):\n    return name == 'other'\n",
    ])
    def test_ordering_and_exact_casts_are_clean(self, run, snippet):
        assert run(snippet, rule_id="QLNT102") == []


# ----------------------------------------------------------------------
# QLNT103 — raw quantity literals
# ----------------------------------------------------------------------

class TestQuantityLiterals:
    @pytest.mark.parametrize("snippet", [
        "LIMIT = '64MB'\n",
        "def f():\n    return compare('10 Mbps')\n",
        "BOUNDS = {'loss': '10%'}\n",
    ])
    def test_raw_literal_flags(self, run, snippet):
        assert run(snippet, rule_id="QLNT103")

    @pytest.mark.parametrize("snippet", [
        "x = parse_memory_mb('64MB')\n",
        "y = parse_bandwidth_mbps('10 Mbps')\n",
        '"""Parses strings such as ``64MB``."""\n',
        "def f():\n    '10 Mbps'\n",  # standalone string: prose
        "label = 'memory'\n",
    ])
    def test_units_constructors_and_prose_are_clean(self, run, snippet):
        assert run(snippet, rule_id="QLNT103") == []

    def test_units_module_is_exempt(self, run):
        assert run("CANON = '1MB'\n",
                   relpath="src/repro/units.py",
                   rule_id="QLNT103") == []


# ----------------------------------------------------------------------
# QLNT104 — broad except
# ----------------------------------------------------------------------

class TestBroadExcept:
    def test_swallowing_broad_except_flags(self, run):
        snippet = ("def f():\n"
                   "    try:\n"
                   "        work()\n"
                   "    except Exception:\n"
                   "        pass\n")
        assert run(snippet, rule_id="QLNT104")

    def test_bare_except_always_flags(self, run):
        snippet = ("def f():\n"
                   "    try:\n"
                   "        work()\n"
                   "    except:\n"
                   "        raise\n")
        assert run(snippet, rule_id="QLNT104")

    def test_reraise_is_clean(self, run):
        snippet = ("def f():\n"
                   "    try:\n"
                   "        work()\n"
                   "    except Exception:\n"
                   "        raise\n")
        assert run(snippet, rule_id="QLNT104") == []

    def test_logging_is_clean(self, run):
        snippet = ("def f(self):\n"
                   "    try:\n"
                   "        work()\n"
                   "    except Exception as exc:\n"
                   "        self._record(f'failed: {exc}')\n")
        assert run(snippet, rule_id="QLNT104") == []

    def test_narrow_except_is_clean(self, run):
        snippet = ("def f():\n"
                   "    try:\n"
                   "        work()\n"
                   "    except AdmissionError:\n"
                   "        pass\n")
        assert run(snippet, rule_id="QLNT104") == []


# ----------------------------------------------------------------------
# QLNT105 — foreign exceptions
# ----------------------------------------------------------------------

class TestForeignExceptions:
    @pytest.mark.parametrize("snippet", [
        "def f():\n    raise ValueError('bad')\n",
        "def f():\n    raise KeyError('missing')\n",
        "def f():\n    raise RuntimeError('boom')\n",
    ])
    def test_stdlib_raise_flags(self, run, snippet):
        findings = run(snippet, rule_id="QLNT105")
        assert findings and "GQoSMError" in findings[0].message

    @pytest.mark.parametrize("snippet", [
        "def f():\n    raise UnitError('bad')\n",
        "def f():\n    raise ValidationError('bad')\n",
        "def f():\n    raise NotImplementedError\n",
        "def f():\n    raise\n",
        "def f(exc):\n    raise exc\n",
    ])
    def test_domain_and_protocol_raises_are_clean(self, run, snippet):
        assert run(snippet, rule_id="QLNT105") == []


# ----------------------------------------------------------------------
# QLNT106 — __all__ drift
# ----------------------------------------------------------------------

class TestExports:
    def test_public_init_without_all_flags(self, run):
        findings = run("from .engine import Simulator\n",
                       relpath="src/repro/somepkg/__init__.py",
                       rule_id="QLNT106")
        assert findings and "__all__" in findings[0].message

    def test_phantom_export_flags(self, run):
        snippet = ("def real():\n    pass\n"
                   "__all__ = ['real', 'phantom']\n")
        findings = run(snippet, rule_id="QLNT106")
        assert findings and "phantom" in findings[0].message

    def test_duplicate_export_flags(self, run):
        snippet = "x = 1\n__all__ = ['x', 'x']\n"
        assert run(snippet, rule_id="QLNT106")

    def test_consistent_init_is_clean(self, run):
        snippet = ("from .engine import Simulator\n"
                   "__all__ = ['Simulator']\n")
        assert run(snippet,
                   relpath="src/repro/somepkg/__init__.py",
                   rule_id="QLNT106") == []

    def test_plain_module_without_all_is_clean(self, run):
        assert run("def helper():\n    pass\n",
                   rule_id="QLNT106") == []


# ----------------------------------------------------------------------
# QLNT107 — state-machine transitions
# ----------------------------------------------------------------------

class TestStateTransitions:
    def test_undeclared_transition_flags(self, run):
        snippet = ("class Reservation:\n"
                   "    def commit(self):\n"
                   "        self.state = ReservationState.BOUND\n")
        findings = run(snippet, rule_id="QLNT107")
        assert findings and "undeclared transition" in findings[0].message

    def test_unregistered_machine_flags(self, run):
        snippet = ("class Widget:\n"
                   "    def flip(self):\n"
                   "        self.state = WidgetState.ON\n")
        findings = run(snippet, rule_id="QLNT107")
        assert findings and "not registered" in findings[0].message

    def test_computed_state_value_flags(self, run):
        snippet = ("class Reservation:\n"
                   "    def restore(self, saved):\n"
                   "        self.state = saved\n")
        findings = run(snippet, rule_id="QLNT107")
        assert findings and "computed" in findings[0].message

    def test_declared_transition_is_clean(self, run):
        snippet = ("class Reservation:\n"
                   "    def commit(self):\n"
                   "        self.state = ReservationState.COMMITTED\n")
        assert run(snippet, rule_id="QLNT107") == []

    def test_sla_status_outside_its_transitions_flags(self, run):
        snippet = ("class ServiceSLA:\n"
                   "    def reopen(self):\n"
                   "        self.status = SlaStatus.ACTIVE\n")
        findings = run(snippet, rule_id="QLNT107")
        assert findings and "undeclared transition" in findings[0].message

    def test_non_state_assignment_is_clean(self, run):
        snippet = ("class Reservation:\n"
                   "    def label(self):\n"
                   "        self.name = 'res'\n")
        assert run(snippet, rule_id="QLNT107") == []

    def test_table_matches_the_real_enums(self):
        """Every member the table references must exist on the enum."""
        from repro.gara.reservation import ReservationState
        from repro.resources.compute import JobState
        from repro.sla.document import SlaStatus
        from repro.sla.lifecycle import Phase
        from repro.sla.negotiation import NegotiationState
        enums = {"ReservationState": ReservationState, "Phase": Phase,
                 "NegotiationState": NegotiationState,
                 "JobState": JobState, "SlaStatus": SlaStatus}
        assert set(STATE_MACHINES) == set(enums)
        for name, spec in STATE_MACHINES.items():
            members = {member.name for member in enums[name]}
            for method, allowed in spec.transitions.items():
                assert allowed <= members, (name, method)


# ----------------------------------------------------------------------
# QLNT108 — mutable defaults
# ----------------------------------------------------------------------

class TestMutableDefaults:
    @pytest.mark.parametrize("snippet", [
        "def f(x=[]):\n    pass\n",
        "def f(x={}):\n    pass\n",
        "def f(*, x=set()):\n    pass\n",
        "def f(x=dict()):\n    pass\n",
    ])
    def test_mutable_default_flags(self, run, snippet):
        assert run(snippet, rule_id="QLNT108")

    @pytest.mark.parametrize("snippet", [
        "def f(x=None):\n    pass\n",
        "def f(x=()):\n    pass\n",
        "def f(x=0):\n    pass\n",
    ])
    def test_immutable_default_is_clean(self, run, snippet):
        assert run(snippet, rule_id="QLNT108") == []


# ----------------------------------------------------------------------
# QLNT109 — unordered iteration
# ----------------------------------------------------------------------

class TestUnorderedIteration:
    @pytest.mark.parametrize("snippet", [
        "for item in {'a', 'b'}:\n    use(item)\n",
        "xs = [x for x in set(items)]\n",
        "def f(registry):\n"
        "    for name, svc in registry.items():\n"
        "        use(name, svc)\n",
    ])
    def test_unordered_iteration_flags(self, run, snippet):
        assert run(snippet, rule_id="QLNT109")

    @pytest.mark.parametrize("snippet", [
        "for item in sorted({'a', 'b'}):\n    use(item)\n",
        "for item in ['a', 'b']:\n    use(item)\n",
        "def f(mapping):\n"
        "    for key, value in mapping.items():\n"
        "        use(key, value)\n",
    ])
    def test_ordered_iteration_is_clean(self, run, snippet):
        assert run(snippet, rule_id="QLNT109") == []


# ----------------------------------------------------------------------
# QLNT110 — unused imports
# ----------------------------------------------------------------------

class TestUnusedImports:
    def test_unused_import_flags(self, run):
        findings = run("import itertools\n\nx = 1\n", rule_id="QLNT110")
        assert findings and "itertools" in findings[0].message

    def test_used_import_is_clean(self, run):
        assert run("import itertools\n\nc = itertools.count()\n",
                   rule_id="QLNT110") == []

    def test_reexport_via_all_counts_as_use(self, run):
        snippet = ("from .engine import Simulator\n"
                   "__all__ = ['Simulator']\n")
        assert run(snippet, rule_id="QLNT110") == []

    def test_future_annotations_is_exempt(self, run):
        assert run("from __future__ import annotations\nx = 1\n",
                   rule_id="QLNT110") == []


# ----------------------------------------------------------------------
# QLNT111 — debug prints
# ----------------------------------------------------------------------

class TestDebugPrints:
    def test_print_in_library_flags(self, run):
        assert run("def f():\n    print('debug')\n", rule_id="QLNT111")

    def test_cli_module_is_exempt(self, run):
        assert run("def main():\n    print('report')\n",
                   relpath="src/repro/cli.py",
                   rule_id="QLNT111") == []

    def test_experiments_are_exempt(self, run):
        assert run("def render():\n    print('table')\n",
                   relpath="src/repro/experiments/reporting.py",
                   rule_id="QLNT111") == []


# ----------------------------------------------------------------------
# QLNT112 — raw bus.request() outside the transport layer
# ----------------------------------------------------------------------

class TestRawBusRequest:
    @pytest.mark.parametrize("snippet", [
        "def f(bus, envelope):\n    return bus.request(envelope)\n",
        ("class Stub:\n"
         "    def call(self, envelope):\n"
         "        return self._bus.request(envelope)\n"),
        "def f(testbed, envelope):\n    return testbed.bus.request(envelope)\n",
    ])
    def test_raw_request_in_core_flags(self, run, snippet):
        findings = run(snippet, relpath="src/repro/core/gateway.py",
                       rule_id="QLNT112")
        assert findings and "ResilientCaller" in findings[0].message

    def test_raw_request_in_sla_flags(self, run):
        assert run("def f(bus, e):\n    return bus.request(e)\n",
                   relpath="src/repro/sla/negotiation.py",
                   rule_id="QLNT112")

    def test_resilient_caller_is_clean(self, run):
        snippet = ("def f(caller, envelope):\n"
                   "    return caller.call(envelope)\n")
        assert run(snippet, relpath="src/repro/core/gateway.py",
                   rule_id="QLNT112") == []

    def test_transport_layer_is_exempt(self, run):
        assert run("def f(bus, e):\n    return bus.request(e)\n",
                   relpath="src/repro/xmlmsg/resilient.py",
                   rule_id="QLNT112") == []

    def test_unrelated_request_receivers_are_clean(self, run):
        # requests to non-bus objects (an HTTP session, a queue) are
        # out of scope for the rule.
        assert run("def f(session, e):\n    return session.request(e)\n",
                   relpath="src/repro/core/broker.py",
                   rule_id="QLNT112") == []


# ----------------------------------------------------------------------
# QLNT113 — private mutable counters for cross-cutting statistics
# ----------------------------------------------------------------------

class TestPrivateCounter:
    @pytest.mark.parametrize("snippet", [
        ("class Cache:\n"
         "    def lookup(self):\n"
         "        self.stale_hits += 1\n"),
        ("class Verifier:\n"
         "    def poll(self):\n"
         "        self.tests_run += 1\n"),
        ("class Bus:\n"
         "    def deliver(self):\n"
         "        self._messages_seen += 1\n"),
        ("class Registry:\n"
         "    def add(self):\n"
         "        self.registrations_total += 2\n"),
    ])
    def test_counter_augassign_in_core_flags(self, run, snippet):
        findings = run(snippet, relpath="src/repro/core/module.py",
                       rule_id="QLNT113")
        assert findings and "MetricsRegistry" in findings[0].message

    def test_all_instrumented_layers_are_in_scope(self, run):
        snippet = ("class C:\n"
                   "    def f(self):\n"
                   "        self.hits += 1\n")
        for layer in ("core", "monitoring", "network", "xmlmsg",
                      "registry"):
            assert run(snippet, relpath=f"src/repro/{layer}/module.py",
                       rule_id="QLNT113")

    def test_stats_dataclass_bundle_is_clean(self, run):
        # A dedicated stats object is a deliberate local bundle, not a
        # shadow registry.
        snippet = ("class Broker:\n"
                   "    def f(self):\n"
                   "        self.stats.cache_hits += 1\n")
        assert run(snippet, relpath="src/repro/core/broker.py",
                   rule_id="QLNT113") == []

    def test_non_counter_attributes_are_clean(self, run):
        snippet = ("class Clock:\n"
                   "    def tick(self):\n"
                   "        self.elapsed += 1.0\n")
        assert run(snippet, relpath="src/repro/core/broker.py",
                   rule_id="QLNT113") == []

    def test_experiments_layer_is_exempt(self, run):
        snippet = ("class Harness:\n"
                   "    def f(self):\n"
                   "        self.hits += 1\n")
        assert run(snippet, relpath="src/repro/experiments/harness.py",
                   rule_id="QLNT113") == []


# ----------------------------------------------------------------------
# QLNT114 — journaled state mutated outside the journal API
# ----------------------------------------------------------------------

class TestJournaledState:
    @pytest.mark.parametrize("snippet,field", [
        (("class Helper:\n"
          "    def tidy(self, composite):\n"
          "        composite.confirmed = True\n"), "confirmed"),
        (("class Helper:\n"
          "    def drop(self, composite):\n"
          "        composite.cancelled = True\n"), "cancelled"),
        (("class Helper:\n"
          "    def push(self, booking):\n"
          "        booking.committed = True\n"), "committed"),
        (("class Partition:\n"
          "    def shrink(self):\n"
          "        self._failed += 4.0\n"), "_failed"),
    ])
    def test_mutation_outside_transition_method_flags(self, run, snippet,
                                                      field):
        findings = run(snippet, relpath="src/repro/core/module.py",
                       rule_id="QLNT114")
        assert findings and field in findings[0].message

    @pytest.mark.parametrize("snippet", [
        ("class Composite:\n"
         "    def confirm(self):\n"
         "        self.confirmed = True\n"),
        ("class Composite:\n"
         "    def cancel(self):\n"
         "        self.cancelled = True\n"),
        ("class Booking:\n"
         "    def commit(self):\n"
         "        self.committed = True\n"),
        ("class Booking:\n"
         "    def __init__(self):\n"
         "        self.committed = False\n"),
        ("class Partition:\n"
         "    def apply_failure(self, lost):\n"
         "        self._failed += lost\n"),
    ])
    def test_declared_transition_methods_are_clean(self, run, snippet):
        assert run(snippet, relpath="src/repro/core/module.py",
                   rule_id="QLNT114") == []

    def test_dataclass_field_default_is_clean(self, run):
        # A class-level annotated default declares the field; it does
        # not mutate journaled state.
        snippet = ("class CompositeReservation:\n"
                   "    confirmed: bool = False\n"
                   "    cancelled: bool = False\n")
        assert run(snippet, relpath="src/repro/core/module.py",
                   rule_id="QLNT114") == []

    def test_all_journaling_layers_are_in_scope(self, run):
        snippet = ("class C:\n"
                   "    def f(self):\n"
                   "        self.confirmed = True\n")
        for layer in ("core", "network", "gara", "sla"):
            assert run(snippet, relpath=f"src/repro/{layer}/module.py",
                       rule_id="QLNT114")

    def test_recovery_layer_is_exempt(self, run):
        # Replay legitimately rebuilds the flags it folds from records.
        snippet = ("class View:\n"
                   "    def fold(self, composite):\n"
                   "        composite.confirmed = True\n")
        assert run(snippet, relpath="src/repro/recovery/recover.py",
                   rule_id="QLNT114") == []

    def test_unrelated_fields_are_clean(self, run):
        snippet = ("class C:\n"
                   "    def f(self):\n"
                   "        self.started = True\n")
        assert run(snippet, relpath="src/repro/core/module.py",
                   rule_id="QLNT114") == []


# ----------------------------------------------------------------------
# QLNT115 — object allocation in the DES/slot-table/partition/wire hot loop
# ----------------------------------------------------------------------

class TestHotPathAllocation:
    EVENTS = "src/repro/sim/events.py"
    TABLE = "src/repro/gara/slot_table.py"
    PARTITION = "src/repro/core/capacity.py"
    DOCUMENT = "src/repro/xmlmsg/document.py"
    SCHEMA = "src/repro/xmlmsg/schema.py"
    ENVELOPE = "src/repro/xmlmsg/envelope.py"

    def test_lambda_in_hot_loop_flags(self, run):
        snippet = ("class EventQueue:\n"
                   "    def pop(self):\n"
                   "        key = lambda item: item[0]\n"
                   "        return min(self._heap, key=key)\n")
        findings = run(snippet, relpath=self.EVENTS, rule_id="QLNT115")
        assert findings and "closure" in findings[0].message

    def test_nested_def_in_hot_loop_flags(self, run):
        snippet = ("class EventQueue:\n"
                   "    def peek_time(self):\n"
                   "        def head():\n"
                   "            return self._heap[0]\n"
                   "        return head()\n")
        findings = run(snippet, relpath=self.EVENTS, rule_id="QLNT115")
        assert findings and "head()" in findings[0].message

    def test_constructor_in_probe_path_flags(self, run):
        snippet = ("class SlotTable:\n"
                   "    def usage_at(self, time):\n"
                   "        probe = Segment(time, time)\n"
                   "        return probe\n")
        findings = run(snippet, relpath=self.TABLE, rule_id="QLNT115")
        assert findings and "Segment" in findings[0].message

    def test_resource_vector_result_is_allowed(self, run):
        # The probes return one aggregate vector per call by contract.
        snippet = ("class SlotTable:\n"
                   "    def usage_at(self, time):\n"
                   "        return ResourceVector(cpu=self._cpu[0])\n")
        assert run(snippet, relpath=self.TABLE, rule_id="QLNT115") == []

    def test_closure_in_the_rebalance_pass_flags(self, run):
        # The shape the delta water-fill removed must not creep back.
        snippet = ("class CapacityPartition:\n"
                   "    def rebalance(self):\n"
                   "        def draw(pool, amount):\n"
                   "            return min(amount, self.remaining[pool])\n"
                   "        return draw('g', 1.0)\n")
        findings = run(snippet, relpath=self.PARTITION, rule_id="QLNT115")
        assert findings and "draw()" in findings[0].message

    def test_sort_key_lambda_in_the_rebalance_pass_flags(self, run):
        snippet = ("class CapacityPartition:\n"
                   "    def rebalance(self):\n"
                   "        return sorted(self._best_effort.values(),\n"
                   "                      key=lambda h: h.arrival_order)\n")
        findings = run(snippet, relpath=self.PARTITION, rule_id="QLNT115")
        assert findings and "closure" in findings[0].message

    def test_per_holding_object_in_the_demand_update_flags(self, run):
        snippet = ("class CapacityPartition:\n"
                   "    def set_guaranteed_demand(self, user, demand):\n"
                   "        self._touched[user] = Delta(user, demand)\n")
        findings = run(snippet, relpath=self.PARTITION, rule_id="QLNT115")
        assert findings and "Delta" in findings[0].message

    def test_one_report_per_pass_is_allowed(self, run):
        # A pass returns one report with its three pool rows.
        snippet = ("class CapacityPartition:\n"
                   "    def rebalance(self):\n"
                   "        pools = (PoolUsage('Cg', 1.0, 0.0, 0.0, 0.0),)\n"
                   "        return RebalanceReport({}, {}, 0.0, pools)\n")
        assert run(snippet, relpath=self.PARTITION,
                   rule_id="QLNT115") == []

    def test_closure_in_the_writer_recursion_flags(self, run):
        snippet = ("class Message:\n"
                   "    def _write(self, out, obj, tag, lead, pad):\n"
                   "        def emit(item):\n"
                   "            self._write(out, item, tag, pad, pad)\n"
                   "        for item in obj:\n"
                   "            emit(item)\n")
        findings = run(snippet, relpath=self.SCHEMA, rule_id="QLNT115")
        assert findings and "emit()" in findings[0].message

    def test_per_node_object_in_the_writer_flags(self, run):
        snippet = ("class Message:\n"
                   "    def _write(self, out, obj, tag, lead, pad):\n"
                   "        frame = Frame(tag, pad)\n"
                   "        out.append(frame.open())\n")
        findings = run(snippet, relpath=self.SCHEMA, rule_id="QLNT115")
        assert findings and "Frame" in findings[0].message

    def test_lambda_in_the_reader_flags(self, run):
        snippet = ("class Message:\n"
                   "    def _read(self, node):\n"
                   "        children = sorted(node,\n"
                   "                          key=lambda child: child.tag)\n"
                   "        return self.build(children)\n")
        findings = run(snippet, relpath=self.SCHEMA, rule_id="QLNT115")
        assert findings and "closure" in findings[0].message

    def test_element_tree_built_in_to_xml_flags(self, run):
        # The shape the single-pass writer removed: an Envelope/Header
        # /Body tree built per message only to be flattened.
        snippet = ("class Envelope:\n"
                   "    def to_xml(self):\n"
                   "        root = Element('Envelope')\n"
                   "        return pretty_xml(root)\n")
        findings = run(snippet, relpath=self.ENVELOPE, rule_id="QLNT115")
        assert findings and "Element" in findings[0].message

    def test_the_wire_writer_as_written_is_clean(self, run):
        schema = ("class Message:\n"
                  "    def write(self, obj, pad=''):\n"
                  "        out = []\n"
                  "        self._write(out, obj, self.tag, '', pad)\n"
                  "        return ''.join(out)\n"
                  "    def _write(self, out, obj, tag, lead, pad):\n"
                  "        out.append(lead + '<' + tag + '>')\n"
                  "        inner = pad + '  ' if pad else pad\n"
                  "        for get, message, repeated, child, render, \\\n"
                  "                open_, close, empty in self._writes:\n"
                  "            value = get(obj)\n"
                  "            if message is not None:\n"
                  "                message._write(out, value, child, inner,\n"
                  "                               inner)\n"
                  "            else:\n"
                  "                out.append(f'{inner}{open_}{render(value)}'\n"
                  "                           f'{close}')\n"
                  "        out.append(pad + '</' + tag + '>')\n"
                  "    def _read(self, node):\n"
                  "        values = self._start.copy()\n"
                  "        for child in node:\n"
                  "            name, parse = self._reads[child.tag]\n"
                  "            try:\n"
                  "                values[name] = parse(child.text)\n"
                  "            except ValueError as error:\n"
                  "                raise MessageError(str(error)) from error\n"
                  "        return self.build(values)\n")
        assert run(schema, relpath=self.SCHEMA, rule_id="QLNT115") == []
        frame = ("class Envelope:\n"
                 "    def to_xml(self):\n"
                 "        parts = ['<Envelope><Header>',\n"
                 "                 _field('Sender', self.sender)]\n"
                 "        parts.append(self.body)\n"
                 "        return ''.join(parts)\n"
                 "    @classmethod\n"
                 "    def from_xml(cls, text):\n"
                 "        return cls(body=parse_xml(text))\n")
        assert run(frame, relpath=self.ENVELOPE, rule_id="QLNT115") == []

    def test_element_builders_stay_out_of_scope(self, run):
        # element()/subelement() build trees by contract.
        snippet = ("def element(tag, text=None):\n"
                   "    return ET.Element(tag)\n"
                   "def parse_failure(error):\n"
                   "    return MessageError(str(error))\n")
        assert run(snippet, relpath=self.DOCUMENT, rule_id="QLNT115") == []

    def test_per_departure_object_in_remove_flags(self, run):
        snippet = ("class CapacityPartition:\n"
                   "    def remove_guaranteed(self, user):\n"
                   "        self._log.append(Departure(user))\n"
                   "        return self.rebalance()\n")
        findings = run(snippet, relpath=self.PARTITION, rule_id="QLNT115")
        assert findings and "Departure" in findings[0].message

    def test_remove_as_written_is_clean(self, run):
        snippet = ("class CapacityPartition:\n"
                   "    def remove_guaranteed(self, user):\n"
                   "        holding = self._guaranteed.pop(user, None)\n"
                   "        if holding is None:\n"
                   "            raise AdmissionError(f'{user} not admitted')\n"
                   "        holding._freeze()\n"
                   "        at = bisect_left(self._keys, user)\n"
                   "        del self._keys[at], self._ents[at]\n"
                   "        self._low = min(self._low, at)\n"
                   "        return self.rebalance()\n")
        assert run(snippet, relpath=self.PARTITION,
                   rule_id="QLNT115") == []

    def test_per_read_object_in_the_holding_draw_flags(self, run):
        # A holding draws itself on read: a sourcing record built per
        # draw is paid by every read after every pass.
        snippet = ("class CapacityPartition:\n"
                   "    def _draw(self, holding):\n"
                   "        holding._stamp = self._passes\n"
                   "        holding._sourcing = Sourcing(*self._bounds)\n")
        findings = run(snippet, relpath=self.PARTITION, rule_id="QLNT115")
        assert findings and "Sourcing" in findings[0].message

    def test_closure_in_the_read_accessor_flags(self, run):
        snippet = ("class GuaranteedHolding:\n"
                   "    def _read(self):\n"
                   "        stale = lambda: self._stamp != self._passes\n"
                   "        return self if not stale() else self._draw()\n")
        findings = run(snippet, relpath=self.PARTITION, rule_id="QLNT115")
        assert findings and "closure" in findings[0].message

    def test_the_draw_on_read_as_written_is_clean(self, run):
        snippet = ("class GuaranteedHolding:\n"
                   "    def _read(self):\n"
                   "        partition = self._partition\n"
                   "        if partition is not None and \\\n"
                   "                self._stamp != partition._passes:\n"
                   "            partition._draw(self)\n"
                   "        return self\n"
                   "class CapacityPartition:\n"
                   "    def _draw(self, holding):\n"
                   "        holding._stamp = self._passes\n"
                   "        eff_g, end_a, end_b, left_a, end_x = self._bounds\n"
                   "        at = bisect_left(self._keys, holding.user)\n"
                   "        line = at - bisect_left(self._fresh, holding.user)\n"
                   "        need, start = self._ents[at], self._line_e[line]\n"
                   "        room = eff_g - start\n"
                   "        holding._from_g = need if need <= room else room\n")
        assert run(snippet, relpath=self.PARTITION,
                   rule_id="QLNT115") == []

    MACHINE = "src/repro/resources/machine.py"

    def test_per_node_object_in_fail_nodes_flags(self, run):
        # The shape the down-set replaced: one state object per node,
        # walked and flipped on every failure.
        snippet = ("class Machine:\n"
                   "    def fail_nodes(self, count):\n"
                   "        nodes = [Node(i) for i in range(self._total)]\n"
                   "        return [n.node_id for n in nodes[:count]]\n")
        findings = run(snippet, relpath=self.MACHINE, rule_id="QLNT115")
        assert findings and "Node" in findings[0].message

    def test_closure_in_repair_nodes_flags(self, run):
        snippet = ("class Machine:\n"
                   "    def repair_nodes(self, node_ids=None):\n"
                   "        keep = lambda i: i not in node_ids\n"
                   "        self._down = set(filter(keep, self._down))\n")
        findings = run(snippet, relpath=self.MACHINE, rule_id="QLNT115")
        assert findings and "closure" in findings[0].message

    def test_the_down_set_as_written_is_clean(self, run):
        snippet = ("class Machine:\n"
                   "    def fail_nodes(self, count):\n"
                   "        if count < 0:\n"
                   "            raise ResourceError(f'negative: {count}')\n"
                   "        down = self._down\n"
                   "        failed_ids = list(islice(filterfalse(\n"
                   "            down.__contains__, range(self._total)), count))\n"
                   "        down.update(failed_ids)\n"
                   "        return failed_ids\n"
                   "    def repair_nodes(self, node_ids=None):\n"
                   "        before = len(self._down)\n"
                   "        self._down.difference_update(node_ids)\n"
                   "        return before - len(self._down)\n")
        assert run(snippet, relpath=self.MACHINE, rule_id="QLNT115") == []

    def test_admission_may_build_its_holding(self, run):
        # admit_guaranteed() is not in the declared hot path.
        snippet = ("class CapacityPartition:\n"
                   "    def admit_guaranteed(self, user, committed):\n"
                   "        return GuaranteedHolding(user, committed)\n")
        assert run(snippet, relpath=self.PARTITION,
                   rule_id="QLNT115") == []

    def test_raised_exception_is_allowed(self, run):
        # Error paths are cold; constructing the exception is fine.
        snippet = ("class EventQueue:\n"
                   "    def pop(self):\n"
                   "        raise SimulationError('empty queue')\n")
        assert run(snippet, relpath=self.EVENTS, rule_id="QLNT115") == []

    def test_cold_functions_in_hot_modules_are_clean(self, run):
        # push() is not in the declared hot path; allocation is fine.
        snippet = ("class EventQueue:\n"
                   "    def push(self, time, action):\n"
                   "        return Event(time, 0, 0, action)\n")
        assert run(snippet, relpath=self.EVENTS, rule_id="QLNT115") == []

    def test_other_modules_are_out_of_scope(self, run):
        snippet = ("class Broker:\n"
                   "    def pop(self):\n"
                   "        return lambda: None\n")
        assert run(snippet, relpath="src/repro/core/broker.py",
                   rule_id="QLNT115") == []

    # -- the instruments' emit paths -----------------------------------

    METRICS = "src/repro/telemetry/metrics.py"
    SPANS = "src/repro/telemetry/spans.py"
    EVENTS_LOG = "src/repro/telemetry/events.py"
    GAUGES = "src/repro/telemetry/capacity.py"
    DECISIONS = "src/repro/obs/decisions.py"
    SLO = "src/repro/obs/slo.py"

    def test_window_object_in_a_time_gauge_write_flags(self, run):
        # The shape the in-place integral removed: a multi-signal
        # window observed on every set.
        snippet = ("class TimeWeightedGauge:\n"
                   "    def set(self, value):\n"
                   "        if self._window is None:\n"
                   "            self._window = TimeWeightedMetrics(0.0)\n"
                   "        self._window.observe(self._now(), value=value)\n")
        findings = run(snippet, relpath=self.METRICS, rule_id="QLNT115")
        assert findings and "TimeWeightedMetrics" in findings[0].message

    def test_generator_context_manager_in_span_flags(self, run):
        snippet = ("class Tracer:\n"
                   "    def span(self, name):\n"
                   "        def scope():\n"
                   "            yield self.start(name)\n"
                   "        return contextmanager(scope)()\n")
        findings = run(snippet, relpath=self.SPANS, rule_id="QLNT115")
        assert findings and "scope()" in findings[0].message

    def test_per_row_wrapper_in_emit_flags(self, run):
        snippet = ("class EventStream:\n"
                   "    def emit(self, time, category, message, **details):\n"
                   "        row = Row(time, category, message, Details(details))\n"
                   "        self._events.append(row)\n")
        findings = run(snippet, relpath=self.EVENTS_LOG, rule_id="QLNT115")
        assert {"Row", "Details"} <= {finding.message.split("(")[0]
                                      for finding in findings}

    def test_per_gauge_sample_in_on_rebalance_flags(self, run):
        snippet = ("class CapacityGauges:\n"
                   "    def on_rebalance(self, partition, report):\n"
                   "        for gauge, value in zip(self._all, report.pools):\n"
                   "            gauge.record(Sample(self.now(), value))\n")
        findings = run(snippet, relpath=self.GAUGES, rule_id="QLNT115")
        assert findings and "Sample" in findings[0].message

    def test_sort_key_lambda_in_slo_window_flags(self, run):
        snippet = ("class _ClassBook:\n"
                   "    def window(self, opened, now, lo):\n"
                   "        return sorted(opened, key=lambda span: span[1])\n")
        findings = run(snippet, relpath=self.SLO, rule_id="QLNT115")
        assert findings and "closure" in findings[0].message

    def test_the_emit_paths_as_written_are_clean(self, run):
        gauge = ("class TimeWeightedGauge:\n"
                 "    def set(self, value):\n"
                 "        self.set_at(self._now(), value)\n"
                 "    def set_at(self, time, value):\n"
                 "        if time < self._last:\n"
                 "            raise ValidationError('precedes')\n"
                 "        self._integral += self.value * (time - self._last)\n"
                 "        self.value = float(value)\n"
                 "class MetricsRegistry:\n"
                 "    def _get(self, table, kind, name, labels, factory):\n"
                 "        instrument = table.get(_SERIES.get(\n"
                 "            (name, *labels, *map(str, labels.values()))))\n"
                 "        if instrument is None:\n"
                 "            instrument = table[name] = factory()\n"
                 "        return instrument\n")
        assert run(gauge, relpath=self.METRICS, rule_id="QLNT115") == []
        spans = ("class Tracer:\n"
                 "    def start(self, name, **attributes):\n"
                 "        span = Span('t', 's', None, name, '', 0.0, None,\n"
                 "                    'ok', attributes)\n"
                 "        self._spans.append(span)\n"
                 "        return span\n"
                 "    def span(self, name, **attributes):\n"
                 "        return _OpenSpan(self, self.start(name, **attributes))\n")
        assert run(spans, relpath=self.SPANS, rule_id="QLNT115") == []
        decide = ("class DecisionLog:\n"
                  "    def decide(self, action, outcome):\n"
                  "        record = DecisionRecord(1, 0.0, action, outcome)\n"
                  "        self._stream.append(TelemetryEvent(\n"
                  "            0.0, 'decision', action, record.to_dict()))\n"
                  "        return record\n")
        assert run(decide, relpath=self.DECISIONS, rule_id="QLNT115") == []
        rows = ("class EventStream:\n"
                "    def emit(self, time, category, message, **details):\n"
                "        return self.append(\n"
                "            TelemetryEvent(time, category, message, details))\n"
                "    def append(self, event):\n"
                "        self._events.append(event)\n"
                "        return event\n")
        assert run(rows, relpath=self.EVENTS_LOG, rule_id="QLNT115") == []

    # -- the RSL leg ---------------------------------------------------

    PARSER = "src/repro/rsl/parser.py"
    BUILDER = "src/repro/rsl/builder.py"
    RSL_AST = "src/repro/rsl/ast.py"

    def test_per_lexeme_token_object_flags(self, run):
        snippet = ("def _parse_values(lexemes, at, text):\n"
                   "    token = Token(lexemes[at], at)\n"
                   "    return [token.value], at + 1\n")
        findings = run(snippet, relpath=self.PARSER, rule_id="QLNT115")
        assert findings and "Token" in findings[0].message

    def test_numeric_closure_in_vector_from_rsl_flags(self, run):
        # The seed's per-call ``numeric`` closure.
        snippet = ("def vector_from_rsl(text):\n"
                   "    attributes = parse_rsl(text).attributes()\n"
                   "    def numeric(name):\n"
                   "        return float(attributes[name])\n"
                   "    return numeric('count')\n")
        findings = run(snippet, relpath=self.BUILDER, rule_id="QLNT115")
        assert findings and "numeric()" in findings[0].message

    def test_closure_in_the_value_renderer_flags(self, run):
        snippet = ("def _render_value(value):\n"
                   "    text = str(value)\n"
                   "    if any(map(lambda ch: ch in text, ' ()=')):\n"
                   "        return '\"' + text + '\"'\n"
                   "    return text\n")
        findings = run(snippet, relpath=self.RSL_AST, rule_id="QLNT115")
        assert findings and "closure" in findings[0].message

    def test_the_rsl_leg_as_written_is_clean(self, run):
        parser = ("def parse_rsl(text):\n"
                  "    lexemes = _LEXEME.findall(text)\n"
                  "    if not lexemes:\n"
                  "        raise RSLError('empty RSL specification')\n"
                  "    expression, at = _parse_expression(lexemes, 0, text)\n"
                  "    return expression\n"
                  "def _parse_expression(lexemes, at, text):\n"
                  "    relations = []\n"
                  "    while lexemes[at] == '(':\n"
                  "        attribute, op = lexemes[at + 1], lexemes[at + 2]\n"
                  "        values, at = _parse_values(lexemes, at + 3, text)\n"
                  "        relations.append(RSLRelation(attribute, op, values[0]))\n"
                  "        at += 1\n"
                  "    return RSLExpression('&', tuple(relations), ()), at\n")
        assert run(parser, relpath=self.PARSER, rule_id="QLNT115") == []
        token = ("def _token_value(token):\n"
                 "    try:\n"
                 "        return float(token)\n"
                 "    except ValueError:\n"
                 "        return token\n")
        assert run(token, relpath=self.RSL_AST, rule_id="QLNT115") == []
        builder = ("def reservation_rsl(demand, start, end):\n"
                   "    text = '&'\n"
                   "    for name, value in zip(_NAMES, demand.as_tuple()):\n"
                   "        text += f'({name}={_render_value(value)})'\n"
                   "    return text\n"
                   "def vector_from_rsl(text):\n"
                   "    bound = [0.0, 0.0, 0.0, 0.0]\n"
                   "    for relation in parse_rsl(text).relations:\n"
                   "        bound[_SLOTS[relation.attribute]] = relation.value\n"
                   "    return ResourceVector(*map(_numeric, bound))\n")
        assert run(builder, relpath=self.BUILDER, rule_id="QLNT115") == []


# ----------------------------------------------------------------------
# QLNT116 — reject/degrade path without a decision record
# ----------------------------------------------------------------------

class TestDecisionProvenance:
    BROKER = "src/repro/core/broker.py"
    OPTIMIZER = "src/repro/core/optimizer.py"

    def test_silent_reject_counter_flags(self, run):
        snippet = ("class Broker:\n"
                   "    def _negotiate(self, request):\n"
                   "        self.stats.rejected_capacity += 1\n"
                   "        return None\n")
        findings = run(snippet, relpath=self.BROKER, rule_id="QLNT116")
        assert findings and "rejected_capacity" in findings[0].message
        assert "_decide" in findings[0].message

    def test_reject_with_decide_is_clean(self, run):
        snippet = ("class Broker:\n"
                   "    def _negotiate(self, request):\n"
                   "        self.stats.rejected_capacity += 1\n"
                   "        self._decide('admission', 'reject')\n"
                   "        return None\n")
        assert run(snippet, relpath=self.BROKER,
                   rule_id="QLNT116") == []

    def test_degrade_counter_flags(self, run):
        snippet = ("class Adapter:\n"
                   "    def on_degradation(self, sla):\n"
                   "        self.stats.squeezes += 1\n")
        findings = run(snippet, relpath="src/repro/core/scenarios.py",
                       rule_id="QLNT116")
        assert findings and "squeezes" in findings[0].message

    def test_decisions_decide_satisfies(self, run):
        snippet = ("class Adapter:\n"
                   "    def on_degradation(self, sla):\n"
                   "        self.stats.squeezes += 1\n"
                   "        broker.decisions.decide('adaptation',\n"
                   "                                'squeeze')\n")
        assert run(snippet, relpath="src/repro/core/scenarios.py",
                   rule_id="QLNT116") == []

    def test_solver_result_without_hook_flags(self, run):
        snippet = ("def greedy_optimize(services, capacity):\n"
                   "    return OptimizationResult(True, {}, 0.0, {})\n")
        findings = run(snippet, relpath=self.OPTIMIZER,
                       rule_id="QLNT116")
        assert findings and "OptimizationResult" in findings[0].message

    def test_solver_result_with_hook_is_clean(self, run):
        snippet = ("def greedy_optimize(services, capacity, *,\n"
                   "                    on_decision=None):\n"
                   "    result = OptimizationResult(True, {}, 0.0, {})\n"
                   "    if on_decision is not None:\n"
                   "        on_decision(result)\n"
                   "    return result\n")
        assert run(snippet, relpath=self.OPTIMIZER,
                   rule_id="QLNT116") == []

    def test_solver_result_outside_optimizer_ignored(self, run):
        # Constructing a result object is only a verdict in the solver.
        snippet = ("class Broker:\n"
                   "    def summarize(self):\n"
                   "        return OptimizationResult(True, {}, 0.0, {})\n")
        assert run(snippet, relpath=self.BROKER,
                   rule_id="QLNT116") == []

    def test_counter_increment_at_module_level_ignored(self, run):
        snippet = ("stats.rejected_capacity += 1\n")
        assert run(snippet, relpath=self.BROKER,
                   rule_id="QLNT116") == []

    def test_other_modules_are_out_of_scope(self, run):
        snippet = ("class Verifier:\n"
                   "    def check(self):\n"
                   "        self.stats.rejected_capacity += 1\n")
        assert run(snippet, relpath="src/repro/monitoring/verifier.py",
                   rule_id="QLNT116") == []


# ----------------------------------------------------------------------
# QLNT117 — raw bus send inside repro.federation
# ----------------------------------------------------------------------

class TestRawFederationSend:
    PLANE = "src/repro/federation/plane.py"

    @pytest.mark.parametrize("snippet", [
        "def f(bus, envelope):\n    return bus.request(envelope)\n",
        "def f(bus, envelope):\n    bus.send_async(envelope)\n",
        ("class Endpoint:\n"
         "    def ping(self, envelope):\n"
         "        return self._bus.request(envelope)\n"),
        ("def f(plane, envelope):\n"
         "    return plane.bus.request(envelope)\n"),
    ])
    def test_raw_send_in_federation_flags(self, run, snippet):
        findings = run(snippet, relpath=self.PLANE, rule_id="QLNT117")
        assert findings and "ResilientCaller" in findings[0].message

    def test_resilient_caller_is_clean(self, run):
        snippet = ("def f(caller, envelope):\n"
                   "    return caller.call(envelope)\n")
        assert run(snippet, relpath=self.PLANE, rule_id="QLNT117") == []

    def test_handler_registration_is_clean(self, run):
        # Registering a handler on the bus is receive-side wiring, not
        # a send; only the send primitives are constrained.
        snippet = ("def wire(bus, endpoint):\n"
                   "    bus.register('fed:d1', endpoint.handle)\n")
        assert run(snippet, relpath=self.PLANE, rule_id="QLNT117") == []

    def test_outside_federation_is_exempt(self, run):
        assert run("def f(bus, e):\n    return bus.request(e)\n",
                   relpath="src/repro/xmlmsg/resilient.py",
                   rule_id="QLNT117") == []

    def test_non_bus_receiver_is_clean(self, run):
        assert run("def f(session, e):\n    return session.request(e)\n",
                   relpath=self.PLANE, rule_id="QLNT117") == []


# ----------------------------------------------------------------------
# QLNT118 — instrumentation side-channel beside the probe
# ----------------------------------------------------------------------

class TestSideChannel:
    BROKER = "src/repro/core/broker.py"

    @pytest.mark.parametrize("snippet", [
        "class C:\n    def __init__(self):\n        self.journal = None\n",
        ("class C:\n    def __init__(self):\n"
         "        self.telemetry: object = None\n"),
        "class C:\n    def wire(self, hub):\n        self._telemetry = hub\n",
        ("class C:\n    def f(self):\n"
         "        if self.decisions is not None:\n            pass\n"),
        ("class C:\n    def f(self):\n"
         "        return self.probe.slo is None\n"),
        ("class C:\n    def f(self):\n"
         "        return self._bus.telemetry is None\n"),
        "class C:\n    def f(self, cb):\n        self.observer = cb\n",
        ("class C:\n    def mute(self):\n"
         "        old, self.journal = self.journal, None\n"),
    ])
    def test_private_channel_flags(self, run, snippet):
        findings = run(snippet, relpath=self.BROKER, rule_id="QLNT118")
        assert findings and "probe" in findings[0].message

    @pytest.mark.parametrize("snippet", [
        # The seam itself: take the probe, call its verbs and predicates.
        ("class C:\n    def __init__(self, probe):\n"
         "        self.probe = probe\n"
         "    def f(self):\n"
         "        self.probe.append('confirm', sla_id=1)\n"
         "        if self.probe.explaining:\n"
         "            self.probe.decide('a', 'b', reason=f'{self}')\n"),
        # An installer filling the shared probe is not a second channel.
        "def install(testbed, journal):\n    testbed.probe.journal = journal\n",
        # Read-side locals (report builders) may test what they were given.
        "def report(testbed):\n    return testbed.slo is not None\n",
        # Stat bundles and other attributes are untouched.
        "class C:\n    def f(self):\n        self.stats.decisions += 1\n",
        "class C:\n    def f(self):\n        return self.faults is None\n",
    ])
    def test_seam_and_read_side_are_clean(self, run, snippet):
        assert run(snippet, relpath=self.BROKER, rule_id="QLNT118") == []

    @pytest.mark.parametrize("relpath", [
        "src/repro/probe.py", "src/repro/obs/flight.py", "src/repro/cli.py",
        "benchmarks/bench_thing.py",
    ])
    def test_probe_and_read_side_modules_are_exempt(self, run, relpath):
        snippet = ("class C:\n    def __init__(self, journal):\n"
                   "        self.journal = journal\n"
                   "    def f(self):\n"
                   "        return self.journal is None\n")
        assert run(snippet, relpath=relpath, rule_id="QLNT118") == []


# ----------------------------------------------------------------------
# Catalogue invariants
# ----------------------------------------------------------------------

def test_rule_catalogue_is_stable():
    rules = all_rules()
    ids = [rule.rule_id for rule in rules]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
    assert len(ids) >= 8
    assert all(rule.title for rule in rules)
    expected = {f"QLNT1{n:02d}" for n in range(1, 19)}
    assert set(ids) == expected
