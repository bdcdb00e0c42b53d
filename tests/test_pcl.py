"""PCL: per-thread cycle counters and read perturbation."""

import pytest

from repro.errors import ReproError
from repro.jvm.costmodel import ChargeTag
from repro.launcher import create_vm


def _vm_with_thread():
    vm = create_vm()
    thread = vm.threads.create("t")
    vm.threads.current = thread
    return vm, thread


class TestTimestamps:
    def test_read_includes_its_own_cost(self):
        vm, thread = _vm_with_thread()
        first = vm.pcl.get_timestamp(thread)
        assert first == vm.cost_model.pcl_read

    def test_back_to_back_reads_differ_by_read_cost(self):
        vm, thread = _vm_with_thread()
        a = vm.pcl.get_timestamp(thread)
        b = vm.pcl.get_timestamp(thread)
        assert b - a == vm.cost_model.pcl_read

    def test_default_thread_is_current(self):
        vm, thread = _vm_with_thread()
        assert vm.pcl.get_timestamp() == thread.cycles_total

    def test_no_current_thread_is_an_error(self):
        vm = create_vm()
        with pytest.raises(ReproError):
            vm.pcl.get_timestamp()

    def test_counter_is_per_thread(self):
        vm, thread = _vm_with_thread()
        other = vm.threads.create("other")
        thread.charge(1000, ChargeTag.BYTECODE)
        assert vm.pcl.peek(other) == 0
        assert vm.pcl.peek(thread) == 1000

    def test_read_tagged_as_agent_by_default(self):
        vm, thread = _vm_with_thread()
        vm.pcl.get_timestamp(thread)
        assert thread.cycles_by_tag[ChargeTag.AGENT] == \
            vm.cost_model.pcl_read

    def test_custom_tag(self):
        vm, thread = _vm_with_thread()
        vm.pcl.get_timestamp(thread, tag=ChargeTag.NATIVE)
        assert thread.cycles_by_tag[ChargeTag.NATIVE] == \
            vm.cost_model.pcl_read

    def test_peek_is_free(self):
        vm, thread = _vm_with_thread()
        before = thread.cycles_total
        vm.pcl.peek(thread)
        assert thread.cycles_total == before

    def test_read_counter_statistics(self):
        vm, thread = _vm_with_thread()
        vm.pcl.get_timestamp(thread)
        vm.pcl.get_timestamp(thread)
        assert vm.pcl_reads == 2
