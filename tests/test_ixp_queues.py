"""Tests for packet queues, the queue bank and discipline wiring."""

import pytest

from repro.ixp.buffers import BufferHandle
from repro.ixp.queues import (
    InputDiscipline,
    OutputDiscipline,
    PacketDescriptor,
    PacketQueue,
    QueueBank,
)


def descriptor(port=0):
    return PacketDescriptor(BufferHandle(0, 1), None, 1, port, 0)


def test_queue_fifo_order():
    queue = PacketQueue(0, 0, capacity=8)
    descs = [descriptor() for __ in range(3)]
    for d in descs:
        assert queue.enqueue(d)
    assert [queue.dequeue() for __ in range(3)] == descs
    assert queue.dequeue() is None


def test_queue_drop_when_full():
    queue = PacketQueue(0, 0, capacity=2)
    assert queue.enqueue(descriptor())
    assert queue.enqueue(descriptor())
    assert not queue.enqueue(descriptor())
    assert queue.dropped == 1
    assert queue.enqueued == 2


def test_queue_depth_tracking():
    queue = PacketQueue(0, 0, capacity=8)
    for __ in range(5):
        queue.enqueue(descriptor())
    queue.dequeue()
    assert len(queue) == 4
    assert queue.max_depth == 5


def test_protected_bank_single_queue_per_port():
    bank = QueueBank(
        InputDiscipline.PROTECTED, OutputDiscipline.SINGLE_BATCHED,
        num_ports=8, num_input_contexts=16,
    )
    assert len(bank.queues) == 8
    q0 = bank.input_queue_for(0)
    q0_again = bank.input_queue_for(0, input_context=7)
    assert q0 is q0_again  # shared public queue


def test_multi_indirect_bank_has_priority_queues():
    bank = QueueBank(
        InputDiscipline.PROTECTED, OutputDiscipline.MULTI_INDIRECT,
        num_ports=4, num_input_contexts=16, queues_per_port=4,
    )
    assert len(bank.queues) == 16
    priorities = {q.priority for q in bank.queues_for_port(0)}
    assert priorities == {0, 1, 2, 3}


def test_private_bank_one_queue_per_context_port_pair():
    bank = QueueBank(
        InputDiscipline.PRIVATE, OutputDiscipline.MULTI_INDIRECT,
        num_ports=8, num_input_contexts=16,
    )
    assert len(bank.queues) == 128
    a = bank.input_queue_for(3, input_context=0)
    b = bank.input_queue_for(3, input_context=1)
    assert a is not b
    assert a.out_port == b.out_port == 3


def test_private_requires_multi_output():
    with pytest.raises(ValueError):
        QueueBank(
            InputDiscipline.PRIVATE, OutputDiscipline.SINGLE_BATCHED,
            num_ports=8, num_input_contexts=16,
        )


def test_max_16_queues_per_port():
    # "this restricts the number of queues that each context can service
    # to a maximum of 16, the number of available registers"
    with pytest.raises(ValueError):
        QueueBank(
            InputDiscipline.PROTECTED, OutputDiscipline.MULTI_INDIRECT,
            num_ports=2, num_input_contexts=16, queues_per_port=17,
        )


def test_select_queue_priority_order():
    bank = QueueBank(
        InputDiscipline.PROTECTED, OutputDiscipline.MULTI_INDIRECT,
        num_ports=1, num_input_contexts=4, queues_per_port=3,
    )
    low = bank.queues_for_port(0)[2]
    high = bank.queues_for_port(0)[0]
    bank.enqueue(low, descriptor())
    bank.enqueue(high, descriptor())
    # Priority 0 drains first (the paper's implemented policy).
    assert bank.select_queue(0) is high
    bank.dequeue(high)
    assert bank.select_queue(0) is low


def test_ready_bits_follow_occupancy():
    bank = QueueBank(
        InputDiscipline.PROTECTED, OutputDiscipline.MULTI_INDIRECT,
        num_ports=1, num_input_contexts=4, queues_per_port=2,
    )
    queue = bank.queues_for_port(0)[0]
    assert bank.select_via_bits(0) is None
    bank.enqueue(queue, descriptor())
    assert bank.ready_bits[queue.queue_id]
    assert bank.select_via_bits(0) is queue
    bank.dequeue(queue)
    assert not bank.ready_bits[queue.queue_id]
    assert bank.select_via_bits(0) is None


def test_bank_totals():
    bank = QueueBank(
        InputDiscipline.PROTECTED, OutputDiscipline.SINGLE_BATCHED,
        num_ports=2, num_input_contexts=4, capacity=1,
    )
    queue = bank.input_queue_for(0)
    bank.enqueue(queue, descriptor())
    bank.enqueue(queue, descriptor())  # dropped: capacity 1
    bank.dequeue(queue)
    assert bank.total_enqueued == 1
    assert bank.total_dequeued == 1
    assert bank.total_dropped == 1


VALID_DISCIPLINE_PAIRS = [
    (inp, out) for inp in InputDiscipline for out in OutputDiscipline
    if inp is InputDiscipline.PROTECTED or out is OutputDiscipline.MULTI_INDIRECT
]


@pytest.mark.parametrize("queues_per_port", [1, 2, 5, 16])
@pytest.mark.parametrize(
    "inp,out", VALID_DISCIPLINE_PAIRS,
    ids=[f"{i.name}-{o.name}" for i, o in VALID_DISCIPLINE_PAIRS])
def test_port_queues_are_built_in_priority_order(inp, out, queues_per_port):
    """select_queue and select_via_bits walk each port's list as built,
    so construction must leave it in non-decreasing priority order."""
    bank = QueueBank(inp, out, num_ports=3, num_input_contexts=4,
                     queues_per_port=queues_per_port)
    for port in range(bank.num_ports):
        queues = bank.queues_for_port(port)
        assert queues
        assert queues == sorted(queues, key=lambda q: q.priority)
