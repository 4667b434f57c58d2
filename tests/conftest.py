import pytest

from pemlab.machine import Machine, MachineConfig


@pytest.fixture
def make_machine():
    def build(p=1, M=1024, B=8, seed=0, **kw):
        return Machine(MachineConfig(p=p, M=M, B=B, seed=seed, **kw))

    return build
