import pytest

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_recorder():
    def record(num, ok, text):
        line = "ACCEPTANCE %2d: %s - %s" % (num, "PASS" if ok else "FAIL", text)
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line
    return record


@pytest.fixture(scope="session")
def graph_stage():
    from perronbalance.kernels import graph_kernel_stage
    return graph_kernel_stage()


@pytest.fixture(scope="session")
def tree_stage():
    from perronbalance.kernels import tree_kernel_stage
    return tree_kernel_stage()
