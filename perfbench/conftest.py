def pytest_configure(config):
    config.addinivalue_line("markers", "slow: runs whole workloads through run.py")
