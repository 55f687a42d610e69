"""Shared fixtures for the federated-server tests."""

import pytest


@pytest.fixture
def record_cohorts():
    """Patch a server's executor to log the client ids it receives each round.

    Returns a function ``(server) -> list``; the list gains one tuple of
    client ids per ``run_round`` call, in call order.
    """

    def install(server):
        cohorts = []
        run_round = server.executor.run_round

        def recording(clients, w_global, round_index):
            cohorts.append(tuple(c.client_id for c in clients))
            return run_round(clients, w_global, round_index)

        server.executor.run_round = recording
        return cohorts

    return install
