"""End-to-end host-time benchmark of the simulator (see WHERE_TIME_GOES.md)."""
