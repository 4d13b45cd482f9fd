"""Outside-in benchmark of the planning gateway and the simulator."""
