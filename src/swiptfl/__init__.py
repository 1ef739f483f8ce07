"""Round-based simulator for a UAV-served federated learning network whose
devices split received downlink power between decoding and energy
harvesting."""

__version__ = "0.1.0"
