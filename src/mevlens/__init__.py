"""mevlens: MEV detection, opportunity attribution, and cross-layer
sandwich simulation over recorded chain fixtures."""

__version__ = "0.1.0"
