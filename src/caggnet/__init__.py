"""Desk-scale crossing-aggregation segmentation engine.

A from-scratch CPU implementation of the CAggNet architecture (crossing
aggregation grid plus weighted aggregation head) with a U-Net baseline,
tape-based reverse-mode differentiation, focal/BCE losses, Adam, pixel
metrics, and bit-exact Netpbm data handling.

Import the submodules (`caggnet.models`, `caggnet.train`, ...); the
package itself exports nothing else. Importing the package (or
`caggnet.cli`) does not load numpy, so the CLI can pin the BLAS thread
count before numpy first loads.
"""

__version__ = "0.1.0"
