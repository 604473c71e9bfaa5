"""crossphy: WiFi-to-ZigBee cross-technology waveform emulation toolkit.

A numpy library that derives a WiFi OFDM payload whose transmitted
waveform decodes on a ZigBee receiver: fixed-weight differentiable DSP
layers with a trainable quantizer, a GF(2) inversion of the WiFi coding
chain, a software O-QPSK/DSSS modem, and an end-to-end simulation harness.
"""

from . import diffblocks, dsp, emulation, gf2, iqfile, sim, solver, wifi, zigbee

__version__ = "0.1.0"
