"""UWB channel models: IEEE 802.15.4a CM1 and AWGN."""
