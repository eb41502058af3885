"""Fake quantization used by the DEFA algorithm evaluation (INT12 / INT8)."""

from repro.quant.quantizer import QuantSpec, dequantize, fake_quantize, quantize
from repro.quant.qmodules import QuantizedLinear

__all__ = [
    "QuantSpec",
    "quantize",
    "dequantize",
    "fake_quantize",
    "QuantizedLinear",
]
